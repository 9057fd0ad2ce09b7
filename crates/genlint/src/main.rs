//! CLI driver for genlint.
//!
//! ```text
//! genlint [--root DIR] [--config FILE] [--deny] [--lock-graph] [--list-rules]
//! ```
//!
//! * `--root` — workspace root to scan (default: current directory).
//! * `--config` — config path (default: `<root>/genlint.toml`; scanning
//!   without one uses built-in defaults, which declare no mutator sets or
//!   locks — fine for fixtures, wrong for CI).
//! * `--deny` — exit 1 when any finding survives the baseline (CI mode).
//! * `--lock-graph` — print the observed whole-program lock acquisition
//!   graph and exit (debugging surface for the `lock-order-graph` rule).
//! * `--list-rules` — print the rule registry and exit.
//!
//! Exit codes: 0 clean (or findings without `--deny`), 1 findings under
//! `--deny`, 2 usage/config/I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    deny: bool,
    lock_graph: bool,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        deny: false,
        lock_graph: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a file")?));
            }
            "--deny" => args.deny = true,
            "--lock-graph" => args.lock_graph = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                return Err("usage: genlint [--root DIR] [--config FILE] [--deny] \
                            [--lock-graph] [--list-rules]"
                    .to_owned())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.list_rules {
        for rule in genlint::rules::registry() {
            println!("{:<18} {}", rule.name(), rule.description());
        }
        let (name, desc) = genlint::rules::LOCK_ORDER_GRAPH;
        println!("{name:<18} {desc} (whole-program pass)");
        return Ok(ExitCode::SUCCESS);
    }
    let config_path = args
        .config
        .clone()
        .unwrap_or_else(|| args.root.join("genlint.toml"));
    let cfg = if config_path.exists() {
        let text = std::fs::read_to_string(&config_path)
            .map_err(|e| format!("{}: {e}", config_path.display()))?;
        genlint::config::parse(&text).map_err(|e| e.to_string())?
    } else if args.config.is_some() {
        return Err(format!("config not found: {}", config_path.display()));
    } else {
        genlint::config::Config::default()
    };
    if args.lock_graph {
        let text = genlint::lock_graph(&args.root, &cfg)
            .map_err(|e| format!("lock graph of {}: {e}", args.root.display()))?;
        print!("{text}");
        return Ok(ExitCode::SUCCESS);
    }
    let result = genlint::scan(&args.root, &cfg)
        .map_err(|e| format!("scan of {}: {e}", args.root.display()))?;
    print!("{}", genlint::report::human(&result));
    if args.deny && !result.findings.is_empty() {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("genlint: {message}");
            ExitCode::from(2)
        }
    }
}
