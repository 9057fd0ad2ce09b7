//! gmbench — the end-to-end benchmark of the GenMapper reproduction.
//!
//! `gmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints every metric by name with its unit and, as the last line of
//! standard output, one JSON object `{correct, attempted, failed, metrics}`.

mod affinity;
mod alloc;
mod bench;
mod exec;
mod gen;
mod oracle;
mod refk;
mod report;
mod stats;
mod trace;
mod traced;
mod vfs;

use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: gmbench --workload <load_recover|serve_reads|paged_live> \
[--seed N] [--seconds S] [--trace 0|1] [--scale F] [--out DIR] [--self-test]";

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, started) {
        Ok(()) => {}
        Err(msg) => {
            eprintln!("gmbench: {msg}");
            std::process::exit(2);
        }
    }
}

fn run(args: &[String], started: Instant) -> Result<(), String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 36.0f64;
    let mut traced = false;
    let mut scale = 0.05f64;
    let mut out = PathBuf::from("scripts/e2e/out");
    let mut self_test = false;
    if let [flag, dir] = args {
        if flag == "--aa-report" {
            return match report::aa_report(std::path::Path::new(dir))? {
                true => Ok(()),
                false => Err(
                    "A/A: at least one gated (metric, workload) pair missed its bound".to_owned(),
                ),
            };
        }
    }
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => traced = value()? == "1",
            "--scale" => scale = value()?.parse().map_err(|_| "--scale takes a number")?,
            "--out" => out = PathBuf::from(value()?),
            "--self-test" => self_test = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let name = workload.ok_or(USAGE)?;
    let workload = bench::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    if !(seconds > 0.0 && scale > 0.0) {
        return Err("--seconds and --scale must be positive".to_owned());
    }
    match affinity::pin_to_one_cpu() {
        Some(cpu) => println!("pinned  to cpu {cpu}"),
        None => println!(
            "pinned  no: the platform refused; round-trip times depend on thread placement"
        ),
    }
    let dir = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cfg = bench::Config {
        workload,
        seed,
        seconds,
        scale,
        self_test,
        dir: dir.clone(),
        started,
    };
    if traced {
        trace::enable();
    }
    let mut run = bench::Run::set_up(cfg).inspect_err(|_| {
        // a set-up that gave up must not leave its stores behind
        let _ = std::fs::remove_dir_all(&dir);
    })?;
    let measured = run.measure();
    let torn_down = run.tear_down();
    measured?;
    torn_down?;
    if traced {
        report::per_layer(&run, &out)
    } else {
        report::end_to_end(&run);
        Ok(())
    }
}
