//! Running one read request: over the wire against `serve::Server`, or
//! in-process against a live `GenMapper` (the same endpoints, answered
//! through the library instead of a socket).

use genmapper::cli::parse_query;
use genmapper::GenMapper;
use std::fmt::Write as _;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// One persistent connection speaking the line protocol, closed loop.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::with_capacity(64 * 1024, writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Send `line`, wait for the framed reply. A refused request (`err`)
    /// is an `Err` carrying the server's message.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer
            .write_all(framed.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        match serve::read_response(&mut self.reader) {
            Ok((true, body)) => Ok(body),
            Ok((false, body)) => Err(format!("refused: {}", body.trim_end())),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// The `info` body, as the service's handler writes it.
pub fn render_info(
    accession: &str,
    source: &str,
    text: &Option<String>,
    number: Option<f64>,
    associations: &[(String, String, Option<f64>)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{accession} ({source}) name={text:?} number={number:?}"
    );
    for (partner_source, partner, evidence) in associations {
        let _ = match evidence {
            Some(ev) => writeln!(out, "  -> {partner_source}: {partner} (~{ev:.2})"),
            None => writeln!(out, "  -> {partner_source}: {partner}"),
        };
    }
    out
}

/// Answer `line` from a live system, rendering what the service's
/// handler renders for the same endpoint.
pub fn call_in_process(gm: &GenMapper, line: &str) -> Result<String, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let e = |e: genmapper::GamError| e.to_string();
    match words.as_slice() {
        ["info", source, accession] => {
            let info = gm.object_info(source, accession).map_err(e)?;
            Ok(render_info(
                &info.accession,
                &info.source,
                &info.text,
                info.number,
                &info.associations,
            ))
        }
        ["query", rest @ ..] => {
            let spec = parse_query(rest).map_err(|e| e.to_string())?;
            Ok(gm.query(&spec).map_err(e)?.to_tsv())
        }
        ["path", from, to] => Ok(format!(
            "{}\n",
            gm.find_path(from, to).map_err(e)?.join(" -> ")
        )),
        ["paths", from, to, k] => {
            let k: usize = k
                .parse()
                .map_err(|_| "paths takes a numeric k".to_owned())?;
            let mut out = String::new();
            for path in gm.find_paths(from, to, k).map_err(e)? {
                let _ = writeln!(out, "{}", path.join(" -> "));
            }
            Ok(out)
        }
        ["sources"] => {
            let mut out = String::new();
            for s in gm.sources().map_err(e)? {
                let _ = writeln!(out, "{}\t{}\t{}", s.name, s.content, s.structure);
            }
            Ok(out)
        }
        ["stats"] => Ok(format!("{}\n", gm.cardinalities().map_err(e)?)),
        _ => Err(format!("unknown request {line:?}")),
    }
}

/// The `(v0, v1)` of a `stats` body's `snapshot version v0.v1` line.
pub fn snapshot_version(stats_body: &str) -> Option<(u64, u64)> {
    let rest = stats_body
        .lines()
        .find_map(|l| l.strip_prefix("snapshot version "))?;
    let (a, b) = rest.trim().split_once('.')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}
