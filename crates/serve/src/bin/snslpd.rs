//! `snslpd` — the long-running SN-SLP compile service.
//!
//! Speaks newline-delimited JSON (one request object per line, one reply
//! per line, per-connection replies in request order). See
//! `snslp_serve::proto` for the wire format.
//!
//! Usage:
//!   `snslpd --socket PATH [flags]`   serve a Unix socket until killed
//!   `snslpd --stdio [flags]`         serve stdin/stdout, exit at EOF
//!
//! Flags:
//!   `--workers N`         threads compiling queued requests (default 2)
//!   `--max-inflight N`    queued-or-running requests before busy (default 256)
//!   `--cache-entries N`   function-cache capacity (default 4096)
//!   `--memo-entries N`    whole-request memo capacity (default 4096)
//!
//! `SNSLP_TRACE=events,json` turns the per-request `serve.access`
//! records into an NDJSON access log on stderr (one line per request
//! with the per-stage nanosecond breakdown).

use std::path::PathBuf;
use std::process::ExitCode;

use snslp_serve::{ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: snslpd (--socket PATH | --stdio) [--workers N] [--max-inflight N] \
         [--cache-entries N] [--memo-entries N]"
    );
    std::process::exit(2);
}

fn parse_num(flag: &str, value: Option<String>) -> usize {
    let Some(v) = value else {
        eprintln!("snslpd: {flag} needs a positive integer argument");
        usage();
    };
    match v.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("snslpd: invalid {flag} value {v:?} (expected a positive integer)");
            usage();
        }
    }
}

fn main() -> ExitCode {
    if let Err(e) = snslp_trace::init_from_env() {
        eprintln!("snslpd: {e}");
        return ExitCode::from(2);
    }
    let mut cfg = ServeConfig::default();
    let mut socket: Option<PathBuf> = None;
    let mut stdio = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => match args.next() {
                Some(p) => socket = Some(PathBuf::from(p)),
                None => {
                    eprintln!("snslpd: --socket needs a path argument");
                    usage();
                }
            },
            "--stdio" => stdio = true,
            "--workers" => cfg.workers = parse_num("--workers", args.next()),
            "--max-inflight" => cfg.max_inflight = parse_num("--max-inflight", args.next()),
            "--cache-entries" => cfg.cache_entries = parse_num("--cache-entries", args.next()),
            "--memo-entries" => cfg.memo_entries = parse_num("--memo-entries", args.next()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("snslpd: unknown argument {other}");
                usage();
            }
        }
    }
    if stdio == socket.is_some() {
        eprintln!("snslpd: pass exactly one of --socket PATH or --stdio");
        usage();
    }

    let mut server = Server::start(cfg);
    if let Some(path) = socket {
        if let Err(e) = server.bind_unix(&path) {
            eprintln!("snslpd: cannot bind {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("snslpd: listening on {}", path.display());
        // Serve until killed. The accept loop and queue workers own the
        // process from here.
        loop {
            std::thread::park();
        }
    }
    server.serve_stdio();
    server.shutdown();
    ExitCode::SUCCESS
}
