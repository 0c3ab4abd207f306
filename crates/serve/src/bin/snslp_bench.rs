//! `snslp-bench` — load generator for the compile service.
//!
//! Usage:
//!   `snslp-bench serve [target] [traffic flags] [--out FILE] [--check]`
//!
//! Target (pick one):
//!   `--socket PATH`   drive an already-running snslpd
//!   `--spawn`         spawn the sibling `snslpd` binary on a temp socket
//!   (neither)         start an in-process server on a temp socket
//!
//! Traffic flags:
//!   `--clients N` `--requests N` `--functions N` `--seed N`
//!   `--mode slp|lslp|snslp` `--target-isa sse2|avx2|noaltop`
//!
//! Output: the `snslp-serve-bench/v2` report JSON on stdout (and to
//! `--out FILE`). With `--check`, the report is additionally run through
//! the same shape-invariant gate as `bench_check serve` and the exit
//! status reflects it.

use std::path::PathBuf;
use std::process::ExitCode;

use snslp_bench::json::MAX_COUNT;
use snslp_bench::servebench::{check_serve, ServeBenchReport};
use snslp_serve::{run_loadgen, LoadgenOptions, ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: snslp-bench serve [--socket PATH | --spawn] [--clients N] [--requests N] \
         [--functions N] [--seed N] [--mode M] [--target-isa T] [--out FILE] [--check]"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value.and_then(|v| v.parse::<T>().ok()).unwrap_or_else(|| {
        eprintln!("snslp-bench: {flag} needs a numeric argument");
        usage();
    })
}

/// Blocks until `path` exists (the daemon's readiness signal).
fn wait_for_socket(path: &std::path::Path) -> Result<(), String> {
    for _ in 0..2000 {
        if path.exists() {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    Err(format!("timed out waiting for socket {}", path.display()))
}

fn temp_socket() -> PathBuf {
    std::env::temp_dir().join(format!("snslpd-bench-{}.sock", std::process::id()))
}

fn serve_main(args: &[String]) -> ExitCode {
    let mut opts = LoadgenOptions::default();
    let mut socket: Option<PathBuf> = None;
    let mut spawn = false;
    let mut out: Option<String> = None;
    let mut check = false;
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => socket = it.next().map(PathBuf::from),
            "--spawn" => spawn = true,
            "--clients" => opts.clients = parse_num("--clients", it.next()),
            "--requests" => opts.requests_per_client = parse_num("--requests", it.next()),
            "--functions" => opts.functions_per_module = parse_num("--functions", it.next()),
            "--seed" => {
                opts.seed = parse_num("--seed", it.next());
                // The report carries the seed as a JSON number.
                if opts.seed > MAX_COUNT {
                    eprintln!("snslp-bench: --seed must be at most 2^53 ({MAX_COUNT})");
                    usage();
                }
            }
            "--mode" => opts.mode = it.next().unwrap_or_else(|| usage()),
            "--target-isa" => opts.target = it.next().unwrap_or_else(|| usage()),
            "--out" => out = Some(it.next().unwrap_or_else(|| usage())),
            "--check" => check = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("snslp-bench: unknown argument {other}");
                usage();
            }
        }
    }
    if spawn && socket.is_some() {
        eprintln!("snslp-bench: --spawn and --socket are mutually exclusive");
        usage();
    }
    if opts.clients == 0 || opts.requests_per_client == 0 || opts.functions_per_module == 0 {
        eprintln!("snslp-bench: --clients/--requests/--functions must be positive");
        usage();
    }

    // Stand the server up (or point at one), run, then tear down.
    let mut child: Option<std::process::Child> = None;
    let mut local: Option<Server> = None;
    let socket_path = match socket {
        Some(path) => path,
        None => {
            let path = temp_socket();
            if spawn {
                let snslpd = std::env::current_exe()
                    .ok()
                    .and_then(|p| p.parent().map(|d| d.join("snslpd")))
                    .filter(|p| p.exists());
                let Some(snslpd) = snslpd else {
                    eprintln!("snslp-bench: cannot find a sibling snslpd binary for --spawn");
                    return ExitCode::FAILURE;
                };
                match std::process::Command::new(&snslpd)
                    .args(["--socket"])
                    .arg(&path)
                    .spawn()
                {
                    Ok(c) => child = Some(c),
                    Err(e) => {
                        eprintln!("snslp-bench: cannot spawn {}: {e}", snslpd.display());
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                let mut server = Server::start(ServeConfig::default());
                if let Err(e) = server.bind_unix(&path) {
                    eprintln!("snslp-bench: cannot bind {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                local = Some(server);
            }
            path
        }
    };

    let result = wait_for_socket(&socket_path).and_then(|()| run_loadgen(&socket_path, &opts));

    if let Some(mut child) = child {
        let _ = child.kill();
        let _ = child.wait();
        let _ = std::fs::remove_file(&socket_path);
    }
    if let Some(server) = local {
        server.shutdown();
    }

    let report: ServeBenchReport = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("snslp-bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let json = report.to_json();
    println!("{json}");
    if let Some(out) = &out {
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("snslp-bench: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("snslp-bench: wrote report to {out}");
    }
    if check {
        match check_serve(&report, "fresh") {
            Ok(summary) => eprint!("{summary}"),
            Err(e) => {
                eprintln!("snslp-bench: gate failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => serve_main(&argv[1..]),
        _ => usage(),
    }
}
