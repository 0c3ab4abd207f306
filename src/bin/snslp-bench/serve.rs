//! `snslp-bench serve`: the load generator for the compile service.
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
//! the same shape-invariant gate as `check serve` and the exit status
//! reflects it.

use std::path::PathBuf;

use snslp::bench::json::MAX_COUNT;
use snslp::bench::servebench::check_serve;
use snslp::serve::{run_loadgen, LoadgenOptions, ServeConfig, Server};

use crate::{write, Args, Error, Outcome};

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

pub fn run(argv: &[String]) -> Outcome {
    let args = Args::parse(
        argv,
        &[
            "--socket",
            "--clients",
            "--requests",
            "--functions",
            "--seed",
            "--mode",
            "--target-isa",
            "--out",
        ],
        &["--spawn", "--check"],
    )?;
    args.exactly::<0>("no positional arguments")?;
    let defaults = LoadgenOptions::default();
    let opts = LoadgenOptions {
        clients: args.parsed("--clients")?.unwrap_or(defaults.clients),
        requests_per_client: args
            .parsed("--requests")?
            .unwrap_or(defaults.requests_per_client),
        functions_per_module: args
            .parsed("--functions")?
            .unwrap_or(defaults.functions_per_module),
        seed: args.parsed("--seed")?.unwrap_or(defaults.seed),
        mode: args.value("--mode").map_or(defaults.mode, str::to_string),
        target: args
            .value("--target-isa")
            .map_or(defaults.target, str::to_string),
    };
    // The report carries the seed as a JSON number.
    if opts.seed > MAX_COUNT {
        return Err(Error::usage(format!(
            "--seed must be at most 2^53 ({MAX_COUNT})"
        )));
    }
    let socket = args.value("--socket").map(PathBuf::from);
    let spawn = args.switch("--spawn");
    if spawn && socket.is_some() {
        return Err(Error::usage("--spawn and --socket are mutually exclusive"));
    }
    if opts.clients == 0 || opts.requests_per_client == 0 || opts.functions_per_module == 0 {
        return Err(Error::usage(
            "--clients/--requests/--functions must be positive",
        ));
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
                    .filter(|p| p.exists())
                    .ok_or_else(|| {
                        Error::failed("cannot find a sibling snslpd binary for --spawn")
                    })?;
                let spawned = std::process::Command::new(&snslpd)
                    .args(["--socket"])
                    .arg(&path)
                    .spawn()
                    .map_err(|e| {
                        Error::failed(format!("cannot spawn {}: {e}", snslpd.display()))
                    })?;
                child = Some(spawned);
            } else {
                let mut server = Server::start(ServeConfig::default());
                server
                    .bind_unix(&path)
                    .map_err(|e| Error::failed(format!("cannot bind {}: {e}", path.display())))?;
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

    let report = result.map_err(Error::failed)?;
    let json = report.to_json();
    println!("{json}");
    if let Some(out) = args.value("--out") {
        write(out, &json)?;
        eprintln!("snslp-bench: wrote report to {out}");
    }
    if args.switch("--check") {
        let summary = check_serve(&report, "fresh")
            .map_err(|e| Error::failed(format!("gate failed: {e}")))?;
        eprint!("{summary}");
    }
    Ok(())
}
