//! The `snslp-bench serve` load generator: fixed-seed synthetic traffic
//! replayed against a running `snslpd`, measured into the
//! `snslp-serve-bench/v2` report.
//!
//! Traffic is fully deterministic given `(seed, clients,
//! requests_per_client, functions_per_module)`: every request module is
//! built from [`snslp_fuzz::generate`] cases at unique indices, so the
//! *cold* phase never repeats a body and the *warm* phase (an exact
//! replay of the same lines) should be answered entirely from the
//! server's caches. Clients are closed-loop: each sends its next request
//! only after the previous reply, retrying `busy` refusals with a short
//! backoff (counted, never dropped).

use std::path::Path;
use std::time::Instant;

use snslp_bench::servebench::{
    percentile, CachePhase, Phase, PhaseStats, ServeBenchReport, ServerPhase,
};

use crate::client::Client;
use crate::telemetry::TelemetrySnapshot;

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Closed-loop client connections.
    pub clients: usize,
    /// Requests each client sends per phase.
    pub requests_per_client: usize,
    /// Fuzz functions per request module.
    pub functions_per_module: usize,
    /// Fuzz-generator seed.
    pub seed: u64,
    /// Pass mode requested (`snslp` unless overridden).
    pub mode: String,
    /// Target requested.
    pub target: String,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        // Two closed-loop clients: enough concurrency to keep both
        // workers busy, few enough that warm-phase latency on a
        // single-core host measures the server, not core time-sharing.
        // Twelve functions per module keeps the cold/warm latency ratio
        // far from the 5x gate: cold compile time scales linearly with
        // functions, while a warm (memo) request only pays text
        // hashing and socket I/O, which scale much flatter.
        LoadgenOptions {
            clients: 2,
            requests_per_client: 24,
            functions_per_module: 12,
            seed: 0xC60_2019,
            mode: "snslp".to_string(),
            target: "avx2".to_string(),
        }
    }
}

/// Builds one request module's text: `functions_per_module` fuzz cases
/// at consecutive indices, printed back-to-back.
fn module_text(opts: &LoadgenOptions, first_index: u64) -> String {
    let mut text = String::new();
    for k in 0..opts.functions_per_module as u64 {
        let case = snslp_fuzz::generate(opts.seed, first_index + k);
        text.push_str(&case.function.to_string());
        text.push('\n');
    }
    text
}

/// The full deterministic corpus: `clients × requests_per_client`
/// modules, disjoint function indices throughout.
fn build_corpus(opts: &LoadgenOptions) -> Vec<Vec<String>> {
    (0..opts.clients)
        .map(|c| {
            (0..opts.requests_per_client)
                .map(|r| {
                    let first =
                        ((c * opts.requests_per_client + r) * opts.functions_per_module) as u64;
                    module_text(opts, first)
                })
                .collect()
        })
        .collect()
}

/// One phase-boundary telemetry snapshot, strictly validated. Both the
/// cache deltas and the server-side latency section come from these, so
/// the report's server accounting is exactly what the `stats` op serves.
fn scrape_telemetry(socket: &Path) -> Result<TelemetrySnapshot, String> {
    let mut client = Client::connect(socket).map_err(|e| format!("stats connect: {e}"))?;
    client.telemetry()
}

/// The server's latency accounting between two snapshots: the
/// `request_total` histogram delta, quantiles in microseconds.
fn server_phase(after: &TelemetrySnapshot, before: &TelemetrySnapshot) -> ServerPhase {
    let window = after.delta(before);
    let total = window.hist("request_total").cloned().unwrap_or_default();
    ServerPhase {
        requests: window.counters.requests_served,
        p50_us: total.quantile(50.0) as f64 / 1e3,
        p90_us: total.quantile(90.0) as f64 / 1e3,
        p99_us: total.quantile(99.0) as f64 / 1e3,
    }
}

/// Runs one phase: every client replays its request list; returns
/// latencies in µs (all clients pooled), busy count, and wall seconds.
fn run_phase(
    socket: &Path,
    corpus: &[Vec<String>],
    opts: &LoadgenOptions,
) -> Result<(Vec<f64>, u64, f64), String> {
    let t0 = Instant::now();
    let results: Vec<Result<(Vec<f64>, u64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = corpus
            .iter()
            .map(|requests| {
                s.spawn(move || -> Result<(Vec<f64>, u64), String> {
                    let mut client =
                        Client::connect(socket).map_err(|e| format!("connect: {e}"))?;
                    let mut latencies = Vec::with_capacity(requests.len());
                    let mut busy = 0u64;
                    for text in requests {
                        let start = Instant::now();
                        let (reply, retries) =
                            client.compile(text, &opts.mode, &opts.target, &[])?;
                        if reply.status != crate::proto::STATUS_OK {
                            return Err(format!(
                                "compile failed: {}",
                                reply.error.as_deref().unwrap_or("unknown error")
                            ));
                        }
                        latencies.push(start.elapsed().as_secs_f64() * 1e6);
                        busy += retries;
                    }
                    Ok((latencies, busy))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    let mut busy = 0u64;
    for r in results {
        let (l, b) = r?;
        latencies.extend(l);
        busy += b;
    }
    Ok((latencies, busy, wall))
}

fn phase_stats(latencies: &mut [f64], busy: u64, wall: f64) -> PhaseStats {
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    PhaseStats {
        requests: latencies.len(),
        busy: busy as usize,
        p50_us: percentile(latencies, 50.0),
        p90_us: percentile(latencies, 90.0),
        p99_us: percentile(latencies, 99.0),
        mean_us: mean,
        throughput_rps: if wall > 0.0 {
            latencies.len() as f64 / wall
        } else {
            0.0
        },
    }
}

/// Runs the cold + warm phases against the server at `socket` and
/// assembles the report.
///
/// # Errors
///
/// Connection failures, compile errors, or malformed stats replies.
pub fn run_loadgen(socket: &Path, opts: &LoadgenOptions) -> Result<ServeBenchReport, String> {
    let corpus = build_corpus(opts);

    let before_cold = scrape_telemetry(socket)?;
    let (mut cold_lat, cold_busy, cold_wall) = run_phase(socket, &corpus, opts)?;
    let after_cold = scrape_telemetry(socket)?;

    let (mut warm_lat, warm_busy, warm_wall) = run_phase(socket, &corpus, opts)?;
    let after_warm = scrape_telemetry(socket)?;

    let delta = |a: &TelemetrySnapshot, b: &TelemetrySnapshot| CachePhase {
        hits: b.cache.hits.saturating_sub(a.cache.hits),
        misses: b.cache.misses.saturating_sub(a.cache.misses),
        evictions: b.cache.evictions.saturating_sub(a.cache.evictions),
    };
    Ok(ServeBenchReport {
        clients: opts.clients,
        requests_per_client: opts.requests_per_client,
        functions_per_module: opts.functions_per_module,
        seed: opts.seed,
        cold: Phase {
            stats: phase_stats(&mut cold_lat, cold_busy, cold_wall),
            cache: delta(&before_cold, &after_cold),
            server: server_phase(&after_cold, &before_cold),
        },
        warm: Phase {
            stats: phase_stats(&mut warm_lat, warm_busy, warm_wall),
            cache: delta(&after_cold, &after_warm),
            server: server_phase(&after_warm, &after_cold),
        },
    })
}
