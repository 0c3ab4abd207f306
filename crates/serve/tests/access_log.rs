//! The access-log cross-check of `snslpd`'s runtime telemetry: the
//! per-stage accounting behind every `serve.access` record, checked
//! against the server's snapshot and the client's reply tally.
//!
//! This file must stay a single `#[test]`: it captures the
//! process-global NDJSON trace stream, so a sibling test running a
//! server in the same binary would add its records to the capture.

use snslp_bench::tracecheck::validate_access_log;
use snslp_serve::telemetry::TelemetrySnapshot;
use snslp_serve::{Client, ServeConfig, Server, STATUS_ERROR, STATUS_OK};
use snslp_trace::Facet;

const MODE: &str = "snslp";
const TARGET: &str = "avx2";

/// A module of `n` fuzz functions at consecutive case indices.
fn module(seed: u64, first: u64, n: u64) -> String {
    let mut text = String::new();
    for k in 0..n {
        let case = snslp_fuzz::generate(seed, first + k);
        text.push_str(&case.function.to_string());
        text.push('\n');
    }
    text
}

/// Drives fuzz traffic through a live server while capturing the NDJSON
/// trace stream, then cross-checks three independent accountings of the
/// same run: the client's reply tally, the server's telemetry snapshot,
/// and the validated access log.
#[test]
fn access_log_agrees_with_snapshot_and_client() {
    const DISTINCT: u64 = 6;
    const REPLAYED: u64 = 4;

    let mut snap: Option<TelemetrySnapshot> = None;
    let lines = snslp_trace::capture_json(Facet::Events as u32, || {
        // One worker: every request takes the same code path,
        // which keeps the access-log assertions exact.
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let mut client = Client::from_stream(server.connect_in_process().expect("connect"));

        // Six distinct modules (cold compiles), then an exact replay of
        // the first four (whole-request memo hits).
        for i in 0..DISTINCT {
            let text = module(0xACCE55, i * 8, 3);
            let (reply, _) = client.compile(&text, MODE, TARGET, &[]).expect("compile");
            assert_eq!(reply.status, STATUS_OK);
        }
        for i in 0..REPLAYED {
            let text = module(0xACCE55, i * 8, 3);
            let (reply, _) = client.compile(&text, MODE, TARGET, &[]).expect("replay");
            assert_eq!(reply.status, STATUS_OK);
        }
        // One malformed request line: answered with an error reply, which
        // must show up in the log as `invalid`/`error` and stay out of
        // the latency histograms.
        let reply = client
            .round_trip("{\"op\":\"no-such-op\"}")
            .expect("error round trip");
        assert_eq!(reply.status, STATUS_ERROR);

        snap = Some(client.telemetry().expect("validated snapshot"));
        server.shutdown();
    });
    let snap = snap.expect("snapshot scraped inside the capture");

    // Server-side accounting: only the ten successful compiles are
    // histogram material; the memo replays split the compile stage.
    let c = &snap.counters;
    assert_eq!(c.requests_served, DISTINCT + REPLAYED);
    assert_eq!(c.memo_hits, REPLAYED);
    assert_eq!(c.invalid_requests, 1);
    // `error_replies` tracks *compile* failures only; the malformed line
    // is accounted once, under `invalid_requests`.
    assert_eq!(c.error_replies, 0);
    assert_eq!(c.busy_replies, 0);
    let count = |name: &str| snap.hist(name).expect(name).count;
    assert_eq!(count("request_total"), DISTINCT + REPLAYED);
    assert_eq!(count("compile_miss"), DISTINCT);
    assert_eq!(count("compile_hit"), REPLAYED);
    for stage in ["parse", "queue", "render", "write"] {
        assert_eq!(count(stage), DISTINCT + REPLAYED, "stage `{stage}`");
    }

    // The NDJSON stream must validate, and its tallies must match: one
    // access record per request (the stage-sum invariant — parse + queue
    // + compile + render + write == total — is checked per record by the
    // validator). The stats request that scraped the snapshot is
    // answered (and logged) before the reply reaches the client, so it
    // is part of the capture; the snapshot itself was rendered before
    // that record was sealed, hence `stats_requests == 0` above it.
    assert_eq!(c.stats_requests, 0);
    let log = lines.join("\n");
    let access = validate_access_log(&log).expect("access log validates");
    assert_eq!(access.requests as u64, DISTINCT + REPLAYED + 1 + 1);
    assert_eq!(access.by_cache["compiled"] as u64, DISTINCT);
    assert_eq!(access.by_cache["memo"] as u64, REPLAYED);
    assert_eq!(access.by_cache["none"], 2, "stats + invalid");
    assert_eq!(access.by_status["ok"] as u64, DISTINCT + REPLAYED + 1);
    assert_eq!(access.by_status["error"], 1);
}
