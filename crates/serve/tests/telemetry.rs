//! End-to-end checks of `snslpd`'s runtime telemetry: the recording
//! policy (only successful compiles enter the latency histograms) and the
//! strict `snslpd-telemetry/v1` snapshot round trip — both observed
//! through a live in-process server driven with fuzz-generated traffic.
//! The access-log cross-check lives in `access_log.rs`, alone in its
//! binary, because it captures the process-global trace stream.

use std::io::{BufRead, BufReader, Write};

use snslp_bench::json::Json;
use snslp_serve::telemetry::TelemetrySnapshot;
use snslp_serve::{Client, Reply, Request, ServeConfig, Server, STATUS_BUSY, STATUS_OK};

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

/// Floods a `max_inflight = 1` server and checks the recording policy:
/// busy refusals land in their own counter and never contaminate the
/// latency histograms, whose populations must equal the accepted count
/// exactly.
#[test]
fn busy_refusals_stay_out_of_the_histograms() {
    const FLOOD: usize = 24;
    let server = Server::start(ServeConfig {
        shards: 1,
        queue_depth: 1,
        max_inflight: 1,
        batch_max: 1,
        ..ServeConfig::default()
    });
    let stream = server.connect_in_process().expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let reader = BufReader::new(stream);

    // Pipeline the flood without waiting for replies so admission
    // control actually trips.
    let replies: Vec<Reply> = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            reader
                .lines()
                .take(FLOOD)
                .map(|l| Reply::parse(&l.expect("reply line")).expect("parse reply"))
                .collect::<Vec<_>>()
        });
        for i in 0..FLOOD {
            let text = module(0xB057, i as u64 * 4, 2);
            let line = Request::render_compile(i as u64, &text, MODE, TARGET, &[]);
            writeln!(writer, "{line}").expect("pipelined send");
        }
        writer.flush().expect("flush flood");
        collector.join().expect("collector")
    });

    let busy = replies.iter().filter(|r| r.status == STATUS_BUSY).count() as u64;
    let ok = replies.iter().filter(|r| r.status == STATUS_OK).count() as u64;
    assert_eq!(busy + ok, FLOOD as u64);
    assert!(
        busy > 0,
        "a 24-deep pipeline against max_inflight=1 must refuse"
    );

    let snap = server.state().telemetry_snapshot();
    assert_eq!(snap.counters.busy_replies, busy);
    assert_eq!(snap.counters.requests_served, ok);
    let count = |name: &str| snap.hist(name).expect(name).count;
    assert_eq!(
        count("request_total"),
        ok,
        "busy refusals must not enter the latency histograms"
    );
    assert_eq!(count("compile_hit") + count("compile_miss"), ok);
    // Refused requests still have their bytes accounted.
    assert!(snap.counters.bytes_out > 0);
    assert_eq!(snap.gauges.peak_inflight, 1, "admission cap respected");
    server.shutdown();
}

/// The `stats` wire document round-trips byte-for-byte through the
/// strict reader, and tampered documents are rejected — checked against
/// a live server rather than a hand-built snapshot.
#[test]
fn live_snapshot_round_trips_and_rejects_tampering() {
    let server = Server::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::from_stream(server.connect_in_process().expect("connect"));
    let text = module(0x57A75, 0, 3);
    let (reply, _) = client.compile(&text, MODE, TARGET, &[]).expect("compile");
    assert_eq!(reply.status, STATUS_OK);

    let reply = client.stats().expect("stats");
    let doc = reply.json.get("telemetry").expect("telemetry member");
    let snap = TelemetrySnapshot::from_json(doc).expect("strict read");
    assert_eq!(
        snap.to_json().render_compact(),
        doc.render_compact(),
        "snapshot must re-serialize to the exact wire document"
    );

    // Any single-field tamper must be caught by the re-validating
    // reader: cross-invariants tie the counters to the histograms.
    let wire = doc.render_compact();
    let tampered = wire.replace("\"requests_served\":1", "\"requests_served\":2");
    assert_ne!(wire, tampered, "tamper target must exist in the document");
    let parsed = Json::parse(&tampered).expect("still JSON");
    let err = TelemetrySnapshot::from_json(&parsed).expect_err("tamper detected");
    assert!(err.contains("requests_served"), "{err}");
    server.shutdown();
}
