//! Floods a deliberately tiny server far past its in-flight limit and
//! checks the backpressure contract:
//!
//! * overload produces `busy` replies — never dropped connections or
//!   silently swallowed requests (exactly one reply per request);
//! * per-connection replies come back in request order even though
//!   compiles finish asynchronously;
//! * every *accepted* request still gets the correct, deterministic
//!   reply (byte-identical to an unloaded server's answer).

use std::io::{BufRead, BufReader, Write};

use snslp_serve::proto::Request;
use snslp_serve::{Client, ServeConfig, Server, STATUS_BUSY, STATUS_OK};

const MODE: &str = "snslp";
const TARGET: &str = "avx2";
const FLOOD: usize = 60;

/// A tiny server: one worker, four requests in flight.
fn tiny_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_inflight: 4,
        ..ServeConfig::default()
    }
}

/// Distinct module texts (no two requests can share cache entries).
fn flood_modules() -> Vec<String> {
    (0..FLOOD as u64)
        .map(|i| {
            let mut text = String::new();
            for k in 0..4 {
                let case = snslp_fuzz::generate(0xF100D, i * 4 + k);
                text.push_str(&case.function.to_string());
                text.push('\n');
            }
            text
        })
        .collect()
}

#[test]
fn flood_past_inflight_limit_yields_busy_not_drops() {
    let modules = flood_modules();
    let server = Server::start(tiny_config());
    let stream = server.connect_in_process().expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let reader = BufReader::new(stream);

    // Pipeline the whole flood without waiting for replies, while a
    // sibling thread collects every reply line in arrival order.
    let replies: Vec<String> = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            reader
                .lines()
                .take(FLOOD)
                .map(|l| l.expect("reply line"))
                .collect::<Vec<_>>()
        });
        for (i, text) in modules.iter().enumerate() {
            let line = Request::render_compile(i as u64, text, MODE, TARGET, &[]);
            writeln!(writer, "{line}").expect("pipelined send");
        }
        writer.flush().expect("flush flood");
        collector.join().expect("collector thread")
    });

    // One reply per request — nothing dropped, nothing duplicated.
    assert_eq!(replies.len(), FLOOD, "every request must be answered");

    // Replies in request order: ids must be exactly 0..FLOOD in order.
    let parsed: Vec<snslp_serve::Reply> = replies
        .iter()
        .map(|raw| snslp_serve::Reply::parse(raw).expect("parse reply"))
        .collect();
    let ids: Vec<u64> = parsed.iter().map(|r| r.id).collect();
    let expected: Vec<u64> = (0..FLOOD as u64).collect();
    assert_eq!(ids, expected, "replies must arrive in request order");

    // The flood must actually overload the tiny server.
    let busy = parsed.iter().filter(|r| r.status == STATUS_BUSY).count();
    let ok = parsed.iter().filter(|r| r.status == STATUS_OK).count();
    assert_eq!(busy + ok, FLOOD, "only ok/busy replies expected");
    assert!(
        busy > 0,
        "a 60-request pipeline against max_inflight=4 must refuse some"
    );
    assert!(
        ok > 0,
        "admission control must still accept work under flood"
    );
    assert_eq!(
        server.state().busy_replies(),
        busy as u64,
        "server-side busy counter disagrees with observed refusals"
    );
    // Admission is the job queue's only bound.
    let gauges = server.state().telemetry_snapshot().gauges;
    assert!(
        gauges.peak_queue_depth <= tiny_config().max_inflight as u64,
        "queue grew to {} past max_inflight",
        gauges.peak_queue_depth
    );

    // Every accepted request produced the same bytes an unloaded server
    // produces for that module (same id → full byte identity).
    let reference = Server::start(ServeConfig::default());
    let mut ref_client = Client::from_stream(reference.connect_in_process().expect("connect"));
    for reply in parsed.iter().filter(|r| r.status == STATUS_OK) {
        let text = &modules[reply.id as usize];
        let line = Request::render_compile(reply.id, text, MODE, TARGET, &[]);
        let expected = ref_client.round_trip(&line).expect("reference round trip");
        assert_eq!(expected.status, STATUS_OK);
        assert_eq!(
            expected.raw, reply.raw,
            "request {} answered under load differs from unloaded reference",
            reply.id
        );
    }

    reference.shutdown();
    server.shutdown();
}

#[test]
fn busy_clients_succeed_by_retrying() {
    // The Client helper retries busy refusals: even against the tiny
    // server, a closed-loop burst of distinct modules all completes.
    let server = Server::start(tiny_config());
    let results: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|c| {
                let server = &server;
                s.spawn(move || {
                    let mut client =
                        Client::from_stream(server.connect_in_process().expect("connect"));
                    let mut busy = 0;
                    for r in 0..6u64 {
                        let case = snslp_fuzz::generate(0xB0B, c * 100 + r);
                        let text = format!("{}\n", case.function);
                        let (reply, retries) = client
                            .compile(&text, MODE, TARGET, &[])
                            .expect("compile with retry");
                        assert_eq!(reply.status, STATUS_OK, "retry must end in success");
                        busy += retries;
                    }
                    busy
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    // Refusals are load-dependent; the invariant is completion, and the
    // counter lets a human eyeball that the tiny server did push back.
    let total_busy: u64 = results.iter().sum();
    println!("busy refusals retried: {total_busy}");
    server.shutdown();
}
