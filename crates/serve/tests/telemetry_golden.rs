//! Byte-stability golden for the `snslpd-telemetry/v1` wire document.
//!
//! Under the virtual trace clock every `clock::now_ns()` read advances
//! exactly [`snslp_trace::clock::VIRTUAL_TICK_NS`], so a fixed request
//! sequence against a one-worker server produces a fully deterministic
//! snapshot: every stage duration is a count of clock reads, not wall
//! time. The rendered JSON must match the checked-in golden byte for
//! byte — any drift means the wire format, the stage accounting, or the
//! number of clock reads on some request path changed. Regenerate after
//! an intentional change with:
//!
//! ```text
//! SNSLP_BLESS=1 cargo test -p snslp-serve --test telemetry_golden
//! ```
//!
//! This file must stay a single `#[test]`: the virtual clock is global,
//! so a sibling test in the same binary would interleave reads and
//! destroy determinism. Trace facets stay off for the same reason —
//! span records would add clock reads of their own.

use std::path::PathBuf;

use snslp_serve::{Client, ServeConfig, Server, STATUS_ERROR, STATUS_OK};
use snslp_trace::clock;

const MODE: &str = "snslp";
const TARGET: &str = "avx2";

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/telemetry_snapshot.json")
}

/// A module of three fuzz functions at consecutive case indices.
fn module(first: u64) -> String {
    let mut text = String::new();
    for k in 0..3 {
        let case = snslp_fuzz::generate(0x601D, first + k);
        text.push_str(&case.function.to_string());
        text.push('\n');
    }
    text
}

#[test]
fn snapshot_is_byte_stable_under_the_virtual_clock() {
    clock::set_virtual(true);
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::from_stream(server.connect_in_process().expect("connect"));

    // A fixed little script touching every counter class: two cold
    // compiles, one memo replay, one invalid line.
    for first in [0, 8] {
        let (reply, _) = client
            .compile(&module(first), MODE, TARGET, &[])
            .expect("compile");
        assert_eq!(reply.status, STATUS_OK);
    }
    let (reply, _) = client
        .compile(&module(0), MODE, TARGET, &[])
        .expect("replay");
    assert_eq!(reply.status, STATUS_OK);
    let reply = client.round_trip("not json at all").expect("error reply");
    assert_eq!(reply.status, STATUS_ERROR);

    let snapshot = client.telemetry().expect("validated snapshot");
    server.shutdown();
    clock::set_virtual(false);

    let actual = snapshot.to_json().render();
    let path = golden_path();
    if std::env::var_os("SNSLP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with SNSLP_BLESS=1"));
    assert_eq!(
        actual, expected,
        "telemetry snapshot diverged from {path:?}; \
         rerun with SNSLP_BLESS=1 if intentional"
    );
}
