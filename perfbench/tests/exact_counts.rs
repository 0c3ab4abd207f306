//! The exact-count self-check: the counts a later change may rest a claim
//! on must repeat exactly for the same seed. Each run is a shortest
//! traced run of the `serve` workload (three rounds), against the
//! `snslpd` this package builds.
//!
//! Run with `cargo test --release` from this directory; a debug build
//! passes too, only slower.

use std::path::PathBuf;

use perfbench::serve::CLIENTS;
use perfbench::{run, Options, Quotas, Report, Workload};

fn shortest_traced_run(seed: u64) -> Report {
    let opts = Options {
        workload: Workload::Serve,
        seed,
        seconds: 0.0,
        trace: true,
        snslpd: PathBuf::from(env!("CARGO_BIN_EXE_snslpd")),
    };
    let report = run(&opts).expect("the benchmark runs");
    assert_eq!(report.tally.failed, 0, "{:?}", report.tally.failures);
    assert!(report.correct(true));
    report
}

fn count(report: &Report, name: &str) -> u64 {
    report
        .counts
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("no count {name}"))
        .1
}

#[test]
fn exact_counts_repeat_and_follow_the_request_mix() {
    let first = shortest_traced_run(7);
    let second = shortest_traced_run(7);
    for family in ["kernels.", "ir.", "core.", "cost.", "serve."] {
        assert!(
            first.counts.iter().any(|(k, _)| k.starts_with(family)),
            "no {family} counts"
        );
    }
    assert_eq!(first.counts, second.counts);

    // Each block of five requests is one new, two edits and two repeats.
    let requests = (CLIENTS * Quotas::for_workload(Workload::Serve).requests_per_client) as u64;
    let (new, edit, repeat) = (requests / 5, 2 * requests / 5, 2 * requests / 5);
    assert_eq!(count(&first, "serve.requests"), requests);
    assert_eq!(count(&first, "serve.memo_hits"), repeat);
    // A memo hit answers all 12 function lookups; an edit finds 11 of its
    // 12 functions cached and compiles one.
    assert_eq!(
        count(&first, "serve.fn_cache_hits"),
        12 * repeat + 11 * edit
    );
    assert_eq!(count(&first, "serve.fn_cache_misses"), 12 * new + edit);
    assert_eq!(count(&first, "serve.fn_cache_evictions"), 0);
    assert_eq!(count(&first, "serve.busy_replies"), 0);
}
