//! Integration tests over the kernel corpus: the profiler's Chrome-trace
//! export must validate, show one track per parallel worker and cover the
//! pipeline with distinct span names.
//!
//! The Prof facet, track store and thread buffers are process-global, so
//! the profiling tests serialize on one lock and restore the facet mask.

use std::sync::Mutex;

use snslp_bench::kernel_corpus_module;
use snslp_bench::tracecheck::validate_chrome_trace;
use snslp_core::{run_slp_module_with_threads, SlpConfig, SlpMode};
use snslp_trace::{prof, Facet};

static LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with profiling enabled on clean profiler state; restores the
/// facet mask and clears the store afterwards.
fn with_profiling<T>(f: impl FnOnce() -> T) -> T {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    prof::clear();
    let prev = snslp_trace::set_facets(snslp_trace::facets() | Facet::Prof as u32);
    let out = f();
    snslp_trace::set_facets(prev);
    prof::clear();
    out
}

#[test]
fn corpus_profile_validates_and_covers_the_pipeline() {
    let (json, names) = with_profiling(|| {
        let mut module = kernel_corpus_module();
        let cfg = SlpConfig::new(SlpMode::SnSlp);
        run_slp_module_with_threads(&mut module, &cfg, 1);
        let profile = prof::take_profile();
        (profile.to_chrome_json(), profile.span_names().len())
    });

    let summary = validate_chrome_trace(&json).expect("corpus trace is well-formed");
    assert!(
        names >= 8,
        "expected >= 8 distinct span names across the corpus, got {names}: {:?}",
        summary.span_names
    );
    // Seeds through codegen all appear.
    for expected in [
        "pass.run_slp",
        "stage.cleanup",
        "seeds.collect_stores",
        "graph.build",
        "cost.evaluate",
        "codegen.emit",
    ] {
        assert!(
            summary.span_names.iter().any(|n| n == expected),
            "span `{expected}` missing from {:?}",
            summary.span_names
        );
    }
    assert!(
        summary
            .counter_names
            .iter()
            .any(|n| n == "lookahead_cache_hit_rate"),
        "counter track missing: {:?}",
        summary.counter_names
    );
}

#[test]
fn parallel_profile_has_one_track_per_worker() {
    const WORKERS: usize = 4;
    let json = with_profiling(|| {
        let mut module = kernel_corpus_module();
        let cfg = SlpConfig::new(SlpMode::SnSlp);
        run_slp_module_with_threads(&mut module, &cfg, WORKERS);
        prof::take_profile().to_chrome_json()
    });

    let summary = validate_chrome_trace(&json).expect("parallel trace is well-formed");
    let mut labels: Vec<&str> = summary.tracks.values().map(String::as_str).collect();
    labels.sort_unstable();
    let expected: Vec<String> = std::iter::once("main".to_string())
        .chain((0..WORKERS).map(|w| format!("worker-{w}")))
        .collect();
    assert_eq!(labels, expected, "one named track per worker plus main");
}
