//! Proves the "zero-cost when disabled" claim: with every facet off, the
//! instrumentation API performs no heap allocation at all.
//!
//! A counting global allocator wraps the system one; the test drives every
//! hot-path entry point (event macro, span, counter bump, remark emit) and
//! asserts the allocation count does not move.
//!
//! This file must stay a single `#[test]`: the allocator counts every
//! thread of the process, so a sibling test allocating concurrently would
//! be charged to the hot path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_tracing_emits_nothing_and_allocates_nothing() {
    // Integration tests get a fresh process: all facets default to off.
    assert_eq!(snslp_trace::facets(), 0, "facets must default to off");

    // Warm up the lazily-initialized thread-locals (metrics cells) and
    // build the one remark we re-emit, so those one-time allocations are
    // not charged to the steady state below.
    snslp_trace::bump(snslp_trace::Counter::SeedsCollected);
    let remark = snslp_trace::Remark {
        pass: "snslp".to_string(),
        function: "@f".to_string(),
        block: "entry".to_string(),
        site: "%t1".to_string(),
        inst: 1,
        decision: snslp_trace::DecisionId::new("f", "entry", 0, 1),
        seed_kind: "store".to_string(),
        width: 4,
        vectorized: true,
        reason: snslp_trace::ReasonCode::Profitable,
        cost: Some(-6),
        detail: String::new(),
    };

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..1000u64 {
        // Field expressions must not be evaluated, so the format! here
        // must never run.
        snslp_trace::trace_event!("hot.event", "i" => i, "s" => format!("lane {i}"));
        let span = snslp_trace::Span::enter("hot.span");
        span.note("k", "value");
        drop(span);
        snslp_trace::bump(snslp_trace::Counter::BundlesAttempted);
        snslp_trace::add(snslp_trace::Counter::LookaheadScoreEvals, 3);
        remark.emit();
        // Profiler entry points are inert too: no clock read is
        // observable here, but the allocation count proves no event was
        // buffered and no label was built.
        let p = snslp_trace::ProfSpan::enter("hot.prof");
        drop(p);
        let p = snslp_trace::ProfSpan::enter_with("hot.prof", || format!("label {i}"));
        drop(p);
        snslp_trace::prof_counter("hot.counter", i as f64);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled tracing hot path must not allocate"
    );

    // And nothing was emitted: flip a sink on afterwards and confirm the
    // buffer only sees *new* records.
    let lines = snslp_trace::capture(snslp_trace::Facet::Events as u32, || {
        snslp_trace::trace_event!("now.visible");
    });
    assert_eq!(lines, vec!["[snslp] event now.visible".to_string()]);
}
