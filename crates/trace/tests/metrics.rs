//! The metrics registry collects regardless of the trace facets.

#[test]
fn counters_still_collect_while_disabled() {
    // Collection is always on (the facet gates emission only), so tools
    // can read a MetricsSnapshot without ever enabling a facet.
    let before = snslp_trace::MetricsSnapshot::current();
    snslp_trace::add(snslp_trace::Counter::GathersEmitted, 7);
    let delta = snslp_trace::MetricsSnapshot::current().delta_since(&before);
    assert_eq!(delta.get(snslp_trace::Counter::GathersEmitted), 7);
}
