//! Golden-file and integration tests for the decision-attribution
//! report (`snslp-report/v1`) and its HTML explorer.
//!
//! Under the virtual clock every timestamp the report embeds (per-span
//! compile time, stage breakdowns) is a deterministic function of the
//! instrumentation sequence, so the rendered HTML is a byte-stable
//! artifact. Regenerate after an intentional change with:
//!
//! ```text
//! SNSLP_BLESS=1 cargo test -p snslp-bench --test report_golden
//! ```

use std::path::PathBuf;
use std::sync::Mutex;

use snslp_bench::attrib::{attrib_kernel, diff, render_html, AttribReport};
use snslp_core::{SlpConfig, SlpMode};
use snslp_kernels::{kernel_by_name, registry};
use snslp_trace::Counter;

/// The virtual clock, the trace facet mask, and the profiler store are
/// process-global; every test in this binary serializes on this lock.
static LOCK: Mutex<()> = Mutex::new(());

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.report.html"))
}

fn compare_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("SNSLP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with SNSLP_BLESS=1"));
    assert_eq!(
        actual, expected,
        "HTML report for `{name}` diverged from {path:?}; \
         rerun with SNSLP_BLESS=1 if intentional"
    );
}

/// Collects one kernel's attribution report under the virtual clock.
/// Caller holds [`LOCK`]. The clock is reset on entry, so repeated calls
/// with the same inputs must produce byte-identical artifacts.
fn attrib_under_virtual_clock(names: &[&str], cfg: &SlpConfig) -> AttribReport {
    snslp_trace::clock::set_virtual(true);
    let report = AttribReport {
        mode: cfg.mode.code().to_string(),
        functions: names
            .iter()
            .map(|name| attrib_kernel(&kernel_by_name(name).expect("registered kernel"), cfg))
            .collect(),
    };
    snslp_trace::clock::set_virtual(false);
    report
}

#[test]
fn motiv_leaf_html_is_stable() {
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SlpConfig::new(SlpMode::SnSlp);
    let report = attrib_under_virtual_clock(&["motiv_leaf"], &cfg);
    compare_golden("motiv_leaf", &render_html(&report));
}

#[test]
fn povray_shade_html_is_stable() {
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SlpConfig::new(SlpMode::SnSlp);
    let report = attrib_under_virtual_clock(&["povray_shade"], &cfg);
    compare_golden("povray_shade", &render_html(&report));
}

#[test]
fn html_is_byte_identical_across_repeated_runs() {
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SlpConfig::new(SlpMode::SnSlp);
    let a = attrib_under_virtual_clock(&["motiv_leaf", "povray_shade"], &cfg);
    let b = attrib_under_virtual_clock(&["motiv_leaf", "povray_shade"], &cfg);
    assert_eq!(a, b, "attribution must be clock-deterministic");
    assert_eq!(
        render_html(&a),
        render_html(&b),
        "HTML explorer must be byte-stable under the virtual clock"
    );
    assert_eq!(a.to_json(), b.to_json());
    // And the JSON document round-trips through the strict reader.
    assert_eq!(AttribReport::from_json(&a.to_json()).unwrap(), a);
}

/// The whole kernel registry under the virtual clock. Caller holds
/// [`LOCK`].
fn registry_under_virtual_clock() -> AttribReport {
    let names: Vec<&str> = registry().iter().map(|k| k.name).collect();
    attrib_under_virtual_clock(&names, &SlpConfig::new(SlpMode::SnSlp))
}

#[test]
fn independent_registry_collects_diff_clean() {
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let base = registry_under_virtual_clock();
    assert_eq!(base.functions.len(), registry().len());
    assert!(
        base.functions
            .iter()
            .any(|f| f.counters.iter().any(|&c| c > 0)),
        "the counters are collected"
    );
    // A second, independent collect matches in every decision and
    // counter, and its stage times sit inside the gates. Under the
    // virtual clock wall-clock noise cannot fail this.
    let again = registry_under_virtual_clock();
    assert_eq!(AttribReport::from_json(&base.to_json()).unwrap(), base);
    let d = diff(&base, &again);
    assert!(d.is_clean(), "self-diff regressed:\n{}", d.render(10));
}

#[test]
fn injected_counter_regression_is_surfaced_and_ranked_first() {
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let base = registry_under_virtual_clock();
    let mut broken = base.clone();
    // Simulate disabling the look-ahead cache in one function: every hit
    // becomes a miss. Counters are deterministic, so the diff must flag it.
    let (hits, misses) = (
        Counter::LookaheadCacheHits as usize,
        Counter::LookaheadCacheMisses as usize,
    );
    let victim = broken
        .functions
        .iter_mut()
        .find(|f| f.counters[hits] > 0)
        .expect("some kernel exercises the look-ahead cache");
    victim.counters[misses] += victim.counters[hits];
    victim.counters[hits] = 0;
    let key = victim.key();

    let d = diff(&base, &broken);
    let rendered = d.render(10);
    assert!(d.changed.is_empty() && d.stage_regressions.is_empty());
    let top = &d.counter_deltas[0];
    assert_eq!(top.key, key, "victim ranked first:\n{rendered}");
    assert_eq!(top.name, "lookahead_cache_hits");
    assert!(
        rendered.contains(&format!("1. {key} lookahead_cache_hits")),
        "{rendered}"
    );
}

#[test]
fn injected_cost_nerf_is_root_caused_to_the_decision() {
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let kernels = ["povray_shade", "namd_force"];
    let base_cfg = SlpConfig::new(SlpMode::SnSlp);
    let base = attrib_under_virtual_clock(&kernels, &base_cfg);

    // A self-diff of identical runs must be clean — the tool's exit-0
    // contract in CI.
    assert!(diff(&base, &base).is_clean());

    // Inject a cost-model regression: demand savings of more than 10
    // units before committing. povray_shade's decision saves 20 and
    // survives; namd_force's saves only 7 and flips to a cost rejection.
    let mut nerfed_cfg = SlpConfig::new(SlpMode::SnSlp);
    nerfed_cfg.threshold = -10;
    let nerfed = attrib_under_virtual_clock(&kernels, &nerfed_cfg);

    let d = diff(&base, &nerfed);
    assert!(!d.is_clean());
    assert!(d.only_base.is_empty() && d.only_new.is_empty());
    // Root cause, ranked first: the exact kernel, function, and decision
    // the nerf flipped, with the achieved cycle regression attached.
    let top = &d.changed[0];
    assert_eq!(top.unit, "namd_force");
    assert_eq!(top.function, "namd_force");
    assert!(
        top.id.starts_with("@namd_force/"),
        "decision anchor names the function: {}",
        top.id
    );
    assert_eq!(top.base_action, "vectorized");
    assert_eq!(top.new_action, "missed");
    assert!(
        top.cycle_impact > 0,
        "losing the vectorization must cost cycles, got {}",
        top.cycle_impact
    );
    // povray_shade survived the nerf, so nothing else is reported.
    assert!(
        d.changed.iter().all(|c| c.unit == "namd_force"),
        "unaffected kernels must not appear: {:?}",
        d.changed
    );
    // The rendered root-cause names the decision on the first ranked line.
    let text = d.render(5);
    let first = text
        .lines()
        .find(|l| l.trim_start().starts_with("1."))
        .expect("ranked line");
    assert!(first.contains("namd_force/@namd_force"), "{text}");
    assert!(first.contains(&top.id), "{text}");
}
