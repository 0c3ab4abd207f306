//! `snslp-bench check compile|dyn|serve|hot`: the CI gates over the
//! checked-in trajectories.
//!
//! * `compile` re-measures every registry kernel and compares against the
//!   checked-in baseline (`BENCH_compile_time.json` by default). It fails
//!   when a baseline kernel is missing from the fresh run or when any
//!   kernel's fresh SN-SLP *minimum* run time exceeds `REGRESSION_FACTOR`
//!   (2×) the baseline minimum — a sign of an algorithmic regression.
//!   Minima rather than means: scheduler blips only ever inflate
//!   individual samples, so the min is stable on noisy single-core CI
//!   hosts where the mean of a 40µs kernel swings freely, while a real
//!   complexity regression raises every sample. On failure, the full
//!   per-kernel delta table has already been printed and a ranked summary
//!   (worst ratio first) follows, so a CI log is actionable without
//!   rerunning locally. Fresh kernels absent from the baseline are
//!   reported but do not fail: a new kernel lands before its trajectory
//!   point does.
//! * `dyn` re-collects the `snslp-dynstats/v1` report (simulated cycles +
//!   dynamic profiles for every kernel under o3/slp/lslp/snslp), validates
//!   the checked-in `BENCH_dyn.json` baseline, and fails on any
//!   simulated-cycle increase (the pipeline is deterministic, so any
//!   increase is a real regression, not jitter) or on a
//!   predicted-vs-achieved calibration sign disagreement. Mispredictions
//!   beyond the calibration ratio band are printed as `cost-misprediction`
//!   remarks. On x86-64 hosts the fresh report also carries measured
//!   native wall times from the JIT backend; the three-axis table
//!   (predicted cost / simulated cycles / wall ns) is printed and the
//!   measured SN-SLP-vs-O3 wall geomean must stay above 1.0 over the
//!   JIT-covered kernels (skipped elsewhere).
//! * `serve` validates the checked-in `BENCH_serve.json` (schema +
//!   plausibility) and applies the machine-independent shape invariants
//!   of [`check_serve`] — warm cache hit rate above 90%, cold p50 at least
//!   5× the warm p50, and the server's own warm `request_total` p50 (from
//!   its telemetry snapshot) within a generous band of the
//!   client-observed warm p50, so the two measurement paths cannot
//!   silently diverge. With `--fresh FILE` it additionally validates and
//!   gates a just-measured report (from `snslp-bench serve --out FILE`).
//! * `hot` compiles every registry kernel under o3/slp/lslp/snslp with
//!   instrumented-hotness lowering, runs it natively, and reconciles its
//!   exact per-class execution counts against the interpreter's dynamic
//!   profile (a mismatch is a lowering bug and aborts). The resulting
//!   `snslp-hot/v1` artifact is round-tripped through its own strict
//!   reader before it is written. On hosts without the native backend the
//!   gate reports the skip and exits 0 — there is nothing to measure.

use snslp::bench::dynstats::{calibrate, collect_kernel_dyn, misprediction_remarks, DynReport};
use snslp::bench::hot::{collect_hot, HotDoc};
use snslp::bench::measure_compile_times;
use snslp::bench::report::{CompileTimeReport, REGRESSION_FACTOR};
use snslp::bench::servebench::{check_serve, ServeBenchReport};
use snslp::trace::Facet;

use crate::{load, write, Args, Error, Outcome};

/// Fewer runs than the full bench: CI wants a smoke signal, and the 2×
/// gate leaves plenty of room for the extra variance.
const WARMUP_RUNS: usize = 2;
const TIMED_RUNS: usize = 10;

/// One comparable kernel: baseline vs fresh SN-SLP minimum.
struct DeltaRow {
    name: String,
    base_min_us: f64,
    now_min_us: f64,
}

impl DeltaRow {
    fn ratio(&self) -> f64 {
        self.now_min_us / self.base_min_us
    }

    fn regressed(&self) -> bool {
        self.ratio() > REGRESSION_FACTOR
    }
}

/// `check compile`: the compile-time trajectory gate.
pub fn compile(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &[], &[])?;
    let path = args.at_most_one("BENCH_compile_time.json")?;
    let baseline = load(path, CompileTimeReport::from_json)?;

    let fresh = measure_compile_times(WARMUP_RUNS, TIMED_RUNS);
    let mut rows: Vec<DeltaRow> = Vec::new();
    let mut structural_failures = 0usize;
    for base in &baseline.kernels {
        let Some(now) = fresh.kernels.iter().find(|k| k.name == base.name) else {
            eprintln!("  {}: MISSING from fresh measurement", base.name);
            structural_failures += 1;
            continue;
        };
        let (Some(base_t), Some(now_t)) = (base.mode("snslp"), now.mode("snslp")) else {
            eprintln!("  {}: missing snslp timing", base.name);
            structural_failures += 1;
            continue;
        };
        rows.push(DeltaRow {
            name: base.name.clone(),
            base_min_us: base_t.min_us,
            now_min_us: now_t.min_us,
        });
    }

    // The full delta table, pass or fail: every kernel, baseline vs
    // current minimum, delta, ratio, verdict.
    println!(
        "bench_check: {} baseline kernels, gate {REGRESSION_FACTOR}x on sn-slp min",
        baseline.kernels.len()
    );
    println!(
        "  {:<24} {:>12} {:>12} {:>10} {:>7}  verdict",
        "kernel", "baseline µs", "now µs", "delta µs", "ratio"
    );
    for row in &rows {
        println!(
            "  {:<24} {:>12.1} {:>12.1} {:>+10.1} {:>6.2}x  {}",
            row.name,
            row.base_min_us,
            row.now_min_us,
            row.now_min_us - row.base_min_us,
            row.ratio(),
            if row.regressed() { "REGRESSED" } else { "ok" }
        );
    }
    for now in &fresh.kernels {
        if !baseline.kernels.iter().any(|k| k.name == now.name) {
            println!("  {:<24} new kernel (no baseline yet)", now.name);
        }
    }

    let mut regressions: Vec<&DeltaRow> = rows.iter().filter(|r| r.regressed()).collect();
    let failures = structural_failures + regressions.len();
    if failures > 0 {
        if !regressions.is_empty() {
            regressions.sort_by(|a, b| {
                b.ratio()
                    .partial_cmp(&a.ratio())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            eprintln!("bench_check: regressions, worst first:");
            for row in &regressions {
                eprintln!(
                    "  {:<24} {:>6.2}x ({:.1}µs -> {:.1}µs)",
                    row.name,
                    row.ratio(),
                    row.base_min_us,
                    row.now_min_us
                );
            }
        }
        return Err(Error::failed(format!("{failures} failure(s)")));
    }
    println!("bench_check: all kernels within the gate");
    Ok(())
}

/// `check dyn`: deterministic dynamic-cycle gate + calibration.
pub fn dyn_gate(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &["--out"], &["--bless"])?;
    let baseline_path = args.at_most_one("BENCH_dyn.json")?;

    let fresh = collect_kernel_dyn();
    let json = fresh.to_json();
    // The emitted document must survive its own strict reader — a
    // render/parse asymmetry would silently rot the checked-in baseline.
    DynReport::from_json(&json)
        .map_err(|e| Error::artifact(format!("fresh report fails validation: {e}")))?;
    if let Some(out) = args.value("--out") {
        write(out, &json)?;
        println!("bench_check dyn: wrote fresh report to {out}");
    }
    if args.switch("--bless") {
        write(baseline_path, &json)?;
        println!("bench_check dyn: blessed baseline {baseline_path}");
        return Ok(());
    }
    let baseline = load(baseline_path, DynReport::from_json)?;

    println!(
        "bench_check dyn: {} baseline kernels, deterministic cycle gate",
        baseline.kernels.len()
    );
    print!("{}", fresh.calibration_table());
    print!("{}", fresh.wall_table());
    let rows = calibrate(&fresh);
    let lines = snslp::trace::capture(Facet::Remarks as u32, || {
        misprediction_remarks(&rows);
    });
    for line in &lines {
        println!("{line}");
    }
    let table = snslp::bench::dynstats::check_dyn(&baseline, &fresh).map_err(|failures| {
        eprintln!("{failures}");
        Error::failed("dyn gate failed")
    })?;
    print!("{table}");
    let improved = baseline.kernels.iter().any(|bk| {
        fresh.kernels.iter().any(|fk| {
            fk.name == bk.name
                && bk
                    .modes
                    .iter()
                    .any(|bm| fk.mode(&bm.label).is_some_and(|fm| fm.cycles < bm.cycles))
        })
    });
    if improved {
        println!(
            "bench_check dyn: cycles improved over baseline; \
             re-bless {baseline_path} to lock in the gain"
        );
    }
    println!("bench_check dyn: all kernels within the gate");
    Ok(())
}

/// `check hot`: instrumented native-hotness smoke + artifact.
pub fn hot(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &["--out"], &[])?;
    args.exactly::<0>("no positional arguments")?;

    if !snslp::jit::native_supported() {
        println!("bench_check hot: no native backend on this host; nothing to measure (skipped)");
        return Ok(());
    }
    // `collect_hot` asserts the exact reconciliation invariant on every
    // covered row (native per-class counts == interpreter DynProfile) —
    // a mismatch panics there, which is the gate.
    let (doc, skipped) = collect_hot();
    let json = doc.to_json();
    let back = HotDoc::from_json(&json)
        .map_err(|e| Error::artifact(format!("fresh artifact fails its own strict reader: {e}")))?;
    print!("{}", doc.summary_table());
    for s in &skipped {
        println!("bench_check hot: skipped {s} (jit fallback)");
    }
    if back.entries.is_empty() {
        return Err(Error::failed(
            "native backend present but no row was measurable",
        ));
    }
    if let Some(out) = args.value("--out") {
        write(out, &json)?;
        println!("bench_check hot: wrote artifact to {out}");
    }
    println!(
        "bench_check hot: {} rows reconciled exactly ({} skipped)",
        back.entries.len(),
        skipped.len()
    );
    Ok(())
}

/// `check serve`: shape-invariant gate over serve-bench reports. Every
/// report is checked; the exit status is the worst failure's (an
/// unreadable report outranks a violated gate).
pub fn serve(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &["--fresh"], &[])?;
    let mut reports = vec![(args.at_most_one("BENCH_serve.json")?, "baseline")];
    if let Some(fresh) = args.value("--fresh") {
        reports.push((fresh, "fresh"));
    }
    let mut worst: Option<Error> = None;
    let mut failures = 0usize;
    for (path, label) in reports {
        let checked = load(path, ServeBenchReport::from_json)
            .and_then(|report| check_serve(&report, label).map_err(Error::failed));
        match checked {
            Ok(summary) => print!("{summary}"),
            Err(e) => {
                eprintln!("bench_check serve: {}", e.msg);
                failures += 1;
                if worst.as_ref().is_none_or(|w| e.code > w.code) {
                    worst = Some(e);
                }
            }
        }
    }
    if let Some(worst) = worst {
        return Err(Error {
            msg: format!("{failures} failure(s)"),
            ..worst
        });
    }
    println!("bench_check serve: all reports within the gate");
    Ok(())
}
