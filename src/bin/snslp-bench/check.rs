//! `snslp-bench check dyn|hot`: the deterministic CI gates. Wall-clock
//! benchmarks live in the `perfbench` package.
//!
//! * `dyn` re-collects the `snslp-dynstats/v1` report (simulated cycles +
//!   dynamic profiles for every kernel under o3/slp/lslp/snslp), validates
//!   the checked-in `BENCH_dyn.json` baseline, and fails on any
//!   simulated-cycle increase (the pipeline is deterministic, so any
//!   increase is a real regression, not jitter) or on a
//!   predicted-vs-achieved calibration sign disagreement. Mispredictions
//!   beyond the calibration ratio band are printed as `cost-misprediction`
//!   remarks. The baseline is read before anything is measured, so an
//!   unreadable one fails at once; `--bless` skips it.
//! * `hot` compiles every registry kernel under o3/slp/lslp/snslp with
//!   instrumented-hotness lowering, runs it natively, and reconciles its
//!   exact per-class execution counts against the interpreter's dynamic
//!   profile (a mismatch is a lowering bug and aborts). The resulting
//!   `snslp-hot/v1` artifact is round-tripped through its own strict
//!   reader before it is written. On hosts without the native backend the
//!   gate reports the skip and exits 0 — there is nothing to measure.

use snslp::bench::dynstats::{calibrate, collect_kernel_dyn, misprediction_remarks, DynReport};
use snslp::bench::hot::{collect_hot, HotDoc};
use snslp::trace::Facet;

use crate::{load, write, Args, Error, Outcome};

/// `check dyn`: deterministic dynamic-cycle gate + calibration.
pub fn dyn_gate(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &["--out"], &["--bless"])?;
    let baseline_path = args.at_most_one("BENCH_dyn.json")?;
    let baseline = (!args.switch("--bless"))
        .then(|| load(baseline_path, DynReport::from_json))
        .transpose()?;

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
    let Some(baseline) = baseline else {
        write(baseline_path, &json)?;
        println!("bench_check dyn: blessed baseline {baseline_path}");
        return Ok(());
    };

    println!(
        "bench_check dyn: {} baseline kernels, deterministic cycle gate",
        baseline.kernels.len()
    );
    print!("{}", fresh.calibration_table());
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
