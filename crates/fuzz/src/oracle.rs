//! Differential execution oracle.
//!
//! For one generated case, the oracle runs the original function as the
//! ground truth, then pushes clones through the scalar O3 cleanup
//! pipeline and through [`run_slp`] at each requested mode, executing
//! every variant on identical inputs. Results must agree bit-for-bit
//! (floats within the reassociation tolerance of
//! [`snslp_interp::outcomes_match`]); traps count as comparable outcomes
//! and must agree in kind. On top of execution equivalence, a set of
//! structural invariants is cross-checked on every [`FunctionReport`].
//!
//! A second, stricter differential axis runs per function: the native
//! x86-64 JIT backend executes the *same* function as the interpreter
//! via [`snslp_jit::check_backends`], where every observable (return
//! bits, trap kind, remaining fuel, the whole memory image) must match
//! **bit-exactly** — there is no reassociation tolerance because both
//! backends run identical IR. Functions the JIT declines are fallback,
//! not divergence.

use std::collections::BTreeMap;
use std::sync::Mutex;

use snslp_core::{optimize_o3, run_slp, FunctionReport, SlpConfig, SlpMode};
use snslp_cost::CostModel;
use snslp_interp::{outcomes_match, run_with_args, ExecOptions, RunOutcome, Trap};
use snslp_ir::{verify, Function};
use snslp_trace::{Counter, Facet, Profile};

use crate::gen::Case;

/// Serializes the profiled pass window: the profiler's facet mask and
/// flushed-track store are process-global, so two concurrent cases must
/// not interleave their clear/run/take sections or one would observe the
/// other's decision spans.
static PROF_GATE: Mutex<()> = Mutex::new(());

/// Runs the pass with the profiler enabled on a clean store and returns
/// the spans recorded for exactly this run, restoring the previous facet
/// mask afterwards.
fn run_slp_profiled(f: &mut Function, cfg: &SlpConfig) -> (FunctionReport, Profile) {
    let _gate = PROF_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let prev = snslp_trace::set_facets(snslp_trace::facets() | Facet::Prof as u32);
    snslp_trace::prof::clear();
    let report = run_slp(f, cfg);
    let profile = snslp_trace::prof::take_profile();
    snslp_trace::set_facets(prev);
    (report, profile)
}

/// The observable result of one execution: either it ran to completion
/// or it trapped. Non-trap interpreter errors (type mismatches, undefined
/// values) never occur on verifier-clean IR and are reported as
/// divergences by the oracle.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Ran to completion.
    Ran(Box<RunOutcome>),
    /// Trapped (out-of-bounds access, division by zero, fuel).
    Trapped(Trap),
}

impl Outcome {
    fn describe(&self) -> String {
        match self {
            Outcome::Ran(_) => "completed".to_string(),
            Outcome::Trapped(t) => format!("trap:{}", t.kind()),
        }
    }
}

/// One confirmed disagreement between the original function and a
/// transformed variant (or a broken pass invariant).
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Batch seed of the failing case.
    pub seed: u64,
    /// Case index within the batch.
    pub index: u64,
    /// Stage that failed: `o3`, a mode label (`slp`, `lslp`, `snslp`),
    /// `<stage>-verify` / `<stage>-invariant` variants, or `jit` /
    /// `<mode>-jit` for interpreter-vs-native differential failures.
    pub stage: String,
    /// Human-readable description of the mismatch.
    pub detail: String,
    /// Printed IR of the (original) failing function.
    pub function: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "divergence at seed={:#x} index={} stage={}: {}",
            self.seed, self.index, self.stage, self.detail
        )
    }
}

/// Runs `f` on `args` and classifies the result.
///
/// # Errors
///
/// Returns a description for non-trap interpreter errors, which indicate
/// a bug somewhere (the IR is verifier-clean by construction).
pub fn execute(
    f: &Function,
    args: &[snslp_interp::ArgSpec],
    model: &CostModel,
) -> Result<Outcome, String> {
    let _p = snslp_trace::ProfSpan::enter("oracle.execute");
    match run_with_args(f, args, model, &ExecOptions::default()) {
        Ok(o) => Ok(Outcome::Ran(Box::new(o))),
        Err(e) => match e.as_trap() {
            Some(t) => Ok(Outcome::Trapped(t)),
            None => Err(format!("non-trap interpreter error: {e}")),
        },
    }
}

/// Compares two outcomes: completed runs via [`outcomes_match`], traps by
/// kind (the trapping address may legitimately differ once stores are
/// widened). Memory is not compared across traps — the vectorizer may
/// reorder a trapping operation relative to neighbouring stores.
pub fn compare(a: &Outcome, b: &Outcome) -> Result<(), String> {
    match (a, b) {
        (Outcome::Ran(x), Outcome::Ran(y)) => outcomes_match(x, y),
        (Outcome::Trapped(x), Outcome::Trapped(y)) => {
            if x.kind() == y.kind() {
                Ok(())
            } else {
                Err(format!("trap kinds differ: {} vs {}", x.kind(), y.kind()))
            }
        }
        (x, y) => Err(format!(
            "outcome shapes differ: {} vs {}",
            x.describe(),
            y.describe()
        )),
    }
}

/// Structural cross-checks on a pass report, independent of execution.
fn check_invariants(report: &FunctionReport, threshold: i32) -> Result<(), String> {
    let v = report.vectorized_graphs();
    let counted = report.metrics.get(Counter::GraphsVectorized);
    if counted != v as u64 {
        return Err(format!(
            "metrics claim {counted} vectorized graphs, report has {v}"
        ));
    }
    let emitted = report.metrics.get(Counter::RemarksEmitted);
    if emitted != report.remarks.len() as u64 {
        return Err(format!(
            "metrics claim {emitted} remarks, report has {}",
            report.remarks.len()
        ));
    }
    let remark_v = report.remarks.iter().filter(|r| r.vectorized).count();
    if remark_v != v {
        return Err(format!(
            "{remark_v} remarks claim vectorization, report has {v} vectorized graphs"
        ));
    }
    // Cache accounting: the pass scores exclusively through the memoized
    // path, which bumps the eval counter and then exactly one of
    // hits/misses per request. A gap means a scoring call site bypassed
    // the cache (or double-counted).
    let evals = report.metrics.get(Counter::LookaheadScoreEvals);
    let hits = report.metrics.get(Counter::LookaheadCacheHits);
    let misses = report.metrics.get(Counter::LookaheadCacheMisses);
    if hits + misses != evals {
        return Err(format!(
            "cache accounting broken: {hits} hits + {misses} misses != {evals} score evals"
        ));
    }
    for (i, g) in report.graphs.iter().enumerate() {
        if g.vectorized && g.cost >= threshold {
            return Err(format!(
                "graph {i} vectorized with cost {} >= threshold {threshold}",
                g.cost
            ));
        }
        if g.num_vector_nodes + g.num_gather_nodes > g.num_nodes {
            return Err(format!(
                "graph {i} node counts inconsistent: {} vector + {} gather > {} total",
                g.num_vector_nodes, g.num_gather_nodes, g.num_nodes
            ));
        }
    }
    Ok(())
}

/// Decision-anchor integrity — the contract the `snslp-bench report` join
/// depends on: every remark's [`DecisionId`](snslp_trace::DecisionId) is
/// unique within the run and anchored to the function it was minted in;
/// every remark that committed a cost resolves to exactly one graph
/// snapshot carrying the same id; and every remark resolves to exactly
/// one `decision` profiler span in the same run.
fn check_decision_attribution(report: &FunctionReport, profile: &Profile) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for r in &report.remarks {
        let id = r.decision.render();
        if r.decision.function != report.function {
            return Err(format!(
                "remark at {} anchored to foreign function: {id}",
                r.site
            ));
        }
        if r.decision.inst != r.inst {
            return Err(format!(
                "remark at {} has inst {} but its anchor says {}",
                r.site, r.inst, r.decision.inst
            ));
        }
        if !seen.insert(id.clone()) {
            return Err(format!("duplicate decision id {id}"));
        }
    }
    // Costed remarks and graph snapshots must be the same decisions 1:1
    // (equal counts plus exactly-one per remark makes it a bijection,
    // since remark ids are unique).
    let costed = report.remarks.iter().filter(|r| r.cost.is_some());
    for r in costed.clone() {
        let n = report
            .graphs
            .iter()
            .filter(|g| g.decision == r.decision)
            .count();
        if n != 1 {
            return Err(format!(
                "decision {} resolves to {n} graph snapshots, want exactly 1",
                r.decision.render()
            ));
        }
    }
    let (costed, graphs) = (costed.count(), report.graphs.len());
    if graphs != costed {
        return Err(format!(
            "{graphs} graph snapshots for {costed} costed remarks"
        ));
    }
    let mut span_count: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for track in &profile.tracks {
        for ev in &track.events {
            if ev.name == "decision" {
                if let Some(label) = &ev.label {
                    *span_count.entry(label).or_default() += 1;
                }
            }
        }
    }
    for r in &report.remarks {
        let id = r.decision.render();
        let n = span_count.get(id.as_str()).copied().unwrap_or(0);
        if n != 1 {
            return Err(format!(
                "decision {id} resolves to {n} profiler spans, want exactly 1"
            ));
        }
    }
    Ok(())
}

/// Dynamic-profile self-consistency: every executed instruction lands in
/// exactly one opcode class, so the profile's category totals must
/// reproduce the interpreter's own `dyn_insts`/`cycles` counters exactly.
/// Trapped runs carry no profile and pass vacuously.
fn check_profile_totals(out: &Outcome) -> Result<(), String> {
    let Outcome::Ran(run) = out else {
        return Ok(());
    };
    let p = &run.exec.profile;
    if p.total_ops() != run.exec.dyn_insts {
        return Err(format!(
            "profile op classes sum to {} but the interpreter executed {} instructions",
            p.total_ops(),
            run.exec.dyn_insts
        ));
    }
    if p.total_cycles() != run.exec.cycles {
        return Err(format!(
            "profile class cycles sum to {} but the interpreter charged {}",
            p.total_cycles(),
            run.exec.cycles
        ));
    }
    Ok(())
}

/// A run of never-vectorized IR must report zero dynamic vector ops: the
/// baseline and the scalar O3 pipeline cannot touch a vector type.
fn check_scalar_profile(out: &Outcome) -> Result<(), String> {
    let Outcome::Ran(run) = out else {
        return Ok(());
    };
    let p = &run.exec.profile;
    if p.vector_ops != 0 {
        return Err(format!(
            "scalar pipeline executed {} dynamic vector ops",
            p.vector_ops
        ));
    }
    Ok(())
}

/// Vectorization packs memory accesses — it must never *add* dynamic
/// memory operations over the scalar baseline on the same inputs (a
/// gathered graph keeps the scalar loads; a widened one merges them).
fn check_mem_traffic(baseline: &Outcome, after: &Outcome) -> Result<(), String> {
    if let (Outcome::Ran(b), Outcome::Ran(a)) = (baseline, after) {
        let (bm, am) = (b.exec.profile.mem_ops(), a.exec.profile.mem_ops());
        if am > bm {
            return Err(format!(
                "vectorized variant executes {am} dynamic memory ops, scalar baseline only {bm}"
            ));
        }
    }
    Ok(())
}

/// Everything learned from a clean (non-diverging) case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// One pass report per requested mode, in request order.
    pub reports: Vec<FunctionReport>,
    /// The trap the baseline run hit, if any (all variants then trapped
    /// with the same kind).
    pub baseline_trap: Option<Trap>,
}

/// Checks one case at every requested mode. Returns the per-mode pass
/// reports on success (for metrics aggregation).
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_case(
    case: &Case,
    model: &CostModel,
    modes: &[SlpMode],
) -> Result<CaseOutcome, Box<Divergence>> {
    let _p = snslp_trace::ProfSpan::enter_with("oracle.check_case", || {
        format!("seed={:#x} index={}", case.seed, case.index)
    });
    let fail = |stage: &str, detail: String| {
        Box::new(Divergence {
            seed: case.seed,
            index: case.index,
            stage: stage.to_string(),
            detail,
            function: case.function.to_string(),
        })
    };

    if let Err(e) = verify(&case.function) {
        return Err(fail(
            "generator",
            format!("original fails verification: {e}"),
        ));
    }
    let baseline = execute(&case.function, &case.args, model).map_err(|e| fail("baseline", e))?;
    check_profile_totals(&baseline)
        .and_then(|()| check_scalar_profile(&baseline))
        .map_err(|e| fail("baseline-dyn-invariant", e))?;

    // Interpreter vs native JIT on the untransformed function: every
    // observable must match bit-exactly (a declined function is not a
    // divergence).
    snslp_jit::check_backends(&case.function, &case.args, model, &ExecOptions::default())
        .map_err(|e| fail("jit", e))?;
    // Instrumented hotness on the same inputs: per-class native
    // execution counts must reconcile exactly with the interpreter's
    // DynProfile (a declined function is not a divergence).
    snslp_jit::check_hotness(
        &case.function,
        &case.args,
        model,
        &ExecOptions::default(),
        BTreeMap::new(),
    )
    .map_err(|e| fail("jit-hot", e))?;

    // Scalar O3 cleanup alone must already be semantics-preserving.
    let mut o3 = case.function.clone();
    optimize_o3(&mut o3);
    if let Err(e) = verify(&o3) {
        return Err(fail("o3-verify", format!("{e}\n{o3}")));
    }
    let after_o3 = execute(&o3, &case.args, model).map_err(|e| fail("o3", e))?;
    compare(&baseline, &after_o3).map_err(|e| fail("o3", e))?;
    check_profile_totals(&after_o3)
        .and_then(|()| check_scalar_profile(&after_o3))
        .map_err(|e| fail("o3-dyn-invariant", e))?;

    let mut reports = Vec::with_capacity(modes.len());
    for &mode in modes {
        let key = mode.code();
        let mut f = case.function.clone();
        // verify_after stays off: the pass would panic on broken IR,
        // while the oracle wants to report it as a divergence instead.
        let cfg = SlpConfig::new(mode).with_model(model.clone());
        let (report, profile) = run_slp_profiled(&mut f, &cfg);
        if let Err(e) = verify(&f) {
            return Err(fail(&format!("{key}-verify"), format!("{e}\n{f}")));
        }
        if let Err(e) = check_invariants(&report, cfg.threshold) {
            return Err(fail(&format!("{key}-invariant"), e));
        }
        if let Err(e) = check_decision_attribution(&report, &profile) {
            return Err(fail(&format!("{key}-decision-invariant"), e));
        }
        let after = execute(&f, &case.args, model).map_err(|e| fail(key, e))?;
        compare(&baseline, &after).map_err(|e| {
            fail(
                key,
                format!(
                    "{e}\n--- after {key} ({} graphs vectorized) ---\n{f}",
                    report.vectorized_graphs()
                ),
            )
        })?;
        check_profile_totals(&after)
            .and_then(|()| check_mem_traffic(&baseline, &after))
            .map_err(|e| fail(&format!("{key}-dyn-invariant"), e))?;
        // The vectorized variant must also execute identically under the
        // native backend — this is the path where a miscompiled SSE
        // lowering of a committed SN-SLP graph would surface.
        snslp_jit::check_backends(&f, &case.args, model, &ExecOptions::default())
            .map_err(|e| fail(&format!("{key}-jit"), e))?;
        snslp_jit::check_hotness(
            &f,
            &case.args,
            model,
            &ExecOptions::default(),
            BTreeMap::new(),
        )
        .map_err(|e| fail(&format!("{key}-jit-hot"), e))?;
        reports.push(report);
    }
    let baseline_trap = match baseline {
        Outcome::Trapped(t) => Some(t),
        Outcome::Ran(_) => None,
    };
    Ok(CaseOutcome {
        reports,
        baseline_trap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    const ALL_MODES: [SlpMode; 3] = [SlpMode::Slp, SlpMode::Lslp, SlpMode::SnSlp];

    #[test]
    fn small_batch_has_no_divergences() {
        let model = CostModel::default();
        for i in 0..150 {
            let case = generate(0xFA22, i);
            if let Err(d) = check_case(&case, &model, &ALL_MODES) {
                panic!("unexpected divergence: {d}\n{}", d.function);
            }
        }
    }

    #[test]
    fn jit_axis_is_exercised_non_vacuously() {
        // The `jit` / `<mode>-jit` stages must not be permanently
        // NotCovered: on a native host, a healthy share of generated
        // cases actually runs under both backends. The fallback set is
        // pinned too, before and after SN-SLP: a vector lowering that
        // returned an error would otherwise fall back silently, so every
        // declined function must be declined for its `fptosi`.
        if !snslp_jit::native_supported() {
            return;
        }
        let model = CostModel::default();
        let opts = ExecOptions::default();
        let mut covered = 0usize;
        for i in 0..40 {
            let case = generate(0xFA22, i);
            let mut vectorized = case.function.clone();
            run_slp(&mut vectorized, &SlpConfig::new(SlpMode::SnSlp));
            for f in [&case.function, &vectorized] {
                match snslp_jit::check_backends(f, &case.args, &model, &opts) {
                    Ok(snslp_jit::BackendDiff::Agreed) => covered += 1,
                    Ok(snslp_jit::BackendDiff::NotCovered { reason }) => assert!(
                        reason.contains("cast.fptosi"),
                        "case {i} fell back for a reason other than fptosi: {reason}"
                    ),
                    Err(e) => panic!("case {i} diverged: {e}"),
                }
            }
        }
        assert!(covered > 0, "no generated case was JIT-covered");
    }

    #[test]
    fn dyn_invariants_catch_broken_profiles() {
        use snslp_interp::ExecResult;

        let ran = |cycles, dyn_insts, profile| {
            Outcome::Ran(Box::new(RunOutcome {
                exec: ExecResult {
                    function: "t".to_string(),
                    ret: None,
                    cycles,
                    dyn_insts,
                    profile,
                },
                arrays: Vec::new(),
            }))
        };

        // An empty profile only matches an empty run.
        let empty = ran(0, 0, Default::default());
        assert!(check_profile_totals(&empty).is_ok());
        assert!(check_scalar_profile(&empty).is_ok());
        let hollow = ran(3, 1, Default::default());
        assert!(check_profile_totals(&hollow).is_err());

        // Vector activity flunks the scalar-pipeline check ...
        let mut p = snslp_interp::DynProfile::new();
        p.vector_ops = 2;
        let vectorish = ran(0, 0, p.clone());
        assert!(check_scalar_profile(&vectorish).is_err());

        // ... and extra dynamic memory ops flunk the traffic check.
        let mut more = snslp_interp::DynProfile::new();
        more.loads = 4;
        let mut fewer = snslp_interp::DynProfile::new();
        fewer.loads = 2;
        assert!(check_mem_traffic(&ran(0, 0, fewer.clone()), &ran(0, 0, more.clone())).is_err());
        assert!(check_mem_traffic(&ran(0, 0, more), &ran(0, 0, fewer)).is_ok());

        // Traps carry no profile: vacuously fine on either side.
        let trap = Outcome::Trapped(Trap::DivisionByZero);
        assert!(check_profile_totals(&trap).is_ok());
        assert!(check_mem_traffic(&trap, &vectorish).is_ok());
    }

    #[test]
    fn decision_attribution_is_cross_checked() {
        // Find a generated case that actually makes decisions, so the
        // invariant is exercised non-vacuously.
        let cfg = SlpConfig::new(SlpMode::SnSlp);
        let (case, report, profile) = (0..80)
            .find_map(|i| {
                let case = generate(0xDEC1, i);
                let mut f = case.function.clone();
                let (report, profile) = run_slp_profiled(&mut f, &cfg);
                (!report.remarks.is_empty()).then_some((case, report, profile))
            })
            .expect("no case in the batch produced a remark");
        drop(case);
        check_decision_attribution(&report, &profile).unwrap();

        // A duplicated remark re-uses an anchor: rejected.
        let mut dup = report.clone();
        let r = dup.remarks[0].clone();
        dup.remarks.push(r);
        assert!(check_decision_attribution(&dup, &profile)
            .unwrap_err()
            .contains("duplicate decision id"));

        // A lost graph snapshot breaks the remark<->graph bijection.
        if !report.graphs.is_empty() {
            let mut lost = report.clone();
            lost.graphs.pop();
            assert!(check_decision_attribution(&lost, &profile).is_err());
        }

        // A run with no recorded spans cannot attribute compile time.
        let empty = Profile { tracks: Vec::new() };
        assert!(check_decision_attribution(&report, &empty)
            .unwrap_err()
            .contains("0 profiler spans"));
    }

    #[test]
    fn reduction_graphs_report_their_supernode_moves() {
        // In these cases every Super-Node move is made in a reduction
        // graph (no store graph moves anything), so the per-graph sums
        // must account for every move the counters saw.
        for (index, modes) in [(1607, &ALL_MODES[1..]), (1783, &ALL_MODES[2..])] {
            let case = generate(0xC60, index);
            for &mode in modes {
                let mut f = case.function.clone();
                let report = run_slp(&mut f, &SlpConfig::new(mode));
                let sum = |moves: fn(&snslp_core::GraphStats) -> usize| {
                    report.graphs.iter().map(moves).sum::<usize>() as u64
                };
                let counted = (
                    report.metrics.get(Counter::LeafMoves),
                    report.metrics.get(Counter::TrunkAssistedMoves),
                );
                assert!(counted.0 > 0, "case {index} [{mode:?}] moves no leaf");
                assert_eq!(
                    (sum(|g| g.leaf_moves), sum(|g| g.trunk_assisted_moves)),
                    counted,
                    "case {index} [{mode:?}]: graph stats vs counters"
                );
            }
        }
    }

    #[test]
    fn trap_kinds_compare_strictly() {
        let a = Outcome::Trapped(Trap::DivisionByZero);
        let b = Outcome::Trapped(Trap::OutOfBounds(64));
        assert!(compare(&a, &b).is_err());
        let c = Outcome::Trapped(Trap::OutOfBounds(128));
        assert!(compare(&b, &c).is_ok());
    }
}
