//! Cross-layer decision attribution: the `snslp-report/v1` document.
//!
//! The five observability layers (remarks, profiler spans, DOT dumps,
//! stats, dynamic profiles) each carry the same [`DecisionId`] anchor
//! since it is minted in the pass; this module performs the join. Per
//! function it produces one row per decision: the remark outcome and
//! reason code, the predicted cost delta, the compile time spent inside
//! that decision's profiler span, and the decision-stamped graph
//! snapshot — alongside the function's achieved dynamic cycles and lane
//! utilization from the interpreter.
//!
//! Each function row also carries the whole pass-counter registry and
//! the per-stage compile timers, so the report is the one per-function
//! compile document.
//!
//! Consumers:
//! - [`render_html`]: a zero-dependency single-file HTML explorer
//!   (`snslpc --report`, byte-stable under the virtual clock);
//! - [`diff`]: root-causes a benchmark regression down to the specific
//!   decisions whose outcomes changed, ranked by cycle impact, next to
//!   exact counter deltas and gated stage-time regressions
//!   (`snslp-bench report diff A B`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use snslp_core::{optimize_o3, run_slp, run_slp_module, FunctionReport, SlpConfig};
use snslp_cost::CostModel;
use snslp_interp::{run_with_args, ExecOptions};
use snslp_ir::Module;
use snslp_trace::{Counter, DecisionId, Facet, Profile, Stage};

use crate::json::{obj, read_text, round3, Json, View};

/// The schema tag every attribution report carries; bump on breaking
/// format changes.
pub const REPORT_SCHEMA: &str = "snslp-report/v1";

/// One vectorization decision, fully attributed across layers.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRow {
    /// Rendered [`DecisionId`] (`@fn/block/sN#iM`).
    pub id: String,
    /// Basic-block label of the seed.
    pub block: String,
    /// Printed name of the seed site (diagnostic only; `inst` is the
    /// stable coordinate).
    pub site: String,
    /// Stable instruction index of the seed root.
    pub inst: u64,
    /// `store` or `reduction`.
    pub seed_kind: String,
    /// Lanes in the seed bundle.
    pub width: u64,
    /// Whether the bundle was vectorized.
    pub vectorized: bool,
    /// Remark reason code.
    pub reason: String,
    /// Predicted cost delta (negative = saving); `None` when no costable
    /// graph was built.
    pub cost: Option<i64>,
    /// Free-form remark detail.
    pub detail: String,
    /// Nanoseconds spent inside this decision's profiler span (graph
    /// build through codegen). Deterministic under the virtual clock.
    pub compile_ns: u64,
    /// Exact native execution count of the instructions this decision
    /// emitted, from an instrumented JIT run; `None` when the decision
    /// emitted no code or no native measurement ran.
    pub native_count: Option<u64>,
    /// Measured native nanoseconds attributed to this decision's
    /// instructions (function wall time apportioned by executed code
    /// bytes); `None` alongside `native_count`.
    pub native_ns: Option<u64>,
    /// Decision-stamped DOT source of the final graph; empty when the
    /// decision produced no graph (e.g. too-narrow reductions).
    pub dot: String,
}

/// One function's attributed decisions plus its dynamic outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionAttrib {
    /// Compilation unit (kernel or module name) the function came from.
    pub unit: String,
    /// Function name, without the `@` sigil.
    pub function: String,
    /// One row per decision, pass consideration order.
    pub decisions: Vec<DecisionRow>,
    /// Sum of committed graph costs (negative = predicted saving).
    pub predicted_cost: i64,
    /// Achieved dynamic cycles of the vectorized build (0 = not run).
    pub cycles: u64,
    /// Dynamic cycles of the scalar `o3` baseline (0 = not run).
    pub o3_cycles: u64,
    /// Dynamic instructions of the vectorized build.
    pub dyn_insts: u64,
    /// Vector ops executed dynamically.
    pub vector_ops: u64,
    /// Scalar ops executed dynamically.
    pub scalar_ops: u64,
    /// Mean occupied lanes per vector op, when any vector op ran.
    pub mean_lanes: Option<f64>,
    /// Compile-time stage breakdown (microseconds), [`Stage::ALL`] order.
    pub stages_us: Vec<(String, f64)>,
    /// The pass-counter registry for this function, [`Counter::ALL`]
    /// order. Deterministic for a fixed input and configuration.
    pub counters: [u64; Counter::ALL.len()],
}

impl FunctionAttrib {
    /// `unit/@function`, the join key used by [`diff`].
    pub fn key(&self) -> String {
        format!("{}/@{}", self.unit, self.function)
    }

    /// Achieved speedup over the scalar baseline, when both ran.
    pub fn speedup(&self) -> Option<f64> {
        if self.cycles > 0 && self.o3_cycles > 0 {
            Some(self.o3_cycles as f64 / self.cycles as f64)
        } else {
            None
        }
    }
}

/// The whole attribution report.
#[derive(Debug, Clone, PartialEq)]
pub struct AttribReport {
    /// Pass code the run used (`slp`, `lslp`, `snslp`).
    pub mode: String,
    /// One entry per function, unit order.
    pub functions: Vec<FunctionAttrib>,
}

/// Dynamic outcome of one function, keyed by the interpreter's
/// per-function result (`ExecResult::function`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynSummary {
    /// Cycles of the vectorized build.
    pub cycles: u64,
    /// Cycles of the scalar `o3` baseline.
    pub o3_cycles: u64,
    /// Dynamic instructions of the vectorized build.
    pub dyn_insts: u64,
    /// Vector ops executed.
    pub vector_ops: u64,
    /// Scalar ops executed.
    pub scalar_ops: u64,
    /// Mean occupied lanes per vector op.
    pub mean_lanes: Option<f64>,
}

// ---------------------------------------------------------------------
// The join pass.
// ---------------------------------------------------------------------

/// Joins one function's pass report against the profiler spans and an
/// optional dynamic run. Every remark becomes one [`DecisionRow`]; the
/// graph snapshot comes from the [`GraphStats`](snslp_core::GraphStats)
/// entry carrying the same [`DecisionId`], the compile time from the
/// `decision` profiler span labelled with it, and the native columns
/// from an instrumented hotness run
/// ([`decision_hot`](crate::hot::decision_hot)), when one ran.
pub fn attrib_function(
    unit: &str,
    report: &FunctionReport,
    profile: &Profile,
    dyn_run: Option<&DynSummary>,
    native: Option<&BTreeMap<String, (u64, u64)>>,
) -> FunctionAttrib {
    // Per-decision compile time: sum over `decision` spans by label.
    let mut span_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for track in &profile.tracks {
        for ev in &track.events {
            if ev.name == "decision" {
                if let Some(label) = &ev.label {
                    *span_ns.entry(label).or_default() += ev.dur_ns;
                }
            }
        }
    }
    // Per-decision graph snapshot.
    let dots: BTreeMap<String, &str> = report
        .graphs
        .iter()
        .map(|g| (g.decision.render(), g.dot.as_str()))
        .collect();
    let decisions = report
        .remarks
        .iter()
        .map(|r| {
            let id = r.decision.render();
            let hot = native.and_then(|m| m.get(&id));
            DecisionRow {
                block: r.block.clone(),
                site: r.site.clone(),
                inst: u64::from(r.inst),
                seed_kind: r.seed_kind.clone(),
                width: r.width as u64,
                vectorized: r.vectorized,
                reason: r.reason.code().to_string(),
                cost: r.cost,
                detail: r.detail.clone(),
                compile_ns: span_ns.get(id.as_str()).copied().unwrap_or(0),
                native_count: hot.map(|&(count, _)| count),
                native_ns: hot.map(|&(_, ns)| ns),
                dot: dots.get(&id).copied().unwrap_or("").to_string(),
                id,
            }
        })
        .collect();
    let stages_us = Stage::ALL
        .iter()
        .map(|&s| {
            (
                s.name().to_string(),
                round3(report.metrics.stage_nanos(s) as f64 / 1e3),
            )
        })
        .collect();
    let dyn_run = dyn_run.cloned().unwrap_or_default();
    FunctionAttrib {
        unit: unit.to_string(),
        function: report.function.clone(),
        decisions,
        predicted_cost: report.predicted_cost(),
        cycles: dyn_run.cycles,
        o3_cycles: dyn_run.o3_cycles,
        dyn_insts: dyn_run.dyn_insts,
        vector_ops: dyn_run.vector_ops,
        scalar_ops: dyn_run.scalar_ops,
        mean_lanes: dyn_run.mean_lanes,
        stages_us,
        counters: Counter::ALL.map(|c| report.metrics.get(c)),
    }
}

/// Runs `compile` in one profiler window: the `Prof` facet on over a
/// clean profiler store, and `keep_graph_dots` set on the configuration
/// it gets. Restores the previous facet mask and returns the window's
/// profile.
///
/// The facet mask and the profiler store are process-global; callers
/// running concurrently with other facet users must serialize
/// externally (tests take a lock).
fn profiled<T>(cfg: &SlpConfig, compile: impl FnOnce(&SlpConfig) -> T) -> (T, Profile) {
    let prev = snslp_trace::set_facets(snslp_trace::facets() | Facet::Prof as u32);
    snslp_trace::prof::clear();
    let mut cfg = cfg.clone();
    cfg.keep_graph_dots = true;
    let out = compile(&cfg);
    let profile = snslp_trace::prof::take_profile();
    snslp_trace::set_facets(prev);
    (out, profile)
}

/// Runs the full attribution pipeline for one kernel under `cfg`: a
/// profiled pass run with graph DOTs retained, plus interpreted dynamic
/// runs of the vectorized build and the scalar `o3` baseline.
///
/// The pass runs in its own profiler window, which toggles the
/// process-global `Prof` facet; callers running concurrently with other
/// facet users must serialize externally (tests take a lock).
///
/// # Panics
///
/// Panics if the kernel fails to compile or interpret — both indicate a
/// bug in the reproduction, not in inputs.
pub fn attrib_kernel(kernel: &snslp_kernels::Kernel, cfg: &SlpConfig) -> FunctionAttrib {
    let ((f, report), profile) = profiled(cfg, |cfg| {
        let mut f = kernel.build();
        let report = run_slp(&mut f, cfg);
        (f, report)
    });

    let model = CostModel::default();
    let args = kernel.args(kernel.default_iters);
    // Native hotness join: an instrumented JIT run (when the host has
    // one) attributes exact execution counts and measured nanoseconds
    // to each decision's emitted instructions. The wall measurement
    // uses the trace clock, so report goldens stay byte-stable under
    // the virtual clock.
    let native = crate::hot::native_hot_timed(&f, &args, crate::hot::decision_map(&report))
        .map(|(prof, wall_ns)| crate::hot::decision_hot(&prof, wall_ns));
    let out = run_with_args(&f, &args, &model, &ExecOptions::default())
        .unwrap_or_else(|e| panic!("kernel {} failed to run: {e:?}", kernel.name));
    let mut o3f = kernel.build();
    optimize_o3(&mut o3f);
    let o3 = run_with_args(&o3f, &args, &model, &ExecOptions::default())
        .unwrap_or_else(|e| panic!("kernel {} (o3) failed to run: {e:?}", kernel.name));
    // The interpreter keys its result by function; the pass report must
    // describe the same function or the join is meaningless.
    assert_eq!(out.exec.function, report.function);
    let dyn_run = DynSummary {
        cycles: out.exec.cycles,
        o3_cycles: o3.exec.cycles,
        dyn_insts: out.exec.dyn_insts,
        vector_ops: out.exec.profile.vector_ops,
        scalar_ops: out.exec.profile.scalar_ops,
        mean_lanes: out.exec.profile.mean_lanes(),
    };
    attrib_function(
        kernel.name,
        &report,
        &profile,
        Some(&dyn_run),
        native.as_ref(),
    )
}

/// Compiles every function of `module` under `cfg` in one profiler
/// window and joins each through [`attrib_function`] as unit `unit`. One
/// window per module keeps two modules that both define `@f` from mixing
/// their decision spans. No dynamic or native run joins: module sources
/// carry no kernel argument spec.
///
/// Toggles the process-global `Prof` facet like [`attrib_kernel`].
pub fn attrib_module(unit: &str, module: &mut Module, cfg: &SlpConfig) -> Vec<FunctionAttrib> {
    let (reports, profile) = profiled(cfg, |cfg| run_slp_module(module, cfg));
    reports
        .iter()
        .map(|r| attrib_function(unit, r, &profile, None, None))
        .collect()
}

/// Builds the attribution report over the whole kernel registry under
/// `cfg` via [`attrib_kernel`].
pub fn collect_kernel_attrib(cfg: &SlpConfig) -> AttribReport {
    AttribReport {
        mode: cfg.mode.code().to_string(),
        functions: snslp_kernels::registry()
            .iter()
            .map(|kernel| attrib_kernel(kernel, cfg))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// JSON emission and the strict reader.
// ---------------------------------------------------------------------

impl AttribReport {
    /// Renders the report as pretty `snslp-report/v1` JSON.
    pub fn to_json(&self) -> String {
        let decision = |d: &DecisionRow| {
            obj([
                ("id", d.id.as_str().into()),
                ("block", d.block.as_str().into()),
                ("site", d.site.as_str().into()),
                ("inst", d.inst.into()),
                ("seed", d.seed_kind.as_str().into()),
                ("width", d.width.into()),
                ("action", action_str(d.vectorized).into()),
                ("reason", d.reason.as_str().into()),
                ("cost", d.cost.into()),
                ("detail", d.detail.as_str().into()),
                ("compile_ns", d.compile_ns.into()),
                ("native_count", d.native_count.into()),
                ("native_ns", d.native_ns.into()),
                ("dot", d.dot.as_str().into()),
            ])
        };
        let functions = self
            .functions
            .iter()
            .map(|f| {
                obj([
                    ("unit", f.unit.as_str().into()),
                    ("function", f.function.as_str().into()),
                    ("predicted_cost", f.predicted_cost.into()),
                    ("cycles", f.cycles.into()),
                    ("o3_cycles", f.o3_cycles.into()),
                    ("dyn_insts", f.dyn_insts.into()),
                    ("vector_ops", f.vector_ops.into()),
                    ("scalar_ops", f.scalar_ops.into()),
                    ("mean_lanes", f.mean_lanes.map(round3).into()),
                    (
                        "stages_us",
                        obj(f.stages_us.iter().map(|(k, v)| (k.as_str(), (*v).into()))),
                    ),
                    (
                        "counters",
                        obj(Counter::ALL
                            .iter()
                            .zip(f.counters)
                            .map(|(c, v)| (c.name(), v.into()))),
                    ),
                    (
                        "decisions",
                        Json::Arr(f.decisions.iter().map(decision).collect()),
                    ),
                ])
            })
            .collect();
        obj([
            ("schema", REPORT_SCHEMA.into()),
            ("mode", self.mode.as_str().into()),
            ("functions", Json::Arr(functions)),
        ])
        .render()
    }

    /// Parses and validates a report document: schema tag, required
    /// fields, parseable and unique decision ids per function, plausible
    /// numbers.
    pub fn from_json(text: &str) -> Result<AttribReport, String> {
        let report = read_text(text, REPORT_SCHEMA, |o| {
            Ok(AttribReport {
                mode: o.str("mode")?.to_string(),
                functions: o.objs("functions", function_from_json)?,
            })
        })?;
        if report.functions.is_empty() {
            return Err("report has no functions".to_string());
        }
        Ok(report)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let decisions: usize = self.functions.iter().map(|f| f.decisions.len()).sum();
        let vectorized: usize = self
            .functions
            .iter()
            .flat_map(|f| &f.decisions)
            .filter(|d| d.vectorized)
            .count();
        format!(
            "snslp-report/v1 [{}]: {} functions, {decisions} decisions ({vectorized} vectorized)",
            self.mode,
            self.functions.len(),
        )
    }
}

fn action_str(vectorized: bool) -> &'static str {
    if vectorized {
        "vectorized"
    } else {
        "missed"
    }
}

fn function_from_json(row: &mut View) -> Result<FunctionAttrib, String> {
    let unit = row.str("unit")?.to_string();
    let function = row.str("function")?.to_string();
    let ctx = format!("{unit}/@{function}");
    let f = FunctionAttrib {
        predicted_cost: row.i64("predicted_cost")?,
        cycles: row.u64("cycles")?,
        o3_cycles: row.u64("o3_cycles")?,
        dyn_insts: row.u64("dyn_insts")?,
        vector_ops: row.u64("vector_ops")?,
        scalar_ops: row.u64("scalar_ops")?,
        mean_lanes: row.opt_f64("mean_lanes")?,
        stages_us: row.obj("stages_us", |m| m.each(View::f64))?,
        counters: row.obj("counters", |m| {
            let mut counters = [0; Counter::ALL.len()];
            for (slot, c) in counters.iter_mut().zip(Counter::ALL) {
                *slot = m.u64(c.name())?;
            }
            Ok(counters)
        })?,
        decisions: row.objs("decisions", |d| {
            Ok(DecisionRow {
                id: d.str("id")?.to_string(),
                block: d.str("block")?.to_string(),
                site: d.str("site")?.to_string(),
                inst: d.u64("inst")?,
                seed_kind: d.str("seed")?.to_string(),
                width: d.u64("width")?,
                vectorized: match d.str("action")? {
                    "vectorized" => true,
                    "missed" => false,
                    other => return Err(format!("{ctx}: unknown action `{other}`")),
                },
                reason: d.str("reason")?.to_string(),
                cost: d.opt_i64("cost")?,
                detail: d.str("detail")?.to_string(),
                compile_ns: d.u64("compile_ns")?,
                native_count: d.opt_u64("native_count")?,
                native_ns: d.opt_u64("native_ns")?,
                dot: d.str("dot")?.to_string(),
            })
        })?,
        unit,
        function,
    };
    if f.mean_lanes.is_some_and(|l| l < 1.0) {
        return Err(format!("{ctx}: implausible mean_lanes"));
    }
    if let Some((name, _)) = f.stages_us.iter().find(|(_, us)| *us < 0.0) {
        return Err(format!("{ctx}: implausible stage time for `{name}`"));
    }
    let mut seen = std::collections::BTreeSet::new();
    for d in &f.decisions {
        let id = &d.id;
        let parsed = DecisionId::parse(id).map_err(|e| format!("{ctx}: {e}"))?;
        if parsed.function != f.function {
            return Err(format!(
                "{ctx}: decision `{id}` belongs to another function"
            ));
        }
        if !seen.insert(id) {
            return Err(format!("{ctx}: duplicate decision id `{id}`"));
        }
        if d.native_count.is_some() != d.native_ns.is_some() {
            return Err(format!(
                "{ctx}: `{id}` has only one of native_count/native_ns"
            ));
        }
    }
    Ok(f)
}

// ---------------------------------------------------------------------
// Regression root-causing.
// ---------------------------------------------------------------------

/// One decision whose outcome differs between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionDelta {
    /// Compilation unit (kernel) of the function.
    pub unit: String,
    /// Function name.
    pub function: String,
    /// The decision anchor, rendered.
    pub id: String,
    /// `vectorized` / `missed` in the base run (`absent` if new).
    pub base_action: String,
    /// `vectorized` / `missed` in the new run (`absent` if removed).
    pub new_action: String,
    /// Reason code in the base run.
    pub base_reason: String,
    /// Reason code in the new run.
    pub new_reason: String,
    /// Predicted cost in the base run.
    pub base_cost: Option<i64>,
    /// Predicted cost in the new run.
    pub new_cost: Option<i64>,
    /// Cycle delta of the enclosing function (`new - base`; positive =
    /// the function got slower). All changed decisions of one function
    /// share its delta — the interpreter cannot split cycles per
    /// decision, so the function is the attribution granularity and the
    /// cost delta breaks ties within it.
    pub cycle_impact: i64,
}

impl DecisionDelta {
    /// Magnitude of the predicted-cost change, the intra-function rank.
    fn cost_shift(&self) -> i64 {
        (self.new_cost.unwrap_or(0) - self.base_cost.unwrap_or(0)).abs()
    }
}

/// Thresholds separating noise from regressions in [`diff`]'s stage-time
/// section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffGates {
    /// A stage time must grow by more than this factor...
    pub stage_ratio: f64,
    /// ...*and* by more than this many microseconds to count. The floor
    /// keeps two honest runs of a small corpus from flagging scheduler
    /// jitter on sub-millisecond stages.
    pub stage_floor_us: f64,
}

impl Default for DiffGates {
    fn default() -> Self {
        DiffGates {
            stage_ratio: 2.0,
            stage_floor_us: 500.0,
        }
    }
}

impl DiffGates {
    /// Whether a stage that took `base` microseconds regressed at `new`.
    fn regressed(&self, base: f64, new: f64) -> bool {
        new > base * self.stage_ratio && new - base > self.stage_floor_us
    }
}

/// One changed value of one function: a counter or a stage time.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// `unit/@function` the change is in.
    pub key: String,
    /// Which counter or stage changed.
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// New value.
    pub new: f64,
}

impl DeltaRow {
    /// Absolute change, the rank of a row within its section.
    fn magnitude(&self) -> f64 {
        (self.new - self.base).abs()
    }

    /// `new / base`, with 0/0 = 1 and x/0 = infinity.
    fn ratio(&self) -> f64 {
        if self.base == 0.0 {
            if self.new == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.new / self.base
        }
    }
}

/// The root-cause report of [`diff`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttribDiff {
    /// Decisions whose outcome changed, ranked by cycle impact
    /// (regressions first), then by predicted-cost shift.
    pub changed: Vec<DecisionDelta>,
    /// Changed pass counters, exact, largest change first.
    pub counter_deltas: Vec<DeltaRow>,
    /// Stage times past both [`DiffGates`] thresholds, largest growth
    /// first.
    pub stage_regressions: Vec<DeltaRow>,
    /// Function keys present only in the base run.
    pub only_base: Vec<String>,
    /// Function keys present only in the new run.
    pub only_new: Vec<String>,
}

impl AttribDiff {
    /// No differences at all (a self-diff must be clean).
    pub fn is_clean(&self) -> bool {
        self.changed.is_empty()
            && self.counter_deltas.is_empty()
            && self.stage_regressions.is_empty()
            && self.only_base.is_empty()
            && self.only_new.is_empty()
    }

    /// Renders one ranked section per kind of difference, each cut to its
    /// first `top_n` rows.
    pub fn render(&self, top_n: usize) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str("no decision, counter or stage-time changes\n");
            return out;
        }
        for key in &self.only_base {
            let _ = writeln!(out, "function only in base run: {key}");
        }
        for key in &self.only_new {
            let _ = writeln!(out, "function only in new run: {key}");
        }
        if !self.changed.is_empty() {
            let _ = writeln!(
                out,
                "{} changed decision(s), ranked by cycle impact:",
                self.changed.len()
            );
        }
        for (i, d) in self.changed.iter().take(top_n).enumerate() {
            let _ = writeln!(
                out,
                "  {}. {}/@{} {}: {} -> {} ({} -> {}), cost {} -> {}, \
                 function cycles {:+}",
                i + 1,
                d.unit,
                d.function,
                d.id,
                d.base_action,
                d.new_action,
                d.base_reason,
                d.new_reason,
                fmt_cost(d.base_cost),
                fmt_cost(d.new_cost),
                d.cycle_impact,
            );
        }
        more(&mut out, self.changed.len(), top_n);
        delta_section(
            &mut out,
            "changed counter(s)",
            &self.counter_deltas,
            "",
            top_n,
        );
        delta_section(
            &mut out,
            "stage-time regression(s)",
            &self.stage_regressions,
            "us",
            top_n,
        );
        out
    }
}

/// Renders one ranked [`DeltaRow`] section; nothing when `rows` is empty.
fn delta_section(out: &mut String, title: &str, rows: &[DeltaRow], unit: &str, top_n: usize) {
    if rows.is_empty() {
        return;
    }
    let _ = writeln!(out, "{} {title}, largest first:", rows.len());
    for (i, row) in rows.iter().take(top_n).enumerate() {
        let ratio = row.ratio();
        let ratio = if ratio.is_finite() {
            format!("{ratio:.2}x")
        } else {
            "inf".to_string()
        };
        let _ = writeln!(
            out,
            "  {}. {} {}: {}{unit} -> {}{unit} ({ratio})",
            i + 1,
            row.key,
            row.name,
            trim_num(row.base),
            trim_num(row.new),
        );
    }
    more(out, rows.len(), top_n);
}

/// The `... and N more` line of a section cut to `top_n` rows.
fn more(out: &mut String, rows: usize, top_n: usize) {
    if rows > top_n {
        let _ = writeln!(out, "  ... and {} more", rows - top_n);
    }
}

fn trim_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

fn fmt_cost(c: Option<i64>) -> String {
    match c {
        Some(c) => c.to_string(),
        None => "-".to_string(),
    }
}

fn fmt_opt(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "-".to_string(),
    }
}

/// Root-causes the difference between two attribution runs: for every
/// function present in both, decisions whose `(action, reason, cost)`
/// outcome changed (or that appear/disappear) become [`DecisionDelta`]s
/// carrying the function's achieved cycle delta, ranked regressions
/// first. Counters are deterministic, so every changed counter is a
/// [`DeltaRow`]; stage times are wall-clock, so only growth past
/// [`DiffGates::default`] is.
pub fn diff(base: &AttribReport, new: &AttribReport) -> AttribDiff {
    let gates = DiffGates::default();
    let base_fns: BTreeMap<String, &FunctionAttrib> =
        base.functions.iter().map(|f| (f.key(), f)).collect();
    let new_fns: BTreeMap<String, &FunctionAttrib> =
        new.functions.iter().map(|f| (f.key(), f)).collect();
    let mut out = AttribDiff::default();
    for key in base_fns.keys() {
        if !new_fns.contains_key(key) {
            out.only_base.push(key.clone());
        }
    }
    for key in new_fns.keys() {
        if !base_fns.contains_key(key) {
            out.only_new.push(key.clone());
        }
    }
    for (key, bf) in &base_fns {
        let Some(nf) = new_fns.get(key) else { continue };
        let row = |name: &str, base: f64, new: f64| DeltaRow {
            key: key.clone(),
            name: name.to_string(),
            base,
            new,
        };
        for ((c, b), n) in Counter::ALL.iter().zip(bf.counters).zip(nf.counters) {
            if b != n {
                out.counter_deltas.push(row(c.name(), b as f64, n as f64));
            }
        }
        for (name, n) in &nf.stages_us {
            let b = bf
                .stages_us
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0.0, |(_, us)| *us);
            if gates.regressed(b, *n) {
                out.stage_regressions.push(row(name, b, *n));
            }
        }
        let cycle_impact = nf.cycles as i64 - bf.cycles as i64;
        let bd: BTreeMap<&str, &DecisionRow> =
            bf.decisions.iter().map(|d| (d.id.as_str(), d)).collect();
        let nd: BTreeMap<&str, &DecisionRow> =
            nf.decisions.iter().map(|d| (d.id.as_str(), d)).collect();
        let mut ids: Vec<&str> = bd.keys().chain(nd.keys()).copied().collect();
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            let (b, n) = (bd.get(id), nd.get(id));
            let changed = match (b, n) {
                (Some(b), Some(n)) => {
                    b.vectorized != n.vectorized || b.reason != n.reason || b.cost != n.cost
                }
                _ => true,
            };
            if !changed {
                continue;
            }
            out.changed.push(DecisionDelta {
                unit: bf.unit.clone(),
                function: bf.function.clone(),
                id: id.to_string(),
                base_action: b.map_or("absent", |d| action_str(d.vectorized)).to_string(),
                new_action: n.map_or("absent", |d| action_str(d.vectorized)).to_string(),
                base_reason: b.map_or(String::new(), |d| d.reason.clone()),
                new_reason: n.map_or(String::new(), |d| d.reason.clone()),
                base_cost: b.and_then(|d| d.cost),
                new_cost: n.and_then(|d| d.cost),
                cycle_impact,
            });
        }
    }
    // Regressions (positive cycle deltas) first, largest first; within a
    // function the biggest predicted-cost shift leads; the id breaks the
    // final tie so the order is total and deterministic.
    out.changed.sort_by(|a, b| {
        b.cycle_impact
            .cmp(&a.cycle_impact)
            .then(b.cost_shift().cmp(&a.cost_shift()))
            .then(a.id.cmp(&b.id))
    });
    for rows in [&mut out.counter_deltas, &mut out.stage_regressions] {
        rows.sort_by(|a, b| {
            b.magnitude()
                .total_cmp(&a.magnitude())
                .then_with(|| (&a.key, &a.name).cmp(&(&b.key, &b.name)))
        });
    }
    out
}

// ---------------------------------------------------------------------
// DOT -> inline SVG.
// ---------------------------------------------------------------------

struct DotNode {
    index: usize,
    shape: String,
    color: String,
    lines: Vec<String>,
}

/// Renders one of our own DOT graph dumps as an inline SVG: a layered
/// top-down layout (roots above their operands), boxes per node, edges
/// labelled with the operand index. This is not a general DOT renderer —
/// it parses exactly the line format [`snslp_core::graph_to_dot_tagged`]
/// emits, which is all the report ever embeds.
pub fn dot_to_svg(dot: &str) -> String {
    let mut nodes: Vec<DotNode> = Vec::new();
    let mut edges: Vec<(usize, usize, String)> = Vec::new();
    for line in dot.lines() {
        let line = line.trim();
        if let Some((from, rest)) = line.strip_prefix('n').and_then(|l| l.split_once(" -> n")) {
            // `n0 -> n1 [label="0"];`
            let (Ok(from), Some((to, rest))) = (from.parse::<usize>(), rest.split_once(" ["))
            else {
                continue;
            };
            let Ok(to) = to.parse::<usize>() else {
                continue;
            };
            let label = extract_label(rest).unwrap_or_default();
            edges.push((from, to, label));
        } else if let Some(rest) = line.strip_prefix('n') {
            // `n3 [shape=box, color=blue, label="..."];`
            let Some((index, rest)) = rest.split_once(" [") else {
                continue;
            };
            let Ok(index) = index.parse::<usize>() else {
                continue;
            };
            let attr = |key: &str| {
                rest.split(", ")
                    .find_map(|kv| kv.strip_prefix(key))
                    .map(|v| v.trim_end_matches("];").to_string())
            };
            let Some(label) = extract_label(rest) else {
                continue;
            };
            nodes.push(DotNode {
                index,
                shape: attr("shape=").unwrap_or_else(|| "box".to_string()),
                color: attr("color=").unwrap_or_else(|| "black".to_string()),
                lines: label.split('\n').map(str::to_string).collect(),
            });
        }
    }
    if nodes.is_empty() {
        return String::new();
    }
    nodes.sort_by_key(|n| n.index);
    let max_index = nodes.last().map(|n| n.index).unwrap_or(0);

    // Layer = longest path from a root (a node nothing points at).
    // Edges point node -> operand, so operands sit below their users.
    let mut depth = vec![0usize; max_index + 1];
    for _ in 0..=nodes.len() {
        let mut settled = true;
        for &(from, to, _) in &edges {
            if from <= max_index && to <= max_index && depth[to] < depth[from] + 1 {
                depth[to] = depth[from] + 1;
                settled = false;
            }
        }
        if settled {
            break;
        }
    }

    // Integer-only geometry keeps the output byte-stable.
    const CHAR_W: usize = 8;
    const LINE_H: usize = 16;
    const PAD: usize = 8;
    const GAP_X: usize = 28;
    const GAP_Y: usize = 48;
    let box_w = |n: &DotNode| n.lines.iter().map(String::len).max().unwrap_or(1) * CHAR_W + 2 * PAD;
    let box_h = |n: &DotNode| n.lines.len() * LINE_H + 2 * PAD;

    let max_depth = nodes.iter().map(|n| depth[n.index]).max().unwrap_or(0);
    let mut row_h = vec![0usize; max_depth + 1];
    for n in &nodes {
        row_h[depth[n.index]] = row_h[depth[n.index]].max(box_h(n));
    }
    let mut row_y = vec![0usize; max_depth + 1];
    let mut y = GAP_Y / 2;
    for d in 0..=max_depth {
        row_y[d] = y;
        y += row_h[d] + GAP_Y;
    }
    let mut pos = vec![(0usize, 0usize); max_index + 1]; // top-left x, y
    let mut row_x = vec![GAP_X / 2; max_depth + 1];
    let mut total_w = 0usize;
    for n in &nodes {
        let d = depth[n.index];
        pos[n.index] = (row_x[d], row_y[d]);
        row_x[d] += box_w(n) + GAP_X;
        total_w = total_w.max(row_x[d]);
    }
    let total_h = y - GAP_Y / 2;

    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{total_w}\" height=\"{total_h}\" \
         viewBox=\"0 0 {total_w} {total_h}\" font-family=\"monospace\" font-size=\"12\">"
    );
    for &(from, to, ref label) in &edges {
        if from > max_index || to > max_index {
            continue;
        }
        let (fx, fy) = pos[from];
        let (tx, ty) = pos[to];
        let fn_ref = &nodes[nodes.binary_search_by_key(&from, |n| n.index).unwrap_or(0)];
        let tn_ref = &nodes[nodes.binary_search_by_key(&to, |n| n.index).unwrap_or(0)];
        let (x1, y1) = (fx + box_w(fn_ref) / 2, fy + box_h(fn_ref));
        let (x2, y2) = (tx + box_w(tn_ref) / 2, ty);
        let _ = write!(
            svg,
            "<line x1=\"{x1}\" y1=\"{y1}\" x2=\"{x2}\" y2=\"{y2}\" stroke=\"#888\"/>\
             <text x=\"{}\" y=\"{}\" fill=\"#888\">{}</text>",
            (x1 + x2) / 2 + 3,
            (y1 + y2) / 2,
            xml_escape(label),
        );
    }
    for n in &nodes {
        let (x, y) = pos[n.index];
        let (w, h) = (box_w(n), box_h(n));
        let rx = if n.shape == "oval" { h / 2 } else { 3 };
        let _ = write!(
            svg,
            "<rect x=\"{x}\" y=\"{y}\" width=\"{w}\" height=\"{h}\" rx=\"{rx}\" \
             fill=\"white\" stroke=\"{}\"/>",
            xml_escape(&n.color),
        );
        for (i, line) in n.lines.iter().enumerate() {
            let _ = write!(
                svg,
                "<text x=\"{}\" y=\"{}\" fill=\"{}\">{}</text>",
                x + PAD,
                y + PAD + (i + 1) * LINE_H - 4,
                xml_escape(&n.color),
                xml_escape(line),
            );
        }
    }
    svg.push_str("</svg>");
    svg
}

/// Extracts and unescapes the `label="..."` attribute value from a DOT
/// attribute list. DOT `\n` escapes become real newlines.
fn extract_label(attrs: &str) -> Option<String> {
    let rest = attrs.split_once("label=\"")?.1;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

// ---------------------------------------------------------------------
// The single-file HTML explorer.
// ---------------------------------------------------------------------

/// Renders the report as a self-contained HTML explorer: no external
/// scripts, styles or fonts, so the file works offline and as a CI
/// artifact. Collapsible per-function sections hold the decision table;
/// each decision expands to its graph snapshot (inline SVG) and remark
/// detail. Output is a pure function of the report, so it is byte-stable
/// whenever the report is (virtual clock).
pub fn render_html(report: &AttribReport) -> String {
    let mut h = String::new();
    h.push_str("<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(
        h,
        "<title>snslp vectorization report [{}]</title>",
        report.mode
    );
    h.push_str(
        "<style>\n\
         body{font-family:monospace;margin:1.5em;background:#fafafa;color:#222}\n\
         h1{font-size:1.3em}\n\
         table{border-collapse:collapse;margin:.5em 0}\n\
         th,td{border:1px solid #ccc;padding:2px 8px;text-align:left}\n\
         th{background:#eee}\n\
         details{margin:.6em 0}\n\
         details.fn>summary{font-weight:bold;cursor:pointer}\n\
         details.dec{margin:.2em 0 .2em 1em}\n\
         .vec{color:#05691d}\n\
         .miss{color:#a11}\n\
         .num{text-align:right}\n\
         svg{background:white;border:1px solid #ddd;margin:.4em 0}\n\
         </style>\n</head>\n<body>\n",
    );
    let decisions: usize = report.functions.iter().map(|f| f.decisions.len()).sum();
    let vectorized: usize = report
        .functions
        .iter()
        .flat_map(|f| &f.decisions)
        .filter(|d| d.vectorized)
        .count();
    let _ = write!(
        h,
        "<h1>snslp vectorization report</h1>\n\
         <p>schema {REPORT_SCHEMA} &middot; mode <b>{}</b> &middot; {} functions &middot; \
         {decisions} decisions ({vectorized} vectorized)</p>\n",
        xml_escape(&report.mode),
        report.functions.len(),
    );
    for f in &report.functions {
        let _ = write!(
            h,
            "<details class=\"fn\" open>\n<summary>{} &middot; {}/{} vectorized",
            xml_escape(&f.key()),
            f.decisions.iter().filter(|d| d.vectorized).count(),
            f.decisions.len(),
        );
        if let Some(s) = f.speedup() {
            let _ = write!(h, " &middot; {:.2}x over O3", s);
        }
        h.push_str("</summary>\n");
        let _ = write!(
            h,
            "<p>predicted cost {:+} &middot; cycles {} (O3 {}) &middot; dyn insts {} &middot; \
             {} vector / {} scalar ops",
            f.predicted_cost, f.cycles, f.o3_cycles, f.dyn_insts, f.vector_ops, f.scalar_ops,
        );
        if let Some(l) = f.mean_lanes {
            let _ = write!(h, " &middot; mean lanes {:.2}", l);
        }
        h.push_str("</p>\n<p>compile stages (&micro;s):");
        for (name, us) in &f.stages_us {
            let _ = write!(h, " {}={us}", xml_escape(name));
        }
        h.push_str(
            "</p>\n<table>\n<tr><th>decision</th><th>seed</th><th>site</th>\
                    <th>inst</th><th>width</th><th>action</th><th>reason</th>\
                    <th>cost</th><th>compile &micro;s</th><th>native ops</th>\
                    <th>native ns</th></tr>\n",
        );
        for d in &f.decisions {
            let _ = writeln!(
                h,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td><td class=\"{}\">{}</td><td>{}</td>\
                 <td class=\"num\">{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td><td class=\"num\">{}</td></tr>",
                xml_escape(&d.id),
                xml_escape(&d.seed_kind),
                xml_escape(&d.site),
                d.inst,
                d.width,
                if d.vectorized { "vec" } else { "miss" },
                action_str(d.vectorized),
                xml_escape(&d.reason),
                fmt_cost(d.cost),
                d.compile_ns / 1_000,
                fmt_opt(d.native_count),
                fmt_opt(d.native_ns),
            );
        }
        h.push_str("</table>\n");
        for d in &f.decisions {
            let _ = write!(
                h,
                "<details class=\"dec\">\n<summary>graph for {}</summary>\n",
                xml_escape(&d.id),
            );
            if !d.detail.is_empty() {
                let _ = writeln!(h, "<p>detail: {}</p>", xml_escape(&d.detail));
            }
            let svg = dot_to_svg(&d.dot);
            if svg.is_empty() {
                h.push_str("<p>(no graph was built for this decision)</p>\n");
            } else {
                h.push_str(&svg);
                h.push('\n');
            }
            h.push_str("</details>\n");
        }
        h.push_str("</details>\n");
    }
    h.push_str("</body>\n</html>\n");
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AttribReport {
        AttribReport {
            mode: "snslp".to_string(),
            functions: vec![FunctionAttrib {
                unit: "motiv_leaf".to_string(),
                function: "motiv_leaf".to_string(),
                decisions: vec![DecisionRow {
                    id: "@motiv_leaf/entry/s0#i12".to_string(),
                    block: "entry".to_string(),
                    site: "%t12".to_string(),
                    inst: 12,
                    seed_kind: "store".to_string(),
                    width: 2,
                    vectorized: true,
                    reason: "profitable".to_string(),
                    cost: Some(-6),
                    detail: String::new(),
                    compile_ns: 42_000,
                    native_count: Some(16),
                    native_ns: Some(750),
                    dot: "digraph \"g\" {\n  n0 [shape=box, color=blue, \
                          label=\"#0 Store\\n[%t12, %t13]\"];\n  n1 [shape=box, color=black, \
                          label=\"#1 Vector\\n[%t8, %t9]\"];\n  n0 -> n1 [label=\"0\"];\n}\n"
                        .to_string(),
                }],
                predicted_cost: -6,
                cycles: 900,
                o3_cycles: 1200,
                dyn_insts: 300,
                vector_ops: 40,
                scalar_ops: 200,
                mean_lanes: Some(2.0),
                stages_us: vec![("cleanup".to_string(), 12.5)],
                counters: std::array::from_fn(|i| 10 * i as u64),
            }],
        }
    }

    /// [`sample`] with its one function renamed to `@{function}` in unit
    /// `unit`.
    fn sample_fn(unit: &str, function: &str) -> FunctionAttrib {
        let mut f = sample().functions.remove(0);
        f.unit = unit.to_string();
        f.function = function.to_string();
        for d in &mut f.decisions {
            d.id = d.id.replace("@motiv_leaf/", &format!("@{function}/"));
        }
        f
    }

    /// Sets `counter` of `f` to `v`.
    fn set(f: &mut FunctionAttrib, counter: Counter, v: u64) {
        f.counters[counter as usize] = v;
    }

    #[test]
    fn report_round_trips() {
        let r = sample();
        let back = AttribReport::from_json(&r.to_json()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn json_round_trip() {
        // Two rows with different counters: each keeps its own values,
        // in order.
        let mut a = sample_fn("k1", "f1");
        set(&mut a, Counter::LookaheadCacheHits, 10);
        set(&mut a, Counter::LookaheadCacheMisses, 4);
        let mut b = sample_fn("k2", "f2");
        set(&mut b, Counter::LookaheadCacheHits, 0);
        set(&mut b, Counter::LookaheadCacheMisses, 9);
        let r = report(vec![a, b]);
        let parsed = AttribReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn rejects_wrong_schema() {
        // A document of the retired `snslp-stats/v1` schema is refused,
        // naming both tags, before any of its members are read.
        let err = AttribReport::from_json(
            r#"{"schema": "snslp-stats/v1", "mode": "snslp", "functions": []}"#,
        )
        .unwrap_err();
        assert!(err.contains("found `snslp-stats/v1`"), "{err}");
        assert!(err.contains("expected `snslp-report/v1`"), "{err}");
    }

    #[test]
    fn strict_reader_rejects_malformed_documents() {
        assert!(AttribReport::from_json("{").is_err());
        assert!(AttribReport::from_json(r#"{"schema": "nope/v9"}"#).is_err());
        let err = AttribReport::from_json(r#"{"schema": "nope/v9"}"#).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        // A duplicate decision id is a join hazard and must be rejected.
        let mut r = sample();
        let d = r.functions[0].decisions[0].clone();
        r.functions[0].decisions.push(d);
        assert!(AttribReport::from_json(&r.to_json())
            .unwrap_err()
            .contains("duplicate decision id"));
        // A decision anchored to a different function cannot be joined.
        let mut r = sample();
        r.functions[0].decisions[0].id = "@other/entry/s0#i12".to_string();
        assert!(AttribReport::from_json(&r.to_json())
            .unwrap_err()
            .contains("belongs to another function"));
        // The native columns come as a pair: a count without its time
        // (or vice versa) means a mangled join.
        let mut r = sample();
        r.functions[0].decisions[0].native_ns = None;
        assert!(AttribReport::from_json(&r.to_json())
            .unwrap_err()
            .contains("only one of native_count/native_ns"));
    }

    /// [`sample`]'s document with `edit` applied to its function row's
    /// `counters` object, or to the row itself when `in_row`.
    fn edited(in_row: bool, edit: impl FnOnce(&mut Vec<(String, Json)>)) -> String {
        fn member<'j>(o: &'j mut [(String, Json)], key: &str) -> &'j mut Json {
            &mut o.iter_mut().find(|(k, _)| k == key).expect("member").1
        }
        let mut doc = Json::parse(&sample().to_json()).unwrap();
        let Json::Obj(root) = &mut doc else {
            panic!("root")
        };
        let Json::Arr(functions) = member(root, "functions") else {
            panic!("functions")
        };
        let Json::Obj(row) = &mut functions[0] else {
            panic!("row")
        };
        if in_row {
            edit(row);
        } else if let Json::Obj(counters) = member(row, "counters") {
            edit(counters);
        }
        doc.render()
    }

    #[test]
    fn reader_requires_every_counter() {
        type Edit<'e> = &'e dyn Fn(&mut Vec<(String, Json)>);
        let reject = |in_row: bool, edit: Edit, expected: &str| {
            let err = AttribReport::from_json(&edited(in_row, edit)).unwrap_err();
            assert!(err.contains(expected), "{err}");
        };
        reject(
            true,
            &|row| row.retain(|(k, _)| k != "counters"),
            "missing member `counters`",
        );
        reject(
            false,
            &|counters| {
                counters.pop();
            },
            "missing member `jit_fallbacks`",
        );
        reject(
            false,
            &|counters| counters.push(("bogus".to_string(), Json::Num(0.0))),
            "unknown member `bogus`",
        );
    }

    #[test]
    fn svg_renders_nodes_and_edges() {
        let svg = dot_to_svg(&sample().functions[0].decisions[0].dot);
        assert!(svg.starts_with("<svg"), "{svg}");
        assert!(svg.contains("#0 Store"), "{svg}");
        assert!(svg.contains("[%t12, %t13]"), "{svg}");
        assert!(svg.contains("<line"), "{svg}");
        // The operand sits one layer below its user.
        assert!(svg.ends_with("</svg>"));
        assert!(dot_to_svg("").is_empty());
    }

    #[test]
    fn html_contains_the_decision_table_and_svg() {
        let html = render_html(&sample());
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("@motiv_leaf/entry/s0#i12"));
        assert!(html.contains("profitable"));
        assert!(html.contains("<svg"));
        assert!(html.contains("1.33x over O3"));
        // The measured-native columns render (with values when a native
        // hotness run joined).
        assert!(html.contains("<th>native ns</th>"));
        assert!(html.contains("<td class=\"num\">750</td>"));
        // Zero external references: self-contained by construction.
        assert!(!html.contains("http://") || html.contains("www.w3.org/2000/svg"));
        assert!(!html.contains("<script src"));
        assert!(!html.contains("<link"));
    }

    #[test]
    fn self_diff_is_clean_and_changes_are_ranked() {
        let base = sample();
        assert!(diff(&base, &base).is_clean());

        // Flip the decision to a cost rejection and slow the function.
        let mut nerfed = base.clone();
        nerfed.functions[0].decisions[0].vectorized = false;
        nerfed.functions[0].decisions[0].reason = "cost".to_string();
        nerfed.functions[0].decisions[0].cost = Some(4);
        nerfed.functions[0].cycles = 1200;
        let d = diff(&base, &nerfed);
        assert_eq!(d.changed.len(), 1);
        let top = &d.changed[0];
        assert_eq!(top.id, "@motiv_leaf/entry/s0#i12");
        assert_eq!(top.base_action, "vectorized");
        assert_eq!(top.new_action, "missed");
        assert_eq!(top.cycle_impact, 300);
        let text = d.render(5);
        assert!(text.contains("motiv_leaf/@motiv_leaf"), "{text}");
        assert!(text.contains("vectorized -> missed"), "{text}");
    }

    fn report(functions: Vec<FunctionAttrib>) -> AttribReport {
        AttribReport {
            mode: "snslp".to_string(),
            functions,
        }
    }

    #[test]
    fn identical_runs_diff_clean() {
        let a = report(vec![sample_fn("k1", "f1"), sample_fn("k2", "f2")]);
        let mut b = a.clone();
        // Stage-time jitter below the gates must not fire: 12.5us ->
        // 170us is past the ratio gate but not the absolute floor.
        b.functions[0].stages_us[0].1 = 170.0;
        let d = diff(&a, &b);
        assert!(d.is_clean(), "{d:?}");
        assert_eq!(d.render(10), "no decision, counter or stage-time changes\n");
    }

    #[test]
    fn counter_delta_is_surfaced_and_ranked() {
        let mut a = report(vec![sample_fn("k1", "f1"), sample_fn("k2", "f2")]);
        set(&mut a.functions[0], Counter::LookaheadCacheHits, 10);
        set(&mut a.functions[0], Counter::LookaheadCacheMisses, 4);
        set(&mut a.functions[1], Counter::LookaheadCacheHits, 100);
        set(&mut a.functions[1], Counter::LookaheadCacheMisses, 5);
        // Injected regression: cache disabled in the new run, so every
        // hit becomes a miss.
        let mut b = a.clone();
        set(&mut b.functions[0], Counter::LookaheadCacheHits, 0);
        set(&mut b.functions[0], Counter::LookaheadCacheMisses, 14);
        set(&mut b.functions[1], Counter::LookaheadCacheHits, 0);
        set(&mut b.functions[1], Counter::LookaheadCacheMisses, 105);
        let d = diff(&a, &b);
        assert!(!d.is_clean());
        assert!(d.changed.is_empty() && d.stage_regressions.is_empty());
        assert_eq!(d.counter_deltas.len(), 4);
        // Largest magnitude first: f2's 100-hit swing.
        let top = &d.counter_deltas[0];
        assert_eq!(top.key, "k2/@f2");
        assert_eq!(top.name, "lookahead_cache_hits");
        assert_eq!((top.base, top.new), (100.0, 0.0));
        let text = d.render(3);
        assert!(text.contains("4 changed counter(s)"), "{text}");
        assert!(
            text.contains("1. k2/@f2 lookahead_cache_hits: 100 -> 0"),
            "{text}"
        );
        assert!(text.contains("... and 1 more"), "{text}");
    }

    #[test]
    fn stage_regression_needs_both_gates() {
        let with_stage = |us: f64| {
            let mut r = sample();
            r.functions[0].stages_us[0].1 = us;
            r
        };
        let a = with_stage(120.0);
        // 120us -> 1800us: ratio 15x, delta 1680us — past both gates.
        let d = diff(&a, &with_stage(1800.0));
        assert_eq!(d.stage_regressions.len(), 1);
        assert!(d.render(5).contains("cleanup: 120us -> 1800us (15.00x)"));
        // Jitter below the gates is clean: a big ratio with a small
        // absolute delta...
        assert!(diff(&a, &with_stage(500.0)).is_clean());
        // ...a big absolute delta with a small ratio, or a speed-up.
        assert!(diff(&with_stage(10_000.0), &with_stage(11_000.0)).is_clean());
        assert!(diff(&with_stage(1800.0), &a).is_clean());
    }

    #[test]
    fn missing_and_added_functions_are_reported() {
        let a = report(vec![sample_fn("k1", "f1")]);
        let b = report(vec![sample_fn("k2", "f2")]);
        let d = diff(&a, &b);
        assert_eq!(d.only_base, vec!["k1/@f1".to_string()]);
        assert_eq!(d.only_new, vec!["k2/@f2".to_string()]);
        assert!(!d.is_clean());
        let text = d.render(5);
        assert!(text.contains("function only in base run: k1/@f1"), "{text}");
        assert!(text.contains("function only in new run: k2/@f2"), "{text}");
    }
}
