//! The pass driver: the outer loop of Figure 1 (collect seeds, build the
//! graph, estimate cost, vectorize if profitable, repeat), plus the
//! statistics the paper's evaluation reports.

use std::time::{Duration, Instant};

use snslp_ir::printer::{block_name, value_name};
use snslp_ir::FxHashSet;
use snslp_ir::{opt, Function, Module};
use snslp_trace::{
    Counter, DecisionId, MetricsSnapshot, ProfSpan, ReasonCode, Remark, Stage, StageTimer,
};

use crate::codegen;
use crate::config::{SlpConfig, SlpMode, MIN_REDUCTION_LEAVES};
use crate::cost_eval;
use crate::ctx::BlockCtx;
use crate::dot::graph_to_dot_tagged;
use crate::graph::{build_graph, build_reduction_graph, GatherWhy, NodeKind, SlpGraph};
use crate::seeds::collect_store_seeds;

/// Maps the dominant gather cause of a rejected graph to the remark
/// reason code. Structural blockers get their own codes; benign gathers
/// (constants, out-of-block leaves) mean the graph simply priced too
/// high, which is a cost rejection.
fn missed_reason(graph: &SlpGraph) -> (ReasonCode, String) {
    match graph.dominant_gather_why() {
        Some(why) => {
            let reason = match why {
                GatherWhy::Aliasing => ReasonCode::Aliasing,
                GatherWhy::UnsupportedOpcode => ReasonCode::UnsupportedOpcode,
                GatherWhy::NonConsecutiveLoads | GatherWhy::NonConsecutiveStores => {
                    ReasonCode::NonConsecutive
                }
                _ => ReasonCode::Cost,
            };
            (
                reason,
                format!("gathers={} why={}", graph.num_gather_nodes(), why.code()),
            )
        }
        None => (ReasonCode::Cost, String::new()),
    }
}

/// Statistics for one SLP graph (one seed bundle attempt).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStats {
    /// Anchor of the decision this graph was built for — the same id is
    /// on the matching remark, profiler span and DOT dump.
    pub decision: DecisionId,
    /// Final DOT source of the graph, decision-stamped. Empty unless
    /// [`SlpConfig::keep_graph_dots`] is set.
    pub dot: String,
    /// Vector width of the seed bundle.
    pub width: u8,
    /// Total graph cost (negative = saving).
    pub cost: i32,
    /// Whether the graph was profitable *and* successfully scheduled.
    pub vectorized: bool,
    /// Total nodes in the graph.
    pub num_nodes: usize,
    /// Nodes that become vector instructions.
    pub num_vector_nodes: usize,
    /// Gather (non-vectorizable) nodes.
    pub num_gather_nodes: usize,
    /// Sizes (chain depths) of the Multi/Super-Nodes in this graph.
    pub super_node_sizes: Vec<u32>,
    /// Leaf-only placements across the graph's Super-Nodes.
    pub leaf_moves: usize,
    /// Trunk-assisted placements across the graph's Super-Nodes.
    pub trunk_assisted_moves: usize,
    /// Arena indices of the instructions codegen emitted for this graph
    /// (empty unless `vectorized`). The join key that lets native PC
    /// maps and hotness profiles attribute machine code back to this
    /// decision.
    pub emitted: Vec<u32>,
}

/// Report for one function run through the pass.
#[derive(Debug, Clone)]
pub struct FunctionReport {
    /// Function name.
    pub function: String,
    /// Mode the pass ran in.
    pub mode: SlpMode,
    /// One entry per attempted seed group.
    pub graphs: Vec<GraphStats>,
    /// Wall-clock time spent in the pass (the paper's Fig. 11 metric).
    pub elapsed: Duration,
    /// One optimization remark per seed bundle considered (also streamed
    /// to the trace sink when the `remarks` facet is on).
    pub remarks: Vec<Remark>,
    /// Metrics-registry delta attributed to this run: counters (seeds,
    /// bundles, moves, gathers, ...) and per-stage wall time.
    pub metrics: MetricsSnapshot,
}

impl FunctionReport {
    /// Number of graphs actually vectorized.
    pub fn vectorized_graphs(&self) -> usize {
        self.graphs.iter().filter(|g| g.vectorized).count()
    }

    /// Total aggregate Multi/Super-Node size over *vectorized* graphs
    /// (the paper's Fig. 6 / Fig. 9 metric).
    pub fn aggregate_super_node_size(&self) -> u64 {
        self.graphs
            .iter()
            .filter(|g| g.vectorized)
            .flat_map(|g| g.super_node_sizes.iter())
            .map(|&s| u64::from(s))
            .sum()
    }

    /// Predicted cost delta of the *committed* rewrites: the sum of the
    /// cost model's totals over vectorized graphs (negative = predicted
    /// saving per execution of the rewritten region). Rejected graphs do
    /// not contribute — their cost was never taken. This is the static
    /// side the dynamic calibration report (`snslp-bench`) joins against
    /// achieved per-run cycle deltas.
    pub fn predicted_cost(&self) -> i64 {
        self.graphs
            .iter()
            .filter(|g| g.vectorized)
            .map(|g| i64::from(g.cost))
            .sum()
    }

    /// Number of Multi/Super-Nodes in vectorized graphs (Fig. 9's "more
    /// nodes" metric).
    pub fn num_super_nodes(&self) -> usize {
        self.graphs
            .iter()
            .filter(|g| g.vectorized)
            .map(|g| g.super_node_sizes.len())
            .sum()
    }

    /// Average Multi/Super-Node size over vectorized graphs (Fig. 7 /
    /// Fig. 10 metric). `None` when no such node was formed.
    pub fn avg_super_node_size(&self) -> Option<f64> {
        let n = self.num_super_nodes();
        if n == 0 {
            None
        } else {
            Some(self.aggregate_super_node_size() as f64 / n as f64)
        }
    }

    /// Merges another report's graphs into this one (used for module
    /// aggregation).
    pub fn merge(&mut self, other: FunctionReport) {
        self.graphs.extend(other.graphs);
        self.elapsed += other.elapsed;
        self.remarks.extend(other.remarks);
        self.metrics.merge(&other.metrics);
    }
}

impl std::fmt::Display for FunctionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "@{} [{}]: {}/{} graphs vectorized in {:?}",
            self.function,
            self.mode.label(),
            self.vectorized_graphs(),
            self.graphs.len(),
            self.elapsed,
        )?;
        for (i, g) in self.graphs.iter().enumerate() {
            write!(
                f,
                "  graph {i}: width {} cost {:+} -> {}",
                g.width,
                g.cost,
                if g.vectorized { "vectorized" } else { "scalar" },
            )?;
            if !g.super_node_sizes.is_empty() {
                write!(
                    f,
                    " (Super-Nodes {:?}, {} leaf / {} trunk-assisted moves)",
                    g.super_node_sizes, g.leaf_moves, g.trunk_assisted_moves
                )?;
            }
            writeln!(f)?;
        }
        for r in &self.remarks {
            writeln!(f, "  remark: {}", r.human())?;
        }
        Ok(())
    }
}

/// Runs the scalar cleanup pipeline only — the paper's "O3" baseline
/// configuration (all vectorizers disabled).
pub fn optimize_o3(f: &mut Function) -> Duration {
    let start = Instant::now();
    let _t = StageTimer::start(Stage::Cleanup);
    opt::cleanup_pipeline(f);
    start.elapsed()
}

/// Builds the SLP graph for a seed bundle under the configured mode; if
/// the result is not profitable, retries under the weaker modes'
/// bundle-formation rules (SN-SLP ⊇ LSLP ⊇ SLP): committing to a
/// flattened Multi/Super-Node is a greedy choice, and occasionally the
/// unflattened graph prices better. Returns the cheapest graph found.
fn best_graph(
    f: &Function,
    ctx: &BlockCtx,
    cfg: &SlpConfig,
    seeds: &[snslp_ir::InstId],
) -> (crate::graph::SlpGraph, cost_eval::CostBreakdown) {
    let graph = {
        let _t = StageTimer::start(Stage::GraphBuild);
        let _p = ProfSpan::enter("graph.build");
        build_graph(f, ctx, cfg, seeds)
    };
    let cost = {
        let _t = StageTimer::start(Stage::CostEval);
        let _p = ProfSpan::enter("cost.evaluate");
        cost_eval::evaluate(f, ctx, &graph, &cfg.model)
    };
    let mut best = (graph, cost);
    if best.1.total < cfg.threshold {
        return best;
    }
    let fallbacks: &[SlpMode] = match cfg.mode {
        SlpMode::SnSlp => &[SlpMode::Lslp, SlpMode::Slp],
        SlpMode::Lslp => &[SlpMode::Slp],
        SlpMode::Slp => &[],
    };
    for &mode in fallbacks {
        let mut sub = cfg.clone();
        sub.mode = mode;
        let g = {
            let _t = StageTimer::start(Stage::GraphBuild);
            let _p = ProfSpan::enter("graph.build");
            // The look-ahead score of a pair is mode-independent, so the
            // fallback rebuilds share `ctx`'s memo: most pair scores the
            // weaker-mode graph needs were already computed.
            build_graph(f, ctx, &sub, seeds)
        };
        let c = {
            let _t = StageTimer::start(Stage::CostEval);
            let _p = ProfSpan::enter("cost.evaluate");
            cost_eval::evaluate(f, ctx, &g, &cfg.model)
        };
        if c.total < best.1.total {
            best = (g, c);
            if best.1.total < cfg.threshold {
                break;
            }
        }
    }
    best
}

/// Runs the SLP pass (in the configured mode) on `f`.
///
/// The function is first cleaned up (simplify + CSE + DCE, the scalar
/// "O3" pipeline), then each block's seed worklist is processed to
/// exhaustion.
///
/// # Panics
///
/// Panics if `cfg.verify_after` is set and a rewrite breaks the IR — that
/// is a bug in the vectorizer, not in user input.
pub fn run_slp(f: &mut Function, cfg: &SlpConfig) -> FunctionReport {
    let start = Instant::now();
    let metrics_before = MetricsSnapshot::current();
    let span = snslp_trace::Span::enter("pass.run_slp");
    span.note("fn", f.name());
    span.note("mode", cfg.mode.code());
    let prof = ProfSpan::enter_with("pass.run_slp", || f.name().to_string());
    {
        let _t = StageTimer::start(Stage::Cleanup);
        let _p = ProfSpan::enter("stage.cleanup");
        opt::cleanup_pipeline(f);
    }

    let mut graphs = Vec::new();
    let mut remarks: Vec<Remark> = Vec::new();
    // Per-function seed ordinal: decisions are minted in consideration
    // order, so the anchor is stable across unrelated value renumbering.
    let mut decision_ord: u32 = 0;
    let blocks: Vec<_> = f.block_ids().collect();
    for block in blocks {
        let bname = block_name(f, block);
        let mut processed: FxHashSet<snslp_ir::InstId> = FxHashSet::default();
        // Block analyses and memoized look-ahead scores stay valid while
        // the function is unchanged; every committed rewrite recomputes
        // them — paper Fig. 1 loops back to step 2 after each vectorized
        // seed group.
        let mut ctx = BlockCtx::compute(f, block);
        loop {
            let target = cfg.model.target().clone();
            let groups = {
                let _t = StageTimer::start(Stage::Seeds);
                let _p = ProfSpan::enter("seeds.collect_stores");
                collect_store_seeds(f, &ctx, |st| target.max_lanes(st), &processed)
            };
            let Some(group) = groups.into_iter().next() else {
                break;
            };
            let site = value_name(f, group.stores[0]);
            let decision = DecisionId::new(
                f.name(),
                &bname,
                decision_ord,
                group.stores[0].index() as u32,
            );
            decision_ord += 1;
            // One profiler span per decision, labelled with its anchor:
            // everything from graph build to codegen for this seed bundle
            // nests inside it, giving per-decision compile time.
            let _dspan = ProfSpan::enter_with("decision", || decision.render());
            // Pre-reorder DOT: the graph vanilla SLP would build for this
            // seed (no chain flattening, no Super-Node reordering).
            if snslp_trace::enabled(snslp_trace::Facet::Dot) && cfg.mode != SlpMode::Slp {
                let mut sub = cfg.clone();
                sub.mode = SlpMode::Slp;
                let pre = build_graph(f, &ctx, &sub, &group.stores);
                dot_hook(f, &pre, "pre_reorder", f.name(), &bname, &site, &decision);
            }
            let (mut graph, mut cost) = best_graph(f, &ctx, cfg, &group.stores);
            dot_hook(
                f,
                &graph,
                "post_reorder",
                f.name(),
                &bname,
                &site,
                &decision,
            );
            if cost.total >= cfg.threshold && group.width() > 2 {
                // Retry at half width (like LLVM): a narrower bundle may
                // be profitable where the wide one gathers too much. Mark
                // only the front half processed; the back half re-enters
                // the worklist as its own group.
                let half = group.stores.len() / 2;
                for &s in &group.stores[..half] {
                    processed.insert(s);
                }
                let narrow = &group.stores[..half];
                let (g2, c2) = best_graph(f, &ctx, cfg, narrow);
                if c2.total < cost.total {
                    graph = g2;
                    cost = c2;
                }
            } else {
                for &s in &group.stores {
                    processed.insert(s);
                }
            }
            dot_hook(f, &graph, "final", f.name(), &bname, &site, &decision);
            let mut stats = graph_stats(f, &graph, cost.total, cfg, &bname, &site, &decision);
            let mut sched_detail: Option<String> = None;
            if cost.total < cfg.threshold {
                let result = {
                    let _t = StageTimer::start(Stage::Codegen);
                    codegen::apply(f, block, &graph)
                };
                match result {
                    Ok(ids) => {
                        stats.vectorized = true;
                        stats.emitted = ids.iter().map(|i| i.index() as u32).collect();
                        snslp_trace::bump(Counter::GraphsVectorized);
                        if cfg.verify_after {
                            if let Err(e) = snslp_ir::verify(f) {
                                panic!("vectorizer broke the IR:\n{e}\n{f}");
                            }
                        }
                        // The rewrite invalidated the block analyses and
                        // the memoized scores.
                        ctx = BlockCtx::compute(f, block);
                    }
                    Err(e) => {
                        // Scheduling failed; leave the scalar code alone.
                        sched_detail = Some(format!("{e:?}"));
                    }
                }
            }
            let (reason, detail) = if stats.vectorized {
                (ReasonCode::Profitable, String::new())
            } else if let Some(d) = sched_detail {
                (ReasonCode::SchedulingFailure, d)
            } else {
                missed_reason(&graph)
            };
            push_remark(
                &mut remarks,
                Remark {
                    pass: cfg.mode.code().to_string(),
                    function: format!("@{}", f.name()),
                    block: bname.clone(),
                    site: site.clone(),
                    inst: group.stores[0].index() as u32,
                    decision: decision.clone(),
                    seed_kind: "store".to_string(),
                    width: graph.width as usize,
                    vectorized: stats.vectorized,
                    reason,
                    cost: Some(i64::from(cost.total)),
                    detail,
                },
            );
            graphs.push(stats);
        }

        // Horizontal-reduction seeds (the paper's `-slp-vectorize-hor`).
        if cfg.enable_reductions {
            let mut processed_roots: FxHashSet<snslp_ir::InstId> = FxHashSet::default();
            loop {
                // `ctx` is still fresh here: the store loop recomputes it
                // after every rewrite, and this loop does the same below.
                let seeds = {
                    let _t = StageTimer::start(Stage::Seeds);
                    let _p = ProfSpan::enter("seeds.collect_reductions");
                    crate::seeds::collect_reduction_seeds(
                        f,
                        &ctx,
                        MIN_REDUCTION_LEAVES,
                        &processed_roots,
                    )
                };
                let Some(seed) = seeds.into_iter().next() else {
                    break;
                };
                processed_roots.insert(seed.root);
                let site = value_name(f, seed.root);
                let decision =
                    DecisionId::new(f.name(), &bname, decision_ord, seed.root.index() as u32);
                decision_ord += 1;
                let _dspan = ProfSpan::enter_with("decision", || decision.render());
                let Some(elem) = f.ty(seed.root).as_scalar() else {
                    continue;
                };
                let width = cfg.model.target().max_lanes(elem);
                if width < 2 || seed.leaves.len() < width as usize {
                    push_remark(
                        &mut remarks,
                        Remark {
                            pass: cfg.mode.code().to_string(),
                            function: format!("@{}", f.name()),
                            block: bname.clone(),
                            site,
                            inst: seed.root.index() as u32,
                            decision,
                            seed_kind: "reduction".to_string(),
                            width: seed.leaves.len(),
                            vectorized: false,
                            reason: ReasonCode::TooNarrow,
                            cost: None,
                            detail: format!("leaves={} vf={width}", seed.leaves.len()),
                        },
                    );
                    continue;
                }
                let graph = {
                    let _t = StageTimer::start(Stage::GraphBuild);
                    let _p = ProfSpan::enter("graph.build_reduction");
                    build_reduction_graph(f, &ctx, cfg, &seed, width)
                };
                let cost = {
                    let _t = StageTimer::start(Stage::CostEval);
                    let _p = ProfSpan::enter("cost.evaluate");
                    cost_eval::evaluate(f, &ctx, &graph, &cfg.model)
                };
                dot_hook(f, &graph, "final", f.name(), &bname, &site, &decision);
                let mut stats = graph_stats(f, &graph, cost.total, cfg, &bname, &site, &decision);
                let mut sched_detail: Option<String> = None;
                if cost.total < cfg.threshold {
                    let result = {
                        let _t = StageTimer::start(Stage::Codegen);
                        codegen::apply(f, block, &graph)
                    };
                    match result {
                        Ok(ids) => {
                            stats.vectorized = true;
                            stats.emitted = ids.iter().map(|i| i.index() as u32).collect();
                            snslp_trace::bump(Counter::GraphsVectorized);
                            if cfg.verify_after {
                                if let Err(e) = snslp_ir::verify(f) {
                                    panic!("vectorizer broke the IR (reduction):\n{e}\n{f}");
                                }
                            }
                            ctx = BlockCtx::compute(f, block);
                        }
                        Err(e) => {
                            sched_detail = Some(format!("{e:?}"));
                        }
                    }
                }
                let (reason, detail) = if stats.vectorized {
                    (ReasonCode::Profitable, String::new())
                } else if let Some(d) = sched_detail {
                    (ReasonCode::SchedulingFailure, d)
                } else {
                    missed_reason(&graph)
                };
                push_remark(
                    &mut remarks,
                    Remark {
                        pass: cfg.mode.code().to_string(),
                        function: format!("@{}", f.name()),
                        block: bname.clone(),
                        site,
                        inst: seed.root.index() as u32,
                        decision: decision.clone(),
                        seed_kind: "reduction".to_string(),
                        width: width as usize,
                        vectorized: stats.vectorized,
                        reason,
                        cost: Some(i64::from(cost.total)),
                        detail,
                    },
                );
                graphs.push(stats);
            }
        }
    }

    let metrics = MetricsSnapshot::current().delta_since(&metrics_before);
    metrics.emit(f.name());
    if snslp_trace::prof::profiling() {
        let hits = metrics.get(Counter::LookaheadCacheHits);
        let misses = metrics.get(Counter::LookaheadCacheMisses);
        if hits + misses > 0 {
            snslp_trace::prof_counter(
                "lookahead_cache_hit_rate",
                hits as f64 / (hits + misses) as f64,
            );
        }
        snslp_trace::prof_counter(
            "gathers_emitted",
            metrics.get(Counter::GathersEmitted) as f64,
        );
    }
    drop(prof);
    drop(span);
    FunctionReport {
        function: f.name().to_string(),
        mode: cfg.mode,
        graphs,
        elapsed: start.elapsed(),
        remarks,
        metrics,
    }
}

/// Records a remark: counts it, streams it to the trace sink (when the
/// `remarks` facet is on) and retains it on the report.
fn push_remark(remarks: &mut Vec<Remark>, remark: Remark) {
    snslp_trace::bump(Counter::RemarksEmitted);
    remark.emit();
    remarks.push(remark);
}

/// Dumps `graph` as a DOT artifact for one pipeline stage, when the `dot`
/// facet is enabled. Every node label carries the decision anchor.
#[allow(clippy::too_many_arguments)]
fn dot_hook(
    f: &Function,
    graph: &SlpGraph,
    stage: &str,
    fn_name: &str,
    block: &str,
    site: &str,
    decision: &DecisionId,
) {
    if !snslp_trace::enabled(snslp_trace::Facet::Dot) {
        return;
    }
    let title = format!("@{fn_name}/{block}/{site} {stage}");
    let dot = graph_to_dot_tagged(f, graph, &title, Some(decision));
    let file = format!(
        "{}_{}_{}_{stage}.dot",
        sanitize(fn_name),
        sanitize(block),
        sanitize(site),
    );
    snslp_trace::artifact(&format!("dot.{stage}"), &file, &dot);
}

/// The not-yet-committed stats row of one attempted graph, for store and
/// reduction seeds alike: its shape, its Super-Nodes' leaf and
/// trunk-assisted moves, and its final DOT source when
/// [`SlpConfig::keep_graph_dots`] asks for it.
fn graph_stats(
    f: &Function,
    graph: &SlpGraph,
    cost: i32,
    cfg: &SlpConfig,
    block: &str,
    site: &str,
    decision: &DecisionId,
) -> GraphStats {
    let supers = || {
        graph.nodes.iter().filter_map(|n| match &n.kind {
            NodeKind::Super(info) => Some(info),
            _ => None,
        })
    };
    let dot = if cfg.keep_graph_dots {
        let title = format!("@{}/{block}/{site} final", f.name());
        graph_to_dot_tagged(f, graph, &title, Some(decision))
    } else {
        String::new()
    };
    GraphStats {
        decision: decision.clone(),
        dot,
        width: graph.width,
        cost,
        vectorized: false,
        num_nodes: graph.nodes.len(),
        num_vector_nodes: graph.num_vector_nodes(),
        num_gather_nodes: graph.num_gather_nodes(),
        super_node_sizes: graph.super_node_sizes(),
        leaf_moves: supers().map(|info| info.leaf_moves).sum(),
        trunk_assisted_moves: supers().map(|info| info.trunk_assisted_moves).sum(),
        emitted: Vec::new(),
    }
}

/// Filesystem-safe version of an IR name (`%t12` → `t12`).
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect::<String>()
        .trim_matches('_')
        .to_string()
}

/// Runs the pass over every function of a module, returning one report
/// per function, in module order.
///
/// Functions are independent rewrite units, so they are distributed over
/// `min(num_functions, available_parallelism)` scoped worker threads.
/// The result is deterministic and byte-identical to a serial run:
///
/// * reports come back in module function order regardless of which
///   worker finished first;
/// * trace output is buffered per function ([`snslp_trace::RecordCapture`])
///   and replayed to the session sink in function order, never
///   interleaved;
/// * metrics counters and stage timers are thread-local, so each
///   report's [`MetricsSnapshot`] delta covers exactly its own function.
///
/// Modules with at most one function (and hosts reporting a single CPU)
/// take the plain serial path. Set `SNSLP_THREADS` to override the worker
/// count, or call [`run_slp_module_with_threads`] directly.
pub fn run_slp_module(m: &mut Module, cfg: &SlpConfig) -> Vec<FunctionReport> {
    run_slp_module_with_threads(m, cfg, resolve_threads_env())
}

/// Resolves the worker-thread count: `SNSLP_THREADS` if set to a positive
/// integer, else the host's available parallelism.
///
/// An *invalid* override (non-numeric, zero, negative) is not silently
/// ignored: it produces a one-line warning on stderr plus an
/// [`env.ignored`](snslp_trace::serve::EVENT_ENV_IGNORED) trace event,
/// then falls back to the default.
pub fn resolve_threads_env() -> usize {
    let default = || {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    };
    match std::env::var("SNSLP_THREADS") {
        Err(_) => default(),
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(t) if t > 0 => t,
            _ => {
                eprintln!(
                    "snslp: warning: ignoring invalid SNSLP_THREADS={raw:?} \
                     (expected a positive integer); using default thread count"
                );
                snslp_trace::trace_event!(
                    snslp_trace::serve::EVENT_ENV_IGNORED,
                    "var" => "SNSLP_THREADS",
                    "value" => raw,
                );
                default()
            }
        },
    }
}

/// [`run_slp_module`] with an explicit worker-thread count (`threads = 1`
/// forces the serial path; higher counts are clamped to the number of
/// functions).
pub fn run_slp_module_with_threads(
    m: &mut Module,
    cfg: &SlpConfig,
    threads: usize,
) -> Vec<FunctionReport> {
    let funcs: Vec<&mut Function> = m.functions_mut().iter_mut().collect();
    let workers = threads.max(1).min(funcs.len());
    if workers <= 1 {
        return funcs.into_iter().map(|f| run_slp(f, cfg)).collect();
    }

    let queue = std::sync::Mutex::new(funcs.into_iter().enumerate());
    let done = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for w in 0..workers {
            let queue = &queue;
            let done = &done;
            s.spawn(move || {
                loop {
                    // Hold the queue lock only for the pop, not the run.
                    let job = queue.lock().unwrap_or_else(|e| e.into_inner()).next();
                    let Some((idx, f)) = job else { break };
                    let capture = snslp_trace::RecordCapture::begin();
                    let report = run_slp(f, cfg);
                    let records = capture.finish();
                    done.lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((idx, report, records));
                }
                // One profiler track per worker thread; a no-op when
                // profiling is off or this worker never got a job.
                snslp_trace::prof::flush_thread(&format!("worker-{w}"));
            });
        }
    });

    let mut done = done.into_inner().unwrap_or_else(|e| e.into_inner());
    done.sort_by_key(|&(idx, ..)| idx);
    done.into_iter()
        .map(|(_, report, records)| {
            snslp_trace::replay_records(records);
            report
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snslp_cost::{CostModel, TargetDesc};
    use snslp_interp::{check_equivalent, ArgSpec};
    use snslp_ir::{FunctionBuilder, InstId, Param, ScalarType, Type};

    /// The Fig. 2-style kernel inside a loop over n iteration-pairs.
    fn fig2_loop() -> Function {
        let mut fb = FunctionBuilder::new(
            "fig2_loop",
            vec![
                Param::noalias_ptr("a"),
                Param::noalias_ptr("b"),
                Param::noalias_ptr("c"),
                Param::noalias_ptr("d"),
                Param::new("n", Type::scalar(ScalarType::I64)),
            ],
            Type::Void,
        );
        let a = fb.func().param(0);
        let b = fb.func().param(1);
        let c = fb.func().param(2);
        let d = fb.func().param(3);
        let n = fb.func().param(4);
        fb.counted_loop(n, |fb, i| {
            let sixteen = fb.const_i64(16);
            let base_off = fb.mul(i, sixteen);
            let pa = fb.ptradd(a, base_off);
            let pb = fb.ptradd(b, base_off);
            let pc = fb.ptradd(c, base_off);
            let pd = fb.ptradd(d, base_off);
            let ld = |p: InstId, k: i64, fb: &mut FunctionBuilder| {
                let q = fb.ptradd_const(p, 8 * k);
                fb.load(ScalarType::I64, q)
            };
            // Lane 0: B[i] - C[i] + D[i+1]
            let b0 = ld(pb, 0, fb);
            let c0 = ld(pc, 0, fb);
            let d1 = ld(pd, 1, fb);
            let t0 = fb.sub(b0, c0);
            let r0 = fb.add(t0, d1);
            fb.store(pa, r0);
            // Lane 1: D[i+2] - C[i+1] + B[i+1]
            let d2 = ld(pd, 2, fb);
            let c1 = ld(pc, 1, fb);
            let b1 = ld(pb, 1, fb);
            let t1 = fb.sub(d2, c1);
            let r1 = fb.add(t1, b1);
            let pa1 = fb.ptradd_const(pa, 8);
            fb.store(pa1, r1);
        });
        fb.ret(None);
        fb.finish()
    }

    fn model() -> CostModel {
        CostModel::new(TargetDesc::sse2_like())
    }

    fn i64_array(len: usize, seed: i64) -> ArgSpec {
        ArgSpec::I64Array((0..len as i64).map(|i| i * 13 + seed).collect())
    }

    fn args(n: usize) -> Vec<ArgSpec> {
        let len = 2 * n + 2;
        vec![
            i64_array(len, 0),
            i64_array(len, 3),
            i64_array(len, 7),
            i64_array(len, 11),
            ArgSpec::I64(n as i64),
        ]
    }

    #[test]
    fn snslp_vectorizes_fig2_loop_and_preserves_semantics() {
        let orig = fig2_loop();
        let mut f = fig2_loop();
        let cfg = SlpConfig::new(SlpMode::SnSlp).with_verification();
        let report = run_slp(&mut f, &cfg);
        assert_eq!(report.vectorized_graphs(), 1, "{report:?}\n{f}");
        assert_eq!(report.aggregate_super_node_size(), 2);
        check_equivalent(&orig, &f, &args(8), &model()).unwrap();
    }

    #[test]
    fn slp_and_lslp_leave_fig2_scalar() {
        for mode in [SlpMode::Slp, SlpMode::Lslp] {
            let mut f = fig2_loop();
            let report = run_slp(&mut f, &SlpConfig::new(mode).with_verification());
            assert_eq!(report.vectorized_graphs(), 0, "{mode:?}");
            assert_eq!(report.aggregate_super_node_size(), 0);
        }
    }

    #[test]
    fn snslp_is_faster_in_simulated_cycles() {
        let orig = fig2_loop();
        let mut f = fig2_loop();
        run_slp(&mut f, &SlpConfig::new(SlpMode::SnSlp));
        let (a, b) = check_equivalent(&orig, &f, &args(64), &model()).unwrap();
        assert!(
            b.exec.cycles < a.exec.cycles,
            "vectorized {} !< scalar {}",
            b.exec.cycles,
            a.exec.cycles
        );
    }

    #[test]
    fn report_merging_accumulates() {
        let mut f1 = fig2_loop();
        let mut r1 = run_slp(&mut f1, &SlpConfig::new(SlpMode::SnSlp));
        let mut f2 = fig2_loop();
        let r2 = run_slp(&mut f2, &SlpConfig::new(SlpMode::SnSlp));
        let v = r1.vectorized_graphs() + r2.vectorized_graphs();
        r1.merge(r2);
        assert_eq!(r1.vectorized_graphs(), v);
    }

    #[test]
    fn o3_baseline_only_cleans_up() {
        let mut f = fig2_loop();
        let before = format!("{f}");
        optimize_o3(&mut f);
        // No vector types anywhere.
        let has_vec = f
            .block_ids()
            .flat_map(|b| f.block(b).insts().to_vec())
            .any(|i| f.ty(i).as_vector().is_some());
        assert!(!has_vec);
        let _ = before;
        snslp_ir::verify(&f).unwrap();
    }

    #[test]
    fn report_display_is_informative() {
        let mut f = fig2_loop();
        let report = run_slp(&mut f, &SlpConfig::new(SlpMode::SnSlp));
        let text = report.to_string();
        assert!(text.contains("SN-SLP"), "{text}");
        assert!(text.contains("vectorized"), "{text}");
        assert!(text.contains("Super-Nodes"), "{text}");
    }
}
