//! # snslp-core
//!
//! The SLP auto-vectorizer family of *Super-Node SLP* (CGO 2019),
//! implemented from scratch on the [`snslp_ir`] intermediate
//! representation:
//!
//! * [`SlpMode::Slp`] — vanilla bottom-up SLP (isomorphic bundles,
//!   commutative operand reordering, alternating add/sub bundles);
//! * [`SlpMode::Lslp`] — LSLP: Multi-Nodes (single-opcode commutative
//!   chains) with look-ahead operand reordering;
//! * [`SlpMode::SnSlp`] — Super-Node SLP: chains including the
//!   operator's *inverse element* (add/sub, mul/div), with APO-based leaf
//!   and trunk reordering.
//!
//! # Examples
//!
//! ```
//! use snslp_core::{run_slp, SlpConfig, SlpMode};
//! use snslp_ir::{FunctionBuilder, Param, ScalarType, Type};
//!
//! // a[0..2] = b[0..2] + c[0..2], written as scalar code.
//! let mut fb = FunctionBuilder::new(
//!     "axpy",
//!     vec![
//!         Param::noalias_ptr("a"),
//!         Param::noalias_ptr("b"),
//!         Param::noalias_ptr("c"),
//!     ],
//!     Type::Void,
//! );
//! let (a, b, c) = (fb.func().param(0), fb.func().param(1), fb.func().param(2));
//! for i in 0..2 {
//!     let pb = fb.ptradd_const(b, 8 * i);
//!     let pc = fb.ptradd_const(c, 8 * i);
//!     let pa = fb.ptradd_const(a, 8 * i);
//!     let x = fb.load(ScalarType::F64, pb);
//!     let y = fb.load(ScalarType::F64, pc);
//!     let s = fb.add(x, y);
//!     fb.store(pa, s);
//! }
//! fb.ret(None);
//! let mut f = fb.finish();
//!
//! let report = run_slp(&mut f, &SlpConfig::new(SlpMode::SnSlp));
//! assert_eq!(report.vectorized_graphs(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod chain;
pub mod codegen;
pub mod config;
pub mod cost_eval;
pub mod ctx;
pub mod dot;
pub mod graph;
pub mod lookahead;
pub mod pass;
pub mod seeds;
pub mod supernode;

pub use cache::{run_slp_module_cached, ArtifactCache, CacheKey, CacheStats, CachedCompile, Lru};
pub use chain::{extract_chain, LaneChain, LaneLeaf, Sign};
pub use codegen::CodegenError;
pub use config::{SlpConfig, SlpMode};
pub use cost_eval::{evaluate, CostBreakdown};
pub use ctx::BlockCtx;
pub use dot::{graph_to_dot, graph_to_dot_tagged};
pub use graph::{
    build_graph, build_reduction_graph, GatherKind, GatherWhy, Node, NodeKind, ReductionInfo,
    SlpGraph, SuperInfo,
};
pub use lookahead::ScoreMemo;
pub use pass::{
    optimize_o3, resolve_threads_env, run_slp, run_slp_module, run_slp_module_with_threads,
    FunctionReport, GraphStats,
};
pub use seeds::{collect_reduction_seeds, collect_store_seeds, ReductionSeed, SeedGroup};
pub use snslp_trace::DecisionId;
pub use supernode::{plan_supernode, SlotChoice, SuperNodePlan};
