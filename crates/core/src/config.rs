//! Vectorizer configuration.

use snslp_cost::CostModel;

/// Which member of the SLP algorithm family to run.
///
/// These are the three configurations evaluated by the paper (§V):
/// *O3* (no SLP at all — simply do not run the pass), vanilla bottom-up
/// [`SlpMode::Slp`], Look-Ahead SLP with Multi-Nodes [`SlpMode::Lslp`],
/// and Super-Node SLP [`SlpMode::SnSlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlpMode {
    /// Vanilla bottom-up SLP (Rosen et al. / Rotem et al.): isomorphic
    /// bundles, per-lane commutative operand reordering, alternating
    /// add/sub bundles. No chain flattening.
    Slp,
    /// LSLP \[Porpodas et al., 2018\]: vanilla SLP plus Multi-Nodes
    /// (uninterrupted single-opcode commutative chains) with look-ahead
    /// operand reordering.
    Lslp,
    /// Super-Node SLP (this paper): Multi-Nodes generalized to include the
    /// operator's inverse element, with APO-based leaf and trunk
    /// reordering.
    SnSlp,
}

impl SlpMode {
    /// Whether chains are flattened into Multi/Super-Nodes at all.
    pub fn flattens_chains(self) -> bool {
        !matches!(self, SlpMode::Slp)
    }

    /// Whether inverse operators may join a flattened chain.
    pub fn allows_inverse_ops(self) -> bool {
        matches!(self, SlpMode::SnSlp)
    }

    /// Human-readable label used in reports and figures.
    pub fn label(self) -> &'static str {
        match self {
            SlpMode::Slp => "SLP",
            SlpMode::Lslp => "LSLP",
            SlpMode::SnSlp => "SN-SLP",
        }
    }

    /// Stable lowercase code (`slp`, `lslp`, `snslp`): the pipeline name
    /// on command lines, in requests, remarks and every bench artifact.
    pub fn code(self) -> &'static str {
        match self {
            SlpMode::Slp => "slp",
            SlpMode::Lslp => "lslp",
            SlpMode::SnSlp => "snslp",
        }
    }
}

impl std::str::FromStr for SlpMode {
    type Err = String;

    /// Parses a [`SlpMode::code`].
    fn from_str(s: &str) -> Result<Self, String> {
        [SlpMode::Slp, SlpMode::Lslp, SlpMode::SnSlp]
            .into_iter()
            .find(|m| m.code() == s)
            .ok_or_else(|| format!("unknown mode `{s}` (want slp|lslp|snslp)"))
    }
}

/// Maximum use-def recursion depth while growing the graph.
pub(crate) const MAX_DEPTH: u32 = 12;

/// Maximum leaves per Super-Node (compile-time cap, paper §IV-C4: "we
/// need to cap compilation time for large Super-Nodes").
pub(crate) const MAX_SUPERNODE_LEAVES: usize = 32;

/// Minimum reduction-tree leaves worth vectorizing.
pub(crate) const MIN_REDUCTION_LEAVES: usize = 4;

/// Tunable parameters of the vectorizer.
#[derive(Debug, Clone)]
pub struct SlpConfig {
    /// Algorithm variant.
    pub mode: SlpMode,
    /// Cost model (target description + parameters).
    pub model: CostModel,
    /// Vectorize only if the total graph cost is strictly below this
    /// threshold (paper: "usually 0"; lower = saving).
    pub threshold: i32,
    /// Look-ahead recursion depth for LSLP operand scoring.
    pub lookahead_depth: u32,
    /// Allow trunk reordering in Super-Nodes (paper §IV-C3). Disabling
    /// this leaves only the restrictive leaf-APO rule of §IV-C2 — the
    /// ablation showing why trunk movement is needed (e.g. the Fig. 3
    /// example stops vectorizing).
    pub enable_trunk_reordering: bool,
    /// Vectorize horizontal reduction trees (the paper's
    /// `-slp-vectorize-hor`, enabled for all configurations in §V).
    pub enable_reductions: bool,
    /// Run the IR verifier after every rewrite (slower; tests enable it).
    pub verify_after: bool,
    /// Retain the final DOT source of every attempted graph on its
    /// [`GraphStats`](crate::GraphStats) entry, decision-stamped. Off by
    /// default (the pass allocates nothing for DOT then); the report
    /// pipeline (`snslp-bench report`, `snslpc --report`) turns it on to
    /// embed graph snapshots without going through the trace sink.
    pub keep_graph_dots: bool,
}

impl SlpConfig {
    /// Default configuration for a mode with the default (SSE2-like)
    /// cost model.
    pub fn new(mode: SlpMode) -> Self {
        SlpConfig {
            mode,
            model: CostModel::default(),
            threshold: 0,
            lookahead_depth: 2,
            enable_trunk_reordering: true,
            enable_reductions: true,
            verify_after: false,
            keep_graph_dots: false,
        }
    }

    /// Replaces the cost model.
    pub fn with_model(mut self, model: CostModel) -> Self {
        self.model = model;
        self
    }

    /// Enables IR verification after every rewrite.
    pub fn with_verification(mut self) -> Self {
        self.verify_after = true;
        self
    }

    /// Stable 64-bit fingerprint of every field that can change the
    /// pass's output: mode, thresholds and caps, feature toggles, and the
    /// full cost model (target description + parameters). The constant
    /// caps are hashed too: a build with different caps must not share
    /// cache keys with this one.
    ///
    /// Two configs with equal fingerprints compile any function to the
    /// same artifact, which is what lets the compile service fold the
    /// config into its cache key ([`CacheKey`](crate::cache::CacheKey))
    /// and batch same-config requests into one driver invocation. Built
    /// on seedless [`FxHasher`](snslp_ir::fxhash::FxHasher), so it is
    /// stable across processes and restarts.
    pub fn fingerprint(&self) -> u64 {
        use snslp_ir::fxhash::FxHasher;
        use std::hash::Hasher;
        let mut h = FxHasher::default();
        // One flat field-order-defined record; bump a leading version tag
        // if the meaning of any field ever changes.
        h.write_u64(1); // fingerprint schema version
        h.write(self.mode.label().as_bytes());
        h.write_i64(i64::from(self.threshold));
        h.write_u64(u64::from(MAX_DEPTH));
        h.write_u64(u64::from(self.lookahead_depth));
        h.write_u64(MAX_SUPERNODE_LEAVES as u64);
        h.write_u8(u8::from(self.enable_trunk_reordering));
        h.write_u8(u8::from(self.enable_reductions));
        h.write_u64(MIN_REDUCTION_LEAVES as u64);
        h.write_u8(u8::from(self.verify_after));
        h.write_u8(u8::from(self.keep_graph_dots));
        let t = self.model.target();
        h.write(t.name().as_bytes());
        h.write_u64(u64::from(t.register_bits()));
        h.write_u8(u8::from(t.has_lanewise_altop()));
        let p = self.model.params();
        for v in [
            p.binop,
            p.div,
            p.sqrt,
            p.load,
            p.store,
            p.insert,
            p.extract,
            p.shuffle,
            p.altop_penalty,
            p.altop_emulation_penalty,
        ] {
            h.write_i64(i64::from(v));
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_capabilities() {
        assert!(!SlpMode::Slp.flattens_chains());
        assert!(SlpMode::Lslp.flattens_chains());
        assert!(SlpMode::SnSlp.flattens_chains());
        assert!(!SlpMode::Slp.allows_inverse_ops());
        assert!(!SlpMode::Lslp.allows_inverse_ops());
        assert!(SlpMode::SnSlp.allows_inverse_ops());
    }

    #[test]
    fn labels() {
        assert_eq!(SlpMode::SnSlp.label(), "SN-SLP");
        assert_eq!(SlpMode::Lslp.label(), "LSLP");
    }

    #[test]
    fn fingerprint_tracks_output_relevant_fields() {
        let base = SlpConfig::new(SlpMode::SnSlp);
        assert_eq!(
            base.fingerprint(),
            SlpConfig::new(SlpMode::SnSlp).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            SlpConfig::new(SlpMode::Lslp).fingerprint()
        );

        let mut c = SlpConfig::new(SlpMode::SnSlp);
        c.threshold = -1;
        assert_ne!(base.fingerprint(), c.fingerprint());

        let mut c = SlpConfig::new(SlpMode::SnSlp);
        c.keep_graph_dots = true;
        assert_ne!(base.fingerprint(), c.fingerprint());

        let c = SlpConfig::new(SlpMode::SnSlp)
            .with_model(CostModel::new(snslp_cost::TargetDesc::avx2_like()));
        assert_ne!(base.fingerprint(), c.fingerprint());
    }
}
