//! Native hotness profiles: per-IR-instruction execution counts and
//! sampled wall-time, resolved through the [`PcMap`].
//!
//! Two acquisition modes share one profile shape:
//!
//! * **Instrumented** — the lowering bumps a per-block counter on every
//!   block entry ([`crate::LowerOptions::instrument`]). Because the fuel
//!   gate proves every non-phi instruction of an entered block executes
//!   (a trap aborts the whole activation), each instruction's native
//!   execution count *is* its block's counter, exactly and
//!   deterministically. Per-class totals must then
//!   [`reconcile`](HotProfile::reconcile) with the interpreter's
//!   [`DynProfile`] for the same run — the
//!   native backend's analogue of the oracle's `total_ops == dyn_insts`
//!   invariant.
//! * **Sampled** — a SIGPROF wall-clock sampler ([`crate::sampler`])
//!   collects RIPs, which resolve through the map into per-instruction
//!   sample counts and (scaled by measured wall time) nanoseconds.
//!
//! Serialization to the `snslp-hot/v1` artifact lives in `snslp-bench`;
//! this module owns the measurement and the invariants.

use snslp_interp::{DynProfile, OpClass};
use snslp_trace::DecisionId;

use crate::pcmap::{PcKind, PcMap};

/// How a [`HotProfile`] was acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotMode {
    /// Exact per-block counters from instrumented code.
    Instrumented,
    /// SIGPROF wall-clock samples resolved through the PC map.
    Sampled,
}

impl HotMode {
    /// Stable name used in the JSON artifact.
    pub fn name(self) -> &'static str {
        match self {
            HotMode::Instrumented => "instrumented",
            HotMode::Sampled => "sampled",
        }
    }
}

/// Hotness of one lowered IR instruction.
#[derive(Debug, Clone)]
pub struct InstHot {
    /// Arena index of the instruction.
    pub inst: u32,
    /// Owning block index.
    pub block: u32,
    /// Opcode class (the interpreter's `classify` rule).
    pub class: OpClass,
    /// Native byte range `[pc_start, pc_end)` implementing it.
    pub pc_start: u32,
    /// End of the byte range (exclusive).
    pub pc_end: u32,
    /// Exact native execution count (instrumented mode; 0 in sampled
    /// mode, where only `samples`/`ns` are meaningful).
    pub count: u64,
    /// SIGPROF samples that resolved into this range.
    pub samples: u64,
    /// Wall nanoseconds attributed to this instruction
    /// (`native_wall_ns * samples / samples_total`).
    pub ns: u64,
    /// The vectorization decision that emitted this instruction, if any.
    pub decision: Option<DecisionId>,
}

/// Hotness of one backend stub range (prologue, exits, counter bumps).
#[derive(Debug, Clone)]
pub struct StubHot {
    /// Stub name.
    pub name: String,
    /// Start of the byte range.
    pub pc_start: u32,
    /// End of the byte range (exclusive).
    pub pc_end: u32,
    /// SIGPROF samples that resolved into this range.
    pub samples: u64,
}

/// One function's native hotness profile.
#[derive(Debug, Clone)]
pub struct HotProfile {
    /// Source function name.
    pub function: String,
    /// Acquisition mode.
    pub mode: HotMode,
    /// Emitted code size in bytes (the PC map partitions `[0, this)`).
    pub code_bytes: u64,
    /// Per-block execution counters (instrumented mode; empty otherwise).
    pub block_counts: Vec<u64>,
    /// Per-instruction rows, in PC order.
    pub insts: Vec<InstHot>,
    /// Stub rows, in PC order.
    pub stubs: Vec<StubHot>,
    /// Native execution counts per opcode class (indexed in
    /// [`OpClass::ALL`] order). Instrumented mode only; the exact
    /// reconciliation target against the interpreter's `DynProfile`.
    pub class_ops: [u64; OpClass::ALL.len()],
    /// Total samples that resolved inside the code range.
    pub samples_total: u64,
    /// Configured sampling period in nanoseconds (0 when instrumented).
    pub sample_period_ns: u64,
    /// Measured wall time of the sampled run in nanoseconds (0 when
    /// instrumented — instrumented profiles stay byte-deterministic).
    pub native_wall_ns: u64,
}

impl HotProfile {
    /// Builds an exact instrumented profile from the per-block counters
    /// of one (or several merged) status-OK activations.
    pub fn from_counts(function: &str, pc_map: &PcMap, block_counts: &[u64]) -> HotProfile {
        let mut insts = Vec::new();
        let mut stubs = Vec::new();
        let mut class_ops = [0u64; OpClass::ALL.len()];
        let mut code_bytes = 0u64;
        for r in &pc_map.ranges {
            code_bytes = code_bytes.max(u64::from(r.end));
            match r.kind {
                PcKind::Inst { inst, class, block } => {
                    let count = block_counts.get(block as usize).copied().unwrap_or(0);
                    class_ops[class.index()] += count;
                    insts.push(InstHot {
                        inst,
                        block,
                        class,
                        pc_start: r.start,
                        pc_end: r.end,
                        count,
                        samples: 0,
                        ns: 0,
                        decision: r.decision.clone(),
                    });
                }
                PcKind::Stub { name, .. } => stubs.push(StubHot {
                    name: name.to_string(),
                    pc_start: r.start,
                    pc_end: r.end,
                    samples: 0,
                }),
            }
        }
        HotProfile {
            function: function.to_string(),
            mode: HotMode::Instrumented,
            code_bytes,
            block_counts: block_counts.to_vec(),
            insts,
            stubs,
            class_ops,
            samples_total: 0,
            sample_period_ns: 0,
            native_wall_ns: 0,
        }
    }

    /// Builds a sampled profile from code-relative sample offsets.
    ///
    /// `offsets` are RIPs already filtered to the code range and
    /// rebased to byte offsets; `wall_ns` is the measured wall time of
    /// the sampled run and is distributed over instructions
    /// proportionally to their sample counts.
    pub fn from_samples(
        function: &str,
        pc_map: &PcMap,
        offsets: &[u32],
        wall_ns: u64,
        period_ns: u64,
    ) -> HotProfile {
        let mut prof = HotProfile::from_counts(function, pc_map, &[]);
        prof.mode = HotMode::Sampled;
        prof.block_counts = Vec::new();
        prof.sample_period_ns = period_ns;
        prof.native_wall_ns = wall_ns;
        prof.class_ops = [0; OpClass::ALL.len()];
        for &off in offsets {
            let Some(r) = pc_map.resolve(off) else {
                continue;
            };
            match r.kind {
                PcKind::Inst { .. } => {
                    if let Some(row) = prof
                        .insts
                        .iter_mut()
                        .find(|i| i.pc_start == r.start && i.pc_end == r.end)
                    {
                        row.samples += 1;
                        prof.samples_total += 1;
                    }
                }
                PcKind::Stub { .. } => {
                    if let Some(row) = prof
                        .stubs
                        .iter_mut()
                        .find(|s| s.pc_start == r.start && s.pc_end == r.end)
                    {
                        row.samples += 1;
                        prof.samples_total += 1;
                    }
                }
            }
        }
        for row in &mut prof.insts {
            row.ns = (wall_ns * row.samples)
                .checked_div(prof.samples_total)
                .unwrap_or(0);
        }
        prof
    }

    /// Total native instruction executions across all classes.
    pub fn total_ops(&self) -> u64 {
        self.class_ops.iter().sum()
    }

    /// Checks the exact reconciliation invariant of instrumented mode:
    /// per-opcode-class native execution counts equal the interpreter's
    /// [`DynProfile`] per-class op counts for the same function on the
    /// same inputs.
    ///
    /// # Errors
    ///
    /// Names the first class whose counts disagree.
    pub fn reconcile(&self, interp: &DynProfile) -> Result<(), String> {
        for class in OpClass::ALL {
            let (native, dynp) = (self.class_ops[class.index()], interp.ops[class.index()]);
            if native != dynp {
                return Err(format!(
                    "class {}: native executed {native} ops, interpreter counted {dynp}",
                    class.name()
                ));
            }
        }
        Ok(())
    }

    /// Folded flamegraph stacks in the `snslp-prof` exporter's format
    /// (`track;parent;child self_value` per line, sorted): one frame per
    /// vectorization decision (or per opcode class for scalar code),
    /// weighted by nanoseconds in sampled mode and by execution count in
    /// instrumented mode.
    pub fn to_folded(&self) -> String {
        use std::collections::BTreeMap;
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for row in &self.insts {
            let frame = match &row.decision {
                Some(d) => d.render(),
                None => format!("class:{}", row.class.name()),
            };
            let weight = match self.mode {
                HotMode::Instrumented => row.count,
                HotMode::Sampled => row.ns,
            };
            *agg.entry(format!("native;@{};{frame}", self.function))
                .or_default() += weight;
        }
        let mut out = String::new();
        for (stack, weight) in agg {
            if weight > 0 {
                out.push_str(&format!("{stack} {weight}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcmap::PcMap;

    fn map() -> PcMap {
        let mut m = PcMap::default();
        m.push(
            0,
            4,
            PcKind::Stub {
                name: "prologue",
                block: None,
            },
            None,
        );
        m.push(
            4,
            10,
            PcKind::Inst {
                inst: 0,
                class: OpClass::Memory,
                block: 0,
            },
            Some(DecisionId::new("f", "entry", 0, 0)),
        );
        m.push(
            10,
            14,
            PcKind::Inst {
                inst: 1,
                class: OpClass::Control,
                block: 0,
            },
            None,
        );
        m.push(
            14,
            20,
            PcKind::Stub {
                name: "exits",
                block: None,
            },
            None,
        );
        m
    }

    #[test]
    fn instrumented_counts_expand_per_block() {
        let prof = HotProfile::from_counts("f", &map(), &[7]);
        assert_eq!(prof.mode, HotMode::Instrumented);
        assert_eq!(prof.code_bytes, 20);
        assert_eq!(prof.insts.len(), 2);
        assert_eq!(prof.insts[0].count, 7);
        assert_eq!(prof.class_ops[OpClass::Memory.index()], 7);
        assert_eq!(prof.class_ops[OpClass::Control.index()], 7);
        assert_eq!(prof.total_ops(), 14);

        let mut interp = DynProfile::new();
        interp.ops[OpClass::Memory.index()] = 7;
        interp.ops[OpClass::Control.index()] = 7;
        prof.reconcile(&interp).unwrap();
        interp.ops[OpClass::Memory.index()] = 8;
        assert!(prof.reconcile(&interp).unwrap_err().contains("memory"));
    }

    #[test]
    fn samples_resolve_and_scale_to_ns() {
        // 3 samples inside %0, 1 in the prologue, 1 off-map.
        let prof = HotProfile::from_samples("f", &map(), &[5, 6, 9, 0, 99], 4000, 1000);
        assert_eq!(prof.mode, HotMode::Sampled);
        assert_eq!(prof.samples_total, 4);
        assert_eq!(prof.insts[0].samples, 3);
        assert_eq!(prof.insts[0].ns, 3000);
        assert_eq!(prof.stubs[0].samples, 1);
        assert_eq!(prof.native_wall_ns, 4000);
    }

    #[test]
    fn folded_stacks_label_decisions() {
        let prof = HotProfile::from_counts("f", &map(), &[2]);
        let folded = prof.to_folded();
        assert!(folded.contains("native;@f;@f/entry/s0#i0 2\n"));
        assert!(folded.contains("native;@f;class:control 2\n"));
    }
}
