//! The `snslp-hot/v1` native hotness artifact: exact (instrumented) or
//! sampled per-instruction execution data, serialized with the same
//! hand-rolled JSON as every other bench artifact and re-validated by a
//! strict reader.
//!
//! [`collect_hot`] drives every registry kernel through all four
//! pipelines, compiles each variant with instrumented-hotness lowering,
//! runs it natively, and cross-checks the exact reconciliation invariant
//! (native per-class execution counts == interpreter [`DynProfile`]
//! totals) before a row may enter the artifact. [`HotDoc::from_json`]
//! re-verifies everything a reader can check without re-running:
//! PC-range partition, per-class sums, count/block-counter consistency,
//! and the sample/wall cross-invariants.

use std::collections::BTreeMap;

use snslp_core::FunctionReport;
use snslp_cost::CostModel;
use snslp_interp::{ArgSpec, ExecOptions, OpClass};
use snslp_ir::Function;
use snslp_jit::pcmap::check_partition;
use snslp_jit::{check_hotness, HotMode, HotProfile, InstHot, JitError, LowerOptions, StubHot};
use snslp_trace::DecisionId;

use crate::dynstats::{classes_from_json, classes_to_json};
use crate::json::{obj, read_text, Json, View};
use crate::{compile, pipeline_code, DYN_MODES};

/// The schema tag every hot artifact carries; bump on breaking changes.
pub const HOT_SCHEMA: &str = "snslp-hot/v1";

/// Joins a pass report back to the instruction arena: for every graph the
/// pass committed, each emitted instruction id maps to the decision that
/// created it. This is the table the lowering consumes to stamp
/// [`DecisionId`]s onto native PC ranges.
pub fn decision_map(report: &FunctionReport) -> BTreeMap<u32, DecisionId> {
    let mut map = BTreeMap::new();
    for g in &report.graphs {
        if !g.vectorized {
            continue;
        }
        for &inst in &g.emitted {
            map.insert(inst, g.decision.clone());
        }
    }
    map
}

/// Compiles `f` with instrumented-hotness lowering, runs it natively
/// once on `args`, and builds the exact [`HotProfile`] — no interpreter
/// involved. Returns `None` when the JIT declines the function, the
/// host has no native backend, or the run traps (instrumented counts
/// only reconcile on status-OK activations).
pub fn native_hot(
    f: &Function,
    args: &[ArgSpec],
    decisions: BTreeMap<u32, DecisionId>,
) -> Option<HotProfile> {
    native_hot_timed(f, args, decisions).map(|(prof, _)| prof)
}

/// [`native_hot`] plus a wall-clock measurement of the instrumented
/// invocation, taken with the trace clock so the number is deterministic
/// under the virtual clock (one tick) and a genuine measurement
/// otherwise. The report explorer uses the pair to attribute measured
/// nanoseconds onto individual vectorization decisions.
pub fn native_hot_timed(
    f: &Function,
    args: &[ArgSpec],
    decisions: BTreeMap<u32, DecisionId>,
) -> Option<(HotProfile, u64)> {
    let opts = LowerOptions {
        instrument: true,
        decisions,
    };
    let compiled = match snslp_jit::compile_with(f, &opts) {
        Ok(c) => c,
        Err(JitError::Unsupported { .. }) | Err(JitError::Platform(_)) => return None,
    };
    let native = compiled.finalize().ok()?;
    let (mut mem, values) = snslp_interp::materialize_args(args);
    let start = snslp_trace::clock::now_ns();
    let run = native
        .invoke(&values, &mut mem, &ExecOptions::default())
        .ok()?;
    let wall_ns = snslp_trace::clock::now_ns().saturating_sub(start);
    let counts = run.block_counts.as_deref()?;
    Some((
        HotProfile::from_counts(f.name(), native.pc_map(), counts),
        wall_ns,
    ))
}

/// Compiles `f` plainly (no instrumentation), arms the SIGPROF
/// wall-clock sampler, and invokes the native code in a loop for at
/// least `duration_ms`, resolving every sampled RIP through the PC→IR
/// map into a sampled [`HotProfile`]. Returns `None` on hosts without
/// the sampler or the native backend, when the JIT declines `f`, when
/// another sampler is already armed, or when a run traps.
pub fn sampled_hot(
    f: &Function,
    args: &[ArgSpec],
    decisions: BTreeMap<u32, DecisionId>,
    period_us: u64,
    duration_ms: u64,
) -> Option<HotProfile> {
    if !snslp_jit::sampler::supported() {
        return None;
    }
    let opts = LowerOptions {
        instrument: false,
        decisions,
    };
    let compiled = match snslp_jit::compile_with(f, &opts) {
        Ok(c) => c,
        Err(JitError::Unsupported { .. }) | Err(JitError::Platform(_)) => return None,
    };
    let native = compiled.finalize().ok()?;
    let sampler = snslp_jit::sampler::Sampler::start(period_us).ok()?;
    let exec = ExecOptions::default();
    let start = std::time::Instant::now();
    loop {
        let (mut mem, values) = snslp_interp::materialize_args(args);
        if native.invoke(&values, &mut mem, &exec).is_err() {
            sampler.stop();
            return None;
        }
        if start.elapsed().as_millis() as u64 >= duration_ms {
            break;
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let rips = sampler.stop();
    let base = native.code_base();
    let len = native.code_len() as u64;
    let offsets: Vec<u32> = rips
        .iter()
        .filter(|&&rip| rip >= base && rip < base + len)
        .map(|&rip| (rip - base) as u32)
        .collect();
    Some(HotProfile::from_samples(
        f.name(),
        native.pc_map(),
        &offsets,
        wall_ns,
        period_us * 1_000,
    ))
}

/// Aggregates an instrumented profile per vectorization decision:
/// rendered [`DecisionId`] → (exact native execution count of the
/// instructions that decision emitted, measured nanoseconds attributed
/// to them). Nanoseconds are the function's wall time apportioned by
/// executed native bytes (each instruction's range size times its
/// execution count), so a decision's share never exceeds `wall_ns` and
/// scalar code keeps the remainder.
pub fn decision_hot(prof: &HotProfile, wall_ns: u64) -> BTreeMap<String, (u64, u64)> {
    let total: u64 = prof
        .insts
        .iter()
        .map(|i| u64::from(i.pc_end - i.pc_start) * i.count)
        .sum();
    let mut agg: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for i in &prof.insts {
        let Some(d) = &i.decision else { continue };
        let slot = agg.entry(d.render()).or_default();
        slot.0 += i.count;
        slot.1 += u64::from(i.pc_end - i.pc_start) * i.count;
    }
    for (_, slot) in agg.iter_mut() {
        slot.1 = if total > 0 {
            (wall_ns as u128 * slot.1 as u128 / total as u128) as u64
        } else {
            0
        };
    }
    agg
}

/// One measured function (one kernel under one pipeline) in the artifact.
#[derive(Debug, Clone)]
pub struct HotEntry {
    /// Kernel (or source) name the row came from.
    pub kernel: String,
    /// Pipeline label: `o3`, `slp`, `lslp`, or `snslp`.
    pub label: String,
    /// The interpreter's total dynamic instructions for the same run —
    /// the reconciliation partner of the profile's `class_ops`.
    pub dyn_insts: u64,
    /// The native hotness profile.
    pub profile: HotProfile,
}

/// A whole `snslp-hot/v1` document.
#[derive(Debug, Clone)]
pub struct HotDoc {
    /// Acquisition mode of every entry.
    pub mode: HotMode,
    /// One row per measured function.
    pub entries: Vec<HotEntry>,
}

/// Measures every registry kernel under all four pipelines in
/// instrumented mode. Rows the JIT declines are skipped (and reported in
/// the second return value); a reconciliation failure panics — it means
/// the lowering miscounted.
///
/// # Panics
///
/// Panics if the reconciliation invariant fails on any covered row.
pub fn collect_hot() -> (HotDoc, Vec<String>) {
    let mut entries = Vec::new();
    let mut skipped = Vec::new();
    for kernel in snslp_kernels::registry() {
        let iters = kernel.default_iters.min(32);
        let args = kernel.args(iters);
        for &mode in &DYN_MODES {
            let label = pipeline_code(mode).to_string();
            let mut f = kernel.build();
            let (report, _) = compile(&mut f, mode);
            let decisions = report.as_ref().map(decision_map).unwrap_or_default();
            match check_hotness(
                &f,
                &args,
                &CostModel::default(),
                &ExecOptions::default(),
                decisions,
            ) {
                Ok(Some(profile)) => entries.push(HotEntry {
                    kernel: kernel.name.to_string(),
                    label,
                    dyn_insts: profile.total_ops(),
                    profile,
                }),
                Ok(None) => skipped.push(format!("{}/{label}", kernel.name)),
                Err(e) => panic!(
                    "hotness reconciliation failed on {}/{label}: {e}",
                    kernel.name
                ),
            }
        }
    }
    (
        HotDoc {
            mode: HotMode::Instrumented,
            entries,
        },
        skipped,
    )
}

fn inst_to_json(i: &InstHot) -> Json {
    obj([
        ("inst", i.inst.into()),
        ("block", i.block.into()),
        ("class", i.class.name().into()),
        ("pc_start", i.pc_start.into()),
        ("pc_end", i.pc_end.into()),
        ("count", i.count.into()),
        ("samples", i.samples.into()),
        ("ns", i.ns.into()),
        (
            "decision",
            i.decision.as_ref().map(DecisionId::render).into(),
        ),
    ])
}

fn stub_to_json(s: &StubHot) -> Json {
    obj([
        ("name", s.name.as_str().into()),
        ("pc_start", s.pc_start.into()),
        ("pc_end", s.pc_end.into()),
        ("samples", s.samples.into()),
    ])
}

impl HotDoc {
    /// Renders the document as `snslp-hot/v1` JSON (deterministic for
    /// instrumented mode: counts only, no wall-clock values).
    pub fn to_json(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let p = &e.profile;
                obj([
                    ("kernel", e.kernel.as_str().into()),
                    ("label", e.label.as_str().into()),
                    ("function", p.function.as_str().into()),
                    ("code_bytes", p.code_bytes.into()),
                    ("dyn_insts", e.dyn_insts.into()),
                    ("native_wall_ns", p.native_wall_ns.into()),
                    ("sample_period_ns", p.sample_period_ns.into()),
                    ("samples_total", p.samples_total.into()),
                    (
                        "block_counts",
                        Json::Arr(p.block_counts.iter().map(|&c| c.into()).collect()),
                    ),
                    ("class_ops", classes_to_json(&p.class_ops)),
                    (
                        "insts",
                        Json::Arr(p.insts.iter().map(inst_to_json).collect()),
                    ),
                    (
                        "stubs",
                        Json::Arr(p.stubs.iter().map(stub_to_json).collect()),
                    ),
                ])
            })
            .collect();
        obj([
            ("schema", HOT_SCHEMA.into()),
            ("mode", self.mode.name().into()),
            ("entries", Json::Arr(entries)),
        ])
        .render()
    }

    /// Parses and strictly re-validates a hot artifact. Beyond shape,
    /// the reader re-checks every invariant it can without re-running:
    ///
    /// * instruction and stub PC ranges partition `[0, code_bytes)`
    ///   exactly ([`snslp_jit::pcmap::check_partition`]);
    /// * instrumented entries: every instruction's `count` equals its
    ///   block's counter, the per-class op sums match `class_ops`, and
    ///   the class total equals the interpreter's `dyn_insts`;
    /// * sampled entries: `samples_total` equals the sum of all
    ///   instruction and stub samples, and attributed nanoseconds never
    ///   exceed `native_wall_ns` (which must be nonzero whenever any
    ///   sample landed);
    /// * decision labels parse as `@fn/block/sN#iM`.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn from_json(text: &str) -> Result<HotDoc, String> {
        read_text(text, HOT_SCHEMA, |o| {
            let mode = match o.str("mode")? {
                "instrumented" => HotMode::Instrumented,
                "sampled" => HotMode::Sampled,
                other => return Err(format!("unknown mode {other:?}")),
            };
            let entries = o.objs("entries", |e| entry_from_json(e, mode))?;
            Ok(HotDoc { mode, entries })
        })
    }

    /// Short per-entry summary table (kernels × labels with op totals).
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<18} {:<6} {:>10} {:>12} {:>10} {:>10}",
            "kernel", "mode", "code B", "native ops", "samples", "wall ns"
        );
        for e in &self.entries {
            let _ = writeln!(
                s,
                "{:<18} {:<6} {:>10} {:>12} {:>10} {:>10}",
                e.kernel,
                e.label,
                e.profile.code_bytes,
                e.profile.total_ops(),
                e.profile.samples_total,
                e.profile.native_wall_ns,
            );
        }
        s
    }
}

fn entry_from_json(e: &mut View, mode: HotMode) -> Result<HotEntry, String> {
    let kernel = e.str("kernel")?.to_string();
    let label = e.str("label")?.to_string();
    let ctx = format!("{kernel}/{label}");
    let function = e.str("function")?.to_string();
    let code_bytes = e.u64("code_bytes")?;
    let dyn_insts = e.u64("dyn_insts")?;
    let native_wall_ns = e.u64("native_wall_ns")?;
    let sample_period_ns = e.u64("sample_period_ns")?;
    let samples_total = e.u64("samples_total")?;
    let block_counts = e.counts("block_counts")?;
    let class_ops = e.obj("class_ops", classes_from_json)?;
    let insts = e.objs("insts", |i| {
        let class_name = i.str("class")?;
        let class = OpClass::ALL
            .into_iter()
            .find(|c| c.name() == class_name)
            .ok_or_else(|| format!("{ctx}: unknown opcode class {class_name:?}"))?;
        let decision = i
            .opt_str("decision")?
            .map(|s| {
                DecisionId::parse(s).map_err(|err| format!("{ctx}: bad decision label: {err}"))
            })
            .transpose()?;
        Ok(InstHot {
            inst: i.u32("inst")?,
            block: i.u32("block")?,
            class,
            pc_start: i.u32("pc_start")?,
            pc_end: i.u32("pc_end")?,
            count: i.u64("count")?,
            samples: i.u64("samples")?,
            ns: i.u64("ns")?,
            decision,
        })
    })?;
    let stubs = e.objs("stubs", |s| {
        Ok(StubHot {
            name: s.str("name")?.to_string(),
            pc_start: s.u32("pc_start")?,
            pc_end: s.u32("pc_end")?,
            samples: s.u64("samples")?,
        })
    })?;

    // --- Cross-invariants -------------------------------------------
    // Partition: the union of inst and stub ranges covers
    // [0, code_bytes) exactly once.
    let mut ranges: Vec<(u32, u32)> = insts
        .iter()
        .map(|i| (i.pc_start, i.pc_end))
        .chain(stubs.iter().map(|s| (s.pc_start, s.pc_end)))
        .collect();
    ranges.sort_unstable();
    check_partition(ranges, code_bytes).map_err(|err| format!("{ctx}: {err}"))?;

    match mode {
        HotMode::Instrumented => {
            let mut sums = [0u64; OpClass::ALL.len()];
            for i in &insts {
                let counter = block_counts.get(i.block as usize).copied().ok_or_else(|| {
                    format!("{ctx}: inst %{} in unknown block {}", i.inst, i.block)
                })?;
                if i.count != counter {
                    return Err(format!(
                        "{ctx}: inst %{} count {} != block {} counter {counter}",
                        i.inst, i.count, i.block
                    ));
                }
                sums[i.class.index()] += i.count;
            }
            if sums != class_ops {
                return Err(format!(
                    "{ctx}: per-inst counts sum to {sums:?} but class_ops says {class_ops:?}"
                ));
            }
            let total: u64 = class_ops.iter().sum();
            if total != dyn_insts {
                return Err(format!(
                    "{ctx}: native class total {total} != interpreter dyn_insts {dyn_insts}"
                ));
            }
        }
        HotMode::Sampled => {
            let sampled: u64 = insts.iter().map(|i| i.samples).sum::<u64>()
                + stubs.iter().map(|s| s.samples).sum::<u64>();
            if sampled != samples_total {
                return Err(format!(
                    "{ctx}: per-range samples sum to {sampled} but samples_total is {samples_total}"
                ));
            }
            let attributed: u64 = insts.iter().map(|i| i.ns).sum();
            if attributed > native_wall_ns {
                return Err(format!(
                    "{ctx}: attributed {attributed} ns exceeds measured wall {native_wall_ns} ns"
                ));
            }
            if samples_total > 0 && native_wall_ns == 0 {
                return Err(format!(
                    "{ctx}: {samples_total} samples landed but native_wall_ns is zero"
                ));
            }
        }
    }

    Ok(HotEntry {
        kernel,
        label,
        dyn_insts,
        profile: HotProfile {
            function,
            mode,
            code_bytes,
            block_counts,
            insts,
            stubs,
            class_ops,
            samples_total,
            sample_period_ns,
            native_wall_ns,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snslp_core::{run_slp, SlpConfig, SlpMode};
    use snslp_kernels::kernel_by_name;

    #[test]
    fn decision_map_joins_emitted_insts() {
        let kernel = kernel_by_name("motiv_leaf").unwrap();
        let mut f = kernel.build();
        let report = run_slp(&mut f, &SlpConfig::new(SlpMode::SnSlp));
        let map = decision_map(&report);
        assert!(!map.is_empty(), "SN-SLP vectorizes motiv_leaf");
        // Every mapped decision came from a committed graph of this
        // function.
        for d in map.values() {
            assert_eq!(d.function, f.name());
        }
    }

    #[test]
    fn instrumented_artifact_round_trips_strictly() {
        if !snslp_jit::native_supported() {
            return;
        }
        let kernel = kernel_by_name("motiv_leaf").unwrap();
        let args = kernel.args(8);
        let mut f = kernel.build();
        let report = run_slp(&mut f, &SlpConfig::new(SlpMode::SnSlp));
        let decisions = decision_map(&report);
        let profile = check_hotness(
            &f,
            &args,
            &CostModel::default(),
            &ExecOptions::default(),
            decisions,
        )
        .expect("reconciles")
        .expect("covered");
        let dyn_insts = profile.total_ops();
        assert!(profile.total_ops() > 0);
        assert_eq!(profile.total_ops(), dyn_insts);
        // At least one native range is decision-labeled.
        assert!(profile.insts.iter().any(|i| i.decision.is_some()));

        let doc = HotDoc {
            mode: HotMode::Instrumented,
            entries: vec![HotEntry {
                kernel: kernel.name.to_string(),
                label: "snslp".to_string(),
                dyn_insts,
                profile,
            }],
        };
        let text = doc.to_json();
        let back = HotDoc::from_json(&text).expect("strict reader accepts its own writer");
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back.entries[0].profile.total_ops(), dyn_insts);
        assert!(doc.summary_table().contains("motiv_leaf"));

        // The reader rejects a tampered count (breaks both the
        // block-counter join and the class sums).
        let tampered = text.replacen("\"count\": ", "\"count\": 1", 1);
        assert!(HotDoc::from_json(&tampered).is_err());
        assert!(HotDoc::from_json("{}").is_err());
    }

    #[test]
    fn reader_rejects_partition_violations() {
        let text = r#"{
  "schema": "snslp-hot/v1",
  "mode": "instrumented",
  "entries": [
    {
      "kernel": "k",
      "label": "o3",
      "function": "k",
      "code_bytes": 10,
      "dyn_insts": 0,
      "native_wall_ns": 0,
      "sample_period_ns": 0,
      "samples_total": 0,
      "block_counts": [0],
      "class_ops": {"alu": 0, "div_rem": 0, "memory": 0, "packing": 0, "control": 0},
      "insts": [
        {"inst": 0, "block": 0, "class": "alu", "pc_start": 0, "pc_end": 4,
         "count": 0, "samples": 0, "ns": 0, "decision": null}
      ],
      "stubs": [
        {"name": "exits", "pc_start": 6, "pc_end": 10, "samples": 0}
      ]
    }
  ]
}"#;
        let err = HotDoc::from_json(text).unwrap_err();
        assert!(err.contains("gap"), "{err}");
    }

    #[test]
    fn reader_enforces_sample_cross_invariants() {
        let text = r#"{
  "schema": "snslp-hot/v1",
  "mode": "sampled",
  "entries": [
    {
      "kernel": "k",
      "label": "o3",
      "function": "k",
      "code_bytes": 4,
      "dyn_insts": 0,
      "native_wall_ns": 0,
      "sample_period_ns": 1000,
      "samples_total": 3,
      "block_counts": [],
      "class_ops": {"alu": 0, "div_rem": 0, "memory": 0, "packing": 0, "control": 0},
      "insts": [
        {"inst": 0, "block": 0, "class": "alu", "pc_start": 0, "pc_end": 4,
         "count": 0, "samples": 3, "ns": 0, "decision": null}
      ],
      "stubs": []
    }
  ]
}"#;
        let err = HotDoc::from_json(text).unwrap_err();
        assert!(err.contains("native_wall_ns is zero"), "{err}");
    }
}
