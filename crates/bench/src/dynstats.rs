//! Dynamic execution statistics and cost-model calibration: the
//! `snslp-dynstats/v1` report.
//!
//! [`collect_kernel_dyn`] drives every registry kernel through all four
//! pipelines (`o3`, `slp`, `lslp`, `snslp`), interprets each variant on
//! identical inputs, and records simulated cycles plus the interpreter's
//! [`DynProfile`] alongside the pass's *predicted* cost delta (the sum of
//! committed graph costs). [`calibrate`] then joins prediction against
//! achievement per kernel and mode: the static model predicts
//! `-predicted_cost` saved cycles per loop iteration, the dynamic run
//! achieved `(o3_cycles - mode_cycles) / iters`. Sign disagreements and
//! ratios beyond [`CALIBRATION_RATIO`] are mispredictions and surface as
//! `cost-misprediction` remarks instead of drifting silently.
//!
//! The rendered JSON is the `BENCH_dyn.json` baseline checked in at the
//! repository root and re-measured by `snslp-bench check dyn` in CI; because
//! the interpreter and cost model are fully deterministic, any cycle
//! increase over the baseline is a real regression, not jitter.

use std::fmt::Write as _;

use snslp_interp::{DynProfile, OpClass};
use snslp_trace::{ReasonCode, Remark};

use crate::json::{obj, read_text, Json, View};
use crate::{measure_kernel_modes, pipeline_code, DYN_MODES};

/// The schema tag every dynstats report carries; bump on breaking format
/// changes.
pub const DYNSTATS_SCHEMA: &str = "snslp-dynstats/v1";

/// Calibration tolerance: the achieved per-iteration saving may differ
/// from the predicted one by up to this factor in either direction
/// before the row counts as a misprediction. The two views deliberately
/// disagree on some weights (the execution view prices loads/stores at 3
/// cycles, the compile-time view at 1 — the paper's §V-A observation
/// that the static model is not a perfect predictor), so the gate is a
/// ratio band, not equality.
pub const CALIBRATION_RATIO: f64 = 4.0;

/// One pipeline's dynamic measurement of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeDyn {
    /// Pipeline label: `o3`, `slp`, `lslp`, or `snslp`.
    pub label: String,
    /// Simulated execution cycles of the whole run.
    pub cycles: u64,
    /// Dynamic instructions executed.
    pub dyn_insts: u64,
    /// Sum of committed (vectorized) graph costs from the pass report;
    /// negative = predicted saving per iteration, `0` for `o3` and for
    /// modes that vectorized nothing.
    pub predicted_cost: i64,
    /// Graphs the pass actually vectorized.
    pub vectorized_graphs: u64,
    /// The interpreter's dynamic profile for the run.
    pub profile: DynProfile,
}

/// All pipelines of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDyn {
    /// Kernel name (registry name).
    pub name: String,
    /// Loop iterations the measurement ran.
    pub iters: u64,
    /// One entry per pipeline, [`crate::DYN_MODES`] order.
    pub modes: Vec<ModeDyn>,
}

impl KernelDyn {
    /// Measurement for a pipeline label.
    pub fn mode(&self, label: &str) -> Option<&ModeDyn> {
        self.modes.iter().find(|m| m.label == label)
    }

    /// Speedup of `label` over the `o3` baseline (simulated cycles).
    ///
    /// # Panics
    ///
    /// Panics if either pipeline is missing from the row.
    pub fn speedup(&self, label: &str) -> f64 {
        let base = self.mode("o3").expect("o3 measured").cycles as f64;
        base / self.mode(label).expect("mode measured").cycles as f64
    }
}

/// The whole dynstats report.
#[derive(Debug, Clone, PartialEq)]
pub struct DynReport {
    /// One row per kernel, registry order.
    pub kernels: Vec<KernelDyn>,
}

/// Measures every registry kernel under all four pipelines at its
/// default iteration count.
///
/// # Panics
///
/// Panics if compilation or interpretation fails — both indicate a bug
/// in the reproduction, not in inputs.
pub fn collect_kernel_dyn() -> DynReport {
    DynReport {
        kernels: snslp_kernels::registry().iter().map(kernel_dyn).collect(),
    }
}

/// Measures one kernel under all four pipelines at its default
/// iteration count.
fn kernel_dyn(kernel: &snslp_kernels::Kernel) -> KernelDyn {
    let row = measure_kernel_modes(kernel, kernel.default_iters, &DYN_MODES);
    let modes = DYN_MODES
        .iter()
        .map(|&mode| {
            let r = row.result(mode);
            ModeDyn {
                label: pipeline_code(mode).to_string(),
                cycles: r.cycles,
                dyn_insts: r.dyn_insts,
                predicted_cost: r.report.as_ref().map_or(0, |rep| rep.predicted_cost()),
                vectorized_graphs: r
                    .report
                    .as_ref()
                    .map_or(0, |rep| rep.vectorized_graphs() as u64),
                profile: r.profile.clone(),
            }
        })
        .collect();
    KernelDyn {
        name: kernel.name.to_string(),
        iters: kernel.default_iters as u64,
        modes,
    }
}

// ---------------------------------------------------------------------
// Calibration: predicted vs achieved.
// ---------------------------------------------------------------------

/// One joined prediction/achievement row (one kernel under one
/// vectorizing pipeline that committed at least one graph).
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Kernel name.
    pub kernel: String,
    /// Pipeline label (`slp`, `lslp`, `snslp`).
    pub mode: String,
    /// Predicted cost delta per iteration (negative = predicted saving).
    pub predicted: i64,
    /// Achieved saving in simulated cycles per iteration
    /// (`(o3 - mode) / iters`; positive = the rewrite paid off).
    pub achieved_per_iter: f64,
    /// `achieved / -predicted` when a saving was predicted.
    pub ratio: Option<f64>,
    /// Signs agree: a predicted saving was achieved as a saving.
    pub agree: bool,
    /// Beyond [`CALIBRATION_RATIO`] (or a sign flip): surfaces as a
    /// `cost-misprediction` remark.
    pub mispredicted: bool,
}

/// Joins every vectorized kernel/mode pair of the report against the
/// `o3` baseline.
pub fn calibrate(report: &DynReport) -> Vec<Calibration> {
    let mut rows = Vec::new();
    for k in &report.kernels {
        let Some(base) = k.mode("o3") else { continue };
        for m in &k.modes {
            if m.label == "o3" || m.vectorized_graphs == 0 {
                continue;
            }
            let achieved = (base.cycles as f64 - m.cycles as f64) / k.iters as f64;
            let predicted = m.predicted_cost;
            let agree = predicted < 0 && achieved > 0.0;
            let ratio = if predicted < 0 {
                Some(achieved / -(predicted as f64))
            } else {
                None
            };
            let in_band = |r: f64| (1.0 / CALIBRATION_RATIO..=CALIBRATION_RATIO).contains(&r);
            let mispredicted = !agree || !ratio.map(in_band).unwrap_or(false);
            rows.push(Calibration {
                kernel: k.name.clone(),
                mode: m.label.clone(),
                predicted,
                achieved_per_iter: achieved,
                ratio,
                agree,
                mispredicted,
            });
        }
    }
    rows
}

/// Builds one `cost-misprediction` remark per mispredicted calibration
/// row and emits each through the trace sink (visible when the `remarks`
/// facet is enabled). Returns the remarks so callers can also print or
/// count them.
pub fn misprediction_remarks(rows: &[Calibration]) -> Vec<Remark> {
    rows.iter()
        .filter(|c| c.mispredicted)
        .map(|c| {
            let remark = Remark {
                pass: c.mode.clone(),
                function: format!("@{}", c.kernel),
                block: "-".to_string(),
                site: "-".to_string(),
                inst: 0,
                // Calibration covers the whole kernel, not one seed; the
                // synthetic anchor keeps the field joinable by function.
                decision: snslp_trace::DecisionId::new(&c.kernel, "-", 0, 0),
                seed_kind: "calibration".to_string(),
                width: 0,
                vectorized: true,
                reason: ReasonCode::CostMisprediction,
                cost: Some(c.predicted),
                detail: match c.ratio {
                    Some(r) => format!("achieved={:.1}/iter ratio={:.2}", c.achieved_per_iter, r),
                    None => format!("achieved={:.1}/iter", c.achieved_per_iter),
                },
            };
            remark.emit();
            remark
        })
        .collect()
}

// ---------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------

impl DynReport {
    /// The paper-style per-kernel dynamic-cycle speedup table
    /// (Fig. 9/10 reproduction): scalar `O3` cycles plus one
    /// cycles/speedup pair per vectorizing pipeline.
    pub fn speedup_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<18} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8}",
            "kernel", "O3 cycles", "SLP", "LSLP", "SN-SLP", "SLP x", "LSLP x", "SN-SLP x"
        );
        let mut geo: [(f64, usize); 3] = [(0.0, 0); 3];
        for k in &self.kernels {
            let cycles = |l: &str| k.mode(l).map(|m| m.cycles).unwrap_or(0);
            for (i, l) in ["slp", "lslp", "snslp"].iter().enumerate() {
                geo[i].0 += k.speedup(l).ln();
                geo[i].1 += 1;
            }
            let _ = writeln!(
                s,
                "{:<18} {:>12} {:>12} {:>12} {:>12} {:>8.3} {:>8.3} {:>8.3}",
                k.name,
                cycles("o3"),
                cycles("slp"),
                cycles("lslp"),
                cycles("snslp"),
                k.speedup("slp"),
                k.speedup("lslp"),
                k.speedup("snslp"),
            );
        }
        let g = |i: usize| {
            let (sum, n) = geo[i];
            if n == 0 {
                1.0
            } else {
                (sum / n as f64).exp()
            }
        };
        let _ = writeln!(
            s,
            "{:<18} {:>12} {:>12} {:>12} {:>12} {:>8.3} {:>8.3} {:>8.3}",
            "geomean",
            "",
            "",
            "",
            "",
            g(0),
            g(1),
            g(2)
        );
        s
    }

    /// Per-kernel lane-utilization / packing-overhead table: how much of
    /// the dynamic work runs in vectors, at what mean width, and what the
    /// packing (insert/extract/gather) overhead was, per pipeline.
    pub fn lane_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<18} {:<6} {:>10} {:>10} {:>9} {:>8} {:>8} {:>9} {:>9}",
            "kernel",
            "mode",
            "vec ops",
            "scal ops",
            "avg lanes",
            "gathers",
            "shuffles",
            "ins+ext",
            "mem ops"
        );
        for k in &self.kernels {
            for m in &k.modes {
                let p = &m.profile;
                let _ = writeln!(
                    s,
                    "{:<18} {:<6} {:>10} {:>10} {:>9} {:>8} {:>8} {:>9} {:>9}",
                    k.name,
                    m.label,
                    p.vector_ops,
                    p.scalar_ops,
                    p.mean_lanes()
                        .map(|l| format!("{l:.2}"))
                        .unwrap_or_else(|| "-".to_string()),
                    p.gathers,
                    p.shuffles,
                    p.inserts + p.extracts,
                    p.mem_ops(),
                );
            }
        }
        s
    }

    /// The calibration report: one line per vectorized kernel/mode pair,
    /// prediction joined against achievement, mispredictions flagged.
    pub fn calibration_table(&self) -> String {
        let rows = calibrate(self);
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<18} {:<6} {:>10} {:>14} {:>8}  verdict",
            "kernel", "mode", "predicted", "achieved/iter", "ratio"
        );
        for c in &rows {
            let _ = writeln!(
                s,
                "{:<18} {:<6} {:>10} {:>14.2} {:>8}  {}",
                c.kernel,
                c.mode,
                c.predicted,
                c.achieved_per_iter,
                c.ratio
                    .map(|r| format!("{r:.2}"))
                    .unwrap_or_else(|| "-".to_string()),
                if c.mispredicted { "MISPREDICTED" } else { "ok" },
            );
        }
        let bad = rows.iter().filter(|c| c.mispredicted).count();
        let _ = writeln!(
            s,
            "{} rows, {} mispredicted (ratio band {:.1}x)",
            rows.len(),
            bad,
            CALIBRATION_RATIO
        );
        s
    }

    /// Renders the report as `snslp-dynstats/v1` JSON.
    pub fn to_json(&self) -> String {
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                let modes = k.modes.iter().map(|m| (m.label.as_str(), mode_to_json(m)));
                obj([
                    ("name", k.name.as_str().into()),
                    ("iters", k.iters.into()),
                    ("modes", obj(modes)),
                ])
            })
            .collect();
        obj([
            ("schema", DYNSTATS_SCHEMA.into()),
            ("kernels", Json::Arr(kernels)),
        ])
        .render()
    }

    /// Parses and validates a dynstats document: schema tag, required
    /// fields, and internal consistency (per-class op counts must sum to
    /// `dyn_insts`, per-class cycles to `cycles`).
    pub fn from_json(text: &str) -> Result<DynReport, String> {
        let kernels = read_text(text, DYNSTATS_SCHEMA, |o| {
            o.objs("kernels", |row| {
                let name = row.str("name")?.to_string();
                let iters = row.u64("iters")?;
                let modes = row.obj("modes", |m| {
                    m.each(|m, label| m.obj(label, |m| mode_from_json(label, m, &name)))
                })?;
                if modes.is_empty() {
                    return Err(format!("kernel {name}: no modes"));
                }
                let modes = modes.into_iter().map(|(_, m)| m).collect();
                Ok(KernelDyn { name, iters, modes })
            })
        })?;
        if kernels.is_empty() {
            return Err("report has no kernels".to_string());
        }
        Ok(DynReport { kernels })
    }
}

/// An [`OpClass`]-keyed object of per-class values, [`OpClass::ALL`]
/// order — the shape of every per-class member in dynstats and hot.
pub(crate) fn classes_to_json(values: &[u64; OpClass::ALL.len()]) -> Json {
    obj(OpClass::ALL
        .iter()
        .map(|&c| (c.name(), values[c.index()].into())))
}

/// Reads an object written by [`classes_to_json`]: exactly one count
/// per [`OpClass`].
pub(crate) fn classes_from_json(o: &mut View) -> Result<[u64; OpClass::ALL.len()], String> {
    let mut values = [0u64; OpClass::ALL.len()];
    for c in OpClass::ALL {
        values[c.index()] = o.u64(c.name())?;
    }
    Ok(values)
}

fn mode_to_json(m: &ModeDyn) -> Json {
    let p = &m.profile;
    let lanes = (1..p.lanes_hist.len())
        .filter(|&w| p.lanes_hist[w] > 0)
        .map(|w| (w.to_string(), p.lanes_hist[w].into()));
    let profile = obj([
        ("ops", classes_to_json(&p.ops)),
        ("class_cycles", classes_to_json(&p.cycles)),
        ("scalar_ops", p.scalar_ops.into()),
        ("vector_ops", p.vector_ops.into()),
        ("lane_slots", p.lane_slots.into()),
        ("lanes", obj(lanes)),
        ("loads", p.loads.into()),
        ("stores", p.stores.into()),
        ("bytes_loaded", p.bytes_loaded.into()),
        ("bytes_stored", p.bytes_stored.into()),
        ("inserts", p.inserts.into()),
        ("extracts", p.extracts.into()),
        ("gathers", p.gathers.into()),
        ("shuffles", p.shuffles.into()),
        ("splats", p.splats.into()),
    ]);
    obj([
        ("cycles", m.cycles.into()),
        ("dyn_insts", m.dyn_insts.into()),
        ("predicted_cost", m.predicted_cost.into()),
        ("vectorized_graphs", m.vectorized_graphs.into()),
        ("profile", profile),
    ])
}

fn mode_from_json(label: &str, m: &mut View, kernel: &str) -> Result<ModeDyn, String> {
    let ctx = format!("kernel {kernel}/{label}");
    let cycles = m.u64("cycles")?;
    let dyn_insts = m.u64("dyn_insts")?;
    let predicted_cost = m.i64("predicted_cost")?;
    let vectorized_graphs = m.u64("vectorized_graphs")?;
    let profile = m.obj("profile", |prof| {
        let mut profile = DynProfile::new();
        profile.ops = prof.obj("ops", classes_from_json)?;
        profile.cycles = prof.obj("class_cycles", classes_from_json)?;
        profile.scalar_ops = prof.u64("scalar_ops")?;
        profile.vector_ops = prof.u64("vector_ops")?;
        profile.lane_slots = prof.u64("lane_slots")?;
        for (w, n) in prof.obj("lanes", |l| l.each(View::u64))? {
            let w: usize = w
                .parse()
                .map_err(|_| format!("{ctx}: bad lane width key {w:?}"))?;
            if w == 0 || w >= profile.lanes_hist.len() {
                return Err(format!("{ctx}: lane width {w} out of range"));
            }
            profile.lanes_hist[w] = n;
        }
        profile.loads = prof.u64("loads")?;
        profile.stores = prof.u64("stores")?;
        profile.bytes_loaded = prof.u64("bytes_loaded")?;
        profile.bytes_stored = prof.u64("bytes_stored")?;
        profile.inserts = prof.u64("inserts")?;
        profile.extracts = prof.u64("extracts")?;
        profile.gathers = prof.u64("gathers")?;
        profile.shuffles = prof.u64("shuffles")?;
        profile.splats = prof.u64("splats")?;
        Ok(profile)
    })?;

    if profile.total_ops() != dyn_insts {
        return Err(format!(
            "{ctx}: profile op classes sum to {} but dyn_insts is {dyn_insts}",
            profile.total_ops()
        ));
    }
    if profile.total_cycles() != cycles {
        return Err(format!(
            "{ctx}: profile class cycles sum to {} but cycles is {cycles}",
            profile.total_cycles()
        ));
    }
    Ok(ModeDyn {
        label: label.to_string(),
        cycles,
        dyn_insts,
        predicted_cost,
        vectorized_graphs,
        profile,
    })
}

// ---------------------------------------------------------------------
// Baseline gate.
// ---------------------------------------------------------------------

/// Compares a fresh report against the checked-in baseline. Because the
/// simulated-cycle pipeline is deterministic, *any* cycle increase is a
/// real regression. Also re-checks calibration sign-agreement on the
/// fresh report so a cost-model drift cannot land silently.
///
/// Returns the human-readable delta table on success.
///
/// # Errors
///
/// Returns every violated gate, one per line.
pub fn check_dyn(baseline: &DynReport, fresh: &DynReport) -> Result<String, String> {
    let mut failures = Vec::new();
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<18} {:<6} {:>14} {:>14} {:>9}",
        "kernel", "mode", "baseline cyc", "fresh cyc", "delta"
    );
    for bk in &baseline.kernels {
        let Some(fk) = fresh.kernels.iter().find(|k| k.name == bk.name) else {
            failures.push(format!("kernel {} missing from fresh report", bk.name));
            continue;
        };
        for bm in &bk.modes {
            let Some(fm) = fk.mode(&bm.label) else {
                failures.push(format!(
                    "{}/{} missing from fresh report",
                    bk.name, bm.label
                ));
                continue;
            };
            let delta = fm.cycles as i64 - bm.cycles as i64;
            let _ = writeln!(
                table,
                "{:<18} {:<6} {:>14} {:>14} {:>+9}",
                bk.name, bm.label, bm.cycles, fm.cycles, delta
            );
            if fm.cycles > bm.cycles {
                failures.push(format!(
                    "{}/{}: fresh {} cycles > baseline {} (deterministic regression)",
                    bk.name, bm.label, fm.cycles, bm.cycles
                ));
            }
        }
    }
    for c in calibrate(fresh) {
        if !c.agree {
            failures.push(format!(
                "{}/{}: predicted {} but achieved {:.2}/iter — sign disagreement",
                c.kernel, c.mode, c.predicted, c.achieved_per_iter
            ));
        }
    }
    if failures.is_empty() {
        Ok(table)
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snslp_kernels::kernel_by_name;

    fn one_kernel_report(name: &str) -> DynReport {
        DynReport {
            kernels: vec![kernel_dyn(&kernel_by_name(name).unwrap())],
        }
    }

    #[test]
    fn report_round_trips_and_validates() {
        let r = one_kernel_report("motiv_leaf");
        let text = r.to_json();
        let back = DynReport::from_json(&text).unwrap();
        assert_eq!(r, back);
        // The validator rejects broken internal consistency.
        let broken = text.replacen("\"dyn_insts\": ", "\"dyn_insts\": 1", 1);
        assert!(DynReport::from_json(&broken).is_err());
        assert!(DynReport::from_json("{}").is_err());
        assert!(DynReport::from_json(r#"{"schema": "other/v1"}"#).is_err());
    }

    #[test]
    fn motivating_kernel_calibrates_in_band() {
        let r = one_kernel_report("motiv_leaf");
        let k = &r.kernels[0];
        // SN-SLP must win: lowest cycles of all four pipelines.
        let sn = k.mode("snslp").unwrap().cycles;
        for label in ["o3", "slp", "lslp"] {
            assert!(
                sn < k.mode(label).unwrap().cycles,
                "SN-SLP not fastest vs {label}"
            );
        }
        // Fig. 2: (L)SLP keep scalar on the motivating kernel.
        assert_eq!(k.mode("slp").unwrap().vectorized_graphs, 0);
        assert_eq!(k.mode("slp").unwrap().profile.vector_ops, 0);
        // ... and the committed SN-SLP rewrite calibrates cleanly.
        let rows = calibrate(&r);
        assert_eq!(rows.len(), 1, "{rows:?}");
        let c = &rows[0];
        assert_eq!(c.mode, "snslp");
        assert_eq!(c.predicted, -6);
        assert!(c.agree && !c.mispredicted, "{c:?}");
        assert!(misprediction_remarks(&rows).is_empty());
    }

    #[test]
    fn misprediction_rows_produce_remarks() {
        let rows = vec![Calibration {
            kernel: "synthetic".to_string(),
            mode: "snslp".to_string(),
            predicted: -6,
            achieved_per_iter: -2.0,
            ratio: Some(-0.33),
            agree: false,
            mispredicted: true,
        }];
        let remarks = misprediction_remarks(&rows);
        assert_eq!(remarks.len(), 1);
        assert_eq!(remarks[0].reason, ReasonCode::CostMisprediction);
        assert!(remarks[0].machine().contains("reason=cost-misprediction"));
    }

    #[test]
    fn gate_flags_deterministic_regressions() {
        let base = one_kernel_report("motiv_trunk");
        let mut fresh = base.clone();
        assert!(check_dyn(&base, &fresh).is_ok());
        fresh.kernels[0].modes[3].cycles += 1;
        let err = check_dyn(&base, &fresh).unwrap_err();
        assert!(err.contains("deterministic regression"), "{err}");
        // A missing kernel is also a failure.
        let empty = DynReport { kernels: vec![] };
        assert!(check_dyn(&base, &empty).is_err());
    }

    #[test]
    fn tables_render_all_kernels_and_modes() {
        let r = one_kernel_report("povray_shade");
        let speed = r.speedup_table();
        assert!(speed.contains("povray_shade"));
        assert!(speed.contains("geomean"));
        let lanes = r.lane_table();
        for label in DYN_MODES.map(pipeline_code) {
            assert!(lanes.contains(label), "{lanes}");
        }
        let cal = r.calibration_table();
        assert!(cal.contains("verdict"));
    }
}
