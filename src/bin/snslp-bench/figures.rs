//! `snslp-bench figures`: regenerates every table and figure of the
//! paper's evaluation.
//!
//! Names: `table1 fig2 fig3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 dyn
//! ablation widths | all` (default: `all` = the paper's tables/figures
//! plus the dynamic-profile tables; `ablation` and `widths` are extra
//! studies). `all` expands in place, and each name prints once, first
//! occurrence first. `--iters N` scales kernel iteration counts (default:
//! each kernel's `default_iters`).

use snslp::bench::dynstats::collect_kernel_dyn;
use snslp::bench::{measure_benchmark, measure_kernel, time_pipeline, KernelRow};
use snslp::core::{build_graph, evaluate, BlockCtx, SlpConfig, SlpMode};
use snslp::kernels::{benchmarks, kernel_by_name, registry};
use snslp::trace::MetricsSnapshot;

use crate::{Args, Error, Outcome};

/// What `all` (and no name) expands to.
const ALL: [&str; 11] = [
    "table1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "dyn",
];

/// Names accepted beyond [`ALL`] and `all` itself.
const EXTRA: [&str; 2] = ["ablation", "widths"];

pub fn run(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &["--iters"], &[])?;
    let iters_override: Option<usize> = args.parsed("--iters")?;
    let names: Vec<&str> = match args.positional.as_slice() {
        [] => vec!["all"],
        given => given.iter().map(String::as_str).collect(),
    };
    if let Some(unknown) = names
        .iter()
        .find(|w| **w != "all" && !ALL.contains(w) && !EXTRA.contains(w))
    {
        return Err(Error::usage(format!("unknown figure `{unknown}`")));
    }
    let mut wanted: Vec<&str> = Vec::new();
    for name in names {
        let expanded: &[&str] = if name == "all" {
            &ALL
        } else {
            std::slice::from_ref(&name)
        };
        for &w in expanded {
            if !wanted.contains(&w) {
                wanted.push(w);
            }
        }
    }

    let kernel_rows: Vec<KernelRow> = if wanted
        .iter()
        .any(|w| ["fig5", "fig6", "fig7", "fig11"].contains(w))
    {
        registry()
            .iter()
            .map(|k| measure_kernel(k, iters_override.unwrap_or(k.default_iters)))
            .collect()
    } else {
        Vec::new()
    };

    for w in wanted {
        let before = MetricsSnapshot::current();
        match w {
            "table1" => table1(),
            "fig2" => cost_table("fig2", "motiv_leaf"),
            "fig3" => cost_table("fig3", "motiv_trunk"),
            "fig5" => fig5(&kernel_rows),
            "fig6" => fig6(&kernel_rows),
            "fig7" => fig7(&kernel_rows),
            "fig8" => fig8(),
            "fig9" => fig9(),
            "fig10" => fig10(),
            "fig11" => fig11(),
            "dyn" => dyn_tables(),
            "ablation" => ablation(),
            "widths" => widths(),
            other => unreachable!("figure names are checked above: `{other}`"),
        }
        // Pipeline activity behind this figure, from the metrics registry.
        let delta = MetricsSnapshot::current().delta_since(&before);
        if delta != MetricsSnapshot::default() {
            println!("  [metrics] {}", delta.machine());
        }
    }

    println!();
    println!("== Metrics registry (whole run) ==");
    print!("{}", MetricsSnapshot::current());
    Ok(())
}

fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Dynamic-profile tables: per-kernel dynamic-cycle speedups across all
/// four pipelines (incl. vanilla SLP), lane utilization / packing
/// overhead, and the predicted-vs-achieved cost calibration report.
fn dyn_tables() {
    let report = collect_kernel_dyn();
    header("Dynamic speedup over O3 per kernel (all four pipelines, simulated cycles)");
    print!("{}", report.speedup_table());
    header("Lane utilization and packing overhead per kernel/mode");
    print!("{}", report.lane_table());
    header("Cost calibration: predicted (static model) vs achieved (dynamic) saving per iteration");
    print!("{}", report.calibration_table());
}

/// Ablation (beyond the paper): SN-SLP with trunk reordering disabled
/// (leaf-APO rule only, §IV-C2) and with look-ahead scoring disabled.
fn ablation() {
    use snslp::core::run_slp;
    use snslp::cost::CostModel;
    use snslp::interp::{run_with_args, ExecOptions};

    header("Ablation: SN-SLP variants (speedup over O3, simulated cycles)");
    println!(
        "{:<18} {:>9} {:>12} {:>14}",
        "kernel", "full", "no-trunk", "no-lookahead"
    );
    let model = CostModel::default();
    let opts = ExecOptions::default();
    for k in registry() {
        let args = k.args(k.default_iters);
        let cycles = |mk: &dyn Fn() -> SlpConfig| -> u64 {
            let mut f = k.build();
            run_slp(&mut f, &mk());
            run_with_args(&f, &args, &model, &opts)
                .expect("kernel runs")
                .exec
                .cycles
        };
        let o3 = {
            let mut f = k.build();
            snslp::core::optimize_o3(&mut f);
            run_with_args(&f, &args, &model, &opts)
                .expect("kernel runs")
                .exec
                .cycles
        };
        let full = cycles(&|| SlpConfig::new(SlpMode::SnSlp));
        let no_trunk = cycles(&|| {
            let mut c = SlpConfig::new(SlpMode::SnSlp);
            c.enable_trunk_reordering = false;
            c
        });
        let no_look = cycles(&|| {
            let mut c = SlpConfig::new(SlpMode::SnSlp);
            c.lookahead_depth = 0;
            c
        });
        println!(
            "{:<18} {:>9.3} {:>12.3} {:>14.3}",
            k.name,
            o3 as f64 / full as f64,
            o3 as f64 / no_trunk as f64,
            o3 as f64 / no_look as f64,
        );
    }
}

/// Width sweep (beyond the paper): SN-SLP speedup over O3 on the
/// 128-bit `addsub` target, the 256-bit target, and a 128-bit target
/// without native `addsub` (alternating ops emulated).
fn widths() {
    use snslp::core::run_slp;
    use snslp::cost::{CostModel, TargetDesc};
    use snslp::interp::{run_with_args, ExecOptions};

    header("Width sweep: SN-SLP speedup over O3 per target");
    println!(
        "{:<18} {:>10} {:>10} {:>12}",
        "kernel", "sse2-like", "avx2-like", "no-altop-128"
    );
    let opts = ExecOptions::default();
    for k in registry() {
        let args = k.args(k.default_iters);
        let o3 = {
            let mut f = k.build();
            snslp::core::optimize_o3(&mut f);
            run_with_args(&f, &args, &CostModel::default(), &opts)
                .expect("kernel runs")
                .exec
                .cycles
        };
        let speedup = |target: TargetDesc| -> f64 {
            let model = CostModel::new(target);
            let mut f = k.build();
            run_slp(
                &mut f,
                &SlpConfig::new(SlpMode::SnSlp).with_model(model.clone()),
            );
            let c = run_with_args(&f, &args, &model, &opts)
                .expect("kernel runs")
                .exec
                .cycles;
            o3 as f64 / c as f64
        };
        println!(
            "{:<18} {:>10.3} {:>10.3} {:>12.3}",
            k.name,
            speedup(TargetDesc::sse2_like()),
            speedup(TargetDesc::avx2_like()),
            speedup(TargetDesc::no_altop_128()),
        );
    }
}

/// Table I: the kernels where Super-Node SLP activates.
fn table1() {
    header("Table I: kernels extracted from SPEC CPU2006 (+ motivating examples)");
    println!(
        "{:<18} {:<12} {:<44} {:<5} description",
        "kernel", "origin", "modelled construct", "elem"
    );
    for k in registry() {
        println!(
            "{:<18} {:<12} {:<44} {:<5} {}",
            k.name, k.origin, k.shape, k.elem, k.description
        );
    }
}

/// Figures 2 and 3: the worked SLP-graph cost examples of §III.
fn cost_table(fig: &str, kernel: &str) {
    header(&format!(
        "{}: SLP graph cost of `{kernel}` per mode (paper §III)",
        fig.to_uppercase()
    ));
    let k = kernel_by_name(kernel).expect("registered kernel");
    for mode in [SlpMode::Slp, SlpMode::Lslp, SlpMode::SnSlp] {
        let mut f = k.build();
        snslp::ir::opt::cleanup_pipeline(&mut f);
        let cfg = SlpConfig::new(mode);
        let mut printed = false;
        for b in f.block_ids().collect::<Vec<_>>() {
            let ctx = BlockCtx::compute(&f, b);
            let target = cfg.model.target().clone();
            let seeds = snslp::core::collect_store_seeds(
                &f,
                &ctx,
                |st| target.max_lanes(st),
                &snslp::ir::FxHashSet::default(),
            );
            for g in seeds {
                let graph = build_graph(&f, &ctx, &cfg, &g.stores);
                let cost = evaluate(&f, &ctx, &graph, &cfg.model);
                println!(
                    "  {:<7}: total cost {:+} ({} nodes: {} vectorizable, {} gather; extracts {:+}) => {}",
                    mode.label(),
                    cost.total,
                    graph.nodes.len(),
                    graph.num_vector_nodes(),
                    graph.num_gather_nodes(),
                    cost.extract_cost,
                    if cost.total < 0 { "VECTORIZE" } else { "keep scalar" },
                );
                printed = true;
            }
        }
        if !printed {
            println!("  {:<7}: no seeds", mode.label());
        }
    }
}

/// Figure 5: kernel speedup over O3.
fn fig5(rows: &[KernelRow]) {
    header("Fig. 5: speedup over O3 on the kernels (simulated cycles)");
    println!(
        "{:<18} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "kernel", "O3 cycles", "LSLP cycles", "SN-SLP cycles", "LSLP x", "SN-SLP x"
    );
    let mut geo = [1.0f64; 2];
    for row in rows {
        let o3 = row.result(None).cycles;
        let l = row.result(Some(SlpMode::Lslp)).cycles;
        let s = row.result(Some(SlpMode::SnSlp)).cycles;
        let (sl, ss) = (
            row.speedup(Some(SlpMode::Lslp)),
            row.speedup(Some(SlpMode::SnSlp)),
        );
        geo[0] *= sl;
        geo[1] *= ss;
        println!(
            "{:<18} {:>14} {:>14} {:>14} {:>9.3} {:>9.3}",
            row.kernel.name, o3, l, s, sl, ss
        );
    }
    let n = rows.len() as f64;
    println!(
        "{:<18} {:>14} {:>14} {:>14} {:>9.3} {:>9.3}",
        "geomean",
        "",
        "",
        "",
        geo[0].powf(1.0 / n),
        geo[1].powf(1.0 / n)
    );
}

/// Figure 6: total aggregate Multi/Super-Node size on the kernels.
fn fig6(rows: &[KernelRow]) {
    header("Fig. 6: total aggregate Multi/Super-Node size (kernels)");
    println!("{:<18} {:>12} {:>12}", "kernel", "LSLP", "SN-SLP");
    let mut totals = [0u64; 2];
    for row in rows {
        let l = row
            .result(Some(SlpMode::Lslp))
            .report
            .as_ref()
            .map(|r| r.aggregate_super_node_size())
            .unwrap_or(0);
        let s = row
            .result(Some(SlpMode::SnSlp))
            .report
            .as_ref()
            .map(|r| r.aggregate_super_node_size())
            .unwrap_or(0);
        totals[0] += l;
        totals[1] += s;
        println!("{:<18} {:>12} {:>12}", row.kernel.name, l, s);
    }
    println!("{:<18} {:>12} {:>12}", "total", totals[0], totals[1]);
}

/// Figure 7: average Multi/Super-Node size per SLP graph (kernels).
fn fig7(rows: &[KernelRow]) {
    header("Fig. 7: average Multi/Super-Node size (kernels)");
    println!("{:<18} {:>12} {:>12}", "kernel", "LSLP", "SN-SLP");
    for row in rows {
        let avg = |mode| {
            row.result(Some(mode))
                .report
                .as_ref()
                .and_then(|r| r.avg_super_node_size())
        };
        let fmt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.2}"),
            None => "-".to_string(),
        };
        println!(
            "{:<18} {:>12} {:>12}",
            row.kernel.name,
            fmt(avg(SlpMode::Lslp)),
            fmt(avg(SlpMode::SnSlp))
        );
    }
}

/// Figure 8: whole-benchmark speedup (SN-SLP vs LSLP, over O3).
fn fig8() {
    header("Fig. 8: speedup on full benchmarks (simulated cycles)");
    println!(
        "{:<12} {:>9} {:>9} {:>14} {:>13}",
        "benchmark", "LSLP x", "SN-SLP x", "SN-SLP/LSLP", "kernel share"
    );
    for b in benchmarks() {
        let row = measure_benchmark(&b);
        let sl = row.speedup(Some(SlpMode::Lslp));
        let ss = row.speedup(Some(SlpMode::SnSlp));
        println!(
            "{:<12} {:>9.4} {:>9.4} {:>13.2}% {:>12.1}%",
            b.name,
            sl,
            ss,
            (ss / sl - 1.0) * 100.0,
            row.kernel_share() * 100.0,
        );
    }
}

/// Figure 9: aggregate node size on full benchmarks.
fn fig9() {
    header("Fig. 9: total aggregate Multi/Super-Node size (full benchmarks)");
    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>12}",
        "benchmark", "LSLP", "SN-SLP", "LSLP nodes", "SN-SLP nodes"
    );
    for b in benchmarks() {
        let row = measure_benchmark(&b);
        let stats = |mode| {
            row.result(Some(mode))
                .report
                .as_ref()
                .map(|r| (r.aggregate_super_node_size(), r.num_super_nodes()))
                .unwrap_or((0, 0))
        };
        let (la, ln) = stats(SlpMode::Lslp);
        let (sa, sn) = stats(SlpMode::SnSlp);
        println!("{:<12} {:>10} {:>10} {:>12} {:>12}", b.name, la, sa, ln, sn);
    }
}

/// Figure 10: average node size on full benchmarks.
fn fig10() {
    header("Fig. 10: average Multi/Super-Node size (full benchmarks)");
    println!("{:<12} {:>10} {:>10}", "benchmark", "LSLP", "SN-SLP");
    for b in benchmarks() {
        let row = measure_benchmark(&b);
        let avg = |mode| {
            row.result(Some(mode))
                .report
                .as_ref()
                .and_then(|r| r.avg_super_node_size())
        };
        let fmt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.2}"),
            None => "-".to_string(),
        };
        println!(
            "{:<12} {:>10} {:>10}",
            b.name,
            fmt(avg(SlpMode::Lslp)),
            fmt(avg(SlpMode::SnSlp))
        );
    }
}

/// Figure 11: compilation time normalized to O3 (10 runs + warm-up).
fn fig11() {
    header("Fig. 11: compilation time normalized to O3 (10 runs + 1 warm-up)");
    println!(
        "{:<18} {:>12} {:>16} {:>16} {:>13}",
        "kernel", "O3 (µs)", "LSLP (norm±sd)", "SN-SLP (norm±sd)", "SN-SLP/LSLP"
    );
    for k in registry() {
        let o3 = time_pipeline(&k, None, 1, 10).mean_us;
        let l = time_pipeline(&k, Some(SlpMode::Lslp), 1, 10);
        let s = time_pipeline(&k, Some(SlpMode::SnSlp), 1, 10);
        println!(
            "{:<18} {:>12.1} {:>10.2}±{:.2} {:>10.2}±{:.2} {:>13.2}",
            k.name,
            o3,
            l.mean_us / o3,
            l.sd_us / o3,
            s.mean_us / o3,
            s.sd_us / o3,
            s.mean_us / l.mean_us,
        );
    }
    println!("(the O3 baseline is only the scalar cleanup pipeline — a tiny fraction of a");
    println!(" real -O3 pipeline — so absolute normalized values are not comparable to the");
    println!(" paper's; the SN-SLP/LSLP ratio is the paper's no-overhead claim)");
}
