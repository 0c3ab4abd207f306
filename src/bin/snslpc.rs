//! `snslpc` — the SN-SLP textual-IR compiler driver.
//!
//! Reads a `.snir` module (or stdin with `-`), runs scalar cleanup and
//! the selected vectorizer, and prints the transformed module.
//!
//! ```text
//! usage: snslpc [options] <file.snir | ->
//!   --mode o3|slp|lslp|snslp   vectorizer (default snslp)
//!   --target sse2|avx2|noaltop target description (default sse2)
//!   --stats                    per-function pass statistics to stderr
//!   --graphs                   print the full per-graph report to stderr
//!   --report[=FILE]            write the single-file HTML vectorization
//!                              explorer (default snslp-report.html):
//!                              per-decision attribution joining remarks,
//!                              graph snapshots, per-decision compile
//!                              time, and (with --run) dynamic cycles
//!   --profile[=FILE]           write a Chrome-trace/Perfetto profile
//!                              (default snslp-prof.json); load it in
//!                              chrome://tracing or ui.perfetto.dev
//!   --profile-folded=FILE      write folded flamegraph stacks to FILE
//!   --time-passes              print a per-span timing table to stderr
//!   --no-reductions            disable horizontal-reduction seeds
//!   --verify                   verify the IR after every rewrite
//!   --run[=ENTRY]              interpret ENTRY (default: the module's
//!                              only function) after compilation and
//!                              print its dynamic execution profile;
//!                              arguments come from the module's
//!                              `; INPUTS:` comment line
//!   --backend interp|jit       with --run, how to execute the entry
//!                              (default interp). `jit` compiles the
//!                              committed IR to native x86-64 SSE2 code,
//!                              cross-checks it bit-exactly against the
//!                              interpreter, and reports measured wall
//!                              time; functions the JIT declines fall
//!                              back to the interpreter with a remark
//!   --dyn-profile[=FILE]       with --run, also write the profile as a
//!                              snslp-dynstats/v1 JSON document
//!                              (default snslp-dyn.json)
//!   --jit-strict               with --backend jit, fail (exit non-zero)
//!                              if the JIT declines the entry function
//!                              instead of falling back to the
//!                              interpreter
//!   --hot-profile[=FILE]       with --run, compile the entry with
//!                              instrumented-hotness lowering, run it
//!                              natively, and write the exact
//!                              snslp-hot/v1 profile (default
//!                              snslp-hot.json); reconciled against the
//!                              interpreter's DynProfile
//!   --hot-sampled[=FILE]       with --run, profile the native entry
//!                              with the SIGPROF wall-clock sampler and
//!                              write the sampled snslp-hot/v1 profile
//!                              (default snslp-hot-sampled.json);
//!                              gracefully skipped off x86-64 Linux
//!   --perf-map[=DIR]           write Linux perf export files for every
//!                              JIT-covered function: perf-<pid>.map and
//!                              jit-<pid>.dump under DIR (default /tmp);
//!                              see `perf report` docs for usage
//! ```
//!
//! Functions are compiled by the parallel module driver (worker count
//! from `SNSLP_THREADS` or the host CPU count); with `--profile`, each
//! worker contributes its own named track to the trace.
//!
//! Tracing: set `SNSLP_TRACE=events,remarks,metrics,dot[=DIR],prof[,json]`
//! (or `all`) to stream structured records from the pass to stderr —
//! see the `snslp_trace` crate docs.

use std::io::Read;
use std::process::ExitCode;

use snslp::bench::attrib::{attrib_function, render_html, AttribReport, DynSummary};
use snslp::bench::dynstats::{DynReport, KernelDyn, ModeDyn};
use snslp::core::{optimize_o3, run_slp_module, FunctionReport, SlpConfig, SlpMode};
use snslp::cost::{CostModel, TargetDesc};
use snslp::interp::{module_inputs, run_with_args, ExecOptions};
use snslp::ir::parse_module;

struct Options {
    mode: Option<SlpMode>,
    target: TargetDesc,
    stats: bool,
    graphs: bool,
    report_out: Option<String>,
    profile_out: Option<String>,
    folded_out: Option<String>,
    time_passes: bool,
    reductions: bool,
    verify: bool,
    run: Option<Option<String>>,
    backend: snslp::jit::Backend,
    dyn_out: Option<String>,
    jit_strict: bool,
    hot_out: Option<String>,
    hot_sampled_out: Option<String>,
    perf_map_dir: Option<String>,
    input: String,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: snslpc [--mode o3|slp|lslp|snslp] [--target sse2|avx2|noaltop] \
         [--stats] [--graphs] [--report[=FILE]] [--profile[=FILE]] \
         [--profile-folded=FILE] \
         [--time-passes] [--no-reductions] [--verify] [--run[=ENTRY]] \
         [--backend interp|jit] [--dyn-profile[=FILE]] [--jit-strict] \
         [--hot-profile[=FILE]] [--hot-sampled[=FILE]] [--perf-map[=DIR]] \
         <file.snir | ->"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        mode: Some(SlpMode::SnSlp),
        target: TargetDesc::sse2_like(),
        stats: false,
        graphs: false,
        report_out: None,
        profile_out: None,
        folded_out: None,
        time_passes: false,
        reductions: true,
        verify: false,
        run: None,
        backend: snslp::jit::Backend::default(),
        dyn_out: None,
        jit_strict: false,
        hot_out: None,
        hot_sampled_out: None,
        perf_map_dir: None,
        input: String::new(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--mode" => {
                i += 1;
                opts.mode = match args.get(i).map(String::as_str) {
                    Some("o3") => None,
                    Some(code) => Some(code.parse().map_err(|_| usage())?),
                    None => return Err(usage()),
                };
            }
            "--target" => {
                i += 1;
                opts.target = match args.get(i).map(String::as_str) {
                    Some("sse2") => TargetDesc::sse2_like(),
                    Some("avx2") => TargetDesc::avx2_like(),
                    Some("noaltop") => TargetDesc::no_altop_128(),
                    _ => return Err(usage()),
                };
            }
            "--stats" => opts.stats = true,
            "--graphs" => opts.graphs = true,
            "--report" => opts.report_out = Some("snslp-report.html".to_string()),
            "--profile" => opts.profile_out = Some("snslp-prof.json".to_string()),
            "--time-passes" => opts.time_passes = true,
            "--no-reductions" => opts.reductions = false,
            "--verify" => opts.verify = true,
            "--run" => opts.run = Some(None),
            "--backend" => {
                i += 1;
                opts.backend = match args.get(i).map(|b| b.parse()) {
                    Some(Ok(b)) => b,
                    _ => return Err(usage()),
                };
            }
            "--dyn-profile" => opts.dyn_out = Some("snslp-dyn.json".to_string()),
            "--jit-strict" => opts.jit_strict = true,
            "--hot-profile" => opts.hot_out = Some("snslp-hot.json".to_string()),
            "--hot-sampled" => opts.hot_sampled_out = Some("snslp-hot-sampled.json".to_string()),
            "--perf-map" => opts.perf_map_dir = Some("/tmp".to_string()),
            "--help" | "-h" => return Err(usage()),
            arg => {
                if let Some(path) = arg.strip_prefix("--report=") {
                    opts.report_out = Some(path.to_string());
                } else if let Some(path) = arg.strip_prefix("--profile=") {
                    opts.profile_out = Some(path.to_string());
                } else if let Some(path) = arg.strip_prefix("--profile-folded=") {
                    opts.folded_out = Some(path.to_string());
                } else if let Some(entry) = arg.strip_prefix("--run=") {
                    opts.run = Some(Some(entry.trim_start_matches('@').to_string()));
                } else if let Some(b) = arg.strip_prefix("--backend=") {
                    opts.backend = match b.parse() {
                        Ok(b) => b,
                        Err(e) => {
                            eprintln!("snslpc: {e}");
                            return Err(usage());
                        }
                    };
                } else if let Some(path) = arg.strip_prefix("--dyn-profile=") {
                    opts.dyn_out = Some(path.to_string());
                } else if let Some(path) = arg.strip_prefix("--hot-profile=") {
                    opts.hot_out = Some(path.to_string());
                } else if let Some(path) = arg.strip_prefix("--hot-sampled=") {
                    opts.hot_sampled_out = Some(path.to_string());
                } else if let Some(dir) = arg.strip_prefix("--perf-map=") {
                    opts.perf_map_dir = Some(dir.to_string());
                } else if opts.input.is_empty() && !arg.starts_with("--") {
                    opts.input = arg.to_string();
                } else {
                    return Err(usage());
                }
            }
        }
        i += 1;
    }
    if opts.input.is_empty() {
        return Err(usage());
    }
    Ok(opts)
}

/// The compilation-unit name `--report` documents carry: the input's
/// file stem, or `stdin`.
fn unit_name(input: &str) -> String {
    if input == "-" {
        return "stdin".to_string();
    }
    std::path::Path::new(input)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| input.to_string())
}

/// `--run`: interprets the compiled entry function on the arguments of
/// the module's `; INPUTS:` comment line and prints its dynamic profile
/// to stderr (and, with `--dyn-profile`, a `snslp-dynstats/v1` document
/// to a file). Returns the entry function's dynamic summary so
/// `--report` can join it into the attribution table.
fn run_entry(
    module: &snslp::ir::Module,
    source: &str,
    entry: Option<&str>,
    opts: &Options,
    reports: &[FunctionReport],
) -> Result<(String, DynSummary), String> {
    let fns: Vec<_> = module.functions().iter().collect();
    let f = match entry {
        Some(name) => *fns.iter().find(|f| f.name() == name).ok_or_else(|| {
            let have: Vec<String> = fns.iter().map(|f| format!("@{}", f.name())).collect();
            format!(
                "no function @{name} in the module (have: {})",
                have.join(", ")
            )
        })?,
        None => match fns.as_slice() {
            [only] => *only,
            _ => {
                return Err(format!(
                    "--run needs =ENTRY: the module has {} functions",
                    fns.len()
                ))
            }
        },
    };

    let args = module_inputs(source, f)?;

    let model = CostModel::new(opts.target.clone());
    let out = run_with_args(f, &args, &model, &ExecOptions::default())
        .map_err(|e| format!("@{}: execution failed: {e}", f.name()))?;

    eprintln!(
        "@{}: {} simulated cycles, {} dynamic instructions",
        f.name(),
        out.exec.cycles,
        out.exec.dyn_insts
    );
    if let Some(ret) = &out.exec.ret {
        eprintln!("@{}: returned {ret:?}", f.name());
    }
    eprint!("{}", out.exec.profile.render());

    let report = reports.iter().find(|r| r.function == f.name());
    let label = snslp::bench::pipeline_code(opts.mode);

    // `--backend jit`: the interpreter pass above remains the profile
    // source; the native pass adds measured wall time after a bit-exact
    // cross-check of every observable.
    let wall_ns = match opts.backend {
        snslp::jit::Backend::Interp => None,
        snslp::jit::Backend::Jit => {
            match snslp::jit::check_backends(f, &args, &model, &ExecOptions::default())
                .map_err(|d| format!("@{}: backend divergence: {d}", f.name()))?
            {
                snslp::jit::BackendDiff::NotCovered { reason } => {
                    if opts.jit_strict {
                        return Err(format!(
                            "@{}: --jit-strict: native backend not used ({reason})",
                            f.name()
                        ));
                    }
                    eprintln!(
                        "@{}: native backend not used ({reason}); interpreter result stands",
                        f.name()
                    );
                    None
                }
                snslp::jit::BackendDiff::Agreed => {
                    let wall = snslp::bench::native_wall_ns(f, &args);
                    if let Some(ns) = wall {
                        eprintln!(
                            "@{}: native x86-64 run matches the interpreter bit-exactly; \
                             {ns} ns wall (min of {} runs)",
                            f.name(),
                            snslp::bench::WALL_REPEATS
                        );
                    }
                    wall
                }
            }
        }
    };

    if let Some(path) = &opts.dyn_out {
        // The per-class wall split rides along whenever the native
        // backend measured this run: an instrumented hotness pass
        // apportions the wall time by executed native bytes.
        let class_ns = wall_ns.and_then(|w| {
            let decisions = report
                .map(snslp::bench::hot::decision_map)
                .unwrap_or_default();
            snslp::bench::hot::native_hot(f, &args, decisions)
                .map(|h| snslp::bench::hot::class_ns_split(&h, w))
        });
        let doc = DynReport {
            kernels: vec![KernelDyn {
                name: f.name().to_string(),
                iters: 1,
                modes: vec![ModeDyn {
                    label: label.to_string(),
                    cycles: out.exec.cycles,
                    dyn_insts: out.exec.dyn_insts,
                    predicted_cost: report.map(|r| r.predicted_cost()).unwrap_or(0),
                    vectorized_graphs: report.map(|r| r.vectorized_graphs() as u64).unwrap_or(0),
                    profile: out.exec.profile.clone(),
                    wall_ns,
                    class_ns,
                }],
            }],
        };
        std::fs::write(path, doc.to_json()).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("snslpc: dynamic profile written to {path}");
    }

    // `--hot-profile`: the exact instrumented native hotness profile,
    // reconciled against the interpreter's DynProfile before writing.
    if let Some(path) = &opts.hot_out {
        let decisions = report
            .map(snslp::bench::hot::decision_map)
            .unwrap_or_default();
        match snslp::jit::check_hotness(
            f,
            &args,
            &CostModel::default(),
            &ExecOptions::default(),
            decisions,
        )? {
            Some(profile) => {
                let doc = snslp::bench::hot::HotDoc {
                    mode: snslp::jit::HotMode::Instrumented,
                    entries: vec![snslp::bench::hot::HotEntry {
                        kernel: f.name().to_string(),
                        label: label.to_string(),
                        dyn_insts: profile.total_ops(),
                        profile,
                    }],
                };
                std::fs::write(path, doc.to_json())
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                eprintln!("snslpc: instrumented hot profile written to {path}");
            }
            None => eprintln!(
                "snslpc: no hot profile: the JIT declined @{} or this host \
                 has no native backend",
                f.name()
            ),
        }
    }

    // `--hot-sampled`: SIGPROF wall-clock samples resolved through the
    // PC→IR map. Nondeterministic by nature; skipped off x86-64 Linux.
    if let Some(path) = &opts.hot_sampled_out {
        let decisions = report
            .map(snslp::bench::hot::decision_map)
            .unwrap_or_default();
        match snslp::bench::hot::sampled_hot(f, &args, decisions, 1_000, 200) {
            Some(profile) => {
                let doc = snslp::bench::hot::HotDoc {
                    mode: snslp::jit::HotMode::Sampled,
                    entries: vec![snslp::bench::hot::HotEntry {
                        kernel: f.name().to_string(),
                        label: label.to_string(),
                        dyn_insts: 0,
                        profile,
                    }],
                };
                std::fs::write(path, doc.to_json())
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                eprintln!("snslpc: sampled hot profile written to {path}");
            }
            None => eprintln!(
                "snslpc: sampled profiling skipped: it needs x86-64 Linux, \
                 JIT coverage of @{}, and no other active sampler",
                f.name()
            ),
        }
    }
    Ok((
        f.name().to_string(),
        DynSummary {
            cycles: out.exec.cycles,
            o3_cycles: 0,
            dyn_insts: out.exec.dyn_insts,
            vector_ops: out.exec.profile.vector_ops,
            scalar_ops: out.exec.profile.scalar_ops,
            mean_lanes: out.exec.profile.mean_lanes(),
        },
    ))
}

fn main() -> ExitCode {
    if let Err(e) = snslp::trace::init_from_env() {
        eprintln!("snslpc: {e}");
        return ExitCode::from(2);
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    // The report joins per-decision profiler spans, so `--report` turns
    // profiling on even without an explicit `--profile`.
    let profiling = opts.profile_out.is_some()
        || opts.folded_out.is_some()
        || opts.time_passes
        || opts.report_out.is_some();
    if profiling {
        snslp::trace::set_facets(snslp::trace::facets() | snslp::trace::Facet::Prof as u32);
    }

    let source = if opts.input == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("snslpc: failed to read stdin");
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(&opts.input) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("snslpc: cannot read `{}`: {e}", opts.input);
                return ExitCode::FAILURE;
            }
        }
    };

    let mut module = match parse_module(&source) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("snslpc: {}: {e}", opts.input);
            // Show the offending source line with a caret under the
            // column, rustc-style, so the error is fixable without
            // opening the file and counting characters.
            if let Some(text) = source.lines().nth(e.line.saturating_sub(1) as usize) {
                eprintln!("  {} | {text}", e.line);
                if e.col > 0 {
                    let gutter = e.line.to_string().len();
                    let pad: String = text
                        .chars()
                        .take(e.col.saturating_sub(1) as usize)
                        .map(|c| if c == '\t' { '\t' } else { ' ' })
                        .collect();
                    eprintln!("  {} | {pad}^", " ".repeat(gutter));
                }
            }
            return ExitCode::FAILURE;
        }
    };
    for f in module.functions() {
        if let Err(e) = snslp::ir::verify(f) {
            eprintln!("snslpc: input function @{} is malformed:\n{e}", f.name());
            return ExitCode::FAILURE;
        }
    }

    let mut slp_reports = Vec::new();
    match opts.mode {
        None => {
            for f in module.functions_mut() {
                let t = optimize_o3(f);
                if opts.stats {
                    eprintln!("@{}: O3 cleanup in {t:?}", f.name());
                }
            }
            if opts.report_out.is_some() {
                eprintln!("snslpc: --report needs a vectorizer mode (not o3)");
                return ExitCode::FAILURE;
            }
        }
        Some(mode) => {
            let mut cfg = SlpConfig::new(mode).with_model(CostModel::new(opts.target.clone()));
            cfg.enable_reductions = opts.reductions;
            cfg.verify_after = opts.verify;
            // The report embeds decision-stamped graph snapshots.
            cfg.keep_graph_dots = opts.report_out.is_some();
            let reports = run_slp_module(&mut module, &cfg);
            for report in &reports {
                if opts.graphs {
                    eprint!("{report}");
                }
                if opts.stats {
                    eprintln!(
                        "@{}: {} — vectorized {}/{} graphs, aggregate Super-Node size {}, in {:?}",
                        report.function,
                        mode.label(),
                        report.vectorized_graphs(),
                        report.graphs.len(),
                        report.aggregate_super_node_size(),
                        report.elapsed,
                    );
                }
            }
            slp_reports = reports;
        }
    }

    // `--perf-map`: export every JIT-covered function of the compiled
    // module for external `perf report` symbolization.
    if let Some(dir) = &opts.perf_map_dir {
        if snslp::jit::native_supported() {
            let natives: Vec<snslp::jit::JitFunction> = module
                .functions()
                .iter()
                .filter_map(|f| snslp::jit::compile(f).ok()?.finalize().ok())
                .collect();
            {
                let syms: Vec<snslp::jit::perf::JitSym> = natives
                    .iter()
                    .map(|n| snslp::jit::perf::JitSym {
                        name: n.name(),
                        addr: n.code_base(),
                        code: n.code(),
                    })
                    .collect();
                match snslp::jit::perf::write_perf_files(std::path::Path::new(dir), &syms) {
                    Ok((map, dump)) => eprintln!(
                        "snslpc: perf export: {} and {} ({} of {} functions JIT-covered)",
                        map.display(),
                        dump.display(),
                        syms.len(),
                        module.functions().len()
                    ),
                    Err(e) => {
                        eprintln!("snslpc: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            // The map names live addresses: keep the exported mappings
            // around for the rest of the process so a later compile
            // cannot recycle an address and mis-symbolize samples.
            std::mem::forget(natives);
        } else {
            eprintln!("snslpc: --perf-map skipped: this host has no native backend");
        }
    }

    for (flag, set) in [
        ("--dyn-profile", opts.dyn_out.is_some()),
        ("--hot-profile", opts.hot_out.is_some()),
        ("--hot-sampled", opts.hot_sampled_out.is_some()),
    ] {
        if set && opts.run.is_none() {
            eprintln!("snslpc: {flag} needs --run");
            return ExitCode::FAILURE;
        }
    }
    if opts.jit_strict && (opts.run.is_none() || opts.backend != snslp::jit::Backend::Jit) {
        eprintln!("snslpc: --jit-strict needs --run and --backend jit");
        return ExitCode::FAILURE;
    }

    let mut dyn_info: Option<(String, DynSummary)> = None;
    if let Some(entry) = &opts.run {
        match run_entry(&module, &source, entry.as_deref(), &opts, &slp_reports) {
            Ok(info) => dyn_info = Some(info),
            Err(e) => {
                eprintln!("snslpc: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if profiling {
        let profile = snslp::trace::prof::take_profile();
        if let Some(path) = &opts.report_out {
            let unit = unit_name(&opts.input);
            let report = AttribReport {
                // `--report` was rejected above unless a vectorizer ran.
                mode: opts.mode.expect("mode checked earlier").code().to_string(),
                functions: slp_reports
                    .iter()
                    .map(|r| {
                        let dyn_run = dyn_info
                            .as_ref()
                            .filter(|(name, _)| *name == r.function)
                            .map(|(_, d)| d);
                        // Module sources carry no kernel arg spec, so no
                        // native hotness run joins here; the native
                        // columns render as `-`.
                        attrib_function(&unit, r, &profile, dyn_run, None)
                    })
                    .collect(),
            };
            if let Err(e) = std::fs::write(path, render_html(&report)) {
                eprintln!("snslpc: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("snslpc: vectorization report written to {path}");
        }
        if let Some(path) = &opts.profile_out {
            if let Err(e) = std::fs::write(path, profile.to_chrome_json()) {
                eprintln!("snslpc: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("snslpc: profile written to {path}");
        }
        if let Some(path) = &opts.folded_out {
            if let Err(e) = std::fs::write(path, profile.to_folded()) {
                eprintln!("snslpc: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        }
        if opts.time_passes {
            eprint!("{}", profile.time_passes());
        }
    }

    print!("{module}");
    ExitCode::SUCCESS
}
