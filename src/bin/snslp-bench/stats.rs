//! `snslp-bench stats collect|diff|validate-trace|emit-corpus`:
//! corpus-wide pass-statistics aggregation and diffing.

use snslp::bench::stats::{
    collect_kernel_stats, diff as diff_reports, kernel_corpus_module, DiffGates, FunctionStats,
    StatsReport,
};
use snslp::bench::tracecheck::validate_chrome_trace;
use snslp::core::{run_slp_module, SlpConfig, SlpMode};
use snslp::ir::parser::parse_module;

use crate::{load, write, write_or_print, Args, Error, Outcome};

/// `stats collect`: runs the pass over a corpus (the kernel registry
/// when no files are given) and writes a `snslp-stats/v1` report.
pub fn collect(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &["--mode", "--out"], &[])?;
    let mode = args.parsed("--mode")?.unwrap_or(SlpMode::SnSlp);
    let files = &args.positional;

    let report = if files.is_empty() {
        collect_kernel_stats(mode)
    } else {
        let cfg = SlpConfig::new(mode);
        let mut functions: Vec<FunctionStats> = Vec::new();
        for path in files {
            let mut module = load(path, |s| parse_module(s).map_err(|e| e.to_string()))?;
            let unit = std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.clone());
            for fr in run_slp_module(&mut module, &cfg) {
                functions.push(FunctionStats::from_report(&unit, &fr));
            }
        }
        StatsReport {
            mode: mode.code().to_string(),
            functions,
        }
    };

    let out = args.value("--out");
    write_or_print(out, &report.to_json())?;
    if out.is_some() {
        eprint!("{}", report.summary());
    }
    Ok(())
}

/// `stats diff BASE NEW [--top N]`: exit 1 when regressions are found.
pub fn diff(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &["--top"], &[])?;
    let top_n = args.parsed("--top")?.unwrap_or(10);
    let [base_path, new_path] = args.exactly("BASE.json NEW.json")?;
    let base = load(base_path, StatsReport::from_json)?;
    let new = load(new_path, StatsReport::from_json)?;
    if base.mode != new.mode {
        return Err(Error::failed(format!(
            "mode mismatch: baseline is `{}`, new run is `{}`",
            base.mode, new.mode
        )));
    }
    let d = diff_reports(&base, &new, DiffGates::default());
    if d.has_regressions() {
        print!("{}", d.render(top_n));
        return Err(Error::failed("regressions found"));
    }
    println!(
        "snslp-stats: no regressions across {} functions",
        new.functions.len()
    );
    Ok(())
}

/// `stats validate-trace TRACE`: structural check of a Chrome trace.
pub fn validate_trace(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &[], &[])?;
    let [path] = args.exactly("TRACE.json")?;
    let summary = load(path, |text| {
        validate_chrome_trace(text).map_err(|e| format!("invalid trace: {e}"))
    })?;
    let spans: usize = summary.spans_per_track.values().sum();
    println!(
        "{path}: OK — {} tracks, {spans} spans, {} span names, {} counters",
        summary.tracks.len(),
        summary.span_names.len(),
        summary.counter_names.len(),
    );
    for (tid, label) in &summary.tracks {
        println!(
            "  tid {tid} ({label}): {} spans",
            summary.spans_per_track.get(tid).copied().unwrap_or(0)
        );
    }
    Ok(())
}

/// `stats emit-corpus FILE`: the kernel registry as one `.snir` module.
pub fn emit_corpus(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &[], &[])?;
    let [path] = args.exactly("FILE.snir")?;
    let module = kernel_corpus_module();
    write(path, &module.to_string())?;
    eprintln!(
        "snslp-stats: wrote {} kernel functions to {path}",
        module.functions().len()
    );
    Ok(())
}
