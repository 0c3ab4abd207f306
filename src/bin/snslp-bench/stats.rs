//! `snslp-bench stats validate-trace|emit-corpus`: the profiler-trace
//! checker and the kernel corpus as one `.snir` module.

use snslp::bench::kernel_corpus_module;
use snslp::bench::tracecheck::validate_chrome_trace;

use crate::{load, write, Args, Outcome};

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
