//! `snslp-bench report collect|html|validate|diff`: decision-attribution
//! reports and regression root-causing, with counter and stage-time
//! diffs.

use snslp::bench::attrib::{
    attrib_module, collect_kernel_attrib, diff as diff_reports, render_html, AttribReport,
};
use snslp::core::{SlpConfig, SlpMode};
use snslp::ir::parser::parse_module;

use crate::{load, write_or_print, Args, Error, Outcome};

/// Writes `payload` to `--out` (noting `what` on stderr) or stdout.
fn emit(args: &Args, payload: &str, what: &str) -> Outcome {
    let out = args.value("--out");
    write_or_print(out, payload)?;
    if let Some(path) = out {
        eprintln!("snslp-report: {what} written to {path}");
    }
    Ok(())
}

/// `report collect [FILE.snir...]`: the attribution pipeline over the
/// files (each file's unit is its stem) or, with none, over the kernel
/// registry, as a `snslp-report/v1` document.
pub fn collect(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &["--mode", "--out"], &[])?;
    let mode = args.parsed("--mode")?.unwrap_or(SlpMode::SnSlp);
    let cfg = SlpConfig::new(mode);
    let report = if args.positional.is_empty() {
        collect_kernel_attrib(&cfg)
    } else {
        let mut functions = Vec::new();
        for path in &args.positional {
            let mut module = load(path, |s| parse_module(s).map_err(|e| e.to_string()))?;
            let unit = std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.clone());
            functions.extend(attrib_module(&unit, &mut module, &cfg));
        }
        AttribReport {
            mode: mode.code().to_string(),
            functions,
        }
    };
    eprintln!("snslp-report: {}", report.summary());
    emit(&args, &report.to_json(), "report")
}

/// `report html REPORT`: the single-file HTML explorer.
pub fn html(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &["--out"], &[])?;
    let [path] = args.exactly("REPORT.json")?;
    let report = load(path, AttribReport::from_json)?;
    emit(&args, &render_html(&report), "explorer")
}

/// `report validate REPORT`: the strict reader's verdict.
pub fn validate(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &[], &[])?;
    let [path] = args.exactly("REPORT.json")?;
    let report = load(path, AttribReport::from_json)?;
    println!("{path}: OK — {}", report.summary());
    Ok(())
}

/// `report diff BASE NEW [--top N]`: root-causes the difference between
/// two runs down to the decisions whose outcomes changed, ranked by
/// cycle impact, plus counter deltas, functions in only one run and
/// gated stage-time regressions; exit 1 when any difference is found.
pub fn diff(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &["--top"], &[])?;
    let top_n = args.parsed("--top")?.unwrap_or(10);
    let [base_path, new_path] = args.exactly("BASE.json NEW.json")?;
    let base = load(base_path, AttribReport::from_json)?;
    let new = load(new_path, AttribReport::from_json)?;
    if base.mode != new.mode {
        return Err(Error::failed(format!(
            "mode mismatch: baseline is `{}`, new run is `{}`",
            base.mode, new.mode
        )));
    }
    let d = diff_reports(&base, &new);
    print!("{}", d.render(top_n));
    if d.is_clean() {
        Ok(())
    } else {
        Err(Error::failed("the runs differ"))
    }
}
