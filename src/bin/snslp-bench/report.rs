//! `snslp-bench report collect|html|validate|diff`: decision-attribution
//! reports and regression root-causing.

use snslp::bench::attrib::{
    collect_kernel_attrib, diff as diff_reports, render_html, AttribReport,
};
use snslp::core::{SlpConfig, SlpMode};

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

/// `report collect`: the attribution pipeline over the kernel registry,
/// as a `snslp-report/v1` document.
pub fn collect(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &["--mode", "--out"], &[])?;
    args.exactly::<0>("no positional arguments")?;
    let mode = args.parsed("--mode")?.unwrap_or(SlpMode::SnSlp);
    let report = collect_kernel_attrib(&SlpConfig::new(mode));
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
/// cycle impact; exit 1 when any difference is found.
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
        Err(Error::failed("decisions changed"))
    }
}
