//! `snslp-bench graphdump <kernel> [slp|lslp|snslp]... [--dot DIR]
//! [--json]`: runs the vectorizer over a kernel and streams the
//! structured trace — optimization remarks, metrics counters and
//! Graphviz DOT dumps of the SLP graph at the
//! pre-reorder/post-reorder/final stages — through the `snslp-trace`
//! sinks.
//!
//! By default every trace facet is enabled and records go to stderr as
//! text; `--json` switches to JSON lines, `--dot DIR` writes the DOT
//! graphs as files under `DIR` instead of inline records. Setting
//! `SNSLP_TRACE` overrides the defaults entirely.

use std::path::PathBuf;

use snslp::core::{run_slp, SlpConfig, SlpMode};
use snslp::trace::{Facet, TraceSpec};

use crate::{init_trace, Args, Error, Outcome};

pub fn run(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &["--dot"], &["--json"])?;
    let mut kernel_name: Option<&str> = None;
    let mut modes: Vec<SlpMode> = Vec::new();
    for arg in &args.positional {
        if let Ok(mode) = arg.parse() {
            modes.push(mode);
        } else if kernel_name.is_none() {
            kernel_name = Some(arg);
        } else {
            return Err(Error::usage(format!("unknown argument `{arg}`")));
        }
    }
    let Some(name) = kernel_name else {
        return Err(Error::usage(format!(
            "graphdump needs a kernel; kernels: {:?}",
            snslp::kernels::registry()
                .iter()
                .map(|k| k.name)
                .collect::<Vec<_>>()
        )));
    };
    let Some(kernel) = snslp::kernels::kernel_by_name(name) else {
        return Err(Error::usage(format!("unknown kernel `{name}`")));
    };
    if modes.is_empty() {
        modes = vec![SlpMode::Slp, SlpMode::Lslp, SlpMode::SnSlp];
    }

    // `SNSLP_TRACE` takes full control when set; otherwise this is a
    // diagnostic tool, so default to everything on.
    if std::env::var_os("SNSLP_TRACE").is_some() {
        init_trace()?;
    } else {
        snslp::trace::apply_spec(&TraceSpec {
            facets: Facet::Events as u32
                | Facet::Remarks as u32
                | Facet::Metrics as u32
                | Facet::Dot as u32,
            json: args.switch("--json"),
            dot_dir: args.value("--dot").map(PathBuf::from),
        });
    }

    for mode in modes {
        println!("=== {} / {} ===", kernel.name, mode.label());
        let mut f = kernel.build();
        let report = run_slp(&mut f, &SlpConfig::new(mode));
        // The report carries the remarks and the metrics delta of this
        // run; the DOT graphs were already streamed by the pass hooks.
        print!("{report}");
        println!("  metrics: {}", report.metrics.machine());
    }
    Ok(())
}
