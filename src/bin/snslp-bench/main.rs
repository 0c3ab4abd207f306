//! `snslp-bench` — regenerates and gates the paper's evaluation: Table I,
//! Figs. 2–3 and 5–11, the checked-in `BENCH_*.json` trajectories, the
//! per-function compile report (decisions, pass counters, stage times)
//! and its diff, and the `snslpd` load generator. Run `snslp-bench
//! --help` for the commands.
//!
//! Every command shares one flag reader (`--flag V` or `--flag=V`) and one
//! exit contract: `0` ok, `1` a gate or diff failed, `2` usage error, `3`
//! an artifact could not be read, written or parsed (the message names
//! its path).

mod check;
mod figures;
mod graphdump;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "\
usage: snslp-bench <command> [args]

  check compile [BASELINE]
      compile-time gate over the registry kernels: fails when a kernel's
      fresh SN-SLP minimum exceeds 2x the baseline's
      (default baseline: BENCH_compile_time.json)
  check dyn [--bless] [--out FILE] [BASELINE]
      deterministic simulated-cycle gate + cost-model and wall-clock
      calibration (default baseline: BENCH_dyn.json);
      --bless rewrites the baseline, --out also writes the fresh report
  check serve [--fresh FILE] [BASELINE]
      compile-service shape invariants (default: BENCH_serve.json)
  check hot [--out FILE]
      instrumented native-hotness smoke over the registry kernels:
      exact per-class counts must reconcile with the interpreter's
      dynamic profile; --out writes the snslp-hot/v1 artifact
      (exits 0 with a notice on hosts without the native backend)
  figures [NAME...] [--iters N]
      paper tables and figures: table1 fig2 fig3 fig5 fig6 fig7 fig8
      fig9 fig10 fig11 dyn, the extra studies ablation widths, or all
      (the default: every paper table/figure plus dyn)
  graphdump KERNEL [slp|lslp|snslp]... [--dot DIR] [--json]
      trace one registry kernel through the pass, every facet on
  stats validate-trace TRACE.json
      structural check of a profiler Chrome trace
  stats emit-corpus FILE.snir
      write the kernel registry as one .snir module
  report collect [--mode slp|lslp|snslp] [--out FILE] [FILE.snir...]
      snslp-report/v1 decision attribution, pass counters and stage
      times over the files (default: the kernel registry)
  report html REPORT.json [--out FILE]
      render a report as the single-file HTML explorer
  report validate REPORT.json
      parse a report with the strict reader
  report diff BASE.json NEW.json [--top N]
      root-cause two runs down to changed decisions, counter deltas,
      functions in one run only and stage times past 2x and +500us;
      exit 1 on any of them
  serve [--socket PATH | --spawn] [--clients N] [--requests N]
        [--functions N] [--seed N] [--mode M] [--target-isa T]
        [--out FILE] [--check]
      replay fixed-seed traffic against snslpd (an in-process server
      unless --socket or --spawn) and print the snslp-serve-bench/v2
      report; --check applies the `check serve` gate to it

flags take `--flag VALUE` or `--flag=VALUE`; without --out, documents go
to stdout

exit codes:
  0  ok
  1  a gate or diff failed
  2  usage error
  3  an artifact could not be read, written or parsed";

/// A failed command. Its exit status is the code.
pub struct Error {
    code: u8,
    msg: String,
}

impl Error {
    /// A gate, diff or run failed (exit 1).
    pub fn failed(msg: impl Into<String>) -> Error {
        Error {
            code: 1,
            msg: msg.into(),
        }
    }

    /// The command line is wrong (exit 2).
    pub fn usage(msg: impl Into<String>) -> Error {
        Error {
            code: 2,
            msg: msg.into(),
        }
    }

    /// An artifact could not be read, written or parsed (exit 3).
    pub fn artifact(msg: impl Into<String>) -> Error {
        Error {
            code: 3,
            msg: msg.into(),
        }
    }
}

/// What a command returns.
pub type Outcome = Result<(), Error>;

/// One command's arguments: its flags and its positional arguments.
pub struct Args {
    flags: Vec<(&'static str, Option<String>)>,
    /// The arguments that are not flags, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Splits `argv` into flags and positional arguments. `valued` lists
    /// the flags that take a value, `switches` those that take none;
    /// anything else starting with `-` is a usage error, as is a valued
    /// flag with no value (the next argument is not taken as the value
    /// when it is itself a `--` flag).
    pub fn parse(
        argv: &[String],
        valued: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Args, Error> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') || arg == "-" {
                positional.push(arg.clone());
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            if let Some(&flag) = valued.iter().find(|f| **f == name) {
                let value = match inline {
                    Some(v) => v,
                    None => it
                        .next_if(|v| !v.starts_with("--"))
                        .cloned()
                        .ok_or_else(|| Error::usage(format!("{flag} needs a value")))?,
                };
                flags.push((flag, Some(value)));
            } else if let Some(&flag) = switches.iter().find(|f| **f == name) {
                if inline.is_some() {
                    return Err(Error::usage(format!("{flag} takes no value")));
                }
                flags.push((flag, None));
            } else {
                return Err(Error::usage(format!("unknown flag `{arg}`")));
            }
        }
        Ok(Args { flags, positional })
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value of the valued `flag` (its last occurrence), if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of `flag` parsed as a `T`; a value that does not parse
    /// is a usage error.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, Error> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| Error::usage(format!("invalid {flag} value `{v}`")))
            })
            .transpose()
    }

    /// The positional arguments, which must number exactly `N`.
    pub fn exactly<const N: usize>(&self, what: &str) -> Result<[&str; N], Error> {
        let all: Vec<&str> = self.positional.iter().map(String::as_str).collect();
        all.try_into()
            .map_err(|_| Error::usage(format!("expected {what}")))
    }

    /// The single optional positional argument, else `default`.
    pub fn at_most_one<'a>(&'a self, default: &'a str) -> Result<&'a str, Error> {
        match self.positional.as_slice() {
            [] => Ok(default),
            [one] => Ok(one),
            [_, extra, ..] => Err(Error::usage(format!("unexpected argument `{extra}`"))),
        }
    }
}

/// Reads the artifact at `path` and parses it with `parse`; either
/// failure is an artifact error that names the path.
pub fn load<T>(path: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Result<T, Error> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::artifact(format!("cannot read `{path}`: {e}")))?;
    parse(&text).map_err(|e| Error::artifact(format!("{path}: {e}")))
}

/// Writes `text` to the file `path`.
pub fn write(path: &str, text: &str) -> Outcome {
    std::fs::write(path, text).map_err(|e| Error::artifact(format!("cannot write `{path}`: {e}")))
}

/// Writes `text` to `out`, or prints it to stdout when there is no file.
pub fn write_or_print(out: Option<&str>, text: &str) -> Outcome {
    match out {
        Some(path) => write(path, text),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// Applies `SNSLP_TRACE`.
pub fn init_trace() -> Outcome {
    snslp::trace::init_from_env().map_err(Error::usage)
}

fn run(argv: &[String]) -> Outcome {
    let (command, rest) = argv
        .split_first()
        .ok_or_else(|| Error::usage("missing command"))?;
    // The gates and the load generator run without tracing; graphdump
    // applies `SNSLP_TRACE` itself.
    if matches!(command.as_str(), "figures" | "stats" | "report") {
        init_trace()?;
    }
    let sub = rest.split_first().map(|(s, r)| (s.as_str(), r));
    match (command.as_str(), sub) {
        ("check", Some(("compile", r))) => check::compile(r),
        ("check", Some(("dyn", r))) => check::dyn_gate(r),
        ("check", Some(("serve", r))) => check::serve(r),
        ("check", Some(("hot", r))) => check::hot(r),
        ("figures", _) => figures::run(rest),
        ("graphdump", _) => graphdump::run(rest),
        ("stats", Some(("validate-trace", r))) => stats::validate_trace(r),
        ("stats", Some(("emit-corpus", r))) => stats::emit_corpus(r),
        ("report", Some(("collect", r))) => report::collect(r),
        ("report", Some(("html", r))) => report::html(r),
        ("report", Some(("validate", r))) => report::validate(r),
        ("report", Some(("diff", r))) => report::diff(r),
        ("serve", _) => serve::run(rest),
        ("check" | "stats" | "report", Some((other, _))) => Err(Error::usage(format!(
            "unknown `{command}` subcommand `{other}`"
        ))),
        ("check" | "stats" | "report", None) => {
            Err(Error::usage(format!("`{command}` needs a subcommand")))
        }
        (other, _) => Err(Error::usage(format!("unknown command `{other}`"))),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("snslp-bench: {}", e.msg);
            if e.code == 2 {
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.code)
        }
    }
}
