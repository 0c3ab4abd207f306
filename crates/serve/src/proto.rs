//! The `snslpd` wire protocol: newline-delimited JSON, one value per
//! line, over a Unix socket or stdio.
//!
//! # Requests
//!
//! ```json
//! {"id": 1, "module": "func @f(...) { ... }", "mode": "snslp",
//!  "target": "sse2", "artifacts": ["codegen"]}
//! {"id": 2, "op": "stats"}
//! ```
//!
//! * `id` — client-chosen request tag, echoed verbatim on the reply.
//! * `module` — `.snir` module text (required for compile requests).
//! * `mode` — `slp` | `lslp` | `snslp` (default `snslp`).
//! * `target` — `sse2` | `avx2` | `noaltop` (default `sse2`).
//! * `artifacts` — any of `codegen` (rewritten module text), `html`
//!   (the single-file vectorization explorer), `dynstats` (interpreted
//!   dynamic profile, requires an `; INPUTS:` line in the module),
//!   `hot` (instrumented native hotness, `snslp-hot/v1`; requires an
//!   `; INPUTS:` line and the native x86-64 backend — hosts without one
//!   answer with an empty artifact rather than an error).
//! * `op: "stats"` — control request: answer with the server's cache
//!   counters instead of compiling.
//!
//! # Responses
//!
//! One line per request, in request order per connection:
//!
//! ```json
//! {"id": 1, "status": "ok", "reports": [...], "artifacts": {...}}
//! {"id": 2, "status": "busy", "error": "server at capacity ..."}
//! {"id": 3, "status": "error", "error": "parse error at line 2, column 7: ..."}
//! ```
//!
//! Compile replies are *deterministic*: they carry graphs, remarks
//! (machine rendering) and the counter half of the metrics snapshot, but
//! no wall-clock timings — so a cache hit is byte-identical to the cold
//! compile that populated it, and golden tests can compare raw reply
//! lines.

use snslp_bench::json::Json;
use snslp_core::{FunctionReport, SlpConfig, SlpMode};
use snslp_cost::{CostModel, TargetDesc};

/// Reply status tag.
pub const STATUS_OK: &str = "ok";
/// Reply status tag for admission-control refusals (the HTTP-429
/// analogue). The request was *not* compiled; resubmit later.
pub const STATUS_BUSY: &str = "busy";
/// Reply status tag for malformed requests or compile errors.
pub const STATUS_ERROR: &str = "error";

/// Which optional artifacts a compile request wants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactSet {
    /// The rewritten module text after the pass.
    pub codegen: bool,
    /// The single-file HTML vectorization explorer.
    pub html: bool,
    /// Interpreted dynamic profile (needs an `; INPUTS:` line).
    pub dynstats: bool,
    /// Instrumented native hotness (`snslp-hot/v1`; needs an `; INPUTS:`
    /// line and the native backend — empty-string artifact elsewhere).
    pub hot: bool,
}

/// A parsed compile request.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// Raw `.snir` module text, exactly as submitted.
    pub module_text: String,
    /// Vectorizer to run.
    pub mode: SlpMode,
    /// Target label (`sse2` | `avx2` | `noaltop`).
    pub target: String,
    /// Requested optional artifacts.
    pub artifacts: ArtifactSet,
}

impl CompileRequest {
    /// Builds the pass configuration this request describes.
    pub fn config(&self) -> SlpConfig {
        let target = match self.target.as_str() {
            "avx2" => TargetDesc::avx2_like(),
            "noaltop" => TargetDesc::no_altop_128(),
            _ => TargetDesc::sse2_like(),
        };
        let mut cfg = SlpConfig::new(self.mode).with_model(CostModel::new(target));
        // The explorer embeds decision-stamped graph snapshots; the flag
        // is part of the config fingerprint, so html and non-html
        // requests cache separately (their artifacts differ).
        cfg.keep_graph_dots = self.artifacts.html;
        cfg
    }
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile a module.
    Compile {
        /// Echoed request tag.
        id: u64,
        /// The compile payload.
        compile: CompileRequest,
    },
    /// Report server cache statistics.
    Stats {
        /// Echoed request tag.
        id: u64,
    },
}

impl Request {
    /// The request tag.
    pub fn id(&self) -> u64 {
        match self {
            Request::Compile { id, .. } | Request::Stats { id } => *id,
        }
    }

    /// Renders a compile request as one wire line (no trailing newline).
    pub fn render_compile(
        id: u64,
        module_text: &str,
        mode: &str,
        target: &str,
        artifacts: &[&str],
    ) -> String {
        let mut members = vec![
            ("id".to_string(), Json::Num(id as f64)),
            ("module".to_string(), Json::Str(module_text.to_string())),
            ("mode".to_string(), Json::Str(mode.to_string())),
            ("target".to_string(), Json::Str(target.to_string())),
        ];
        if !artifacts.is_empty() {
            members.push((
                "artifacts".to_string(),
                Json::Arr(artifacts.iter().map(|a| Json::Str(a.to_string())).collect()),
            ));
        }
        Json::Obj(members).render_compact()
    }

    /// Renders a stats request as one wire line.
    pub fn render_stats(id: u64) -> String {
        Json::Obj(vec![
            ("id".to_string(), Json::Num(id as f64)),
            ("op".to_string(), Json::Str("stats".to_string())),
        ])
        .render_compact()
    }

    /// Parses one request line. On failure, returns the request id (when
    /// it could still be recovered) and a diagnosis, so the server can
    /// address the error reply.
    pub fn parse(line: &str) -> Result<Request, (Option<u64>, String)> {
        let doc = Json::parse(line).map_err(|e| (None, format!("malformed request JSON: {e}")))?;
        let id = doc.get("id").and_then(Json::as_num).map(|n| n as u64);
        let fail = |msg: String| (id, msg);
        let id = id.ok_or_else(|| (None, "request is missing a numeric `id`".to_string()))?;

        if let Some(op) = doc.get("op").and_then(Json::as_str) {
            return match op {
                "stats" => Ok(Request::Stats { id }),
                other => Err(fail(format!("unknown op `{other}`"))),
            };
        }

        let module_text = doc
            .get("module")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("compile request is missing `module`".to_string()))?
            .to_string();
        let mode: SlpMode = doc
            .get("mode")
            .and_then(Json::as_str)
            .unwrap_or("snslp")
            .parse()
            .map_err(fail)?;
        let target = doc
            .get("target")
            .and_then(Json::as_str)
            .unwrap_or("sse2")
            .to_string();
        if !matches!(target.as_str(), "sse2" | "avx2" | "noaltop") {
            return Err(fail(format!(
                "unknown target `{target}` (want sse2|avx2|noaltop)"
            )));
        }
        let mut artifacts = ArtifactSet::default();
        if let Some(list) = doc.get("artifacts").and_then(Json::as_arr) {
            for item in list {
                match item.as_str() {
                    Some("codegen") => artifacts.codegen = true,
                    Some("html") => artifacts.html = true,
                    Some("dynstats") => artifacts.dynstats = true,
                    Some("hot") => artifacts.hot = true,
                    other => {
                        return Err(fail(format!(
                            "unknown artifact {other:?} (want codegen|html|dynstats|hot)"
                        )))
                    }
                }
            }
        }
        Ok(Request::Compile {
            id,
            compile: CompileRequest {
                module_text,
                mode,
                target,
                artifacts,
            },
        })
    }
}

/// Renders one function report as its deterministic wire object: graphs,
/// machine-rendered remarks, counter metrics — no wall-clock fields.
pub fn report_to_json(report: &FunctionReport) -> Json {
    let graphs = report
        .graphs
        .iter()
        .map(|g| {
            Json::Obj(vec![
                ("decision".to_string(), Json::Str(g.decision.render())),
                ("width".to_string(), Json::Num(f64::from(g.width))),
                ("cost".to_string(), Json::Num(f64::from(g.cost))),
                ("vectorized".to_string(), Json::Bool(g.vectorized)),
                ("num_nodes".to_string(), Json::Num(g.num_nodes as f64)),
                (
                    "super_node_sizes".to_string(),
                    Json::Arr(
                        g.super_node_sizes
                            .iter()
                            .map(|&s| Json::Num(f64::from(s)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("function".to_string(), Json::Str(report.function.clone())),
        (
            "mode".to_string(),
            Json::Str(report.mode.label().to_string()),
        ),
        (
            "vectorized_graphs".to_string(),
            Json::Num(report.vectorized_graphs() as f64),
        ),
        (
            "predicted_cost".to_string(),
            Json::Num(report.predicted_cost() as f64),
        ),
        ("graphs".to_string(), Json::Arr(graphs)),
        (
            "remarks".to_string(),
            Json::Arr(
                report
                    .remarks
                    .iter()
                    .map(|r| Json::Str(r.machine()))
                    .collect(),
            ),
        ),
        ("metrics".to_string(), Json::Str(report.metrics.machine())),
    ])
}

/// Renders the status/payload half of an `ok` compile reply — everything
/// after the `id` member. The server memoizes this string per module
/// text, so it must not contain anything request-specific.
pub fn ok_body(reports: &[FunctionReport], artifacts: &[(String, String)]) -> String {
    let mut members = vec![
        ("status".to_string(), Json::Str(STATUS_OK.to_string())),
        (
            "reports".to_string(),
            Json::Arr(reports.iter().map(report_to_json).collect()),
        ),
    ];
    if !artifacts.is_empty() {
        members.push((
            "artifacts".to_string(),
            Json::Obj(
                artifacts
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ));
    }
    body_of(Json::Obj(members))
}

/// Renders the status/payload half of a `busy` or `error` reply.
pub fn failure_body(status: &str, error: &str) -> String {
    body_of(Json::Obj(vec![
        ("status".to_string(), Json::Str(status.to_string())),
        ("error".to_string(), Json::Str(error.to_string())),
    ]))
}

/// Renders the status/payload half of a stats reply: the legacy flat
/// `stats` counters (older clients parse these) plus the full
/// `snslpd-telemetry/v1` snapshot under `telemetry`, extractable and
/// re-validatable on its own.
pub fn stats_body(telemetry: &crate::telemetry::TelemetrySnapshot) -> String {
    body_of(Json::Obj(vec![
        ("status".to_string(), Json::Str(STATUS_OK.to_string())),
        (
            "stats".to_string(),
            Json::Obj(vec![
                ("hits".to_string(), Json::Num(telemetry.cache.hits as f64)),
                (
                    "misses".to_string(),
                    Json::Num(telemetry.cache.misses as f64),
                ),
                (
                    "evictions".to_string(),
                    Json::Num(telemetry.cache.evictions as f64),
                ),
                (
                    "entries".to_string(),
                    Json::Num(telemetry.cache.entries as f64),
                ),
                (
                    "memo_hits".to_string(),
                    Json::Num(telemetry.counters.memo_hits as f64),
                ),
            ]),
        ),
        ("telemetry".to_string(), telemetry.to_json()),
    ]))
}

/// Strips the outer braces of a rendered object so [`address`] can splice
/// an `id` member in front without re-rendering.
fn body_of(obj: Json) -> String {
    let line = obj.render_compact();
    debug_assert!(line.starts_with('{') && line.ends_with('}'));
    line[1..line.len() - 1].to_string()
}

/// Completes a reply line: the echoed `id` plus a memoized body.
pub fn address(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{body}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_request_round_trips() {
        let line = Request::render_compile(
            7,
            "func @f() -> void {\nentry:\n  ret\n}\n",
            "lslp",
            "avx2",
            &["codegen", "html", "hot"],
        );
        assert!(!line.contains('\n'));
        match Request::parse(&line).unwrap() {
            Request::Compile { id, compile } => {
                assert_eq!(id, 7);
                assert!(compile.module_text.contains("func @f"));
                assert_eq!(compile.mode, SlpMode::Lslp);
                assert_eq!(compile.target, "avx2");
                assert!(compile.artifacts.codegen);
                assert!(compile.artifacts.html);
                assert!(!compile.artifacts.dynstats);
                assert!(compile.artifacts.hot);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn stats_request_round_trips() {
        let line = Request::render_stats(3);
        match Request::parse(&line).unwrap() {
            Request::Stats { id } => assert_eq!(id, 3),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parse_errors_recover_the_id_when_possible() {
        let (id, _) = Request::parse(r#"{"id": 9, "mode": "snslp"}"#).unwrap_err();
        assert_eq!(id, Some(9));
        let (id, _) = Request::parse("not json").unwrap_err();
        assert_eq!(id, None);
        let (id, msg) = Request::parse(r#"{"module": "x"}"#).unwrap_err();
        assert_eq!(id, None);
        assert!(msg.contains("id"));
        let (id, msg) = Request::parse(r#"{"id": 1, "module": "x", "mode": "turbo"}"#).unwrap_err();
        assert_eq!(id, Some(1));
        assert!(msg.contains("turbo"));
    }

    #[test]
    fn addressed_replies_are_valid_json() {
        let body = failure_body(STATUS_BUSY, "server at capacity");
        let line = address(42, &body);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_num), Some(42.0));
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("busy"));
    }

    #[test]
    fn html_requests_fingerprint_separately() {
        let mk = |html| CompileRequest {
            module_text: String::new(),
            mode: SlpMode::SnSlp,
            target: "sse2".to_string(),
            artifacts: ArtifactSet {
                html,
                ..Default::default()
            },
        };
        assert_ne!(
            mk(true).config().fingerprint(),
            mk(false).config().fingerprint()
        );
    }
}
