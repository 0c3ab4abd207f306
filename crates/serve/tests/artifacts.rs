//! Every strict artifact reader, checked side by side: the four schemas
//! that have a reader (`snslp-report/v1`, dynstats, hot and the `snslpd`
//! telemetry snapshot).
//!
//! * Same bytes: each checked-in artifact (and a freshly collected
//!   report document) reads and re-renders to exactly its own text.
//! * One rule set: each reader rejects an unknown, missing or duplicate
//!   member, and a count that is fractional, negative or above 2^53, and
//!   the error names the member's path.

use std::path::PathBuf;
use std::sync::OnceLock;

use snslp_bench::attrib::{collect_kernel_attrib, AttribReport};
use snslp_bench::dynstats::DynReport;
use snslp_bench::hot::HotDoc;
use snslp_bench::json::Json;
use snslp_core::{SlpConfig, SlpMode};
use snslp_serve::TelemetrySnapshot;

/// One artifact: a valid document, a count member inside it, and its
/// reader (which re-renders what it read).
struct Artifact {
    name: &'static str,
    text: String,
    /// `/`-separated path of a count member; numeric segments index
    /// arrays.
    count: &'static str,
    read: fn(&str) -> Result<String, String>,
}

fn repo_file(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// The report document has no checked-in copy: collect it once per test
/// binary (the collection toggles the process-global profiler, so it
/// must not run twice concurrently).
fn fresh() -> &'static String {
    static FRESH: OnceLock<String> = OnceLock::new();
    FRESH.get_or_init(|| collect_kernel_attrib(&SlpConfig::new(SlpMode::SnSlp)).to_json())
}

fn artifacts() -> Vec<Artifact> {
    let report = fresh();
    vec![
        Artifact {
            name: "snslp-report/v1",
            text: report.clone(),
            count: "functions/0/decisions/0/width",
            read: |t| AttribReport::from_json(t).map(|r| r.to_json()),
        },
        Artifact {
            name: "snslp-dynstats/v1",
            text: repo_file("BENCH_dyn.json"),
            count: "kernels/0/modes/snslp/profile/splats",
            read: |t| DynReport::from_json(t).map(|r| r.to_json()),
        },
        Artifact {
            name: "snslp-hot/v1 (motiv_leaf)",
            text: repo_file("crates/bench/tests/golden/motiv_leaf.hot.json"),
            count: "entries/0/stubs/0/samples",
            read: |t| HotDoc::from_json(t).map(|d| d.to_json()),
        },
        Artifact {
            name: "snslp-hot/v1 (povray_shade)",
            text: repo_file("crates/bench/tests/golden/povray_shade.hot.json"),
            count: "entries/1/sample_period_ns",
            read: |t| HotDoc::from_json(t).map(|d| d.to_json()),
        },
        Artifact {
            name: "snslpd-telemetry/v1",
            text: repo_file("crates/serve/tests/golden/telemetry_snapshot.json"),
            count: "gauges/peak_queue_depth",
            read: |t| TelemetrySnapshot::from_json(&Json::parse(t)?).map(|s| s.render()),
        },
    ]
}

#[test]
fn every_artifact_reads_and_renders_to_the_same_bytes() {
    for a in artifacts() {
        let again = (a.read)(&a.text).unwrap_or_else(|e| panic!("{}: {e}", a.name));
        assert!(again == a.text, "{}: re-rendered bytes differ", a.name);
    }
}

/// The object holding the member at `path` (all segments but the last).
fn parent<'j>(doc: &'j mut Json, path: &[&str]) -> &'j mut Vec<(String, Json)> {
    let mut cur = doc;
    for seg in &path[..path.len() - 1] {
        cur = match cur {
            Json::Arr(items) => &mut items[seg.parse::<usize>().expect("array index")],
            Json::Obj(members) => {
                &mut members
                    .iter_mut()
                    .find(|(k, _)| k == seg)
                    .unwrap_or_else(|| panic!("no member `{seg}`"))
                    .1
            }
            other => panic!("cannot descend into {other:?}"),
        };
    }
    match cur {
        Json::Obj(members) => members,
        other => panic!("not an object: {other:?}"),
    }
}

/// `a/0/b` as the readers print it: `a[0].b`.
fn dotted(path: &[&str]) -> String {
    let mut out = String::new();
    for seg in path {
        if seg.parse::<usize>().is_ok() {
            out.push_str(&format!("[{seg}]"));
        } else {
            if !out.is_empty() {
                out.push('.');
            }
            out.push_str(seg);
        }
    }
    out
}

#[test]
fn every_reader_rejects_the_same_tampers() {
    let mut failures = Vec::new();
    for a in artifacts() {
        let path: Vec<&str> = a.count.split('/').collect();
        let key = *path.last().unwrap();
        let at = dotted(&path);
        let owner = match dotted(&path[..path.len() - 1]) {
            p if p.is_empty() => "document".to_string(),
            p => p,
        };
        let set = |v: f64| {
            move |members: &mut Vec<(String, Json)>| {
                let slot = members.iter_mut().find(|(k, _)| k == key).expect("count");
                slot.1 = Json::Num(v);
            }
        };
        type Edit<'e> = Box<dyn Fn(&mut Vec<(String, Json)>) + 'e>;
        let tampers: Vec<(&str, Edit, String)> = vec![
            (
                "unknown member",
                Box::new(|m| m.push(("bogus".to_string(), Json::Null))),
                format!("{owner}: unknown member `bogus`"),
            ),
            (
                "missing member",
                Box::new(|m| m.retain(|(k, _)| k != key)),
                format!("{owner}: missing member `{key}`"),
            ),
            (
                "duplicate member",
                Box::new(|m| m.push((key.to_string(), Json::Num(0.0)))),
                format!("{owner}: duplicate member `{key}`"),
            ),
            ("fractional count", Box::new(set(1.5)), format!("{at}:")),
            ("negative count", Box::new(set(-3.0)), format!("{at}:")),
            (
                "count above 2^53",
                Box::new(set(9_007_199_254_740_994.0)),
                format!("{at}:"),
            ),
        ];
        for (what, edit, expected) in tampers {
            let mut doc = Json::parse(&a.text).expect("valid artifact");
            edit(parent(&mut doc, &path));
            match (a.read)(&doc.render()) {
                Ok(_) => failures.push(format!("{}: {what} at `{at}` was accepted", a.name)),
                Err(e) if !e.contains(&expected) => failures.push(format!(
                    "{}: {what}: error `{e}` does not name `{expected}`",
                    a.name
                )),
                Err(_) => {}
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
