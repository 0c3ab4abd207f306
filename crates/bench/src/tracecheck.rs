//! Structural validators for the trace artifacts the toolchain emits:
//! the Chrome Trace Event / Perfetto JSON from the profiler
//! ([`snslp_trace::Profile::to_chrome_json`]) and the NDJSON access log
//! `snslpd` writes through the JSON trace sink
//! ([`validate_access_log`]).
//!
//! Used by `snslp-bench stats validate-trace` and the test
//! suite: a trace must parse with the hand-rolled JSON parser, every
//! event must carry the fields the format requires, and the complete
//! (`ph:"X"`) events of each track must be monotone in `ts` and properly
//! nested — a child span never extends past the span enclosing it.

use std::collections::BTreeMap;

use crate::json::Json;

/// What [`validate_chrome_trace`] learned about a well-formed trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// `tid -> thread_name` metadata labels, e.g. `main`, `worker-0`.
    pub tracks: BTreeMap<i64, String>,
    /// Complete-span count per tid.
    pub spans_per_track: BTreeMap<i64, usize>,
    /// Distinct span names across the whole trace, sorted.
    pub span_names: Vec<String>,
    /// Distinct counter names across the whole trace, sorted.
    pub counter_names: Vec<String>,
}

/// Half a microsecond of slack for fractional-`ts` rounding.
const EPS: f64 = 0.5e-3;

/// Validates trace JSON end to end. Returns a summary on success and the
/// first structural violation otherwise.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let json = Json::parse(text).map_err(|e| format!("trace does not parse: {e}"))?;
    let events = json
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;

    let mut summary = TraceSummary::default();
    // Per-tid complete events as (ts, dur, name).
    let mut spans: BTreeMap<i64, Vec<(f64, f64, String)>> = BTreeMap::new();
    let mut names: Vec<String> = Vec::new();
    let mut counters: Vec<String> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let field = |key: &str| ev.get(key).ok_or(format!("event {i} missing `{key}`"));
        let name = field("name")?
            .as_str()
            .ok_or(format!("event {i}: `name` is not a string"))?
            .to_string();
        let ph = field("ph")?
            .as_str()
            .ok_or(format!("event {i}: `ph` is not a string"))?;
        field("pid")?
            .as_num()
            .ok_or(format!("event {i}: `pid` is not a number"))?;
        let tid = field("tid")?
            .as_num()
            .ok_or(format!("event {i}: `tid` is not a number"))? as i64;
        match ph {
            "M" => {
                if name == "thread_name" {
                    let label = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .ok_or(format!("event {i}: thread_name without args.name"))?;
                    summary.tracks.insert(tid, label.to_string());
                }
            }
            "X" => {
                let ts = field("ts")?
                    .as_num()
                    .ok_or(format!("event {i}: `ts` is not a number"))?;
                let dur = field("dur")?
                    .as_num()
                    .ok_or(format!("event {i}: `dur` is not a number"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i} (`{name}`): negative ts/dur"));
                }
                spans.entry(tid).or_default().push((ts, dur, name.clone()));
                names.push(name);
            }
            "C" => {
                ev.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_num)
                    .ok_or(format!("event {i} (`{name}`): counter without args.value"))?;
                counters.push(name);
            }
            other => return Err(format!("event {i} (`{name}`): unsupported ph `{other}`")),
        }
    }

    // Per-track: events must already be in monotone non-decreasing ts
    // order, and spans must nest (a span starting inside an enclosing
    // span must also end inside it).
    for (tid, track_spans) in &spans {
        let mut stack: Vec<(f64, String)> = Vec::new(); // (end, name)
        let mut prev_ts = f64::NEG_INFINITY;
        for (ts, dur, name) in track_spans {
            if *ts < prev_ts - EPS {
                return Err(format!(
                    "tid {tid}: span `{name}` at ts={ts} goes backwards (previous ts={prev_ts})"
                ));
            }
            prev_ts = *ts;
            while let Some((end, _)) = stack.last() {
                if *end <= *ts + EPS {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some((enclosing_end, enclosing)) = stack.last() {
                if ts + dur > enclosing_end + EPS {
                    return Err(format!(
                        "tid {tid}: span `{name}` [{ts}, {}] overlaps the end of \
                         enclosing `{enclosing}` (ends at {enclosing_end})",
                        ts + dur
                    ));
                }
            }
            stack.push((ts + dur, name.clone()));
        }
        summary.spans_per_track.insert(*tid, track_spans.len());
    }

    names.sort();
    names.dedup();
    summary.span_names = names;
    counters.sort();
    counters.dedup();
    summary.counter_names = counters;
    Ok(summary)
}

/// Name of the access-log event records (`snslp_trace::serve::EVENT_ACCESS`;
/// repeated here because `snslp-bench` sits below `snslp-trace`'s serve
/// vocabulary consumers and must not grow a dependency for one literal).
const ACCESS_EVENT: &str = "serve.access";

/// The non-negative integer fields every access record must carry, in
/// canonical emission order. The five `*_ns` stage fields must sum to
/// `total_ns` exactly — the server charges every nanosecond of a request
/// span to exactly one stage.
const ACCESS_NUM_FIELDS: [&str; 9] = [
    "parse_ns",
    "queue_ns",
    "compile_ns",
    "render_ns",
    "write_ns",
    "total_ns",
    "bytes_in",
    "bytes_out",
    "id",
];

/// What [`validate_access_log`] learned about a well-formed log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessLogSummary {
    /// Access records seen (non-access records are ignored).
    pub requests: usize,
    /// Record count per reply `status` (`ok`, `busy`, `error`).
    pub by_status: BTreeMap<String, usize>,
    /// Record count per `cache` outcome (`memo`, `compiled`, `none`).
    pub by_cache: BTreeMap<String, usize>,
    /// Sum of `total_ns` across all access records.
    pub total_ns: u64,
}

/// Reads a required field of `record` as a non-negative integer.
fn access_u64(record: &Json, line: usize, key: &str) -> Result<u64, String> {
    let n = record
        .get(key)
        .ok_or(format!("line {line}: access record missing `{key}`"))?
        .as_num()
        .ok_or(format!("line {line}: `{key}` is not a number"))?;
    if !n.is_finite() || n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
        return Err(format!("line {line}: `{key}` = {n} is not a u64"));
    }
    Ok(n as u64)
}

/// Reads a required field of `record` as one of `allowed`.
fn access_label<'a>(
    record: &'a Json,
    line: usize,
    key: &str,
    allowed: &[&str],
) -> Result<&'a str, String> {
    let v = record
        .get(key)
        .ok_or(format!("line {line}: access record missing `{key}`"))?
        .as_str()
        .ok_or(format!("line {line}: `{key}` is not a string"))?;
    if !allowed.contains(&v) {
        return Err(format!("line {line}: `{key}` = `{v}` not in {allowed:?}"));
    }
    Ok(v)
}

/// Validates an NDJSON trace stream's access-log records (the JSON trace
/// sink's output with the `serve.access` events enabled).
///
/// Every line must parse as a JSON object with a string `name`; lines
/// whose name is not `serve.access` are ignored (the stream may
/// interleave spans and other events). Each access record must:
///
/// - be an `event` record carrying exactly the documented fields,
/// - label `op` / `status` / `cache` from the closed vocabularies,
/// - pair `cache` correctly with the outcome (`memo`/`compiled` iff the
///   record is a successful compile, `none` otherwise), and
/// - satisfy the stage invariant: `parse_ns + queue_ns + compile_ns +
///   render_ns + write_ns == total_ns` exactly.
///
/// Returns per-status and per-cache tallies so callers can also assert
/// stream-level counts (e.g. `by_cache["memo"]` against the server's
/// `memo_hits` counter).
pub fn validate_access_log(text: &str) -> Result<AccessLogSummary, String> {
    let mut summary = AccessLogSummary::default();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let record = Json::parse(raw).map_err(|e| format!("line {line}: does not parse: {e}"))?;
        let Some(name) = record.get("name").and_then(Json::as_str) else {
            return Err(format!("line {line}: record without a string `name`"));
        };
        if name != ACCESS_EVENT {
            continue;
        }
        if record.get("kind").and_then(Json::as_str) != Some("event") {
            return Err(format!("line {line}: access record is not an event"));
        }
        let members = match &record {
            Json::Obj(members) => members,
            _ => return Err(format!("line {line}: access record is not an object")),
        };
        // kind + name + 3 labels + the numeric fields, nothing else.
        let expected = 5 + ACCESS_NUM_FIELDS.len();
        if members.len() != expected {
            return Err(format!(
                "line {line}: access record has {} members, expected {expected}",
                members.len()
            ));
        }

        let op = access_label(&record, line, "op", &["compile", "stats", "invalid"])?;
        let status = access_label(&record, line, "status", &["ok", "busy", "error"])?;
        let cache = access_label(&record, line, "cache", &["memo", "compiled", "none"])?;
        let ok_compile = op == "compile" && status == "ok";
        if ok_compile == (cache == "none") {
            return Err(format!(
                "line {line}: cache `{cache}` inconsistent with op `{op}` status `{status}`"
            ));
        }

        let mut nums = [0u64; ACCESS_NUM_FIELDS.len()];
        for (slot, key) in nums.iter_mut().zip(ACCESS_NUM_FIELDS) {
            *slot = access_u64(&record, line, key)?;
        }
        let [parse, queue, compile, render, write, total, _bytes_in, _bytes_out, _id] = nums;
        let stage_sum = parse + queue + compile + render + write;
        if stage_sum != total {
            return Err(format!(
                "line {line}: stage sum {stage_sum} != total_ns {total}"
            ));
        }

        summary.requests += 1;
        *summary.by_status.entry(status.to_string()).or_default() += 1;
        *summary.by_cache.entry(cache.to_string()).or_default() += 1;
        summary.total_ns += total;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, ph: &str, tid: i64, ts: f64, dur: f64) -> String {
        format!(
            "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\
             \"ts\":{ts},\"dur\":{dur}}}"
        )
    }

    fn trace(events: &[String]) -> String {
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }

    #[test]
    fn accepts_nested_spans() {
        let t = trace(&[
            event("parent", "X", 0, 0.0, 100.0),
            event("child", "X", 0, 10.0, 20.0),
            event("sibling", "X", 0, 40.0, 60.0),
        ]);
        let s = validate_chrome_trace(&t).unwrap();
        assert_eq!(s.spans_per_track[&0], 3);
        assert_eq!(s.span_names, vec!["child", "parent", "sibling"]);
    }

    #[test]
    fn rejects_backwards_ts() {
        let t = trace(&[
            event("a", "X", 0, 50.0, 10.0),
            event("b", "X", 0, 10.0, 10.0),
        ]);
        let err = validate_chrome_trace(&t).unwrap_err();
        assert!(err.contains("goes backwards"), "{err}");
    }

    #[test]
    fn rejects_partial_overlap() {
        let t = trace(&[
            event("parent", "X", 0, 0.0, 50.0),
            event("straddler", "X", 0, 40.0, 30.0),
        ]);
        let err = validate_chrome_trace(&t).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");
    }

    #[test]
    fn rejects_unknown_phase_and_malformed_counter() {
        let t = trace(&[event("weird", "B", 0, 0.0, 0.0)]);
        assert!(validate_chrome_trace(&t).unwrap_err().contains("ph `B`"));
        let t = trace(&["{\"name\":\"c\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1}".to_string()]);
        assert!(validate_chrome_trace(&t)
            .unwrap_err()
            .contains("counter without args.value"));
    }

    /// One well-formed access line with the given overrides applied as
    /// `key:value` JSON fragments replacing the defaults.
    fn access_line(op: &str, status: &str, cache: &str, stages: [u64; 5]) -> String {
        let total: u64 = stages.iter().sum();
        format!(
            "{{\"kind\":\"event\",\"name\":\"serve.access\",\"id\":7,\"op\":\"{op}\",\
             \"status\":\"{status}\",\"cache\":\"{cache}\",\
             \"parse_ns\":{},\"queue_ns\":{},\"compile_ns\":{},\"render_ns\":{},\
             \"write_ns\":{},\"total_ns\":{total},\"bytes_in\":120,\"bytes_out\":240}}",
            stages[0], stages[1], stages[2], stages[3], stages[4]
        )
    }

    #[test]
    fn access_log_tallies_statuses_and_cache_outcomes() {
        let log = [
            access_line("compile", "ok", "compiled", [5, 4, 3, 2, 1]),
            access_line("compile", "ok", "memo", [2, 0, 1, 1, 1]),
            access_line("compile", "busy", "none", [1, 0, 0, 1, 1]),
            access_line("stats", "ok", "none", [1, 0, 0, 2, 1]),
            // Interleaved non-access records are skipped, blanks ignored.
            "{\"kind\":\"span-end\",\"name\":\"serve.request\",\"elapsed_us\":9}".to_string(),
            String::new(),
        ]
        .join("\n");
        let s = validate_access_log(&log).unwrap();
        assert_eq!(s.requests, 4);
        assert_eq!(s.by_status["ok"], 3);
        assert_eq!(s.by_status["busy"], 1);
        assert_eq!(s.by_cache["memo"], 1);
        assert_eq!(s.by_cache["none"], 2);
        assert_eq!(s.total_ns, 15 + 5 + 3 + 4);
    }

    #[test]
    fn access_log_rejects_broken_stage_sums() {
        let mut line = access_line("compile", "ok", "compiled", [5, 4, 3, 2, 1]);
        line = line.replace("\"total_ns\":15", "\"total_ns\":16");
        let err = validate_access_log(&line).unwrap_err();
        assert!(err.contains("stage sum 15 != total_ns 16"), "{err}");
    }

    #[test]
    fn access_log_rejects_vocabulary_and_shape_violations() {
        // cache outcome inconsistent with a successful compile.
        let line = access_line("compile", "ok", "none", [1, 0, 0, 1, 1]);
        assert!(validate_access_log(&line).unwrap_err().contains("cache"));
        // memo claimed on a busy refusal.
        let line = access_line("compile", "busy", "memo", [1, 0, 0, 1, 1]);
        assert!(validate_access_log(&line).unwrap_err().contains("cache"));
        // Unknown status label.
        let line = access_line("compile", "teapot", "compiled", [1, 0, 0, 1, 1]);
        assert!(validate_access_log(&line).unwrap_err().contains("teapot"));
        // A dropped field changes the member count.
        let line =
            access_line("compile", "ok", "memo", [1, 0, 0, 1, 1]).replace(",\"bytes_in\":120", "");
        assert!(validate_access_log(&line)
            .unwrap_err()
            .contains("13 members, expected 14"));
        // An extra field is just as fatal.
        let line = access_line("compile", "ok", "memo", [1, 0, 0, 1, 1])
            .replace("\"id\":7", "\"id\":7,\"extra\":1");
        assert!(validate_access_log(&line).unwrap_err().contains("members"));
        // Negative nanoseconds.
        let line = access_line("compile", "ok", "memo", [1, 0, 0, 1, 1])
            .replace("\"queue_ns\":0", "\"queue_ns\":-1");
        assert!(validate_access_log(&line).unwrap_err().contains("queue_ns"));
        // A record that is not an event.
        let line = access_line("compile", "ok", "memo", [1, 0, 0, 1, 1])
            .replace("\"kind\":\"event\"", "\"kind\":\"metric\"");
        assert!(validate_access_log(&line)
            .unwrap_err()
            .contains("not an event"));
    }

    #[test]
    fn collects_track_labels() {
        let t = trace(&[
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3,\
             \"args\":{\"name\":\"worker-3\"}}"
                .to_string(),
            event("s", "X", 3, 0.0, 1.0),
        ]);
        let s = validate_chrome_trace(&t).unwrap();
        assert_eq!(s.tracks[&3], "worker-3");
    }
}
