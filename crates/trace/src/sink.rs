//! Trace sinks: where structured records go once a facet is enabled.
//!
//! A [`Record`] is a flat, schema-less bag of key/value fields tagged with
//! a [`RecordKind`]. The default [`TextSink`] renders one human-readable
//! line per record to stderr; [`JsonSink`] renders one JSON object per
//! line (machine consumption); [`BufferSink`] accumulates rendered lines
//! in memory for tests and for `snslp-bench graphdump`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::{Arc, Mutex};

/// A single trace field value. Deliberately small: everything the
/// pipeline reports fits in these five shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    I64(i64),
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl Value {
    /// Render without quoting (text sink).
    fn render_bare(&self, out: &mut String) {
        match self {
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(v) => {
                if v.contains(' ') {
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str(v);
                }
            }
        }
    }

    /// Render as a JSON value.
    fn render_json(&self, out: &mut String) {
        match self {
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(v) => json_string(v, out),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(i64::from(v))
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

/// What kind of record this is; sinks may route or prefix on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A point event inside a pass.
    Event,
    /// Start of a named span.
    SpanBegin,
    /// End of a named span (carries `elapsed_us`).
    SpanEnd,
    /// An optimization remark (one per seed bundle).
    Remark,
    /// A metrics-registry line.
    Metric,
    /// A dumped artifact (e.g. a DOT graph written to disk).
    Artifact,
}

impl RecordKind {
    pub fn label(self) -> &'static str {
        match self {
            RecordKind::Event => "event",
            RecordKind::SpanBegin => "span-begin",
            RecordKind::SpanEnd => "span-end",
            RecordKind::Remark => "remark",
            RecordKind::Metric => "metric",
            RecordKind::Artifact => "artifact",
        }
    }
}

/// One structured trace record.
#[derive(Debug, Clone)]
pub struct Record {
    pub kind: RecordKind,
    /// Short dotted name, e.g. `seeds.collect` or `pass.run_slp`.
    pub name: String,
    pub fields: Vec<(&'static str, Value)>,
}

impl Record {
    pub fn new(kind: RecordKind, name: impl Into<String>) -> Self {
        Record {
            kind,
            name: name.into(),
            fields: Vec::new(),
        }
    }

    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// The canonical single-line text rendering:
    /// `[snslp] <kind> <name> k=v k=v ...`
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(out, "[snslp] {} {}", self.kind.label(), self.name);
        for (key, value) in &self.fields {
            out.push(' ');
            out.push_str(key);
            out.push('=');
            value.render_bare(&mut out);
        }
        out
    }

    /// One JSON object per record, single line.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"kind\":");
        json_string(self.kind.label(), &mut out);
        out.push_str(",\"name\":");
        json_string(&self.name, &mut out);
        for (key, value) in &self.fields {
            out.push(',');
            json_string(key, &mut out);
            out.push(':');
            value.render_json(&mut out);
        }
        out.push('}');
        out
    }
}

fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Destination for trace records. Implementations must be cheap per-record;
/// the facet check has already happened by the time `record` is called.
pub trait Sink: Send {
    fn record(&mut self, rec: &Record);
    fn flush(&mut self) {}
}

/// Human-readable lines to stderr (the default sink).
#[derive(Debug, Default)]
pub struct TextSink;

impl Sink for TextSink {
    fn record(&mut self, rec: &Record) {
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "{}", rec.render_text());
    }
}

/// One JSON object per line to stderr (`SNSLP_TRACE=...,json`).
#[derive(Debug, Default)]
pub struct JsonSink;

impl Sink for JsonSink {
    fn record(&mut self, rec: &Record) {
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "{}", rec.render_json());
    }
}

/// Accumulates rendered lines in a shared buffer. Used by tests (via
/// [`crate::capture`] / [`crate::capture_json`]) and by tools that
/// post-process the stream. Renders text by default; `new_json` renders
/// one JSON object per line instead.
#[derive(Debug, Clone, Default)]
pub struct BufferSink {
    lines: Arc<Mutex<Vec<String>>>,
    json: bool,
}

impl BufferSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer sink whose lines are JSON objects (NDJSON).
    pub fn new_json() -> Self {
        BufferSink {
            json: true,
            ..Self::default()
        }
    }

    /// Handle to the shared line buffer; clone before installing the sink.
    pub fn lines(&self) -> Arc<Mutex<Vec<String>>> {
        Arc::clone(&self.lines)
    }

    pub fn take(&self) -> Vec<String> {
        std::mem::take(&mut self.lines.lock().unwrap())
    }
}

impl Sink for BufferSink {
    fn record(&mut self, rec: &Record) {
        let line = if self.json {
            rec.render_json()
        } else {
            rec.render_text()
        };
        self.lines.lock().unwrap().push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_rendering_is_stable() {
        let rec = Record::new(RecordKind::Event, "seeds.collect")
            .with("block", "entry")
            .with("count", 3usize)
            .with("profitable", true);
        assert_eq!(
            rec.render_text(),
            "[snslp] event seeds.collect block=entry count=3 profitable=true"
        );
    }

    #[test]
    fn text_rendering_quotes_spaces() {
        let rec = Record::new(RecordKind::Remark, "r").with("detail", "a b");
        assert_eq!(rec.render_text(), "[snslp] remark r detail=\"a b\"");
    }

    #[test]
    fn json_rendering_escapes() {
        let rec = Record::new(RecordKind::Event, "e")
            .with("s", "a\"b\\c\nd")
            .with("n", -4i64);
        assert_eq!(
            rec.render_json(),
            "{\"kind\":\"event\",\"name\":\"e\",\"s\":\"a\\\"b\\\\c\\nd\",\"n\":-4}"
        );
    }

    #[test]
    fn buffer_sink_accumulates() {
        let buf = BufferSink::new();
        let mut sink = buf.clone();
        sink.record(&Record::new(RecordKind::Metric, "m").with("v", 1u64));
        sink.record(&Record::new(RecordKind::Metric, "m").with("v", 2u64));
        let lines = buf.take();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].ends_with("v=1"));
        assert!(buf.take().is_empty());
    }
}
