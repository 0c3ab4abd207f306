//! The one JSON emitter/parser behind every bench artifact
//! (`BENCH_compile_time.json`, stats, dynstats, hot, serve-bench,
//! `snslp-report/v1`, the `snslpd` telemetry snapshot): a tiny value type
//! so the workspace stays free of external crates, plus the strict reader
//! every schema is read through.
//!
//! A reader hands [`read_text`] (or [`read_doc`]) a closure over a
//! [`View`] of the top-level object. The view's typed getters mark each
//! member they read; when the closure returns, any member no getter read
//! is an error. So a reader's own getter calls declare its exact member
//! set, every count goes through [`as_count`], and every error starts
//! with the path of the member it is about (`kernels[3].modes.o3.cycles:
//! ...`). Writers build documents with [`obj`] and the `From` impls.

use std::fmt::Write as _;

/// A JSON value. Numbers are `f64` (the reports only carry timings and
/// rates); object keys keep insertion order so emitted files are stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline
    /// (so the checked-in file diffs cleanly).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on one line with no inter-token whitespace and no trailing
    /// newline — the framing the compile service's newline-delimited JSON
    /// protocol requires (one value per line; embedded newlines are
    /// escaped by the string emitter).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render_compact_into(&mut out);
        out
    }

    fn render_compact_into(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_compact_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_compact_into(out);
                    out.push(':');
                    v.render_compact_into(out);
                }
                out.push('}');
            }
            leaf => leaf.render_into(out, 0),
        }
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // Integral values print without a fraction; everything
                // else gets enough digits to round-trip timings.
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    Json::Str(k.clone()).render_into(out, indent + 1);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Errors carry the byte offset they were
    /// detected at.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

/// Validates a parsed document's `schema` tag against the expected
/// version. Every strict reader calls this (through [`read_doc`]), so a
/// stale or foreign file fails with the same phrasing regardless of which
/// artifact it was.
pub fn check_schema(doc: &Json, expected: &str) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        None => Err(format!("missing schema tag (expected `{expected}`)")),
        Some(found) if found != expected => Err(format!(
            "schema mismatch: found `{found}`, expected `{expected}`"
        )),
        Some(_) => Ok(()),
    }
}

/// Rounds to three decimals — the emission precision for every timing and
/// rate in the bench artifacts.
pub fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// The largest integer an `f64` carries exactly, and so the largest count
/// a reader accepts; a writer storing a larger integer (a seed, say)
/// would produce a file its own reader rejects.
pub const MAX_COUNT: u64 = 1 << 53;

const MAX_EXACT: f64 = MAX_COUNT as f64;

/// The one integer rule every count in every artifact obeys: a number
/// that is finite, non-negative, integral and at most 2^53.
pub fn as_count(v: &Json) -> Option<u64> {
    let n = v.as_num()?;
    (n >= 0.0 && n.fract() == 0.0 && n <= MAX_EXACT).then_some(n as u64)
}

/// A signed integer under the same rule: integral, magnitude at most 2^53.
fn as_int(v: &Json) -> Option<i64> {
    let n = v.as_num()?;
    (n.fract() == 0.0 && n.abs() <= MAX_EXACT).then_some(n as i64)
}

const COUNT: &str = "a count (integral, 0 to 2^53)";

/// Builds an object from `(key, value)` members, in order.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(f64::from(v))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// `None` is written as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Parses `text` and reads it through [`read_doc`].
///
/// # Errors
///
/// A parse error, or whatever [`read_doc`] rejects.
pub fn read_text<T>(
    text: &str,
    schema: &str,
    read: impl FnOnce(&mut View<'_>) -> Result<T, String>,
) -> Result<T, String> {
    read_doc(&Json::parse(text)?, schema, read)
}

/// Reads a `schema` document strictly: checks the tag, hands the
/// top-level object to `read`, and rejects any member `read` left unread.
///
/// # Errors
///
/// A wrong or missing schema tag, any error `read` returns, or an
/// unknown member.
pub fn read_doc<'a, T>(
    doc: &'a Json,
    schema: &str,
    read: impl FnOnce(&mut View<'a>) -> Result<T, String>,
) -> Result<T, String> {
    check_schema(doc, schema)?;
    View::read(doc, String::new(), |o| {
        o.take("schema");
        read(o)
    })
}

/// A strict view of one JSON object. Every getter marks the member it
/// reads; the view is finished when the closure that received it
/// returns, and any member no getter read fails the read. Errors start
/// with the member's path from the document root.
#[derive(Debug)]
pub struct View<'a> {
    path: String,
    members: &'a [(String, Json)],
    read: Vec<bool>,
}

impl<'a> View<'a> {
    /// Reads the object `json` strictly through `read`; `path` prefixes
    /// its errors (empty for a document root).
    ///
    /// # Errors
    ///
    /// `json` is not an object, `read` fails, or a member is left unread.
    pub fn read<T>(
        json: &'a Json,
        path: String,
        read: impl FnOnce(&mut View<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        let Json::Obj(members) = json else {
            return Err(format!("{}: expected an object", shown(&path)));
        };
        let mut view = View {
            path,
            members,
            read: vec![false; members.len()],
        };
        let value = read(&mut view)?;
        view.finish()?;
        Ok(value)
    }

    /// Rejects the first member no getter read.
    fn finish(self) -> Result<(), String> {
        let Some(i) = self.read.iter().position(|&r| !r) else {
            return Ok(());
        };
        let key = &self.members[i].0;
        let what = if self.members[..i].iter().any(|(k, _)| k == key) {
            "duplicate"
        } else {
            "unknown"
        };
        Err(format!("{}: {what} member `{key}`", shown(&self.path)))
    }

    /// The path of this object from the document root (empty at the
    /// root), for cross-invariant messages.
    pub fn path(&self) -> &str {
        &self.path
    }

    fn at(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn take(&mut self, key: &str) -> Option<&'a Json> {
        let i = self.members.iter().position(|(k, _)| k == key)?;
        self.read[i] = true;
        Some(&self.members[i].1)
    }

    fn need(&mut self, key: &str) -> Result<&'a Json, String> {
        self.take(key)
            .ok_or_else(|| format!("{}: missing member `{key}`", shown(&self.path)))
    }

    fn typed<T>(
        &mut self,
        key: &str,
        what: &str,
        conv: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        let v = self.need(key)?;
        conv(v).ok_or_else(|| mistyped(&self.at(key), what, v))
    }

    /// Absent and `null` both read as `None`.
    fn opt_typed<T>(
        &mut self,
        key: &str,
        what: &str,
        conv: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.take(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => conv(v)
                .map(Some)
                .ok_or_else(|| mistyped(&self.at(key), what, v)),
        }
    }

    /// A count member (see [`as_count`]).
    pub fn u64(&mut self, key: &str) -> Result<u64, String> {
        self.typed(key, COUNT, as_count)
    }

    /// A count member that must also fit in 32 bits.
    pub fn u32(&mut self, key: &str) -> Result<u32, String> {
        self.typed(key, "a 32-bit count", |v| {
            as_count(v).and_then(|n| u32::try_from(n).ok())
        })
    }

    /// A count member read into a `usize` field.
    pub fn usize(&mut self, key: &str) -> Result<usize, String> {
        self.typed(key, COUNT, |v| {
            as_count(v).and_then(|n| usize::try_from(n).ok())
        })
    }

    /// A signed integer member (integral, magnitude at most 2^53).
    pub fn i64(&mut self, key: &str) -> Result<i64, String> {
        self.typed(key, "an integer", as_int)
    }

    /// A finite number.
    pub fn f64(&mut self, key: &str) -> Result<f64, String> {
        self.typed(key, "a finite number", finite)
    }

    /// A string member.
    pub fn str(&mut self, key: &str) -> Result<&'a str, String> {
        self.typed(key, "a string", Json::as_str)
    }

    /// An array member, elements unchecked.
    pub fn arr(&mut self, key: &str) -> Result<&'a [Json], String> {
        self.typed(key, "an array", Json::as_arr)
    }

    /// An array of counts.
    pub fn counts(&mut self, key: &str) -> Result<Vec<u64>, String> {
        let at = self.at(key);
        self.arr(key)?
            .iter()
            .enumerate()
            .map(|(i, v)| as_count(v).ok_or_else(|| mistyped(&format!("{at}[{i}]"), COUNT, v)))
            .collect()
    }

    /// An object member, read strictly through `read`.
    pub fn obj<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&mut View<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        let v = self.need(key)?;
        View::read(v, self.at(key), read)
    }

    /// An array of objects, each read strictly through `read`.
    pub fn objs<T>(
        &mut self,
        key: &str,
        mut read: impl FnMut(&mut View<'a>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let at = self.at(key);
        self.arr(key)?
            .iter()
            .enumerate()
            .map(|(i, item)| View::read(item, format!("{at}[{i}]"), &mut read))
            .collect()
    }

    /// Every member of this object, in order, each read by
    /// `read(view, key)` — for objects keyed by data (counter names,
    /// pipeline labels) rather than by the schema.
    pub fn each<T>(
        &mut self,
        mut read: impl FnMut(&mut View<'a>, &'a str) -> Result<T, String>,
    ) -> Result<Vec<(String, T)>, String> {
        let members = self.members;
        members
            .iter()
            .map(|(k, _)| Ok((k.clone(), read(self, k)?)))
            .collect()
    }

    /// An optional count: absent or `null` is `None`.
    pub fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, String> {
        self.opt_typed(key, COUNT, as_count)
    }

    /// An optional signed integer.
    pub fn opt_i64(&mut self, key: &str) -> Result<Option<i64>, String> {
        self.opt_typed(key, "an integer", as_int)
    }

    /// An optional finite number.
    pub fn opt_f64(&mut self, key: &str) -> Result<Option<f64>, String> {
        self.opt_typed(key, "a finite number", finite)
    }

    /// An optional string.
    pub fn opt_str(&mut self, key: &str) -> Result<Option<&'a str>, String> {
        self.opt_typed(key, "a string", Json::as_str)
    }

    /// An optional object, read strictly through `read` when present.
    pub fn opt_obj<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&mut View<'a>) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.take(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => View::read(v, self.at(key), read).map(Some),
        }
    }
}

fn finite(v: &Json) -> Option<f64> {
    v.as_num().filter(|n| n.is_finite())
}

fn shown(path: &str) -> &str {
    if path.is_empty() {
        "document"
    } else {
        path
    }
}

fn mistyped(at: &str, what: &str, v: &Json) -> String {
    format!("{at}: expected {what}, found {}", v.render_compact())
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err("unexpected end of input".to_string());
    };
    match b {
        b'{' => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        b'"' => Ok(Json::Str(parse_string(bytes, pos)?)),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        _ => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos - 1)),
                }
            }
            _ => {
                // Re-sync to char boundary for multi-byte UTF-8.
                let s = &bytes[*pos - 1..];
                let ch_len = utf8_len(b);
                let chunk =
                    std::str::from_utf8(&s[..ch_len.min(s.len())]).map_err(|e| e.to_string())?;
                out.push_str(chunk);
                *pos += ch_len - 1;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_values_round_trip() {
        let text =
            r#"{"a": [1, 2.5, -3e2], "b": "x\"\né", "c": null, "d": [true, false], "e": {}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\"\né"));
        let again = Json::parse(&v.render()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn compact_rendering_is_one_line_and_round_trips() {
        let v = Json::parse(r#"{"a": [1, 2.5], "b": "x\ny", "c": null}"#).unwrap();
        let line = v.render_compact();
        assert!(!line.contains('\n'));
        assert_eq!(line, r#"{"a":[1,2.5],"b":"x\ny","c":null}"#);
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn parser_rejects_trailing_garbage() {
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn schema_errors_are_uniform() {
        let doc = Json::parse(r#"{"schema": "nope/v9"}"#).unwrap();
        let err = check_schema(&doc, "snslp-stats/v1").unwrap_err();
        assert_eq!(
            err,
            "schema mismatch: found `nope/v9`, expected `snslp-stats/v1`"
        );
        let doc = Json::parse("{}").unwrap();
        let err = check_schema(&doc, "snslp-report/v1").unwrap_err();
        assert_eq!(err, "missing schema tag (expected `snslp-report/v1`)");
        let doc = Json::parse(r#"{"schema": "snslp-report/v1"}"#).unwrap();
        assert!(check_schema(&doc, "snslp-report/v1").is_ok());
    }
}
