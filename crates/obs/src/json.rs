//! Minimal hand-rolled JSON with **insertion-ordered** objects.
//!
//! The container has no registry access, so serde is out; this is the
//! same approach `catapult-bench` already uses for `BENCH_*.json`, made
//! reusable. Insertion order is load-bearing: the manifest golden test
//! (tests/manifest_golden.rs at the workspace root) pins the exact byte
//! layout, which requires object keys to render in a stable,
//! author-controlled order.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer (counters, nanosecond timestamps).
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Finite float; non-finite values render as `null`.
    Float(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    #[must_use]
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// An empty array.
    #[must_use]
    pub fn array() -> Value {
        Value::Array(Vec::new())
    }

    /// Set `key` on an object: replaces an existing key in place (keeping
    /// its position) or appends. No-op on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) -> &mut Value {
        if let Value::Object(entries) = self {
            let value = value.into();
            if let Some(slot) = entries.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                entries.push((key.to_string(), value));
            }
        }
        self
    }

    /// Append to an array. No-op on non-arrays.
    pub fn push(&mut self, value: impl Into<Value>) -> &mut Value {
        if let Value::Array(items) = self {
            items.push(value.into());
        }
        self
    }

    /// Look up `key` on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render as pretty-printed JSON (2-space indent, trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // {:?} is Rust's shortest round-trip form; bench JSON
                    // uses the same convention.
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => escape_into(s, out),
            Value::Array(items) => {
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
                    item.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Value::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    escape_into(k, out);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn escape_into(s: &str, out: &mut String) {
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

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::UInt(n)
    }
}
impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::UInt(n.into())
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::UInt(n as u64)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Int(n)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

/// Parse error with a byte offset, for diagnostics on hand-edited files.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What was expected or found.
    pub message: String,
    /// Byte offset of the error in the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a JSON document back into a [`Value`]. Object key order is
/// preserved as written, matching what [`Value::render`] emits — a
/// render→parse→render round trip is byte-identical. Numbers without a
/// fraction/exponent parse as `UInt`/`Int`; everything else as `Float`.
///
/// This is the read half of the hand-rolled serializer: the Chrome-trace,
/// flight-recorder and CLI tests read their output back with it, without
/// a registry dependency.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

/// Recursion guard: deeper documents than this are rejected rather than
/// risking a stack overflow on adversarial input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            entries.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                // Surrogate pairs are not produced by the
                                // serializer; reject rather than mangle.
                                None => return Err(self.err("unsupported \\u escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    // Copy one full UTF-8 char (length from the lead byte).
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (self.pos + len).min(self.bytes.len());
                    match std::str::from_utf8(&self.bytes[self.pos..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid utf-8 in string")),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Extract the integer value of a top-level `"key": N` field with a
/// tolerant scan — enough to read `schema_version` back out of a file
/// this module wrote, without a full parser.
#[must_use]
pub fn extract_uint_field(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)?;
    let rest = text[at + needle.len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_preserve_insertion_order() {
        let mut v = Value::object();
        v.set("zebra", 1u64).set("alpha", 2u64).set("mid", "x");
        assert_eq!(
            v.render(),
            "{\n  \"zebra\": 1,\n  \"alpha\": 2,\n  \"mid\": \"x\"\n}\n"
        );
    }

    #[test]
    fn set_replaces_in_place() {
        let mut v = Value::object();
        v.set("a", 1u64).set("b", 2u64).set("a", 9u64);
        assert_eq!(v.render(), "{\n  \"a\": 9,\n  \"b\": 2\n}\n");
    }

    #[test]
    fn strings_are_escaped() {
        let v = Value::from("a\"b\\c\nd\u{1}");
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Value::from(f64::NAN).render(), "null\n");
        assert_eq!(Value::from(1.5f64).render(), "1.5\n");
    }

    #[test]
    fn extracts_uint_fields() {
        let text = "{\n  \"schema_version\": 3,\n  \"x\": 1\n}\n";
        assert_eq!(extract_uint_field(text, "schema_version"), Some(3));
        assert_eq!(extract_uint_field(text, "missing"), None);
        assert_eq!(
            extract_uint_field("{\"schema_version\": []}", "schema_version"),
            None
        );
    }

    #[test]
    fn parse_round_trips_render() {
        let mut inner = Value::object();
        inner
            .set("zeta", 1u64)
            .set("alpha", -2i64)
            .set("pi", 3.25f64);
        let mut arr = Value::array();
        arr.push(inner).push(Value::Null).push(true).push("s\"x\n");
        let mut v = Value::object();
        v.set("items", arr).set("empty", Value::array());
        let text = v.render();
        let back = parse(&text).expect("parses");
        assert_eq!(back, v);
        assert_eq!(back.render(), text, "render→parse→render is stable");
    }

    #[test]
    fn parse_preserves_key_order() {
        let v = parse("{\"z\": 1, \"a\": 2}").expect("parses");
        assert_eq!(v.render(), "{\n  \"z\": 1,\n  \"a\": 2\n}\n");
    }

    #[test]
    fn parse_number_types() {
        assert_eq!(parse("7").expect("u"), Value::UInt(7));
        assert_eq!(parse("-7").expect("i"), Value::Int(-7));
        assert_eq!(parse("1.5").expect("f"), Value::Float(1.5));
        assert_eq!(parse("1e3").expect("e"), Value::Float(1000.0));
    }

    #[test]
    fn parse_escapes_and_unicode() {
        assert_eq!(
            parse("\"a\\n\\t\\\"\\\\\\u0041γ\"").expect("parses"),
            Value::Str("a\n\t\"\\Aγ".into())
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "{\"a\":1} x", "\"abc"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_runaway_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn nested_layout() {
        let mut inner = Value::object();
        inner.set("n", 1u64);
        let mut arr = Value::array();
        arr.push(inner);
        arr.push(Value::Null);
        let mut v = Value::object();
        v.set("items", arr);
        v.set("empty", Value::array());
        assert_eq!(
            v.render(),
            "{\n  \"items\": [\n    {\n      \"n\": 1\n    },\n    null\n  ],\n  \"empty\": []\n}\n"
        );
    }
}
