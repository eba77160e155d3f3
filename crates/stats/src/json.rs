//! A hand-rolled JSON tree, writer and parser.
//!
//! The sweep engine serializes per-job statistics to JSON artifacts and
//! reads its own manifests back for `--resume`; this module provides the
//! minimal, dependency-free machinery for both directions.
//!
//! Determinism matters more than generality here: objects preserve
//! insertion order, floats render with Rust's shortest-round-trip
//! formatting, and rendering the same tree always produces the same
//! bytes — the engine's artifact-identity guarantees are built on that.
//!
//! # Examples
//!
//! ```
//! use condspec_stats::json::Json;
//!
//! let doc = Json::object([
//!     ("name", Json::from("fig5")),
//!     ("jobs", Json::from(110u64)),
//!     ("ipc", Json::from(1.25)),
//! ]);
//! let text = doc.render();
//! assert_eq!(text, r#"{"name":"fig5","jobs":110,"ipc":1.25}"#);
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! ```

use std::fmt;

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an uncapped document of a few thousand
/// `[` would overflow the stack and abort the whole process; every
/// document this workspace writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Object member order is preserved, so rendering is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the common case for counters).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float. Non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered members.
    Object(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::I64(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => write_f64(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a member of an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as `u64`, accepting any integral representation.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `f64`, accepting any numeric representation.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input,
    /// including arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Shortest-round-trip float formatting; non-finite values become
/// `null` (JSON has no NaN/Infinity).
fn write_f64(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v:?}");
    out.push_str(&s);
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and at which byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.error("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not produced by our writer;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Re-decode the multi-byte UTF-8 sequence.
                    let start = self.pos - 1;
                    let len = match c {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    if start + len > self.bytes.len() {
                        return Err(self.error("truncated utf-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits and punctuation are ascii");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| JsonError {
            message: format!("bad number `{text}`"),
            offset: start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::I64(-7).render(), "-7");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(1.0).render(), "1.0");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::from("hi").render(), "\"hi\"");
    }

    #[test]
    fn escapes_strings() {
        let s = Json::Str("a\"b\\c\nd\te\u{1}".to_string());
        assert_eq!(s.render(), r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn object_order_is_preserved() {
        let doc = Json::object([("z", Json::U64(1)), ("a", Json::U64(2))]);
        assert_eq!(doc.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn parse_round_trips() {
        let doc = Json::object([
            ("name", Json::from("sweep \"x\"\n")),
            ("n", Json::U64(18446744073709551615)),
            ("neg", Json::I64(-12)),
            ("rate", Json::F64(0.123456789)),
            ("flag", Json::Bool(false)),
            ("none", Json::Null),
            (
                "items",
                Json::Array(vec![Json::U64(1), Json::from("two"), Json::F64(3.0)]),
            ),
            ("empty_obj", Json::Object(vec![])),
            ("empty_arr", Json::Array(vec![])),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("round trip");
        assert_eq!(back, doc);
        assert_eq!(back.render(), text, "render is a fixed point");
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let doc = Json::parse(" { \"k\" : [ 1 , \"héllo\" , true ] } ").unwrap();
        assert_eq!(doc.get("k").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            doc.get("k").unwrap().as_array().unwrap()[1].as_str(),
            Some("héllo")
        );
        assert_eq!(Json::parse(r#""A""#).unwrap().as_str(), Some("A"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "nul",
            "\"abc",
            "{\"a\":1}x",
            "[01x]",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(
            Json::parse(&arrays(MAX_DEPTH)).is_ok(),
            "the cap itself parses"
        );
        let err = Json::parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn accessors() {
        let doc = Json::object([("a", Json::U64(3)), ("b", Json::F64(0.5))]);
        assert_eq!(doc.get("a").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("a").unwrap().as_f64(), Some(3.0));
        assert_eq!(doc.get("b").unwrap().as_f64(), Some(0.5));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.as_u64(), None);
    }
}
