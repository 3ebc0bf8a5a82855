//! A minimal JSON parser for resuming sweeps.
//!
//! The platform's exporters hand-roll their JSON (see [`crate::json`]);
//! nothing in the workspace needs a general serializer. Crash-safe resume
//! reads JSON back: the run journal and the per-run report artifacts. This
//! module parses that text into a [`JsonValue`] tree — a small
//! recursive-descent parser over the subset of JSON the exporters emit —
//! and typed values are then read out of the tree with [`FromJson`].
//!
//! Numbers are kept as their raw source text ([`JsonValue::Number`]) so
//! `u64` counters round-trip exactly; the reader picks `as_u64`/`as_f64`
//! by the type it reads. The parser accepts any valid JSON document the
//! exporters produce and rejects trailing garbage, which is exactly what
//! journal truncation detection needs.

use crate::json::FromJson;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as the raw token text for lossless round-trips.
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Key order is not preserved (exporters re-emit in their
    /// own fixed field order, so parse order never matters).
    Object(BTreeMap<String, JsonValue>),
}

/// Why a parse failed, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

impl JsonValue {
    /// Parses a complete JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] describing the first malformed token.
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` when not an object or key missing.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Reads member `key` as a `T`; `None` when the key is missing or its
    /// value is not a `T`.
    pub fn field<T: FromJson>(&self, key: &str) -> Option<T> {
        T::from_json(self.get(key)?)
    }

    /// Borrows the string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Borrows the array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses the number token as `u64` (rejects signs/fractions).
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// Parses the number token as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// True for `null`.
    pub(crate) fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(JsonValue::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(JsonValue::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(JsonValue::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // The exporters only emit \u escapes for
                            // control characters; surrogate pairs never
                            // appear (non-BMP chars pass through as UTF-8).
                            let ch = char::from_u32(u32::from(cp))
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar worth of bytes.
                    let start = self.pos;
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let ch = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    if (ch as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u16::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        Ok(JsonValue::Number(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").expect("null"), JsonValue::Null);
        assert_eq!(
            JsonValue::parse(" true ").expect("true"),
            JsonValue::Bool(true)
        );
        assert_eq!(
            JsonValue::parse("-12.5e3").expect("num"),
            JsonValue::Number("-12.5e3".to_string())
        );
        let v = JsonValue::parse("18446744073709551615").expect("u64 max");
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a":[1,2,{"b":null}],"c":"x\ny","d":{}}"#).expect("doc");
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x\ny"));
        let arr = v.get("a").and_then(JsonValue::as_array).expect("array");
        assert_eq!(arr.len(), 3);
        assert!(arr[2].get("b").expect("b").is_null());
        assert!(matches!(v.get("d"), Some(JsonValue::Object(m)) if m.is_empty()));
    }

    #[test]
    fn unescapes_control_characters() {
        let v = JsonValue::parse("\"tab\\t cr\\r quote\\\" u\\u0001\"").expect("str");
        assert_eq!(v.as_str(), Some("tab\t cr\r quote\" u\u{1}"));
    }

    #[test]
    fn rejects_truncated_and_trailing_input() {
        assert!(JsonValue::parse(r#"{"a":1"#).is_err());
        assert!(JsonValue::parse(r#"{"a":1} extra"#).is_err());
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse(r#""unterminated"#).is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn roundtrips_exporter_output() {
        // A shape representative of what the exporters emit.
        use crate::json::JsonObject;
        let mut text = String::new();
        let mut o = JsonObject::new(&mut text);
        o.field("key", "pr|KG-N|1|None")
            .field("count", &123_456_789_u64)
            .field("rate", &0.125_f64)
            .field("none", &Option::<u64>::None);
        o.finish();
        let v = JsonValue::parse(&text).expect("parse exporter output");
        assert_eq!(
            v.get("key").and_then(JsonValue::as_str),
            Some("pr|KG-N|1|None")
        );
        assert_eq!(
            v.get("count").and_then(JsonValue::as_u64),
            Some(123_456_789)
        );
        assert_eq!(v.get("rate").and_then(JsonValue::as_f64), Some(0.125));
        assert!(v.get("none").expect("none").is_null());
    }
}
