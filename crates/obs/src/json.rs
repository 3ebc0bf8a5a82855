//! Hand-rolled JSON in both directions: the [`ToJson`] writer trait with
//! escaping, number formatting and object/array helpers, and the
//! [`FromJson`] reader trait over a parsed [`JsonValue`].
//!
//! This replaces the serde derives the platform used to carry. Output is
//! strict RFC 8259 JSON: strings are escaped, non-finite floats serialize as
//! `null` (JSON has no NaN/Infinity), and integers are emitted verbatim.
//! Resume reads the journal and the per-run reports back through
//! `FromJson`. A record whose JSON is exactly its stored fields is declared
//! once with [`record!`](macro@crate::record), which derives both directions
//! from the one field list; the few types that also emit derived keys keep
//! hand-written impls. The reader is strict (a missing key fails), and
//! resume trusts a report only when it re-serializes to the very bytes it
//! was read from, so a reader that disagrees with its writer costs a rerun,
//! never a wrong result.

use crate::value::JsonValue;
use hemu_types::{
    AccessKind, Addr, ByteSize, Cycles, LineAddr, MemoryAccess, OsPolicy, PageNum, PhysAddr,
};

/// Serialize `self` as a JSON value appended to a `String` buffer.
///
/// Implementations append exactly one JSON value (object, array, number,
/// string, …) with no trailing whitespace. Use [`ToJson::to_json`] for a
/// standalone document.
pub trait ToJson {
    /// Appends this value's JSON representation to `out`.
    fn write_json(&self, out: &mut String);

    /// Renders this value as a standalone JSON document.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Rebuilds a value from the JSON its [`ToJson`] impl writes.
///
/// Returns `None` when `v` is not what this type writes. Records read every
/// key they write and fail on a missing one; `null` reads as `None` only
/// where the type is an `Option`.
pub trait FromJson: Sized {
    /// Reads `v` as a `Self`.
    fn from_json(v: &JsonValue) -> Option<Self>;
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number, or `null` when `v` is NaN or infinite
/// (JSON has no representation for non-finite floats).
pub(crate) fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest-roundtrip Display for finite f64 is valid JSON
        // (digits, optional sign/point/exponent).
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Incremental writer for a JSON object: `{"a":1,"b":"x"}`.
///
/// Call [`JsonObject::finish`] to emit the closing brace.
pub struct JsonObject<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> JsonObject<'a> {
    /// Opens an object on `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        JsonObject { out, first: true }
    }

    /// Writes one `"name": value` member.
    pub fn field<T: ToJson + ?Sized>(&mut self, name: &str, value: &T) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_json_str(self.out, name);
        self.out.push(':');
        value.write_json(self.out);
        self
    }

    /// Writes one `"name": value` member whose value is emitted by `f`
    /// writing directly to the output buffer — for nested objects or
    /// arrays that have no dedicated `ToJson` type.
    pub fn raw_field(&mut self, name: &str, f: impl FnOnce(&mut String)) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_json_str(self.out, name);
        self.out.push(':');
        f(self.out);
        self
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// Incremental writer for a JSON array: `[1,2,3]`.
pub(crate) struct JsonArray<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> JsonArray<'a> {
    /// Opens an array on `out`.
    pub(crate) fn new(out: &'a mut String) -> Self {
        out.push('[');
        JsonArray { out, first: true }
    }

    /// Writes one element.
    pub(crate) fn element<T: ToJson + ?Sized>(&mut self, value: &T) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        value.write_json(self.out);
        self
    }

    /// Closes the array.
    pub(crate) fn finish(self) {
        self.out.push(']');
    }
}

/// Renders an iterator of values as JSONL: one JSON document per line.
pub fn to_json_lines<'t, T, I>(items: I) -> String
where
    T: ToJson + 't,
    I: IntoIterator<Item = &'t T>,
{
    let mut out = String::new();
    for item in items {
        item.write_json(&mut out);
        out.push('\n');
    }
    out
}

macro_rules! impl_tojson_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&format!("{self}"));
            }
        }
    )*};
}

impl_tojson_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        push_json_f64(out, *self);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        push_json_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        push_json_str(out, self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (*self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        let mut arr = JsonArray::new(out);
        for item in self {
            arr.element(item);
        }
        arr.finish();
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl FromJson for u64 {
    fn from_json(v: &JsonValue) -> Option<Self> {
        v.as_u64()
    }
}

impl FromJson for u32 {
    fn from_json(v: &JsonValue) -> Option<Self> {
        u32::try_from(v.as_u64()?).ok()
    }
}

impl FromJson for usize {
    fn from_json(v: &JsonValue) -> Option<Self> {
        usize::try_from(v.as_u64()?).ok()
    }
}

impl FromJson for f64 {
    fn from_json(v: &JsonValue) -> Option<Self> {
        v.as_f64()
    }
}

impl FromJson for String {
    fn from_json(v: &JsonValue) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &JsonValue) -> Option<Self> {
        if v.is_null() {
            Some(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &JsonValue) -> Option<Self> {
        v.as_array()?.iter().map(T::from_json).collect()
    }
}

// --- hemu-types primitives ------------------------------------------------
// These render as their raw numeric payloads: consumers get plain numbers
// (bytes, cycles, indices) rather than nested wrapper objects.

impl ToJson for Addr {
    fn write_json(&self, out: &mut String) {
        self.raw().write_json(out);
    }
}

impl ToJson for PhysAddr {
    fn write_json(&self, out: &mut String) {
        self.raw().write_json(out);
    }
}

impl ToJson for LineAddr {
    fn write_json(&self, out: &mut String) {
        self.raw().write_json(out);
    }
}

impl ToJson for PageNum {
    fn write_json(&self, out: &mut String) {
        self.raw().write_json(out);
    }
}

impl ToJson for hemu_types::SocketId {
    fn write_json(&self, out: &mut String) {
        self.index().write_json(out);
    }
}

impl ToJson for ByteSize {
    fn write_json(&self, out: &mut String) {
        self.bytes().write_json(out);
    }
}

impl FromJson for ByteSize {
    fn from_json(v: &JsonValue) -> Option<Self> {
        Some(ByteSize::new(v.as_u64()?))
    }
}

impl ToJson for Cycles {
    fn write_json(&self, out: &mut String) {
        self.raw().write_json(out);
    }
}

impl ToJson for AccessKind {
    fn write_json(&self, out: &mut String) {
        push_json_str(
            out,
            match self {
                AccessKind::Read => "read",
                AccessKind::Write => "write",
            },
        );
    }
}

/// A policy goes by its display name (`OS-hot-cold`, …).
impl ToJson for OsPolicy {
    fn write_json(&self, out: &mut String) {
        push_json_str(out, self.name());
    }
}

impl FromJson for OsPolicy {
    fn from_json(v: &JsonValue) -> Option<Self> {
        let name = v.as_str()?;
        OsPolicy::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl ToJson for MemoryAccess {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new(out);
        obj.field("addr", &self.addr)
            .field("size", &self.size)
            .field("kind", &self.kind);
        obj.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(r#"say "hi"\n"#.to_json(), r#""say \"hi\"\\n""#);
        assert_eq!("line\nbreak\ttab".to_json(), r#""line\nbreak\ttab""#);
        assert_eq!("\u{08}\u{0c}\r".to_json(), r#""\b\f\r""#);
        assert_eq!("\u{01}".to_json(), r#""\u0001""#);
        assert_eq!("héllo ☃".to_json(), "\"héllo ☃\"");
    }

    #[test]
    fn floats_format_as_json_numbers() {
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(0.0f64.to_json(), "0");
        assert_eq!((-2.25f64).to_json(), "-2.25");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!(f64::NEG_INFINITY.to_json(), "null");
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for v in [0.1, 1e-9, 123456.789, 2.0f64.powi(60), f64::MIN_POSITIVE] {
            let parsed: f64 = v.to_json().parse().unwrap();
            assert_eq!(parsed, v, "{v} did not round-trip");
        }
    }

    #[test]
    fn objects_and_arrays_compose() {
        let mut out = String::new();
        let mut obj = JsonObject::new(&mut out);
        obj.field("n", &3u64)
            .field("name", "x")
            .field("list", &vec![1u64, 2]);
        obj.finish();
        assert_eq!(out, r#"{"n":3,"name":"x","list":[1,2]}"#);
    }

    #[test]
    fn empty_object_and_array() {
        let mut out = String::new();
        JsonObject::new(&mut out).finish();
        JsonArray::new(&mut out).finish();
        assert_eq!(out, "{}[]");
    }

    #[test]
    fn option_serializes_as_value_or_null() {
        assert_eq!(Some(4u64).to_json(), "4");
        assert_eq!(None::<u64>.to_json(), "null");
    }

    #[test]
    fn primitives_render_as_raw_numbers() {
        assert_eq!(Addr::new(64).to_json(), "64");
        assert_eq!(ByteSize::from_kib(4).to_json(), "4096");
        assert_eq!(Cycles::new(7).to_json(), "7");
        assert_eq!(hemu_types::SocketId::PCM.to_json(), "1");
        assert_eq!(AccessKind::Write.to_json(), "\"write\"");
    }

    #[test]
    fn jsonl_is_one_document_per_line() {
        let rows = [1u64, 2, 3];
        assert_eq!(to_json_lines(rows.iter()), "1\n2\n3\n");
    }
}
