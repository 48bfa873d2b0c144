//! Offline stand-in for `serde`, API-compatible with the subset this
//! workspace uses.
//!
//! The build environment has no network access and no vendored registry,
//! so the real `serde` cannot be compiled. This crate provides the same
//! surface — `Serialize` / `Deserialize` traits plus `#[derive(...)]`
//! macros (from the sibling `serde_derive` crate) — without serde's
//! visitor architecture:
//!
//! - [`Serialize`] writes JSON text straight into a [`Writer`], which
//!   produces compact or pretty output; no tree is built on the way.
//! - [`Deserialize`] reads a JSON-like [`Value`] tree, which
//!   `serde_json` (also shimmed) parses from text.
//!
//! Supported derive shapes are exactly those the workspace needs:
//! non-generic named structs, `#[serde(transparent)]` newtypes, and
//! externally-tagged enums with unit, tuple and struct variants.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like data tree: what `serde_json` parses text into and what
/// [`Deserialize`] reads. Integers keep full 64-bit fidelity (JSON
/// numbers are only lowered to `f64` when they actually carry a decimal
/// point or exponent), so `u64::MAX` survives a round trip.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved for stable output.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

// Identity impls, mirroring `serde_json::Value`: a `Value` serializes as
// the JSON it holds and deserializes from anything, so callers can
// capture arbitrary JSON without declaring a matching struct.
impl Serialize for Value {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::UInt(n) => w.u64(*n),
            Value::Int(n) => w.i64(*n),
            Value::Float(f) => w.f64(*f),
            Value::Str(s) => w.str(s),
            Value::Array(items) => {
                w.begin_array();
                for item in items {
                    w.element();
                    item.serialize(w);
                }
                w.end_array();
            }
            Value::Object(fields) => {
                w.begin_object();
                for (k, v) in fields {
                    w.key(k);
                    v.serialize(w);
                }
                w.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

/// Writes JSON text into a `String`, compact or pretty (members on their
/// own lines, indented two spaces per level, `": "` after keys).
///
/// Containers are written as `begin_*`, then one [`element`] or key call
/// before each member's value, then `end_*`. The writer tracks only
/// whether the innermost open container has a member yet, which is all
/// the separators and indentation depend on.
///
/// [`element`]: Writer::element
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    pretty: bool,
    level: usize,
    /// The innermost open container has no member yet.
    first: bool,
}

impl Writer {
    /// A writer producing compact JSON.
    pub fn compact() -> Writer {
        Writer::default()
    }

    /// A writer producing indented JSON.
    pub fn pretty() -> Writer {
        Writer { pretty: true, ..Writer::default() }
    }

    /// The JSON text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// An unsigned integer.
    pub fn u64(&mut self, n: u64) {
        push_u64(&mut self.out, n);
    }

    /// A signed integer.
    pub fn i64(&mut self, n: i64) {
        push_i64(&mut self.out, n);
    }

    /// A float. It keeps a decimal point so it re-parses as a float; a
    /// NaN or infinity, which JSON cannot hold, is written as `null`.
    pub fn f64(&mut self, f: f64) {
        if !f.is_finite() {
            return self.null();
        }
        let start = self.out.len();
        // Formatting into a `String` cannot fail.
        let _ = write!(self.out, "{f}");
        if !self.out[start..].contains(['.', 'e', 'E']) {
            self.out.push_str(".0");
        }
    }

    /// A string, quoted and escaped.
    pub fn str(&mut self, s: &str) {
        push_str(&mut self.out, s);
    }

    /// Open an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Start the next array element.
    pub fn element(&mut self) {
        self.member();
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Open an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Start the next object member under key `k`.
    pub fn key(&mut self, k: &str) {
        self.member();
        push_str(&mut self.out, k);
        self.colon();
    }

    /// Start the next object member under an integer key, written as the
    /// JSON string of its digits.
    pub fn key_u64(&mut self, k: u64) {
        self.member();
        self.out.push('"');
        push_u64(&mut self.out, k);
        self.out.push('"');
        self.colon();
    }

    /// [`Writer::key_u64`] for a signed key.
    pub fn key_i64(&mut self, k: i64) {
        self.member();
        self.out.push('"');
        push_i64(&mut self.out, k);
        self.out.push('"');
        self.colon();
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.level += 1;
        self.first = true;
    }

    fn member(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline_indent();
    }

    fn colon(&mut self) {
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    fn close(&mut self, bracket: char) {
        self.level -= 1;
        // An empty container closes on its own line; a closed container
        // is a member of its parent, so the parent is no longer empty.
        if !self.first {
            self.newline_indent();
        }
        self.first = false;
        self.out.push(bracket);
    }

    fn newline_indent(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', 2 * self.level));
        }
    }
}

/// Append the decimal digits of `n`.
fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // Only ASCII digits were written.
    out.push_str(std::str::from_utf8(&buf[at..]).unwrap_or_default());
}

fn push_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_u64(out, n.unsigned_abs());
}

/// Append `s` as a JSON string: quoted, with `"`, `\` and control bytes
/// escaped.
fn push_str(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so each unescaped run
    // between two of them ends on a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Error produced when a [`Value`] does not match the target type.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    /// A new error with this message.
    pub fn msg(m: impl Into<String>) -> DeError {
        DeError(m.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Write `self` into `w`.
    fn serialize(&self, w: &mut Writer);
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuild from the value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Map keys: JSON objects force string keys, so map-key types must
/// round-trip through strings. Implemented for strings, integers, and
/// (via the derive) `#[serde(transparent)]` newtypes over them.
pub trait JsonKey: Sized {
    /// Start an object member keyed by `self`, formatting the key in
    /// place.
    fn write_key(&self, w: &mut Writer);
    /// Parse the key back.
    fn from_key(s: &str) -> Result<Self, DeError>;
}

// --- primitive impls -------------------------------------------------------

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) { w.u64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::msg(format!("{n} out of range"))),
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::msg(format!("{n} out of range"))),
                    other => Err(DeError::msg(format!("expected integer, got {other:?}"))),
                }
            }
        }
        impl JsonKey for $t {
            fn write_key(&self, w: &mut Writer) { w.key_u64(*self as u64) }
            fn from_key(s: &str) -> Result<Self, DeError> {
                s.parse().map_err(|_| DeError::msg(format!("bad integer key `{s}`")))
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) { w.i64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::UInt(n) => i64::try_from(*n)
                        .ok()
                        .and_then(|n| <$t>::try_from(n).ok())
                        .ok_or_else(|| DeError::msg(format!("{n} out of range"))),
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::msg(format!("{n} out of range"))),
                    other => Err(DeError::msg(format!("expected integer, got {other:?}"))),
                }
            }
        }
        impl JsonKey for $t {
            fn write_key(&self, w: &mut Writer) { w.key_i64(*self as i64) }
            fn from_key(s: &str) -> Result<Self, DeError> {
                s.parse().map_err(|_| DeError::msg(format!("bad integer key `{s}`")))
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(*self)
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::UInt(n) => Ok(*n as f64),
            Value::Int(n) => Ok(*n as f64),
            other => Err(DeError::msg(format!("expected number, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(*self as f64)
    }
}
impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::msg(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self)
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::msg(format!("expected string, got {other:?}"))),
        }
    }
}
impl JsonKey for String {
    fn write_key(&self, w: &mut Writer) {
        w.key(self)
    }
    fn from_key(s: &str) -> Result<Self, DeError> {
        Ok(s.to_string())
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self)
    }
}
impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }
}

impl<T: Serialize> Serialize for std::sync::Arc<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }
}
impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            None => w.null(),
            Some(x) => x.serialize(w),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        w.begin_array();
        for item in self {
            w.element();
            item.serialize(w);
        }
        w.end_array();
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::msg(format!("expected array, got {other:?}"))),
        }
    }
}

impl<K: JsonKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        for (k, v) in self {
            k.write_key(w);
            v.serialize(w);
        }
        w.end_object();
    }
}
impl<K: JsonKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(fields) => {
                fields.iter().map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?))).collect()
            }
            other => Err(DeError::msg(format!("expected object, got {other:?}"))),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, w: &mut Writer) {
        w.begin_array();
        w.element();
        self.0.serialize(w);
        w.element();
        self.1.serialize(w);
        w.end_array();
    }
}
impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            other => Err(DeError::msg(format!("expected 2-array, got {other:?}"))),
        }
    }
}
