//! Offline stand-in for `serde_json`: renders and parses the shim
//! `serde::Value` tree as standard JSON text.
//!
//! Integers round-trip at full 64-bit fidelity: a number without `.`/`e`
//! parses into `Value::UInt`/`Value::Int`, never through `f64`.
//!
//! Both directions are linear in the input: strings are written and
//! parsed in runs of bytes that need no escaping, never char by char.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt::{self, Write as _};

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error(e.0)
    }
}

/// Render `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Render `value` as human-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Render `value` as compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Parse a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { text: s, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&v).map_err(Error::from)
}

/// Parse a value from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(format!("invalid utf-8: {e}")))?;
    from_str(s)
}

// --- writer ----------------------------------------------------------------

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        // Formatting into a `String` cannot fail.
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // Keep a decimal point so the value re-parses as a float.
                let start = out.len();
                let _ = write!(out, "{f}");
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(item, out, indent, level + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, level + 1);
            }
            if !fields.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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

// --- parser ----------------------------------------------------------------

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error("JSON nesting too deep".into()));
        }
        let v = match self.peek() {
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(Error(format!("unexpected {other:?} at byte {}", self.pos))),
        };
        self.depth -= 1;
        v
    }

    fn keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
        if self.bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(Error(format!("bad literal at byte {}", self.pos)))
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Only ASCII was consumed, so the slice is on char boundaries.
        let text = &self.text[start..self.pos];
        let v = if float {
            text.parse::<f64>().map(Value::Float).ok()
        } else if text.starts_with('-') {
            // Parse the sign with the digits: `i64::MIN` has no positive twin.
            text.parse::<i64>().map(Value::Int).ok()
        } else {
            text.parse::<u64>().map(Value::UInt).ok()
        };
        v.ok_or_else(|| Error(format!("bad number `{text}`")))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one step. Both are
            // ASCII and the input is valid UTF-8, so the run ends on a char
            // boundary.
            let start = self.pos;
            let run = self.bytes()[start..].iter().position(|&b| b == b'"' || b == b'\\');
            let end = start + run.ok_or_else(|| Error("unterminated string".into()))?;
            out.push_str(&self.text[start..end]);
            self.pos = end + 1;
            if self.bytes()[end] == b'"' {
                return Ok(out);
            }
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => self.unicode_escape()?,
                other => return Err(Error(format!("bad escape {other:?}"))),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// The char of a `\uXXXX` escape whose `u` is at `pos`, leaving `pos`
    /// on its last hex digit. A UTF-16 surrogate pair (`\ud83d\ude00`)
    /// spans two escapes and decodes to one char; a lone surrogate is an
    /// error.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4(self.pos + 1)?;
        self.pos += 4;
        let code = match hi {
            0xD800..=0xDBFF => {
                let lo = match self.bytes().get(self.pos + 1..self.pos + 3) {
                    Some(b"\\u") => self.hex4(self.pos + 3)?,
                    _ => return Err(Error("bad \\u codepoint: lone surrogate".into())),
                };
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(Error("bad \\u codepoint: lone surrogate".into()));
                }
                self.pos += 6;
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            code => code,
        };
        char::from_u32(code).ok_or_else(|| Error("bad \\u codepoint: lone surrogate".into()))
    }

    /// The four hex digits at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, Error> {
        let hex =
            self.bytes().get(at..at + 4).ok_or_else(|| Error("truncated \\u escape".into()))?;
        hex.iter().try_fold(0, |code, &b| {
            let digit = (b as char).to_digit(16).ok_or_else(|| Error("bad \\u escape".into()))?;
            Ok((code << 4) | digit)
        })
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(Error(format!("expected , or ] got {other:?}"))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => return Err(Error(format!("expected , or }} got {other:?}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_max_round_trips() {
        let s = to_string(&u64::MAX).unwrap();
        assert_eq!(s, "18446744073709551615");
        let back: u64 = from_str(&s).unwrap();
        assert_eq!(back, u64::MAX);
    }

    #[test]
    fn i64_min_round_trips() {
        let s = to_string(&i64::MIN).unwrap();
        assert_eq!(s, "-9223372036854775808");
        let back: i64 = from_str(&s).unwrap();
        assert_eq!(back, i64::MIN);
        assert!(from_str::<i64>("-9223372036854775809").is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        let back: String = from_str(r#""\ud83d\ude00 \u00e9\uD834\uDD1E""#).unwrap();
        assert_eq!(back, "\u{1F600} \u{e9}\u{1D11E}");
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for bad in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ud83d\u0041""#, r#""\ude00""#] {
            let e = from_str::<String>(bad).unwrap_err();
            assert!(e.to_string().contains("lone surrogate"), "{bad}: {e}");
        }
        assert!(from_str::<String>(r#""\ud83d\u12""#).is_err(), "truncated low half");
    }

    #[test]
    fn strings_mixing_utf8_and_escapes_round_trip() {
        let cases = [
            "\"é漢字 at the start",
            "at the end ü😀\n",
            "back\\\"\t\u{1}to back ß\\ß",
            "\\",
            "😀",
            "",
            "\u{7f}\u{1f}\u{80}\u{10FFFF}",
        ];
        for case in cases {
            let json = to_string(&case.to_string()).unwrap();
            let back: String = from_str(&json).unwrap();
            assert_eq!(back, case, "{json}");
        }
        let json = to_string(&"a\u{1}é".to_string()).unwrap();
        assert_eq!(json, r#""a\u0001é""#);
        let parsed: String = from_str(r#""é\/\b\fü\u00e9\"""#).unwrap();
        assert_eq!(parsed, "é/\u{8}\u{c}üé\"");
    }

    #[test]
    fn strings_escape() {
        let s = to_string(&"a\"b\\c\nd".to_string()).unwrap();
        let back: String = from_str(&s).unwrap();
        assert_eq!(back, "a\"b\\c\nd");
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u64>("12 34").is_err());
        assert!(from_str::<Vec<u64>>("[1,").is_err());
        assert!(from_str::<String>("\"abc").is_err());
    }
}
