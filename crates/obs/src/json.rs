//! Minimal JSON utilities: string escaping and number formatting for the
//! writers (snapshot, reports), plus a small recursive-descent parser so
//! in-repo tooling (tests, the bench-compare gate) can read the JSON the
//! workspace emits without external crates.
//!
//! The parser handles the full JSON grammar the repo's writers produce
//! (objects, arrays, strings with `\uXXXX` escapes, numbers, booleans,
//! null). It is not a streaming parser and keeps the document in memory,
//! which is fine for snapshot- and bench-sized files. It reads untrusted
//! files, so container nesting is capped at [`MAX_DEPTH`]: a deeper
//! document is an error, never a stack overflow.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Value::parse`] accepts. The repo's
/// writers nest a handful of levels; the cap bounds the parser's
/// recursion on hostile input.
pub const MAX_DEPTH: usize = 128;

/// Why [`Value::parse`] rejected a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// An array or object opened at byte `offset` would nest deeper
    /// than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the offending `[` or `{`.
        offset: usize,
    },
    /// Any other malformed input; the message names the byte offset
    /// where it can.
    Malformed(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::TooDeep { offset } => {
                write!(f, "nesting deeper than {MAX_DEPTH} at byte {offset}")
            }
            ParseError::Malformed(msg) => f.write_str(msg),
        }
    }
}

impl From<String> for ParseError {
    fn from(msg: String) -> Self {
        ParseError::Malformed(msg)
    }
}

impl From<&str> for ParseError {
    fn from(msg: &str) -> Self {
        ParseError::Malformed(msg.to_string())
    }
}

type Parsed<T> = Result<T, ParseError>;

/// Escapes a string for inclusion inside JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`; exact for integers up to 2^53,
    /// far beyond any counter this repo snapshots into JSON).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Key order is not preserved (sorted).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::TooDeep`] past [`MAX_DEPTH`] nested
    /// containers, and [`ParseError::Malformed`] with the byte offset on
    /// other malformed input or trailing garbage.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}").into());
        }
        Ok(v)
    }

    /// Member `key` of an object (`None` for other variants / missing).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (exact for magnitudes below
    /// 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Parsed<()> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char).into())
    }
}

/// Parses one value; `depth` counts the containers already open around
/// it.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Parsed<Value> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(ParseError::TooDeep { offset: *pos }),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_keyword(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_keyword(b: &[u8], pos: &mut usize, word: &str, val: Value) -> Parsed<Value> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(val)
    } else {
        Err(format!("invalid literal at byte {pos}").into())
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Parsed<Value> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("invalid number at byte {start}").into())
}

fn parse_string(b: &[u8], pos: &mut usize) -> Parsed<String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        // Surrogate pairs are not emitted by our writers;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}").into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 code point.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid UTF-8")?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Parsed<Value> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}").into()),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Parsed<Value> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos, depth)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}").into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\u{1}e";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let v = Value::parse(&doc).expect("parses");
        assert_eq!(v.get("k").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn parses_nested_structures_and_numbers() {
        let v = Value::parse(
            r#"{"a": [1, 2.5, -3e2, true, false, null], "b": {"c": "x"}, "n": 12345678901}"#,
        )
        .expect("parses");
        let arr = v.get("a").and_then(Value::as_arr).expect("array");
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(arr[3], Value::Bool(true));
        assert_eq!(arr[5], Value::Null);
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str),
            Some("x")
        );
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(12_345_678_901));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let deep_arrays = "[".repeat(1_000_000);
        let deep_objects = "{\"a\":".repeat(1_000_000);
        for doc in [&deep_arrays, &deep_objects] {
            let err = Value::parse(doc).expect_err("too deep");
            assert!(matches!(err, ParseError::TooDeep { .. }), "{err}");
            assert!(err.to_string().contains("at byte"), "{err}");
        }
        // The limit itself is fine; one more level is not.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&at_limit).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(
            Value::parse(&past),
            Err(ParseError::TooDeep { offset: MAX_DEPTH })
        );
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(1.5), "1.5");
    }
}
