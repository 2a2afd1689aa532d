//! Offline shim of the `serde_json` *value* API: [`Value`], [`Map`],
//! [`Number`], a recursive-descent parser ([`from_str`] / [`from_reader`])
//! and a writer ([`to_string`] / [`to_writer`]). There is no serde trait
//! plumbing — callers build and inspect `Value` trees by hand, which is
//! all this workspace needs for snapshots and benchmark reports.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};

/// Parse / serialize error.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Shim `Result` alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// A JSON number: integer or finite double.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    /// Signed 64-bit integer.
    Int(i64),
    /// Unsigned 64-bit integer too large for `i64`.
    UInt(u64),
    /// Finite IEEE-754 double.
    Float(f64),
}

impl Number {
    /// A float number, or `None` for NaN / infinities (like upstream).
    pub fn from_f64(v: f64) -> Option<Number> {
        if v.is_finite() {
            Some(Number::Float(v))
        } else {
            None
        }
    }

    /// The value as `f64` (always possible).
    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Number::Int(i) => i as f64,
            Number::UInt(u) => u as f64,
            Number::Float(f) => f,
        })
    }

    /// The value as `i64` if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::Int(i) => Some(i),
            Number::UInt(u) => i64::try_from(u).ok(),
            Number::Float(_) => None,
        }
    }

    /// The value as `u64` if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::Int(i) => u64::try_from(i).ok(),
            Number::UInt(u) => Some(u),
            Number::Float(_) => None,
        }
    }
}

impl From<i64> for Number {
    fn from(v: i64) -> Self {
        Number::Int(v)
    }
}

impl From<u64> for Number {
    fn from(v: u64) -> Self {
        if let Ok(i) = i64::try_from(v) {
            Number::Int(i)
        } else {
            Number::UInt(v)
        }
    }
}

impl From<usize> for Number {
    fn from(v: usize) -> Self {
        Number::from(v as u64)
    }
}

impl From<u32> for Number {
    fn from(v: u32) -> Self {
        Number::Int(v as i64)
    }
}

impl From<i32> for Number {
    fn from(v: i32) -> Self {
        Number::Int(v as i64)
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::Int(i) => write!(f, "{i}"),
            Number::UInt(u) => write!(f, "{u}"),
            Number::Float(v) => {
                // Match serde_json: integral floats keep a ".0" suffix so
                // the round trip stays a float.
                if v == v.trunc() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
        }
    }
}

/// Insertion-order-insensitive string-keyed object map.
///
/// Upstream uses insertion order by default; sorted order is also valid
/// JSON and keeps the shim simple and deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Map<K = String, V = Value> {
    inner: BTreeMap<K, V>,
}

impl Map<String, Value> {
    /// Empty map.
    pub fn new() -> Self {
        Map {
            inner: BTreeMap::new(),
        }
    }

    /// Insert, returning the previous value for the key if any.
    ///
    /// Takes `String` (not `impl Into<String>`) so call sites written
    /// against upstream, like `map.insert("k".into(), v)`, infer the
    /// key type.
    pub fn insert(&mut self, k: String, v: Value) -> Option<Value> {
        self.inner.insert(k, v)
    }

    /// Borrow the value at `k`.
    pub fn get(&self, k: &str) -> Option<&Value> {
        self.inner.get(k)
    }

    /// Whether `k` is present.
    pub fn contains_key(&self, k: &str) -> bool {
        self.inner.contains_key(k)
    }

    /// Remove and return the value at `k`.
    pub fn remove(&mut self, k: &str) -> Option<Value> {
        self.inner.remove(k)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.inner.iter()
    }

    /// Iterate keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.inner.keys()
    }
}

impl FromIterator<(String, Value)> for Map<String, Value> {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Map {
            inner: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Map<String, Value> {
    type Item = (String, Value);
    type IntoIter = std::collections::btree_map::IntoIter<String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

/// A JSON document tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// number
    Number(Number),
    /// string
    String(String),
    /// array
    Array(Vec<Value>),
    /// object
    Object(Map<String, Value>),
}

impl Value {
    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload as f64, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// Numeric payload as i64, if an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// Numeric payload as u64, if an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Bool payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object payload, if this is an object.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrow `self[key]` if this is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// `v["k"]` — yields `Null` for missing keys / non-objects, like
    /// upstream.
    fn index(&self, key: &str) -> &Value {
        const NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        const NULL: Value = Value::Null;
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other == self
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<i64> for Value {
    fn eq(&self, other: &i64) -> bool {
        match self {
            Value::Number(n) => n.as_i64() == Some(*other) || n.as_f64() == Some(*other as f64),
            _ => false,
        }
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        match self {
            Value::Number(n) => n.as_u64() == Some(*other) || n.as_f64() == Some(*other as f64),
            _ => false,
        }
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Number(Number::Int(v))
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Number(Number::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Number(Number::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Number::from_f64(v)
            .map(Value::Number)
            .unwrap_or(Value::Null)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Array(v)
    }
}

impl From<Map<String, Value>> for Value {
    fn from(m: Map<String, Value>) -> Self {
        Value::Object(m)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    /// `None` is `null`, like upstream.
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl<K: Into<String>, V: Into<Value>> FromIterator<(K, V)> for Value {
    /// An object from key/value pairs, like upstream.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        Value::Object(
            iter.into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    /// An array, like upstream.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

// ---------------------------------------------------------------- writer

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        write_value(&mut s, self);
        f.write_str(&s)
    }
}

/// Serialize `value` to a compact JSON string.
pub fn to_string(value: &Value) -> Result<String> {
    Ok(value.to_string())
}

/// Serialize `value` as compact JSON to `writer`.
pub fn to_writer<W: Write>(mut writer: W, value: &Value) -> Result<()> {
    writer.write_all(value.to_string().as_bytes())?;
    Ok(())
}

// ---------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at byte {}",
                b as char,
                self.pos.saturating_sub(1)
            )))
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.expect_literal("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.expect_literal("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.expect_literal("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(Error::new(format!(
                "unexpected character '{}' at byte {}",
                c as char, self.pos
            ))),
            None => Err(Error::new("unexpected end of input")),
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        // Surrogate pair handling for non-BMP chars.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let lo = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(Error::new("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        out.push(c.ok_or_else(|| Error::new("invalid unicode escape"))?);
                    }
                    _ => return Err(Error::new("invalid escape sequence")),
                },
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Multi-byte UTF-8: the source is a &str so the bytes
                    // are valid; collect the full sequence.
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(Error::new("truncated UTF-8 sequence"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .bump()
                .ok_or_else(|| Error::new("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| Error::new("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::Int(i)));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::UInt(u)));
            }
        }
        let f: f64 = text
            .parse()
            .map_err(|_| Error::new(format!("invalid number '{text}'")))?;
        Ok(Value::Number(Number::Float(f)))
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(Error::new("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(map)),
                _ => return Err(Error::new("expected ',' or '}' in object")),
            }
        }
    }
}

/// Parse a JSON document from a string.
pub fn from_str(src: &str) -> Result<Value> {
    let mut p = Parser::new(src);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

/// Parse a JSON document from a reader (reads to end).
pub fn from_reader<R: Read>(mut reader: R) -> Result<Value> {
    let mut buf = String::new();
    reader.read_to_string(&mut buf)?;
    from_str(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let mut obj = Map::new();
        obj.insert("name".into(), Value::from("view \"v1\"\n"));
        obj.insert("count".into(), Value::from(42i64));
        obj.insert("ratio".into(), Value::from(0.5));
        obj.insert("none".into(), Value::Null);
        obj.insert(
            "items".into(),
            Value::Array(vec![Value::from(1i64), Value::from(true), Value::Null]),
        );
        let v = Value::Object(obj);
        let text = to_string(&v).unwrap();
        let back = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn index_and_compare() {
        let v = from_str(r#"{"experiment":"fig7","hit":0.9,"n":3}"#).unwrap();
        assert!(v["experiment"] == "fig7");
        assert!(v["hit"] == 0.9);
        assert!(v["n"] == 3i64);
        assert!(v["missing"].is_null());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str("not json").is_err());
        assert!(from_str("{\"a\":").is_err());
        assert!(from_str("[1,2,]").is_err());
        assert!(from_str("{} trailing").is_err());
    }

    #[test]
    fn float_keeps_point() {
        let text = to_string(&Value::from(2.0)).unwrap();
        assert_eq!(text, "2.0");
        assert_eq!(from_str(&text).unwrap(), Value::Number(Number::Float(2.0)));
    }

    #[test]
    fn unicode_escapes() {
        let v = from_str(r#""aé😀b""#).unwrap();
        assert_eq!(v, Value::from("aé😀b"));
        let round = to_string(&Value::from("aé😀b")).unwrap();
        assert_eq!(from_str(&round).unwrap(), Value::from("aé😀b"));
    }
}
