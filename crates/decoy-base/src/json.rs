//! The workspace's one JSON codec: a [`Value`] tree, one total parser
//! ([`parse`]), one string escaper ([`quote`]) and a compact and a pretty
//! writer (`Display`, `{}` and `{:#}`).
//!
//! It follows serde_json's rules, so every body, export and baseline it
//! replaced renders the same bytes: objects keep their keys sorted, numbers
//! keep serde_json's three kinds (an integer that fits `u64` or `i64` stays
//! exact), floats render as ryu does (`1.0`, `1e16`, `1.5e-7`) and
//! non-finite floats as `null`, and nesting deeper than 127 arrays or
//! objects is refused. The parser reads attacker bytes (CouchDB `PUT`
//! bodies), so it returns an [`Error`] on any input and never panics, and
//! clippy holds this module to the byte-path wall (DESIGN.md "Threat model
//! of the byte path").
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::disallowed_macros,
        clippy::allow_attributes_without_reason
    )
)]

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

/// serde_json's recursion limit: a document that opens this many nested
/// arrays or objects is refused.
const DEPTH_LIMIT: usize = 128;

/// A JSON document.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, its keys sorted as serde_json's default map keeps them.
    Object(BTreeMap<String, Value>),
}

/// A JSON number, in one of serde_json's three kinds: a non-negative
/// integer, a negative integer or a float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number(N);

#[derive(Debug, Clone, Copy, PartialEq)]
enum N {
    PosInt(u64),
    /// Always below zero, so each integer has one representation.
    NegInt(i64),
    Float(f64),
}

/// An object from `(key, value)` pairs; a repeated key keeps its last value.
pub fn object<const LEN: usize>(fields: [(&str, Value); LEN]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// A boolean's value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An integer that fits `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number(N::PosInt(n))) => Some(*n),
            _ => None,
        }
    }

    /// An integer that fits `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number(N::PosInt(n))) => i64::try_from(*n).ok(),
            Value::Number(Number(N::NegInt(n))) => Some(*n),
            _ => None,
        }
    }

    /// Any number, as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number(N::PosInt(n))) => Some(*n as f64),
            Value::Number(Number(N::NegInt(n))) => Some(*n as f64),
            Value::Number(Number(N::Float(x))) => Some(*x),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members of an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Render into `out`: compact without `indent`, else serde_json's pretty
    /// layout (two spaces a level) for a value at nesting level `indent`.
    fn write<W: fmt::Write>(&self, out: &mut W, indent: Option<usize>) -> fmt::Result {
        match self {
            Value::Null => out.write_str("null"),
            Value::Bool(b) => write!(out, "{b}"),
            Value::Number(n) => write!(out, "{n}"),
            Value::String(s) => quote(out, s),
            Value::Array(items) => {
                let items = items.iter().map(|item| (None, item));
                write_container(out, ['[', ']'], indent, items)
            }
            Value::Object(map) => {
                let members = map.iter().map(|(key, value)| (Some(key.as_str()), value));
                write_container(out, ['{', '}'], indent, members)
            }
        }
    }
}

/// An array's items or an object's members between `brackets`.
fn write_container<'a, W: fmt::Write>(
    out: &mut W,
    [open, close]: [char; 2],
    indent: Option<usize>,
    entries: impl Iterator<Item = (Option<&'a str>, &'a Value)>,
) -> fmt::Result {
    out.write_char(open)?;
    let inner = indent.map(|level| level + 1);
    let mut empty = true;
    for (key, value) in entries {
        if !empty {
            out.write_char(',')?;
        }
        empty = false;
        if let Some(level) = inner {
            newline(out, level)?;
        }
        if let Some(key) = key {
            quote(out, key)?;
            out.write_str(if indent.is_some() { ": " } else { ":" })?;
        }
        value.write(out, inner)?;
    }
    if let (Some(level), false) = (indent, empty) {
        newline(out, level)?;
    }
    out.write_char(close)
}

fn newline<W: fmt::Write>(out: &mut W, level: usize) -> fmt::Result {
    out.write_char('\n')?;
    (0..level).try_for_each(|_| out.write_str("  "))
}

/// `{}` renders compact JSON, `{:#}` serde_json's two-space pretty layout.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let indent = f.alternate().then_some(0);
        self.write(f, indent)
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::PosInt(n) => write!(f, "{n}"),
            N::NegInt(n) => write!(f, "{n}"),
            N::Float(x) => write_float(f, x),
        }
    }
}

/// ryu's layout, which serde_json writes: the shortest digits that read
/// back as `x`, in plain decimal from 1e-5 up to 1e16 and in exponent form
/// outside that; non-finite values are `null`.
fn write_float<W: fmt::Write>(out: &mut W, x: f64) -> fmt::Result {
    if !x.is_finite() {
        return out.write_str("null");
    }
    if x.is_sign_negative() {
        out.write_char('-')?;
    }
    // `{:e}` prints those shortest digits as `d[.ddd]e<exponent>`
    let scientific = format!("{:e}", x.abs());
    let (mantissa, exponent) = scientific.split_once('e').unwrap_or((&scientific, "0"));
    let digits = mantissa.replace('.', "");
    let exponent: i64 = exponent.parse().unwrap_or(0);
    // the value is 0.DIGITS × 10^point
    let point = exponent + 1;
    let len = i64::try_from(digits.len()).unwrap_or(i64::MAX);
    match point {
        1..=16 if len <= point => {
            out.write_str(&digits)?;
            (len..point).try_for_each(|_| out.write_char('0'))?;
            out.write_str(".0")
        }
        1..=16 => {
            // 0 < point < len, and the digits are ASCII
            let (whole, fraction) = digits.split_at(usize::try_from(point).unwrap_or(0));
            write!(out, "{whole}.{fraction}")
        }
        -4..=0 => {
            out.write_str("0.")?;
            (point..0).try_for_each(|_| out.write_char('0'))?;
            out.write_str(&digits)
        }
        _ => write!(out, "{mantissa}e{exponent}"),
    }
}

// decoy-hot-path: fn -- renders attacker text into every JSON body, the unknown-index 404 included
/// Write `s` as a JSON string literal, quotes included, escaped by
/// serde_json's rules: `"` and `\`, the short forms `\b \t \n \f \r`, and
/// `\u00XX` (lowercase hex) for every other control character. `/`, DEL
/// and non-ASCII text pass through.
pub fn quote<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut rest = s;
    while let Some(at) = rest.find(|c: char| c < ' ' || c == '"' || c == '\\') {
        // `find` stops on a char boundary
        let (plain, tail) = rest.split_at(at);
        out.write_str(plain)?;
        let mut chars = tail.chars();
        match chars.next() {
            Some('"') => out.write_str("\\\"")?,
            Some('\\') => out.write_str("\\\\")?,
            Some('\u{8}') => out.write_str("\\b")?,
            Some('\t') => out.write_str("\\t")?,
            Some('\n') => out.write_str("\\n")?,
            Some('\u{c}') => out.write_str("\\f")?,
            Some('\r') => out.write_str("\\r")?,
            Some(c) => write!(out, "\\u{:04x}", u32::from(c))?,
            None => {}
        }
        rest = chars.as_str();
    }
    out.write_str(rest)?;
    out.write_char('"')
}

/// Why a document did not parse, and the byte offset where parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    offset: usize,
    reason: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for Error {}

/// Parse one JSON document, surrounded by optional whitespace. Total: any
/// input yields a value or an [`Error`], as serde_json's `from_slice` would
/// accept or refuse it (strings must be UTF-8, surrogate escapes paired,
/// and numbers beyond `f64`'s range are refused).
pub fn parse(input: &[u8]) -> Result<Value, Error> {
    let mut parser = Parser { input, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_whitespace();
    match parser.peek() {
        None => Ok(value),
        Some(_) => Err(parser.error("trailing characters")),
    }
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let next = self.peek();
        if next.is_some() {
            self.pos += 1;
        }
        next
    }

    fn error(&self, reason: &'static str) -> Error {
        Error {
            offset: self.pos,
            reason,
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth + 1 >= DEPTH_LIMIT => {
                Err(self.error("recursion limit exceeded"))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(_) => Err(self.error("expected value")),
            None => Err(self.error("EOF while parsing a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.input.get(self.pos..self.pos + word.len()) == Some(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("expected value"))
        }
    }

    /// After an item: `,` to go on or `close` to end.
    fn more(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_whitespace();
        match self.bump() {
            Some(b',') => Ok(true),
            Some(b) if b == close => Ok(false),
            _ => Err(self.error("expected `,` or a closing bracket")),
        }
    }

    /// At `[`, opening nesting level `depth`.
    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            if !self.more(b']')? {
                return Ok(Value::Array(items));
            }
        }
    }

    /// At `{`, opening nesting level `depth`.
    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.pos += 1;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some(b'"') {
                return Err(self.error("key must be a string"));
            }
            let key = self.string()?;
            self.skip_whitespace();
            if self.bump() != Some(b':') {
                return Err(self.error("expected `:`"));
            }
            let value = self.value(depth)?;
            map.insert(key, value);
            if !self.more(b'}')? {
                return Ok(Value::Object(map));
            }
        }
    }

    /// At a string's opening quote.
    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut text = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b >= b' ' && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            // the run ends at an ASCII byte, so it splits no UTF-8 sequence
            let run = self.input.get(start..self.pos).unwrap_or_default();
            match std::str::from_utf8(run) {
                Ok(run) => text.push_str(run),
                Err(_) => return Err(self.error("invalid UTF-8 in string")),
            }
            match self.bump() {
                Some(b'"') => return Ok(text),
                Some(b'\\') => text.push(self.escape()?),
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("EOF while parsing a string")),
            }
        }
    }

    /// After a backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.bump() {
            Some(b'u') => return self.unicode_escape(),
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            _ => return Err(self.error("invalid escape")),
        };
        Ok(c)
    }

    /// After `\u`: one code point, a surrogate pair taking two escapes.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let unit = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&unit) {
            // a leading surrogate needs a trailing one right after it
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.error("lone surrogate in \\u escape"));
            }
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err(self.error("lone surrogate in \\u escape"));
            }
            0x1_0000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
        } else {
            unit
        };
        // a trailing surrogate alone is no char either
        char::from_u32(code).ok_or_else(|| self.error("lone surrogate in \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut unit = 0;
        for _ in 0..4 {
            let digit = self.bump().and_then(|b| char::from(b).to_digit(16));
            unit = unit * 16 + digit.ok_or_else(|| self.error("invalid \\u escape"))?;
        }
        Ok(unit)
    }

    /// At `-` or a digit: serde_json's grammar and kinds. An integer that
    /// fits `u64` (or, below zero, `i64`) stays exact; any other number,
    /// `-0` included, is the nearest `f64`.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        match self.bump() {
            Some(b'0') if matches!(self.peek(), Some(b'0'..=b'9')) => {
                return Err(self.error("invalid number"))
            }
            Some(b'0') => {}
            Some(b'1'..=b'9') => {
                self.skip_digits();
            }
            _ => return Err(self.error("invalid number")),
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            float = true;
            if self.skip_digits() == 0 {
                return Err(self.error("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.skip_digits() == 0 {
                return Err(self.error("invalid number"));
            }
        }
        let text = self.input.get(start..self.pos).unwrap_or_default();
        // the grammar above admits ASCII only
        let text = std::str::from_utf8(text).unwrap_or_default();
        let exact = match (float, negative) {
            (true, _) => None,
            (false, false) => text.parse().ok().map(N::PosInt),
            (false, true) => text.parse().ok().filter(|n| *n < 0).map(N::NegInt),
        };
        let n = match exact {
            Some(n) => n,
            None => match text.parse::<f64>() {
                Ok(x) if x.is_finite() => N::Float(x),
                _ => return Err(self.error("number out of range")),
            },
        };
        Ok(Value::Number(Number(n)))
    }
}

static NULL: Value = Value::Null;

/// `value["key"]`: the member, or `null` when `value` is no object or lacks
/// the key.
impl Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(Number(N::PosInt(n)))
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Number(Number(match u64::try_from(n) {
            Ok(n) => N::PosInt(n),
            Err(_) => N::NegInt(n),
        }))
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::from(n as u64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::from(u64::from(n))
    }
}

impl From<i32> for Value {
    fn from(n: i32) -> Self {
        Value::from(i64::from(n))
    }
}

/// A float; a non-finite one renders as `null`.
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Number(Number(N::Float(x)))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::Array(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{for_all, mutate, Rng};

    fn quoted(s: &str) -> String {
        let mut out = String::new();
        quote(&mut out, s).unwrap();
        out
    }

    #[test]
    fn escaping_follows_serde_json() {
        assert_eq!(quoted("\u{8}\t\n\u{c}\r"), r#""\b\t\n\f\r""#);
        assert_eq!(quoted("\u{0}\u{1f}\u{b}"), r#""\u0000\u001f\u000b""#);
        assert_eq!(quoted(r#"say "hi" \o/"#), r#""say \"hi\" \\o/""#);
        // `/`, DEL and non-ASCII text pass through
        assert_eq!(
            quoted("a/b\u{7f}é中😀\u{2028}"),
            "\"a/b\u{7f}é中😀\u{2028}\""
        );
        assert_eq!(quoted(""), r#""""#);
    }

    #[test]
    fn floats_render_as_ryu() {
        let render = |x: f64| Value::from(x).to_string();
        assert_eq!(render(1.0), "1.0");
        assert_eq!(render(f64::NAN), "null");
        assert_eq!(render(f64::INFINITY), "null");
        assert_eq!(render(f64::NEG_INFINITY), "null");
        assert_eq!(render(0.0), "0.0");
        assert_eq!(render(-0.0), "-0.0");
        assert_eq!(render(0.1), "0.1");
        assert_eq!(render(-1234.5), "-1234.5");
        assert_eq!(render(100.0), "100.0");
        assert_eq!(render(1e15), "1000000000000000.0");
        assert_eq!(render(1e16), "1e16");
        assert_eq!(render(1.5e300), "1.5e300");
        assert_eq!(render(0.0001), "0.0001");
        assert_eq!(render(1.25e-5), "0.0000125");
        assert_eq!(render(1e-6), "1e-6");
        assert_eq!(render(1.5e-7), "1.5e-7");
        assert_eq!(render(f64::MAX), "1.7976931348623157e308");
        assert_eq!(render(5e-324), "5e-324");
    }

    #[test]
    fn compact_and_pretty_layouts() {
        let doc = object([
            (
                "b",
                Value::from(vec![1u64.into(), Value::Null, true.into()]),
            ),
            ("a", object([("x", "y".into()), ("empty", object([]))])),
            ("c", Value::Array(Vec::new())),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"a":{"empty":{},"x":"y"},"b":[1,null,true],"c":[]}"#
        );
        let pretty = "{\n  \"a\": {\n    \"empty\": {},\n    \"x\": \"y\"\n  },\n  \"b\": [\n    1,\n    null,\n    true\n  ],\n  \"c\": []\n}";
        assert_eq!(format!("{doc:#}"), pretty);
        assert_eq!(parse(pretty.as_bytes()), Ok(doc));
    }

    #[test]
    fn numbers_keep_serde_jsons_kinds() {
        let kind = |text: &str| {
            parse(text.as_bytes()).map(|v| match v {
                Value::Number(Number(n)) => n,
                other => panic!("{text} parsed to {other:?}"),
            })
        };
        assert_eq!(kind("0"), Ok(N::PosInt(0)));
        assert_eq!(kind("18446744073709551615"), Ok(N::PosInt(u64::MAX)));
        assert_eq!(kind("-9223372036854775808"), Ok(N::NegInt(i64::MIN)));
        assert_eq!(kind("-1"), Ok(N::NegInt(-1)));
        assert_eq!(kind("1.0"), Ok(N::Float(1.0)));
        assert_eq!(kind("2E+2"), Ok(N::Float(200.0)));
        // past the integer kinds, or `-0`: the nearest float
        assert_eq!(
            kind("18446744073709551616"),
            Ok(N::Float(18446744073709551616.0))
        );
        assert_eq!(
            kind("-9223372036854775809"),
            Ok(N::Float(-9223372036854775809.0))
        );
        assert!(matches!(kind("-0"), Ok(N::Float(x)) if x == 0.0 && x.is_sign_negative()));
        for bad in [
            "01", "-01", "1.", ".5", "-", "+1", "1e", "1e+", "1e400", "0x1", "NaN",
        ] {
            assert!(parse(bad.as_bytes()).is_err(), "{bad}");
        }
        assert_eq!(Value::from(-5i64).as_i64(), Some(-5));
        assert_eq!(Value::from(5i64), Value::from(5u64));
        assert_eq!(Value::from(u64::MAX).as_i64(), None);
        assert_eq!(Value::from(3u64).as_f64(), Some(3.0));
        assert_eq!(Value::from(3.0).as_u64(), None);
    }

    #[test]
    fn strings_parse_every_escape_and_refuse_lone_surrogates() {
        let text = |doc: &str| parse(doc.as_bytes()).map(|v| v.as_str().map(str::to_string));
        assert_eq!(
            text(r#""\"\\\/\b\f\n\r\t\u00e9\uD83D\uDE00é""#),
            Ok(Some("\"\\/\u{8}\u{c}\n\r\té😀é".to_string()))
        );
        for bad in [
            r#""\uD800""#,
            r#""\uD800x""#,
            r#""\uD800\n""#,
            r#""\uD800\u0041""#,
            r#""\uDC00""#,
            r#""\u12""#,
            r#""\x""#,
            "\"tab\there\"",
            "\"open",
        ] {
            assert!(parse(bad.as_bytes()).is_err(), "{bad}");
        }
        assert!(parse(b"\"\xff\"").is_err());
        assert!(parse(b"\"\xc3\"").is_err());
    }

    /// Nesting depth of `v`: 0 for a scalar.
    fn depth(v: &Value) -> usize {
        match v {
            Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            Value::Object(map) => 1 + map.values().map(depth).max().unwrap_or(0),
            _ => 0,
        }
    }

    #[test]
    fn nesting_stops_where_serde_jsons_does() {
        for (open, close) in [("[", "]"), (r#"{"k":"#, "}")] {
            let nested =
                |levels: usize| format!("{}0{}", open.repeat(levels), close.repeat(levels));
            let ok = parse(nested(DEPTH_LIMIT - 1).as_bytes()).unwrap();
            assert_eq!(depth(&ok), DEPTH_LIMIT - 1);
            assert_eq!(
                parse(nested(DEPTH_LIMIT).as_bytes()).unwrap_err().reason,
                "recursion limit exceeded"
            );
        }
    }

    fn gen_string(rng: &mut Rng) -> String {
        const SPECIAL: [char; 10] = [
            '"', '\\', '/', '\u{7f}', 'é', '中', '😀', '\u{2028}', '\u{fffd}', ' ',
        ];
        let len = rng.gen_range(0..10usize);
        (0..len)
            .map(|_| match rng.gen_range(0..4u8) {
                0 => char::from(rng.gen_range(0..0x20u8)),
                1 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                _ => char::from(rng.gen_range(b' '..0x7f)),
            })
            .collect()
    }

    fn gen_value(rng: &mut Rng, depth: usize) -> Value {
        let kinds = if depth >= 4 { 7 } else { 9 };
        match rng.gen_range(0..kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::from(rng.next_u64() >> rng.gen_range(0..64u32)),
            3 => Value::from(i64::MIN >> rng.gen_range(0..64u32)),
            4 => {
                let x = f64::from_bits(rng.next_u64());
                Value::from(if x.is_finite() { x } else { rng.unit() })
            }
            5 => Value::from(f64::from(rng.gen_range(0..2000u32)) / 8.0),
            6 => Value::from(gen_string(rng)),
            7 => Value::Array(
                (0..rng.gen_range(0..5usize))
                    .map(|_| gen_value(rng, depth + 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.gen_range(0..5usize))
                    .map(|_| (gen_string(rng), gen_value(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    /// Documents that exercise every kind and every edge the codec pins.
    fn edges() -> Vec<Value> {
        vec![
            Value::from(u64::MAX),
            Value::from(i64::MIN),
            Value::from((0..0x20u8).map(char::from).collect::<String>()),
            Value::from("non-ASCII: é 中 😀 \u{2028} \u{10ffff}"),
            object([
                ("", Value::Null),
                ("x", Value::from(vec![f64::MAX.into(), 5e-324.into()])),
            ]),
        ]
    }

    #[test]
    fn generated_values_round_trip() {
        let mut rng = Rng::seed_from_u64(0x15_0a);
        let generated: Vec<Value> = (0..2000).map(|_| gen_value(&mut rng, 0)).collect();
        for v in edges().into_iter().chain(generated) {
            assert_eq!(parse(v.to_string().as_bytes()).as_ref(), Ok(&v), "{v}");
            assert_eq!(parse(format!("{v:#}").as_bytes()).as_ref(), Ok(&v), "{v:#}");
        }
    }

    /// A parse of `mutant` returns, and a value it returns renders to text
    /// that parses back to the same value.
    fn survives(mutant: &[u8]) -> bool {
        match parse(mutant) {
            Ok(v) => {
                assert_eq!(parse(v.to_string().as_bytes()), Ok(v));
                true
            }
            Err(_) => false,
        }
    }

    const INVALID_UTF8: [&[u8]; 5] = [
        b"\xff",
        b"\xc3",
        b"\xc0\x80",
        b"\xed\xa0\x80",
        b"\xf4\x90\x80\x80",
    ];

    /// One case of the mutant campaign: a document and the mutants drawn
    /// for it at random.
    #[derive(Debug)]
    struct Case {
        value: Value,
        /// [`mutate`]'s variants of its compact and pretty renderings
        mutated: Vec<Vec<u8>>,
        /// the compact rendering with invalid UTF-8 inserted
        invalid: Vec<u8>,
        /// the compact rendering with a lone leading surrogate escape inserted
        lone: Vec<u8>,
    }

    fn draw_case(rng: &mut Rng, value: Value) -> Case {
        let compact = value.to_string().into_bytes();
        let renderings = [compact.clone(), format!("{value:#}").into_bytes()];
        let bad = INVALID_UTF8[rng.gen_range(0..INVALID_UTF8.len())];
        let mut insert = |bytes: &[u8]| {
            let mut doc = compact.clone();
            let at = rng.gen_range(0..=doc.len());
            doc.splice(at..at, bytes.iter().copied());
            doc
        };
        let invalid = insert(bad);
        let lone = insert(br"\uD800");
        Case {
            mutated: (0..8).map(|_| mutate(rng, &renderings)).collect(),
            value,
            invalid,
            lone,
        }
    }

    #[test]
    fn mutant_campaign_never_panics() {
        let mut edges = edges().into_iter();
        let gen = |rng: &mut Rng| {
            let value = edges.next().unwrap_or_else(|| gen_value(rng, 0));
            draw_case(rng, value)
        };
        let mut mutants = 0;
        for_all(0x000d_ec04, 305, gen, |case| {
            let v = &case.value;
            // every truncation
            for doc in [v.to_string(), format!("{v:#}")] {
                for end in 0..doc.len() {
                    survives(&doc.as_bytes()[..end]);
                }
                mutants += doc.len();
            }
            for mutant in &case.mutated {
                survives(mutant);
            }
            // invalid UTF-8 is refused wherever it lands
            assert!(!survives(&case.invalid));
            survives(&case.lone);
            // one level past the nesting limit, and the level below it
            let levels = DEPTH_LIMIT - depth(v);
            let wrap = |levels: usize| format!("{}{v}{}", "[".repeat(levels), "]".repeat(levels));
            assert!(survives(wrap(levels - 1).as_bytes()));
            assert!(!survives(wrap(levels).as_bytes()));
            mutants += case.mutated.len() + 4;
        });
        assert!(mutants >= 10_000, "{mutants} mutants");
    }
}
