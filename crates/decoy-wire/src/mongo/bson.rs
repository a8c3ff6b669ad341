//! BSON (Binary JSON) encode/decode, implemented from scratch.
//!
//! Covers the element types every observed MongoDB interaction needs:
//! double, string, embedded document, array, binary, ObjectId, bool, UTC
//! datetime, null, int32, int64. Unknown element types are a decode error —
//! the honeypot logs the raw message instead of guessing.
//!
//! Decoding is total: every attacker-declared length is checked before any
//! read, and violations surface as [`crate::error::WireError`] values with the
//! byte offset of the damage ([`WireProtocol::Bson`]).

use crate::cursor::sat_i32;
use crate::error::{NetError, NetResult, WireError, WireErrorKind, WireProtocol};

/// Maximum nesting depth of embedded documents/arrays.
const MAX_DEPTH: u32 = 64;
/// Maximum elements in one document.
const MAX_ELEMENTS: usize = 100_000;

/// A BSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Bson {
    /// 0x01 — 64-bit IEEE 754.
    Double(f64),
    /// 0x02 — UTF-8 string.
    String(String),
    /// 0x03 — embedded document.
    Document(Document),
    /// 0x04 — array.
    Array(Vec<Bson>),
    /// 0x05 — binary, subtype 0.
    Binary(Vec<u8>),
    /// 0x07 — 12-byte ObjectId.
    ObjectId([u8; 12]),
    /// 0x08 — boolean.
    Bool(bool),
    /// 0x09 — UTC datetime, millis since epoch.
    DateTime(i64),
    /// 0x0A — null.
    Null,
    /// 0x10 — 32-bit integer.
    Int32(i32),
    /// 0x12 — 64-bit integer.
    Int64(i64),
}

impl Bson {
    /// Interpret as a number, coercing int/double (MongoDB command args are
    /// frequently `1`, `1.0`, or `1i64` interchangeably).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Bson::Double(d) => Some(*d),
            Bson::Int32(i) => Some(f64::from(*i)),
            Bson::Int64(i) => Some(*i as f64),
            Bson::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Bson::String(s) => Some(s),
            _ => None,
        }
    }

    /// Document payload, if this is a document.
    pub fn as_doc(&self) -> Option<&Document> {
        match self {
            Bson::Document(d) => Some(d),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Bson]> {
        match self {
            Bson::Array(a) => Some(a),
            _ => None,
        }
    }
}

impl From<&str> for Bson {
    fn from(s: &str) -> Self {
        Bson::String(s.to_string())
    }
}
impl From<String> for Bson {
    fn from(s: String) -> Self {
        Bson::String(s)
    }
}
impl From<i32> for Bson {
    fn from(i: i32) -> Self {
        Bson::Int32(i)
    }
}
impl From<i64> for Bson {
    fn from(i: i64) -> Self {
        Bson::Int64(i)
    }
}
impl From<f64> for Bson {
    fn from(d: f64) -> Self {
        Bson::Double(d)
    }
}
impl From<bool> for Bson {
    fn from(b: bool) -> Self {
        Bson::Bool(b)
    }
}
impl From<Document> for Bson {
    fn from(d: Document) -> Self {
        Bson::Document(d)
    }
}
impl From<Vec<Bson>> for Bson {
    fn from(a: Vec<Bson>) -> Self {
        Bson::Array(a)
    }
}

/// An ordered BSON document (insertion order is significant on the wire —
/// the first key of a command document *is* the command).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Document {
    entries: Vec<(String, Bson)>,
}

impl Document {
    /// An empty document.
    pub fn new() -> Self {
        Document::default()
    }

    /// Append or replace `key`.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Bson>) {
        let key = key.into();
        let value = value.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Builder-style insert.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Bson>) -> Self {
        self.insert(key, value);
        self
    }

    /// Value for `key`.
    pub fn get(&self, key: &str) -> Option<&Bson> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// String value for `key`.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Bson::as_str)
    }

    /// Numeric value for `key`.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Bson::as_f64)
    }

    /// Document value for `key`.
    pub fn get_doc(&self, key: &str) -> Option<&Document> {
        self.get(key).and_then(Bson::as_doc)
    }

    /// Iterate keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Iterate entries in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Bson)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Bson> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }
}

impl FromIterator<(String, Bson)> for Document {
    fn from_iter<T: IntoIterator<Item = (String, Bson)>>(iter: T) -> Self {
        let mut d = Document::new();
        for (k, v) in iter {
            d.insert(k, v);
        }
        d
    }
}

/// Construct a [`Document`] literally: `doc! { "find" => "users", "limit" => 1i32 }`.
#[macro_export]
macro_rules! doc {
    () => { $crate::mongo::bson::Document::new() };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {{
        let mut d = $crate::mongo::bson::Document::new();
        $( d.insert($k, $v); )+
        d
    }};
}
pub use crate::doc;

const TYPE_DOUBLE: u8 = 0x01;
const TYPE_STRING: u8 = 0x02;
const TYPE_DOC: u8 = 0x03;
const TYPE_ARRAY: u8 = 0x04;
const TYPE_BINARY: u8 = 0x05;
const TYPE_OBJECTID: u8 = 0x07;
const TYPE_BOOL: u8 = 0x08;
const TYPE_DATETIME: u8 = 0x09;
const TYPE_NULL: u8 = 0x0A;
const TYPE_INT32: u8 = 0x10;
const TYPE_INT64: u8 = 0x12;

/// Shorthand for a BSON wire error at `offset`.
fn berr(offset: usize, kind: WireErrorKind) -> NetError {
    WireError::new(WireProtocol::Bson, offset, kind).into()
}

/// Append the BSON encoding of `doc` to `out`.
pub fn encode_document(doc: &Document, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&0i32.to_le_bytes()); // patched below
    for (key, value) in doc.iter() {
        encode_element(key, value, out);
    }
    out.push(0);
    let len = sat_i32(out.len().saturating_sub(start));
    if let Some(slot) = out.get_mut(start..start + 4) {
        slot.copy_from_slice(&len.to_le_bytes());
    }
}

fn encode_element(key: &str, value: &Bson, out: &mut Vec<u8>) {
    let put_key = |out: &mut Vec<u8>, t: u8| {
        out.push(t);
        out.extend_from_slice(key.as_bytes());
        out.push(0);
    };
    match value {
        Bson::Double(d) => {
            put_key(out, TYPE_DOUBLE);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Bson::String(s) => {
            put_key(out, TYPE_STRING);
            out.extend_from_slice(&sat_i32(s.len().saturating_add(1)).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
            out.push(0);
        }
        Bson::Document(d) => {
            put_key(out, TYPE_DOC);
            encode_document(d, out);
        }
        Bson::Array(items) => {
            put_key(out, TYPE_ARRAY);
            let as_doc: Document = items
                .iter()
                .enumerate()
                .map(|(i, v)| (i.to_string(), v.clone()))
                .collect();
            encode_document(&as_doc, out);
        }
        Bson::Binary(b) => {
            put_key(out, TYPE_BINARY);
            out.extend_from_slice(&sat_i32(b.len()).to_le_bytes());
            out.push(0); // generic subtype
            out.extend_from_slice(b);
        }
        Bson::ObjectId(oid) => {
            put_key(out, TYPE_OBJECTID);
            out.extend_from_slice(oid);
        }
        Bson::Bool(b) => {
            put_key(out, TYPE_BOOL);
            out.push(u8::from(*b));
        }
        Bson::DateTime(ms) => {
            put_key(out, TYPE_DATETIME);
            out.extend_from_slice(&ms.to_le_bytes());
        }
        Bson::Null => put_key(out, TYPE_NULL),
        Bson::Int32(i) => {
            put_key(out, TYPE_INT32);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Bson::Int64(i) => {
            put_key(out, TYPE_INT64);
            out.extend_from_slice(&i.to_le_bytes());
        }
    }
}

/// Decode one document from the front of `bytes`; returns `(doc, consumed)`.
pub fn decode_document(bytes: &[u8]) -> NetResult<(Document, usize)> {
    decode_document_depth(bytes, 0, 0)
}

/// Like [`decode_document`], but error offsets are reported relative to
/// `base` — used when `bytes` is a slice of a larger wire message.
pub fn decode_document_at(bytes: &[u8], base: usize) -> NetResult<(Document, usize)> {
    decode_document_depth(bytes, base, 0)
}

fn decode_document_depth(bytes: &[u8], base: usize, depth: u32) -> NetResult<(Document, usize)> {
    if depth > MAX_DEPTH {
        return Err(berr(
            base,
            WireErrorKind::NestingTooDeep { limit: MAX_DEPTH },
        ));
    }
    let Some(&len_bytes) = bytes.first_chunk::<4>() else {
        return Err(berr(
            base,
            WireErrorKind::Truncated {
                needed: 5,
                available: bytes.len(),
            },
        ));
    };
    let declared = i32::from_le_bytes(len_bytes);
    let len = usize::try_from(declared)
        .ok()
        .filter(|&n| n >= 5 && n <= bytes.len())
        .ok_or_else(|| {
            berr(
                base,
                WireErrorKind::LengthOutOfRange {
                    declared: u64::try_from(declared).unwrap_or(0),
                    max: bytes.len() as u64,
                },
            )
        })?;
    if bytes.get(len - 1) != Some(&0) {
        return Err(berr(
            base + len - 1,
            WireErrorKind::Malformed {
                detail: "bson document missing terminator",
            },
        ));
    }
    let mut rest = bytes.get(4..len - 1).unwrap_or_default();
    let mut at = base + 4;
    let mut doc = Document::new();
    while let Some((&etype, tail)) = rest.split_first() {
        at += 1;
        let nul = tail.iter().position(|&b| b == 0).ok_or_else(|| {
            berr(
                at,
                WireErrorKind::Unterminated {
                    what: "element name",
                },
            )
        })?;
        let key = String::from_utf8_lossy(tail.get(..nul).unwrap_or_default()).into_owned();
        let value_bytes = tail.get(nul + 1..).unwrap_or_default();
        at += nul + 1;
        let (value, used) = decode_value(etype, value_bytes, at, depth)?;
        rest = value_bytes.get(used..).unwrap_or_default();
        at += used;
        doc.entries.push((key, value));
        if doc.entries.len() > MAX_ELEMENTS {
            return Err(berr(
                at,
                WireErrorKind::TooManyElements {
                    limit: MAX_ELEMENTS as u64,
                },
            ));
        }
    }
    Ok((doc, len))
}

fn decode_value(etype: u8, bytes: &[u8], base: usize, depth: u32) -> NetResult<(Bson, usize)> {
    let truncated = |n: usize| {
        berr(
            base,
            WireErrorKind::Truncated {
                needed: n,
                available: bytes.len(),
            },
        )
    };
    match etype {
        TYPE_DOUBLE => {
            let &b = bytes.first_chunk::<8>().ok_or_else(|| truncated(8))?;
            Ok((Bson::Double(f64::from_le_bytes(b)), 8))
        }
        TYPE_STRING => {
            let &b = bytes.first_chunk::<4>().ok_or_else(|| truncated(4))?;
            let declared = i32::from_le_bytes(b);
            let slen = usize::try_from(declared)
                .ok()
                .filter(|&n| n >= 1 && n <= bytes.len().saturating_sub(4))
                .ok_or_else(|| {
                    berr(
                        base,
                        WireErrorKind::LengthOutOfRange {
                            declared: u64::try_from(declared).unwrap_or(0),
                            max: bytes.len() as u64,
                        },
                    )
                })?;
            if bytes.get(4 + slen - 1) != Some(&0) {
                return Err(berr(
                    base + 4 + slen - 1,
                    WireErrorKind::Malformed {
                        detail: "bson string missing NUL",
                    },
                ));
            }
            let s = String::from_utf8_lossy(bytes.get(4..4 + slen - 1).unwrap_or_default())
                .into_owned();
            Ok((Bson::String(s), 4 + slen))
        }
        TYPE_DOC => {
            let (d, used) = decode_document_depth(bytes, base, depth + 1)?;
            Ok((Bson::Document(d), used))
        }
        TYPE_ARRAY => {
            let (d, used) = decode_document_depth(bytes, base, depth + 1)?;
            let items = d.entries.into_iter().map(|(_, v)| v).collect();
            Ok((Bson::Array(items), used))
        }
        TYPE_BINARY => {
            let &b = bytes.first_chunk::<4>().ok_or_else(|| truncated(5))?;
            let declared = i32::from_le_bytes(b);
            let blen = usize::try_from(declared)
                .ok()
                .filter(|&n| n <= bytes.len().saturating_sub(5))
                .ok_or_else(|| {
                    berr(
                        base,
                        WireErrorKind::LengthOutOfRange {
                            declared: u64::try_from(declared).unwrap_or(0),
                            max: bytes.len() as u64,
                        },
                    )
                })?;
            let data = bytes.get(5..5 + blen).unwrap_or_default();
            Ok((Bson::Binary(data.to_vec()), 5 + blen))
        }
        TYPE_OBJECTID => {
            let &oid = bytes.first_chunk::<12>().ok_or_else(|| truncated(12))?;
            Ok((Bson::ObjectId(oid), 12))
        }
        TYPE_BOOL => {
            let &b = bytes.first().ok_or_else(|| truncated(1))?;
            Ok((Bson::Bool(b != 0), 1))
        }
        TYPE_DATETIME => {
            let &b = bytes.first_chunk::<8>().ok_or_else(|| truncated(8))?;
            Ok((Bson::DateTime(i64::from_le_bytes(b)), 8))
        }
        TYPE_NULL => Ok((Bson::Null, 0)),
        TYPE_INT32 => {
            let &b = bytes.first_chunk::<4>().ok_or_else(|| truncated(4))?;
            Ok((Bson::Int32(i32::from_le_bytes(b)), 4))
        }
        TYPE_INT64 => {
            let &b = bytes.first_chunk::<8>().ok_or_else(|| truncated(8))?;
            Ok((Bson::Int64(i64::from_le_bytes(b)), 8))
        }
        _ => Err(berr(
            base,
            WireErrorKind::BadMagic {
                what: "bson element type",
            },
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(doc: &Document) -> Document {
        let mut buf = Vec::new();
        encode_document(doc, &mut buf);
        let (decoded, used) = decode_document(&buf).unwrap();
        assert_eq!(used, buf.len());
        decoded
    }

    #[test]
    fn empty_document_is_five_bytes() {
        let mut buf = Vec::new();
        encode_document(&Document::new(), &mut buf);
        assert_eq!(&buf[..], &[5, 0, 0, 0, 0]);
        assert_eq!(roundtrip(&Document::new()), Document::new());
    }

    #[test]
    fn all_types_roundtrip() {
        let d = doc! {
            "double" => 3.5f64,
            "string" => "héllo",
            "doc" => doc! { "inner" => 1i32 },
            "array" => vec![Bson::Int32(1), Bson::String("two".into()), Bson::Null],
            "bool_t" => true,
            "bool_f" => false,
            "null" => Bson::Null,
            "i32" => -42i32,
            "i64" => 1i64 << 40,
        };
        let mut d = d;
        d.insert("bin", Bson::Binary(vec![0, 1, 2, 255]));
        d.insert("oid", Bson::ObjectId([7; 12]));
        d.insert("dt", Bson::DateTime(1_711_065_600_000));
        assert_eq!(roundtrip(&d), d);
    }

    #[test]
    fn insertion_order_is_preserved_and_first_key_wins() {
        let d = doc! { "find" => "users", "$db" => "admin", "limit" => 5i32 };
        let keys: Vec<_> = roundtrip(&d).keys().map(str::to_string).collect();
        assert_eq!(keys, vec!["find", "$db", "limit"]);
    }

    #[test]
    fn insert_replaces_existing_key() {
        let mut d = doc! { "a" => 1i32 };
        d.insert("a", 2i32);
        assert_eq!(d.len(), 1);
        assert_eq!(d.get_f64("a"), Some(2.0));
        assert_eq!(d.remove("a"), Some(Bson::Int32(2)));
        assert!(d.is_empty());
    }

    #[test]
    fn numeric_coercion() {
        assert_eq!(Bson::Int32(1).as_f64(), Some(1.0));
        assert_eq!(Bson::Int64(2).as_f64(), Some(2.0));
        assert_eq!(Bson::Double(0.5).as_f64(), Some(0.5));
        assert_eq!(Bson::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Bson::Null.as_f64(), None);
    }

    #[test]
    fn hostile_documents_are_rejected_not_panicked() {
        // declared length longer than the buffer
        assert!(decode_document(&[50, 0, 0, 0, 0]).is_err());
        // negative length
        assert!(decode_document(&(-1i32).to_le_bytes()).is_err());
        // missing terminator
        assert!(decode_document(&[5, 0, 0, 0, 9]).is_err());
        // truncated string value
        let bad = [
            13, 0, 0, 0, // doc len
            0x02, b'a', 0, // string element "a"
            100, 0, 0, 0, // string length 100 (overruns)
            0, 0,
        ];
        assert!(decode_document(&bad).is_err());
        // unknown element type
        let bad = [8, 0, 0, 0, 0x7f, b'a', 0, 0];
        assert!(decode_document(&bad).is_err());
    }

    #[test]
    fn errors_carry_bson_protocol_and_offset() {
        let err = decode_document_at(&[50, 0, 0, 0, 0], 21).unwrap_err();
        match err {
            NetError::Wire(w) => {
                assert_eq!(w.protocol, WireProtocol::Bson);
                assert_eq!(w.offset, 21);
                assert!(matches!(w.kind, WireErrorKind::LengthOutOfRange { .. }));
            }
            other => panic!("expected wire error, got {other:?}"),
        }
    }

    #[test]
    fn nested_bomb_is_bounded() {
        // Build a 100-deep nested document; decoder must refuse at depth 64.
        let mut inner = Document::new();
        for _ in 0..100 {
            let mut outer = Document::new();
            outer.insert("d", inner);
            inner = outer;
        }
        let mut buf = Vec::new();
        encode_document(&inner, &mut buf);
        assert!(decode_document(&buf).is_err());
    }

    #[test]
    fn array_indices_are_rebuilt() {
        let d = doc! { "a" => vec![Bson::Int32(10), Bson::Int32(20)] };
        let rt = roundtrip(&d);
        let arr = rt.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr, &[Bson::Int32(10), Bson::Int32(20)]);
    }
}
