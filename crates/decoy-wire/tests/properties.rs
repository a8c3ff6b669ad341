//! Property tests over the wire substrate, run through
//! `decoy_base::rng::for_all`:
//! * decoders never panic on arbitrary bytes (honeypots face hostile input
//!   by definition) and either consume progress or report an error;
//! * encode→decode round-trips for every protocol;
//! * TDS password mangling is a bijection.
//!
//! The std-only properties (masking, globbing, foreign-payload recognition,
//! the prefix trie, TF vectors, the ECDF, Luhn, the document engine,
//! `LRANGE`, Ward heights) live in the unit tests of the code they check.

use decoy_base::rng::{for_all, Rng};
use decoy_wire::buf::{Bytes, RecvBuf};
use decoy_wire::codec::Codec;
use decoy_wire::mongo::bson::{self, Bson, Document};
use decoy_wire::{http, mongo, mysql, pgwire, resp, tds};
use std::ops::{Range, RangeInclusive};

/// Arbitrary bytes whose count is drawn from `len`.
fn bytes(rng: &mut Rng, len: Range<usize>) -> Vec<u8> {
    (0..rng.gen_range(len))
        .map(|_| rng.gen_range(0..=u8::MAX))
        .collect()
}

/// A string over `alphabet` whose length is drawn from `len`.
fn text(rng: &mut Rng, alphabet: &str, len: RangeInclusive<usize>) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    (0..rng.gen_range(len))
        .map(|_| chars[rng.gen_range(0..chars.len())])
        .collect()
}

/// Printable ASCII (`[ -~]`) whose length is drawn from `len`.
fn printable(rng: &mut Rng, len: RangeInclusive<usize>) -> String {
    (0..rng.gen_range(len))
        .map(|_| char::from(rng.gen_range(b' '..=b'~')))
        .collect()
}

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const IDENT: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
const HOST: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-";

// ---------------------------------------------------------------------
// decoders survive arbitrary bytes
// ---------------------------------------------------------------------

/// Drive a fresh decoder over arbitrary bytes until it stops making
/// progress; a decoded frame must consume bytes.
fn decoder_never_panics<C: Codec>(seed: u64, codec: impl Fn() -> C) {
    let gen = |rng: &mut Rng| bytes(rng, 0..512);
    for_all(seed, 256, gen, |bytes| {
        let mut codec = codec();
        let mut buf = RecvBuf::from(bytes.clone());
        for _ in 0..600 {
            let before = buf.len();
            match codec.decode(&mut buf) {
                // progress or empty buffer
                Ok(Some(_)) => assert!(buf.len() < before || before == 0),
                Ok(None) | Err(_) => break,
            }
            if buf.is_empty() {
                break;
            }
        }
    });
}

#[test]
fn resp_decoder_never_panics() {
    decoder_never_panics(0x7e5, resp::RespCodec::server);
}

#[test]
fn mysql_decoder_never_panics() {
    decoder_never_panics(0x3515, || mysql::MySqlCodec);
}

#[test]
fn tds_decoder_never_panics() {
    decoder_never_panics(0x7d5, || tds::TdsCodec);
}

#[test]
fn pg_server_decoder_never_panics() {
    decoder_never_panics(0x965e, pgwire::PgServerCodec::new);
}

#[test]
fn pg_client_decoder_never_panics() {
    decoder_never_panics(0x96c1, pgwire::PgClientCodec::new);
}

#[test]
fn http_decoder_never_panics() {
    decoder_never_panics(0x4770, || http::HttpServerCodec);
}

#[test]
fn mongo_decoder_never_panics() {
    decoder_never_panics(0x3060, || mongo::MongoCodec);
}

#[test]
fn bson_decoder_never_panics() {
    let gen = |rng: &mut Rng| bytes(rng, 0..256);
    for_all(0xb5d, 256, gen, |bytes| {
        let _ = bson::decode_document(bytes);
    });
}

#[test]
fn login7_parser_never_panics() {
    let gen = |rng: &mut Rng| bytes(rng, 0..256);
    for_all(0x1091, 256, gen, |bytes| {
        let _ = tds::Login7::parse(bytes);
        let _ = tds::parse_prelogin(&Bytes::from(bytes.clone()));
        let _ = tds::parse_error_token(bytes);
        let _ = mysql::LoginRequest::parse(bytes);
        let _ = mysql::Greeting::parse(bytes);
        let _ = mysql::parse_err(bytes);
    });
}

// ---------------------------------------------------------------------
// round-trips
// ---------------------------------------------------------------------

/// A RESP value nested at most `depth` arrays deep.
fn resp_value(rng: &mut Rng, depth: u32) -> resp::RespValue {
    if depth > 0 && rng.gen_bool(0.5) {
        let len = rng.gen_range(0..4);
        return resp::RespValue::Array((0..len).map(|_| resp_value(rng, depth - 1)).collect());
    }
    match rng.gen_range(0..6) {
        0 => resp::RespValue::Simple(printable(rng, 0..=24)),
        1 => resp::RespValue::Error(printable(rng, 0..=24)),
        2 => resp::RespValue::Integer(rng.next_u64() as i64),
        3 => resp::RespValue::Bulk(Bytes::from(bytes(rng, 0..48))),
        4 => resp::RespValue::NullBulk,
        _ => resp::RespValue::NullArray,
    }
}

#[test]
fn resp_roundtrip() {
    let gen = |rng: &mut Rng| resp_value(rng, 3);
    for_all(0x7e59, 256, gen, |value| {
        let mut codec = resp::RespCodec::client();
        let mut out = Vec::new();
        codec.encode(value, &mut out).unwrap();
        let mut buf = RecvBuf::from(out);
        let decoded = codec.decode(&mut buf).unwrap().unwrap();
        assert_eq!(&decoded, value);
        assert!(buf.is_empty());
    });
}

#[test]
fn tds_password_mangle_bijection() {
    // printable ASCII plus a 2-, a 3- and a 4-byte UTF-8 character (the
    // last one a UTF-16 surrogate pair)
    let alphabet: String = (' '..='~')
        .chain(['\u{00e9}', '\u{4e2d}', '\u{1f600}'])
        .collect();
    let gen = |rng: &mut Rng| text(rng, &alphabet, 0..=24);
    for_all(0x7a55, 256, gen, |password| {
        let ucs2 = tds::ucs2_encode(password);
        let mangled = tds::password_mangle(&ucs2);
        assert_eq!(tds::password_demangle(&mangled), ucs2);
    });
}

#[test]
fn login7_roundtrip() {
    let gen = |rng: &mut Rng| tds::Login7 {
        username: text(rng, IDENT, 1..=16),
        password: printable(rng, 0..=20),
        hostname: text(rng, HOST, 1..=12),
        appname: "app".into(),
        servername: "srv".into(),
        database: "db".into(),
    };
    for_all(0x1097, 256, gen, |login| {
        assert_eq!(&tds::Login7::parse(&login.build()).unwrap(), login);
    });
}

#[test]
fn mysql_login_roundtrip() {
    let gen = |rng: &mut Rng| (text(rng, IDENT, 1..=16), printable(rng, 0..=20));
    for_all(0x3510, 256, gen, |(user, password)| {
        let login = mysql::LoginRequest::cleartext(user, password, None);
        let parsed = mysql::LoginRequest::parse(&login.build()).unwrap();
        assert_eq!(&parsed.password_observed(), password);
        assert_eq!(&parsed.username, user);
    });
}

#[test]
fn pg_query_roundtrip() {
    let gen = |rng: &mut Rng| printable(rng, 0..=64);
    for_all(0x96a1, 256, gen, |query| {
        let mut client = pgwire::PgClientCodec::new();
        let mut server = pgwire::PgServerCodec::new();
        let mut out = Vec::new();
        let startup = pgwire::FrontendMessage::Startup {
            params: vec![("user".into(), "u".into())],
        };
        client.encode(&startup, &mut out).unwrap();
        let message = pgwire::FrontendMessage::Query(query.clone());
        client.encode(&message, &mut out).unwrap();
        let mut buf = RecvBuf::from(out);
        server.decode(&mut buf).unwrap().unwrap();
        assert_eq!(server.decode(&mut buf).unwrap().unwrap(), message);
    });
}

/// A BSON value nested at most `depth` arrays or documents deep.
fn bson_value(rng: &mut Rng, depth: u32) -> Bson {
    if depth > 0 && rng.gen_bool(0.5) {
        let len = rng.gen_range(0..4);
        return if rng.gen_bool(0.5) {
            Bson::Array((0..len).map(|_| bson_value(rng, depth - 1)).collect())
        } else {
            Bson::Document(
                (0..len)
                    .map(|_| (text(rng, LOWER, 1..=6), bson_value(rng, depth - 1)))
                    .collect(),
            )
        };
    }
    match rng.gen_range(0..9) {
        0 => loop {
            // any finite double, subnormals and signed zeros included
            let d = f64::from_bits(rng.next_u64());
            if d.is_finite() {
                break Bson::Double(d);
            }
        },
        1 => Bson::String(printable(rng, 0..=16)),
        2 => Bson::Bool(rng.gen_bool(0.5)),
        3 => Bson::Int32(rng.gen_range(i32::MIN..=i32::MAX)),
        4 => Bson::Int64(rng.next_u64() as i64),
        5 => Bson::Null,
        6 => Bson::Binary(bytes(rng, 0..16)),
        7 => Bson::ObjectId(std::array::from_fn(|_| rng.gen_range(0..=u8::MAX))),
        _ => Bson::DateTime(rng.next_u64() as i64),
    }
}

#[test]
fn bson_roundtrip() {
    let gen = |rng: &mut Rng| -> Document {
        (0..rng.gen_range(0..6))
            .map(|_| (text(rng, LOWER, 1..=8), bson_value(rng, 3)))
            .collect()
    };
    for_all(0xb50e, 256, gen, |doc| {
        let mut buf = Vec::new();
        bson::encode_document(doc, &mut buf);
        let (decoded, used) = bson::decode_document(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(&decoded, doc);
    });
}
