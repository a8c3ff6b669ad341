//! Totality harness for the attacker-facing byte path.
//!
//! Every `decoy-wire` decoder must return `Ok` or `Err` — never panic — on
//! arbitrary bytes. This is the fuzz half of the panic-freedom audit
//! (clippy's panic wall is the static half): for each codec
//! side, `decoy_base::rng::for_all` runs 10,000 hostile variants drawn by
//! `decoy_base::rng::mutate` from two seed pools, the malformed-frame
//! corpus in `tests/corpus/<protocol>/` (truncated header, zero length,
//! maximal declared length, wrong magic, mid-frame EOF) and golden frames
//! produced by each codec's own encoder.
//!
//! Failures are reproducible: each codec side has a fixed seed, and
//! `for_all` prints a failing variant with its case seed, which draws it
//! again exactly.

use bytes::BytesMut;
use decoy_base::rng::{for_all, mutate, Rng};
use decoy_net::codec::Codec;
use decoy_wire::http::{HttpClientCodec, HttpRequest, HttpResponse, HttpServerCodec};
use decoy_wire::mongo::bson::Document;
use decoy_wire::mongo::{MongoCodec, MongoMessage};
use decoy_wire::mysql::{MySqlCodec, MySqlPacket};
use decoy_wire::pgwire::{BackendMessage, FrontendMessage, PgClientCodec, PgServerCodec};
use decoy_wire::resp::{RespCodec, RespValue};
use decoy_wire::tds::{TdsCodec, TdsPacket};
use std::path::Path;

/// Load every `*.bin` file under `dir`, sorted by name for determinism.
fn load_corpus(dir: &Path) -> std::io::Result<Vec<Vec<u8>>> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "bin"))
        .collect();
    paths.sort();
    paths.iter().map(std::fs::read).collect()
}

/// Load the malformed-frame corpus for `proto`, asserting the five
/// canonical shapes are present.
fn corpus(proto: &str) -> Vec<Vec<u8>> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(proto);
    let seeds = load_corpus(&dir).unwrap_or_else(|e| panic!("corpus {proto}: {e}"));
    assert!(
        seeds.len() >= 5,
        "{proto}: corpus must cover truncated_header, zero_length, max_length, \
         wrong_magic and midframe_eof"
    );
    seeds
}

/// Encode golden frames through a codec's own encoder; these seed
/// `mutate` with byte sequences that are *almost* valid.
fn encoded<C: Codec>(codec: &mut C, frames: &[C::Out]) -> Vec<Vec<u8>> {
    frames
        .iter()
        .map(|f| {
            let mut buf = BytesMut::new();
            codec.encode(f, &mut buf).expect("golden frame encodes");
            buf.to_vec()
        })
        .collect()
}

/// Feed 10,000 mutants of `seeds` to fresh codecs built by `mk`, draining
/// each input until the codec stops producing frames.
fn assert_decoder_total<C, F>(seed: u64, seeds: &[Vec<u8>], mk: F)
where
    C: Codec,
    F: Fn() -> C,
{
    let gen = |rng: &mut Rng| mutate(rng, seeds);
    for_all(seed, 10_000, gen, |input| decode_all(&mut mk(), input));
}

/// Decode `input` with `codec`: stop on `Err`, on `Ok(None)`, or after 64
/// frames.
fn decode_all<C: Codec>(codec: &mut C, input: &[u8]) {
    let mut buf = BytesMut::from(input);
    for _ in 0..64 {
        match codec.decode(&mut buf) {
            Ok(Some(_)) if !buf.is_empty() => continue,
            _ => break,
        }
    }
}

#[test]
fn pgwire_decoders_are_total() {
    let golden = encoded(
        &mut PgClientCodec::new(),
        &[
            FrontendMessage::SslRequest,
            FrontendMessage::Startup {
                params: vec![
                    ("user".into(), "sa".into()),
                    ("database".into(), "postgres".into()),
                ],
            },
            FrontendMessage::Password("123456".into()),
            FrontendMessage::Query("SELECT version();".into()),
            FrontendMessage::Terminate,
        ],
    );
    let mut seeds = corpus("pgwire");
    seeds.extend(golden);
    assert_decoder_total(0xD0C0_0001, &seeds, PgServerCodec::new);
    // the client side parses honeypot replies; same wall applies
    let backend = encoded(
        &mut PgServerCodec::new(),
        &[
            BackendMessage::AuthenticationOk,
            BackendMessage::AuthenticationCleartextPassword,
        ],
    );
    let mut seeds = corpus("pgwire");
    seeds.extend(backend);
    assert_decoder_total(0xD0C0_0002, &seeds, PgClientCodec::new);
}

#[test]
fn mysql_decoder_is_total() {
    let golden = encoded(
        &mut MySqlCodec,
        &[
            MySqlPacket {
                seq: 0,
                payload: vec![0x0a, b'8', b'.', b'0', 0x00].into(),
            },
            MySqlPacket {
                seq: 1,
                payload: b"\x03SELECT @@version".to_vec().into(),
            },
        ],
    );
    let mut seeds = corpus("mysql");
    seeds.extend(golden);
    assert_decoder_total(0xD0C0_0003, &seeds, || MySqlCodec);
}

#[test]
fn resp_decoders_are_total() {
    let golden = encoded(
        &mut RespCodec::server(),
        &[
            RespValue::Simple("OK".into()),
            RespValue::Integer(42),
            RespValue::bulk("hello"),
            RespValue::NullBulk,
            RespValue::Array(vec![
                RespValue::bulk("CONFIG"),
                RespValue::bulk("GET"),
                RespValue::bulk("dir"),
            ]),
        ],
    );
    let mut seeds = corpus("resp");
    seeds.extend(golden);
    assert_decoder_total(0xD0C0_0004, &seeds, RespCodec::server);
    assert_decoder_total(0xD0C0_0005, &seeds, RespCodec::client);
}

#[test]
fn tds_decoder_is_total() {
    let golden = encoded(
        &mut TdsCodec,
        &[
            TdsPacket::eom(0x12, vec![0x00, 0x00, 0x1a, 0x00, 0x06, 0xff]),
            TdsPacket::eom(0x01, b"S\0E\0L\0E\0C\0T\0 \0@\0@\0".to_vec()),
        ],
    );
    let mut seeds = corpus("tds");
    seeds.extend(golden);
    assert_decoder_total(0xD0C0_0006, &seeds, || TdsCodec);
}

#[test]
fn mongo_decoder_is_total() {
    let mut hello = Document::new();
    hello.insert("hello", 1.0f64);
    hello.insert("$db", "admin");
    let mut find = Document::new();
    find.insert("find", "customers");
    find.insert("$db", "app");
    let golden = encoded(
        &mut MongoCodec,
        &[MongoMessage::msg(1, hello), MongoMessage::msg(2, find)],
    );
    let mut seeds = corpus("mongo");
    seeds.extend(golden);
    assert_decoder_total(0xD0C0_0007, &seeds, || MongoCodec);
}

#[test]
fn http_decoders_are_total() {
    let golden = encoded(
        &mut HttpClientCodec,
        &[
            HttpRequest::new("GET", "/"),
            HttpRequest::new("POST", "/_search").with_body(
                "application/json",
                br#"{"query":{"match_all":{}}}"#.to_vec(),
            ),
        ],
    );
    let mut seeds = corpus("http");
    seeds.extend(golden);
    assert_decoder_total(0xD0C0_0008, &seeds, || HttpServerCodec);
    let responses = encoded(
        &mut HttpServerCodec,
        &[HttpResponse::json(200, r#"{"ok":true}"#)],
    );
    let mut seeds = corpus("http");
    seeds.extend(responses);
    assert_decoder_total(0xD0C0_0009, &seeds, || HttpClientCodec);
}

/// The corpus itself must already be handled without mutation: every file
/// decodes to `Ok` or `Err` directly.
#[test]
fn raw_corpus_never_panics() {
    for input in corpus("pgwire") {
        decode_all(&mut PgServerCodec::new(), &input);
    }
    for input in corpus("mysql") {
        decode_all(&mut MySqlCodec, &input);
    }
    for input in corpus("resp") {
        decode_all(&mut RespCodec::server(), &input);
    }
    for input in corpus("tds") {
        decode_all(&mut TdsCodec, &input);
    }
    for input in corpus("mongo") {
        decode_all(&mut MongoCodec, &input);
    }
    for input in corpus("http") {
        decode_all(&mut HttpServerCodec, &input);
    }
}
