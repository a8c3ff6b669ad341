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
//!
//! The same golden frames, pipelined into one stream per codec side, must
//! decode to the same frames in 1-, 7- and 1,460-byte reads as in one read
//! (a decoder that treats a fragmented frame differently from a whole one
//! loses data and gives the honeypot away). Two FNV-1a pins hold every
//! encoder's bytes: one over those streams, one over a corpus of every
//! other message variant and payload builder.

use decoy_base::rng::{for_all, mutate, Rng};
use decoy_wire::buf::{Bytes, RecvBuf};
use decoy_wire::codec::Codec;
use decoy_wire::http::{
    encode_response_head, HttpClientCodec, HttpRequest, HttpResponse, HttpServerCodec,
};
use decoy_wire::mongo::bson::{encode_document, Bson, Document};
use decoy_wire::mongo::{MongoBody, MongoCodec, MongoMessage};
use decoy_wire::mysql::{self, Greeting, LoginRequest, MySqlCodec, MySqlPacket};
use decoy_wire::pgwire::{BackendMessage, FrontendMessage, PgClientCodec, PgServerCodec};
use decoy_wire::resp::{RespCodec, RespValue};
use decoy_wire::tds::{self, Login7, TdsCodec, TdsPacket};
use std::fmt::Debug;
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
            let mut buf = Vec::new();
            codec.encode(f, &mut buf).expect("golden frame encodes");
            buf
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
    let mut buf = RecvBuf::from(input.to_vec());
    for _ in 0..64 {
        match codec.decode(&mut buf) {
            Ok(Some(_)) if !buf.is_empty() => continue,
            _ => break,
        }
    }
}

/// PostgreSQL frontend messages, the server side's input.
fn pg_frontend() -> Vec<Vec<u8>> {
    encoded(
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
    )
}

/// PostgreSQL backend messages, the client side's input.
fn pg_backend() -> Vec<Vec<u8>> {
    encoded(
        &mut PgServerCodec::new(),
        &[
            BackendMessage::AuthenticationOk,
            BackendMessage::AuthenticationCleartextPassword,
        ],
    )
}

fn mysql_packets() -> Vec<Vec<u8>> {
    encoded(
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
    )
}

/// RESP values; both sides decode them.
fn resp_values() -> Vec<Vec<u8>> {
    encoded(
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
    )
}

/// Inline commands, which only the server side accepts.
fn resp_inline() -> Vec<Vec<u8>> {
    encoded(
        &mut RespCodec::client(),
        &[
            RespValue::Inline("PING".into()),
            RespValue::Inline("CONFIG GET dir".into()),
        ],
    )
}

fn tds_packets() -> Vec<Vec<u8>> {
    encoded(
        &mut TdsCodec,
        &[
            TdsPacket::eom(0x12, vec![0x00, 0x00, 0x1a, 0x00, 0x06, 0xff]),
            TdsPacket::eom(0x01, b"S\0E\0L\0E\0C\0T\0 \0@\0@\0".to_vec()),
        ],
    )
}

fn mongo_messages() -> Vec<Vec<u8>> {
    let mut hello = Document::new();
    hello.insert("hello", 1.0f64);
    hello.insert("$db", "admin");
    let mut find = Document::new();
    find.insert("find", "customers");
    find.insert("$db", "app");
    encoded(
        &mut MongoCodec,
        &[MongoMessage::msg(1, hello), MongoMessage::msg(2, find)],
    )
}

/// HTTP requests, the server side's input.
fn http_requests() -> Vec<Vec<u8>> {
    encoded(
        &mut HttpClientCodec,
        &[
            HttpRequest::new("GET", "/"),
            HttpRequest::new("POST", "/_search").with_body(
                "application/json",
                br#"{"query":{"match_all":{}}}"#.to_vec(),
            ),
        ],
    )
}

/// HTTP responses, the client side's input.
fn http_responses() -> Vec<Vec<u8>> {
    encoded(
        &mut HttpServerCodec,
        &[HttpResponse::json(200, r#"{"ok":true}"#)],
    )
}

/// `corpus(proto)` followed by `golden`.
fn seeded(proto: &str, golden: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let mut seeds = corpus(proto);
    seeds.extend(golden);
    seeds
}

#[test]
fn pgwire_decoders_are_total() {
    assert_decoder_total(
        0xD0C0_0001,
        &seeded("pgwire", pg_frontend()),
        PgServerCodec::new,
    );
    // the client side parses honeypot replies; same wall applies
    assert_decoder_total(
        0xD0C0_0002,
        &seeded("pgwire", pg_backend()),
        PgClientCodec::new,
    );
}

#[test]
fn mysql_decoder_is_total() {
    assert_decoder_total(0xD0C0_0003, &seeded("mysql", mysql_packets()), || {
        MySqlCodec
    });
}

#[test]
fn resp_decoders_are_total() {
    let seeds = seeded("resp", resp_values());
    assert_decoder_total(0xD0C0_0004, &seeds, RespCodec::server);
    assert_decoder_total(0xD0C0_0005, &seeds, RespCodec::client);
}

#[test]
fn tds_decoder_is_total() {
    assert_decoder_total(0xD0C0_0006, &seeded("tds", tds_packets()), || TdsCodec);
}

#[test]
fn mongo_decoder_is_total() {
    assert_decoder_total(0xD0C0_0007, &seeded("mongo", mongo_messages()), || {
        MongoCodec
    });
}

#[test]
fn http_decoders_are_total() {
    assert_decoder_total(0xD0C0_0008, &seeded("http", http_requests()), || {
        HttpServerCodec
    });
    assert_decoder_total(0xD0C0_0009, &seeded("http", http_responses()), || {
        HttpClientCodec
    });
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

/// Decode `stream` with a fresh `codec`, fed in `chunk`-byte reads, every
/// frame drained after each read.
fn decode_in_reads<C: Codec>(mut codec: C, stream: &[u8], chunk: usize) -> Vec<C::In> {
    let mut buf = RecvBuf::default();
    let mut frames = Vec::new();
    for read in stream.chunks(chunk) {
        buf.extend_from_slice(read);
        while let Some(frame) = codec.decode(&mut buf).expect("golden stream decodes") {
            frames.push(frame);
        }
    }
    assert!(buf.is_empty(), "{} bytes left undecoded", buf.len());
    frames
}

/// `frames` pipelined into one stream decode to one frame each in a single
/// read, and to exactly those frames in 1-, 7- and 1,460-byte reads.
fn assert_split_reads_agree<C: Codec>(side: &str, mk: impl Fn() -> C, frames: &[Vec<u8>])
where
    C::In: PartialEq + Debug,
{
    let stream = frames.concat();
    let whole = decode_in_reads(mk(), &stream, stream.len());
    assert_eq!(
        whole.len(),
        frames.len(),
        "{side}: one frame per golden frame"
    );
    for chunk in [1, 7, 1460] {
        let split = decode_in_reads(mk(), &stream, chunk);
        assert_eq!(split, whole, "{side} in {chunk}-byte reads");
    }
}

#[test]
fn split_reads_decode_the_one_shot_frames() {
    assert_split_reads_agree("pgwire server", PgServerCodec::new, &pg_frontend());
    assert_split_reads_agree("pgwire client", PgClientCodec::new, &pg_backend());
    assert_split_reads_agree("mysql", || MySqlCodec, &mysql_packets());
    assert_split_reads_agree("resp server", RespCodec::server, &resp_values());
    assert_split_reads_agree("resp client", RespCodec::client, &resp_values());
    assert_split_reads_agree("resp inline", RespCodec::server, &resp_inline());
    assert_split_reads_agree("tds", || TdsCodec, &tds_packets());
    assert_split_reads_agree("mongo", || MongoCodec, &mongo_messages());
    assert_split_reads_agree("http server", || HttpServerCodec, &http_requests());
    assert_split_reads_agree("http client", || HttpClientCodec, &http_responses());
}

/// The 64-bit FNV-1a hash of `chunks`, concatenated.
fn fnv1a(chunks: &[Vec<u8>]) -> u64 {
    chunks
        .iter()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Every encoder path the golden streams miss: each other message variant,
/// the payload builders and the encode-into helpers.
fn encoder_corpus() -> Vec<Vec<u8>> {
    let mut out = encoded(
        &mut PgServerCodec::new(),
        &[
            BackendMessage::AuthenticationMd5Password { salt: [1, 2, 3, 4] },
            BackendMessage::ParameterStatus {
                name: "server_version".into(),
                value: "14.5".into(),
            },
            BackendMessage::BackendKeyData {
                pid: 7,
                secret: 0xdead_beef,
            },
            BackendMessage::ReadyForQuery { status: b'I' },
            BackendMessage::auth_failed("postgres"),
            BackendMessage::syntax_error("SELEC"),
            BackendMessage::RowDescription {
                columns: vec!["version".into(), "x".into()],
            },
            BackendMessage::DataRow {
                values: vec![Some("PostgreSQL 14.5".into()), None],
            },
            BackendMessage::CommandComplete {
                tag: "SELECT 1".into(),
            },
            BackendMessage::EmptyQueryResponse,
            BackendMessage::SslRefused,
        ],
    );
    out.extend(encoded(
        &mut PgClientCodec::new(),
        &[
            FrontendMessage::CancelRequest {
                pid: 7,
                secret: 0xdead_beef,
            },
            FrontendMessage::Other {
                tag: b'P',
                body: Bytes::from_static(b"\0SELECT 1\0\0\0"),
            },
        ],
    ));
    out.extend(encoded(
        &mut RespCodec::server(),
        &[
            RespValue::Error("ERR unknown command".into()),
            RespValue::Integer(-7),
            RespValue::NullArray,
            RespValue::Array(vec![
                RespValue::bulk(b"\x00\xffbin"),
                RespValue::Array(vec![RespValue::Integer(1), RespValue::NullBulk]),
            ]),
        ],
    ));
    out.push(
        Greeting::honeypot_default(7, *b"abcdefghijklmnopqrst")
            .build()
            .to_vec(),
    );
    out.push(
        LoginRequest::cleartext("root", "123456", Some("mysql"))
            .build()
            .to_vec(),
    );
    let native = LoginRequest {
        capabilities: mysql::CLIENT_PROTOCOL_41
            | mysql::CLIENT_SECURE_CONNECTION
            | mysql::CLIENT_PLUGIN_AUTH,
        username: "sa".into(),
        auth_response: Bytes::from_static(&[0xde, 0xad]),
        database: None,
        auth_plugin: Some("mysql_native_password".into()),
    };
    out.push(native.build().to_vec());
    out.push(mysql::build_err(1064, "42000", "You have an error in your SQL syntax").to_vec());
    let mut into = b"prefix".to_vec();
    mysql::build_err_into(1045, "28", "short state", &mut into);
    out.push(into);
    out.push(mysql::access_denied("root", "10.0.0.1", true).to_vec());
    out.push(mysql::access_denied("admin", "::1", false).to_vec());
    out.push(mysql::build_ok().to_vec());
    out.push(tds::honeypot_prelogin_response().to_vec());
    let login = Login7 {
        hostname: "kali".into(),
        username: "sa".into(),
        password: "P@ssw0rd".into(),
        appname: "sqlmap".into(),
        servername: "10.0.0.5".into(),
        database: "master".into(),
    };
    out.push(login.build().to_vec());
    out.push(tds::build_login_failed("sa").to_vec());
    let mut every = Document::new();
    every.insert("d", 1.5f64);
    every.insert("s", "text");
    every.insert("doc", Document::new().with("k", 1i64));
    every.insert("arr", vec![Bson::Int32(1), Bson::String("two".into())]);
    every.insert("bin", Bson::Binary(vec![0, 1, 2]));
    every.insert("oid", Bson::ObjectId([7; 12]));
    every.insert("b", true);
    every.insert("t", Bson::DateTime(1_700_000_000_000));
    every.insert("n", Bson::Null);
    every.insert("i32", Bson::Int32(-3));
    every.insert("i64", Bson::Int64(1 << 40));
    let mut doc_bytes = Vec::new();
    encode_document(&every, &mut doc_bytes);
    out.push(doc_bytes);
    let query = MongoMessage {
        request_id: 9,
        response_to: 0,
        body: MongoBody::Query {
            collection: "admin.$cmd".into(),
            skip: 0,
            limit: -1,
            query: Document::new().with("isMaster", 1i64),
        },
    };
    let sections = MongoBody::Msg {
        flags: 1,
        doc: Document::new().with("insert", "c").with("$db", "app"),
        sequences: vec![(
            "documents".into(),
            vec![every.clone(), Document::new().with("x", 1i64)],
        )],
    };
    let unknown = MongoBody::Unknown {
        opcode: 2004,
        bytes: Bytes::from_static(b"raw"),
    };
    out.extend(encoded(
        &mut MongoCodec,
        &[
            MongoMessage {
                request_id: 3,
                response_to: 0,
                body: sections,
            },
            MongoMessage::reply(&query, vec![every.clone()]),
            MongoMessage::msg_reply(&query, Document::new().with("ok", 1.0f64)),
            query,
            MongoMessage {
                request_id: 4,
                response_to: 0,
                body: unknown,
            },
        ],
    ));
    let custom = HttpResponse {
        status: 401,
        reason: "Unauthorized".into(),
        headers: vec![("WWW-Authenticate".into(), "Basic".into())],
        body: Bytes::from_static(b"denied"),
    };
    out.extend(encoded(
        &mut HttpServerCodec,
        &[
            HttpResponse::json(404, r#"{"error":"index_not_found"}"#),
            custom.clone(),
        ],
    ));
    let mut head = Vec::new();
    encode_response_head(&custom, &mut head);
    out.push(head);
    let bare = HttpRequest {
        method: "PUT".into(),
        target: "/x?y=1".into(),
        version: "HTTP/1.0".into(),
        headers: vec![],
        body: Bytes::from_static(b"abc"),
    };
    out.extend(encoded(&mut HttpClientCodec, &[bare]));
    out
}

/// No encoder's bytes move. Both pins were computed from the encoders as
/// they stood over the `bytes` crate, before the in-repo buffer replaced
/// it: 621 bytes of golden streams and 2,065 bytes over 38 corpus entries.
#[test]
fn encoders_keep_their_bytes() {
    let streams: Vec<Vec<u8>> = [
        pg_frontend(),
        pg_backend(),
        mysql_packets(),
        resp_values(),
        resp_inline(),
        tds_packets(),
        mongo_messages(),
        http_requests(),
        http_responses(),
    ]
    .concat();
    assert_eq!(streams.concat().len(), 621);
    assert_eq!(fnv1a(&streams), 0x7f71_ef82_dda8_0806);
    let corpus = encoder_corpus();
    assert_eq!((corpus.len(), corpus.concat().len()), (38, 2065));
    assert_eq!(fnv1a(&corpus), 0x7df1_9380_8b75_2baa);
}
