//! Substrate micro/ablation benches: GeoIP trie vs linear scan, event-store
//! ingest, replay-mode ablation (direct emission vs full TCP), and an
//! end-to-end network login exchange (the cost of one of the paper's
//! 18 M brute-force attempts through the real TCP + TDS stack).
//!
//! Run: `cargo bench -p decoy-bench --bench substrate`

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use decoy_base::time::EXPERIMENT_START;
use decoy_base::Rng;
use decoy_geo::GeoDb;
use decoy_store::{
    ConfigVariant, Dbms, Event, EventKind, EventStore, HoneypotId, InteractionLevel,
};
use std::hint::black_box;
use std::net::IpAddr;

fn bench(c: &mut Criterion) {
    // --- GeoIP longest-prefix match: trie vs linear oracle -------------
    let geo = GeoDb::builtin();
    let mut rng = Rng::seed_from_u64(7);
    let asns: Vec<u32> = geo.asns().collect();
    let addrs: Vec<IpAddr> = (0..1024)
        .map(|i| {
            if i % 2 == 0 {
                let asn = asns[rng.gen_range(0..asns.len())];
                IpAddr::V4(geo.sample_ip(asn, None, &mut rng).unwrap())
            } else {
                IpAddr::V4(std::net::Ipv4Addr::from(rng.next_u64() as u32))
            }
        })
        .collect();
    // linear oracle: scan every prefix of every AS
    let prefix_table: Vec<(u32, u32)> = asns
        .iter()
        .flat_map(|&asn| {
            geo.prefixes_of(asn, None)
                .into_iter()
                .map(move |p| (u32::from(p.base), asn))
        })
        .collect();
    let mut group = c.benchmark_group("geo_lookup");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.bench_function("trie", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &ip in &addrs {
                hits += geo.lookup(ip).is_some() as usize;
            }
            black_box(hits)
        })
    });
    group.bench_function("linear_scan_ablation", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &ip in &addrs {
                if let IpAddr::V4(v4) = ip {
                    let addr = u32::from(v4);
                    hits += prefix_table
                        .iter()
                        .any(|(base, _)| addr & 0xffff_0000 == *base)
                        as usize;
                }
            }
            black_box(hits)
        })
    });
    group.finish();

    // --- event-store ingest ---------------------------------------------
    let template = Event {
        ts: EXPERIMENT_START,
        honeypot: HoneypotId::new(
            Dbms::Mssql,
            InteractionLevel::Low,
            ConfigVariant::MultiService,
            0,
        ),
        src: "60.0.0.1".parse().unwrap(),
        session: 1,
        kind: EventKind::LoginAttempt {
            username: "sa".into(),
            password: "123".into(),
            success: false,
        },
    };
    let mut group = c.benchmark_group("event_store");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("ingest_10k_logins", |b| {
        b.iter(|| {
            let store = EventStore::new();
            for i in 0..10_000u32 {
                let mut e = template.clone();
                e.src = IpAddr::V4(std::net::Ipv4Addr::from(0x3c00_0000 | (i % 512)));
                store.log(e);
            }
            black_box(store.len())
        })
    });
    group.finish();

    // --- replay-mode ablation: direct emission cost per session -----------
    let geo2 = GeoDb::builtin();
    let population = decoy_agents::population::build_population(
        &decoy_agents::population::PopulationConfig::scaled(3, 0.005),
        &geo2,
    );
    let schedule = decoy_agents::schedule::build_schedule(&population, EXPERIMENT_START, 3);
    let plan = decoy_core::deployment::DeploymentPlan::scaled(3, 0.1);
    println!(
        "replay ablation: {} planned sessions, {} instances",
        schedule.len(),
        plan.len()
    );
    let mut group = c.benchmark_group("replay");
    group.sample_size(10);
    group.throughput(Throughput::Elements(schedule.len() as u64));
    group.bench_function("direct_mode_emission", |b| {
        b.iter(|| {
            let store = EventStore::new();
            let mut counters = vec![0u64; plan.len()];
            for session in &schedule {
                let Some(idx) = plan.pick(&session.target, session.src) else {
                    continue;
                };
                let mut sink = decoy_agents::direct::DirectSink {
                    store: &store,
                    honeypot: plan.instances[idx].id,
                    session_seq: &mut counters[idx],
                    fake_entries: &[],
                };
                decoy_agents::direct::emit_session(&mut sink, session);
            }
            black_box(store.len())
        })
    });
    group.finish();

    // --- end-to-end TDS login exchange over real TCP ---------------------
    {
        use decoy_agents::actors::TargetSelector;
        use decoy_agents::schedule::PlannedSession;
        use decoy_agents::scripts::SessionScript;
        use decoy_base::time::Clock;
        use decoy_fleet::deploy::{spawn, HoneypotSpec};
        use decoy_fleet::driver::run_session;
        use decoy_store::HoneypotId;

        let runtime = tokio::runtime::Builder::new_multi_thread()
            .worker_threads(2)
            .enable_all()
            .build()
            .expect("runtime");
        let store = EventStore::new();
        let id = HoneypotId::new(
            Dbms::Mssql,
            InteractionLevel::Low,
            ConfigVariant::MultiService,
            0,
        );
        let hp = runtime
            .block_on(spawn(
                store.clone(),
                HoneypotSpec::loopback(id, Clock::simulated(), 1),
            ))
            .expect("spawn honeypot");
        let addr = hp.addr();
        let session = PlannedSession {
            ts: EXPERIMENT_START,
            actor_idx: 0,
            src: std::net::Ipv4Addr::new(60, 36, 0, 9),
            target: TargetSelector::low_multi(Dbms::Mssql),
            script: SessionScript::MssqlBrute {
                creds: vec![("sa".to_string(), "123".to_string())],
            },
        };
        let mut group = c.benchmark_group("network");
        group.throughput(Throughput::Elements(1));
        group.bench_function("tds_login_exchange_e2e", |b| {
            b.iter(|| {
                let outcome = runtime.block_on(run_session(addr, &session));
                assert_eq!(outcome.errors, 0);
                black_box(outcome)
            })
        });
        group.finish();
        println!(
            "e2e note: each iteration = TCP connect + PROXY header + PRELOGIN + LOGIN7 + error reply ({} events logged)",
            store.len()
        );
        runtime.block_on(hp.shutdown());
    }
}
criterion_group! {
    name = benches;
    // experiment analyses run hundreds of ms per iteration; 10 samples keep
    // the full `cargo bench` sweep in minutes
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
