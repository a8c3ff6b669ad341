//! Property-based tests for the one-pass `AnalysisFrame` and the store's
//! session queries: for arbitrary event sequences, every frame-derived
//! aggregate (the session count included) must equal a naive linear fold
//! over the raw events, and a session's events read from the store or the
//! frame must equal a linear filter over the raw sequence.

use decoy_analysis::frame::{AnalysisFrame, FrameKind, Partition};
use decoy_base::rng::{for_all, Rng};
use decoy_base::time::EXPERIMENT_START;
use decoy_geo::GeoDb;
use decoy_store::{
    ConfigVariant, Dbms, Event, EventKind, EventStore, HoneypotId, InteractionLevel,
};
use std::collections::{HashMap, HashSet};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::ops::RangeInclusive;

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const UPPER: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
const LOWER_DIGITS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
const LOWER_DASH: &[u8] = b"abcdefghijklmnopqrstuvwxyz-";

/// One of `items`, uniformly.
fn pick<T: Copy>(rng: &mut Rng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// A string over `alphabet` whose length is drawn from `len`.
fn text(rng: &mut Rng, alphabet: &[u8], len: RangeInclusive<usize>) -> String {
    (0..rng.gen_range(len))
        .map(|_| char::from(pick(rng, alphabet)))
        .collect()
}

/// Printable ASCII (`[ -~]`) whose length is drawn from `len`.
fn printable(rng: &mut Rng, len: RangeInclusive<usize>) -> String {
    (0..rng.gen_range(len))
        .map(|_| char::from(rng.gen_range(b' '..=b'~')))
        .collect()
}

fn arb_kind(rng: &mut Rng) -> EventKind {
    match rng.gen_range(0..6) {
        0 => EventKind::Connect,
        1 => EventKind::Disconnect,
        2 => EventKind::LoginAttempt {
            username: text(rng, LOWER, 1..=6),
            password: text(rng, LOWER_DIGITS, 0..=8),
            success: rng.gen_bool(0.5),
        },
        3 => EventKind::Command {
            action: text(rng, UPPER, 2..=8),
            raw: printable(rng, 0..=12),
        },
        4 => EventKind::Payload {
            len: rng.gen_range(0..512),
            recognized: rng.gen_bool(0.5).then(|| text(rng, LOWER_DASH, 2..=8)),
            preview: printable(rng, 0..=8),
        },
        _ => EventKind::Malformed {
            detail: printable(rng, 0..=12),
        },
    }
}

/// Mostly random IPv4 sources, plus a small pool of addresses that collide
/// as sessions and must stay apart: `0.0.0.1` vs `::1`, and `1.2.3.4` vs
/// its IPv4-mapped IPv6 form.
fn arb_src(rng: &mut Rng) -> IpAddr {
    if rng.gen_bool(0.5) {
        IpAddr::from(rng.gen_range(0..=u32::MAX).to_be_bytes())
    } else {
        pick(
            rng,
            &[
                IpAddr::from([0, 0, 0, 1]),
                IpAddr::V6(Ipv6Addr::LOCALHOST),
                IpAddr::from([1, 2, 3, 4]),
                IpAddr::V6(Ipv4Addr::new(1, 2, 3, 4).to_ipv6_mapped()),
            ],
        )
    }
}

fn arb_event(rng: &mut Rng) -> Event {
    let ts = EXPERIMENT_START.add_millis(rng.gen_range(0..1_000_000));
    let dbms = pick(
        rng,
        &[
            Dbms::Mssql,
            Dbms::MySql,
            Dbms::Postgres,
            Dbms::Redis,
            Dbms::MongoDb,
            Dbms::Elastic,
        ],
    );
    let level = pick(
        rng,
        &[
            InteractionLevel::Low,
            InteractionLevel::Medium,
            InteractionLevel::High,
        ],
    );
    let config = pick(
        rng,
        &[
            ConfigVariant::Default,
            ConfigVariant::FakeData,
            ConfigVariant::LoginDisabled,
            ConfigVariant::MultiService,
            ConfigVariant::SingleService,
        ],
    );
    Event {
        ts,
        honeypot: HoneypotId::new(dbms, level, config, rng.gen_range(0..3)),
        src: arb_src(rng),
        session: rng.gen_range(0..4),
        kind: arb_kind(rng),
    }
}

fn arb_events(rng: &mut Rng) -> Vec<Event> {
    (0..rng.gen_range(0..60)).map(|_| arb_event(rng)).collect()
}

/// Frame aggregates (per-IP event counts, per-DBMS login counts,
/// session counts, partition sizes) equal a naive fold over the raw
/// event sequence.
#[test]
fn frame_aggregates_match_naive_fold() {
    for_all(0xa66, 64, arb_events, |events| {
        let store = EventStore::new();
        store.log_many(events.clone());
        let geo = GeoDb::builtin();
        let frame = AnalysisFrame::build(&store, &geo);

        // naive linear fold over the raw events
        let mut naive_per_ip: HashMap<IpAddr, usize> = HashMap::new();
        let mut naive_logins: HashMap<Dbms, usize> = HashMap::new();
        let mut naive_sessions: HashSet<(HoneypotId, IpAddr, u64)> = HashSet::new();
        let mut naive_low = 0usize;
        for e in events {
            *naive_per_ip.entry(e.src).or_default() += 1;
            if matches!(e.kind, EventKind::LoginAttempt { .. }) {
                *naive_logins.entry(e.honeypot.dbms).or_default() += 1;
            }
            naive_sessions.insert((e.honeypot, e.src, e.session));
            if e.honeypot.level == InteractionLevel::Low {
                naive_low += 1;
            }
        }

        // the same aggregates off the frame
        let mut frame_per_ip: HashMap<IpAddr, usize> = HashMap::new();
        let mut frame_logins: HashMap<Dbms, usize> = HashMap::new();
        for e in frame.events() {
            *frame_per_ip.entry(frame.src(e)).or_default() += 1;
            if matches!(e.kind, FrameKind::LoginAttempt { .. }) {
                *frame_logins.entry(e.honeypot.dbms).or_default() += 1;
            }
        }
        assert_eq!(frame.len(), events.len());
        assert_eq!(frame_per_ip, naive_per_ip);
        assert_eq!(frame_logins, naive_logins);
        assert_eq!(frame.session_count(), naive_sessions.len());
        assert_eq!(store.session_count(), naive_sessions.len());
        // the partitions tile the frame exactly
        assert_eq!(frame.view(Partition::Low).len(), naive_low);
        assert_eq!(
            frame.view(Partition::Low).len() + frame.view(Partition::MedHigh).len(),
            frame.view(Partition::All).len()
        );
        // every distinct source got enriched exactly once
        assert_eq!(frame.distinct_sources(), frame_per_ip_len(events));
    });
}

/// The store's session queries and a filter over the frame's events
/// both agree with a linear filter over the raw sequence, preserving
/// log order within each session.
#[test]
fn session_queries_match_linear_filter() {
    for_all(0x5e55, 64, arb_events, |events| {
        let store = EventStore::new();
        // exercise the single-event `log` path (log_many is covered above)
        for e in events.clone() {
            store.log(e);
        }
        for (hp, key) in store.session_keys() {
            let queried = store.by_session(hp, key);
            let expected: Vec<Event> = events
                .iter()
                .filter(|e| e.honeypot == hp && e.src == key.src && e.session == key.session)
                .cloned()
                .collect();
            assert!(!queried.is_empty(), "session_keys lists an empty session");
            assert_eq!(queried, expected);
        }

        let geo = GeoDb::builtin();
        let frame = AnalysisFrame::build(&store, &geo);
        assert_eq!(frame.session_count(), store.session_count());
        for (hp, key) in store.session_keys() {
            let frame_events: Vec<_> = frame
                .events()
                .iter()
                .filter(|e| e.honeypot == hp && frame.src(e) == key.src && e.session == key.session)
                .collect();
            let store_events = store.by_session(hp, key);
            assert_eq!(frame_events.len(), store_events.len());
            for (f, s) in frame_events.iter().zip(&store_events) {
                assert_eq!(f.ts, s.ts);
                assert_eq!(f.honeypot, s.honeypot);
                assert_eq!(frame.src(f), s.src);
                assert_eq!(f.session, s.session);
            }
        }
    });
}

fn frame_per_ip_len(events: &[Event]) -> usize {
    events.iter().map(|e| e.src).collect::<HashSet<_>>().len()
}
