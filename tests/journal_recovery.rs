//! Journal crash-recovery campaign: recovery is total and prefix-correct.
//!
//! The durable journal's contract (DESIGN.md §8) is that replaying any
//! corrupted on-disk state (a) never panics and (b) yields a *prefix* of
//! the events that were appended — corruption may cost the tail, never
//! invent, reorder, or duplicate records. This harness attacks that
//! contract three ways:
//!
//! 1. A seeded mutation campaign: `for_all` runs 10,000 mutants drawn by
//!    `decoy_base::rng::mutate_journal` (byte-level damage inside
//!    segments plus whole-segment drops, duplicates and reorders). A
//!    failing mutant is printed with its case seed, which reproduces it
//!    exactly. The FNV-1a digest of every mutant's recovered length and
//!    stats must equal its pin, so strict replay recovers exactly what it
//!    did when the pin was taken. Each mutant segment also goes through
//!    the segment decoder (`decode_segment`), which must not panic and may
//!    only yield original records at their own sequence numbers, and
//!    through its collecting wrapper (`SegmentBatch::decode`), which must
//!    yield the same records.
//! 2. An exhaustive torn-tail sweep: every possible truncation point of a
//!    single-segment journal must recover silently (a torn final segment
//!    is normal crash debris, not an error).
//! 3. An end-to-end spool test: a run persisted through the event store's
//!    journal sink, abandoned crash-style (destructors skipped), must
//!    replay into a byte-identical report.
//!
//! The tests are plain `#[test]`s over std-only crates (`decoy-core`,
//! `decoy-store` and `decoy-base`), so `cargo test` at the root runs them
//! with no registry.

use decoy_base::rng::{for_all, mutate_journal, Rng};
use decoy_base::time::Timestamp;
use decoy_core::report::Report;
use decoy_core::runner::{run_direct, ExperimentConfig};
use decoy_store::journal::encode;
use decoy_store::{
    decode_segment, recover_events, ConfigVariant, Dbms, Event, EventKind, HoneypotId,
    InteractionLevel, SegmentBatch,
};
use std::net::{IpAddr, Ipv4Addr};

/// The campaign's FNV-1a digest of every mutant's recovered length and
/// stats. A change to strict replay that moves any recovered count, stat
/// or error moves the digest.
const CAMPAIGN_DIGEST: u64 = 0xafea_8a61_d279_aa56;

/// Fold `bytes` into a 64-bit FNV-1a hash.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Deterministic event factory covering every kind the journal encodes.
fn sample_event(i: u64) -> Event {
    let kind = match i % 6 {
        0 => EventKind::Connect,
        1 => EventKind::LoginAttempt {
            username: format!("user{i}"),
            password: "hunter2".into(),
            success: i % 5 == 0,
        },
        2 => EventKind::Command {
            action: "INFO".into(),
            raw: format!("INFO server {i}"),
        },
        3 => EventKind::Payload {
            len: 64 + i as usize,
            recognized: if i % 2 == 0 {
                Some("rdp-scan".into())
            } else {
                None
            },
            preview: format!("\\x03\\x00 payload {i}"),
        },
        4 => EventKind::Malformed {
            detail: format!("bad frame at byte {i}"),
        },
        _ => EventKind::Disconnect,
    };
    Event {
        ts: Timestamp::from_millis(1000 * i),
        honeypot: HoneypotId::new(
            Dbms::Redis,
            InteractionLevel::Medium,
            ConfigVariant::FakeData,
            3,
        ),
        src: IpAddr::V4(Ipv4Addr::new(203, 0, 113, (i % 251) as u8 + 1)),
        session: i / 4,
        kind,
    }
}

/// A reference journal: `n` events split across segments of `per_seg`.
fn build_journal(n: u64, per_seg: usize) -> (Vec<Event>, Vec<Vec<u8>>) {
    let events: Vec<Event> = (0..n).map(sample_event).collect();
    let segments: Vec<Vec<u8>> = events
        .chunks(per_seg)
        .enumerate()
        .map(|(i, chunk)| encode::encode_segment((i * per_seg) as u64, chunk))
        .collect();
    (events, segments)
}

#[test]
fn mutated_journals_recover_a_prefix_without_panicking() {
    let (original, segments) = build_journal(200, 50);
    let mut digest = 0xcbf2_9ce4_8422_2325; // the FNV-1a offset basis
    let gen = |rng: &mut Rng| mutate_journal(rng, &segments);
    for_all(0x000D_ECAF_5EED, 10_000, gen, |mutant| {
        for (index, segment) in (0u32..).zip(mutant) {
            check_segment_decoder(&original, segment, index);
        }
        let (recovered, stats) = recover_events(mutant.clone());
        assert!(
            original.starts_with(&recovered),
            "recovered {} events that are not a prefix of the original",
            recovered.len()
        );
        assert_eq!(
            stats.records_kept as usize,
            recovered.len(),
            "stats disagree with the replayed stream"
        );
        digest = fnv1a(digest, format!("{:?}", (recovered.len(), stats)).as_bytes());
    });
    assert_eq!(
        digest, CAMPAIGN_DIGEST,
        "strict replay recovered differently"
    );
}

/// Decode one mutant segment on its own, as the shard join does: no panic,
/// every record yielded is the original record at its sequence number
/// (`original[first_seq..][..n]`), and the collecting path agrees.
fn check_segment_decoder(original: &[Event], segment: &[u8], index: u32) {
    let mut seen = Vec::new();
    let verdict = decode_segment(segment, index, |seq, event| {
        seen.push((seq, event.to_event()));
    });
    let (seqs, records): (Vec<u64>, Vec<Event>) = seen.into_iter().unzip();
    for (k, seq) in (0u64..).zip(&seqs) {
        assert_eq!(
            *seq,
            verdict.first_seq + k,
            "segment {index}: records out of sequence"
        );
    }
    if !records.is_empty() {
        let at_their_seqs = usize::try_from(verdict.first_seq)
            .ok()
            .and_then(|first| original.get(first..))
            .and_then(|rest| rest.get(..records.len()));
        assert_eq!(
            at_their_seqs,
            Some(records.as_slice()),
            "segment {index}: records differ from the original at their sequence numbers"
        );
    }
    assert_eq!(
        SegmentBatch::decode(segment, index).events,
        records,
        "segment {index}: the collecting path disagrees with the visitor"
    );
}

#[test]
fn every_torn_tail_recovers_silently() {
    let (original, segments) = build_journal(40, 64);
    let [segment] = segments.as_slice() else {
        panic!("expected a single segment");
    };
    for cut in 0..=segment.len() {
        let torn = vec![segment[..cut].to_vec()];
        let (recovered, stats) = recover_events(torn);
        assert!(
            original.starts_with(&recovered),
            "cut at {cut}: not a prefix"
        );
        assert!(
            stats.error.is_none(),
            "cut at {cut}: a torn final segment must truncate silently, got {:?}",
            stats.error
        );
        assert_eq!(stats.records_kept as usize, recovered.len());
    }
    // the untorn journal replays completely
    let (recovered, stats) = recover_events(vec![segment.clone()]);
    assert_eq!(recovered, original);
    assert!(stats.is_clean());
}

#[test]
fn clean_multi_segment_journal_replays_exactly() {
    let (original, segments) = build_journal(200, 17);
    let (recovered, stats) = recover_events(segments);
    assert_eq!(recovered, original);
    assert!(
        stats.is_clean(),
        "clean replay reported {}",
        stats.summary()
    );
    assert_eq!(stats.records_kept, 200);
}

/// Spool a deterministic run, abandon it the way a crash would (no close,
/// destructors skipped via `mem::forget`), then rebuild the report from the
/// journal alone. `run_direct` ends with a durability barrier
/// (`journal_sync`), so the replayed report must be byte-identical to the
/// live one.
#[test]
fn crashed_spool_replays_into_an_identical_report() {
    let dir = std::env::temp_dir().join(format!(
        "decoy-journal-it-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
    ));
    let config = ExperimentConfig::direct(11, 0.005);
    let result = run_direct(config.clone().persist_to(&dir)).expect("spooled run");
    let live_report = Report::generate(&result).render_text();
    assert!(!result.store.is_empty(), "run produced no events");
    // crash: leak the store (and its journal writer) so no Drop flush runs
    std::mem::forget(result);

    let (report, stats) =
        Report::from_journal_streaming(config, &dir).expect("recovery from a synced journal");
    assert!(
        stats.is_clean(),
        "synced journal recovered dirty: {}",
        stats.summary()
    );
    assert_eq!(
        report.render_text(),
        live_report,
        "replayed report differs from the live report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
