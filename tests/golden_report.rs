//! The golden pin of the paper report: every generation path renders the
//! same bytes, and those bytes are the committed `tests/golden/report.txt`.
//!
//! The golden is the batch report of `ExperimentConfig::direct(7, 0.005)`.
//! The streamed journal fold (`from_journal_streaming`), a drained
//! `LiveReport`, and the shard join (`from_shards`) must reproduce the batch
//! report (`Report::generate`) byte for byte, and the batch report must
//! equal the golden. A change that moves any number in the report fails
//! here and must regenerate the golden deliberately. Strict replay of eight
//! damaged copies of the golden run's journal must recover literal pinned
//! stats, and the streamed fold the same stats as `recover_full_store`; the
//! shard join of damaged shards must recover exactly what a serial fold of
//! their segments recovers. The run's Appendix-B JSON-lines export keeps its
//! pinned digest and imports back into the same events.
//!
//! The population is drawn by `decoy_base::Rng`, the workspace's one
//! seeded generator, so every build draws the golden's population.
//!
//! The tests are plain `#[test]`s over `run_direct`. They need only
//! `decoy-core` and `decoy-store`, std-only crates, so `cargo test` at the
//! root runs them with no registry.

use decoy_core::report::{LiveReport, Report};
use decoy_core::runner::{run_direct, ExperimentConfig, ExperimentResult};
use decoy_store::{
    recover_full_store, EventKindRef, EventStore, JournalConfig, JournalError, JournalErrorKind,
    JournalReader, JournalWriter, RecoveryStats,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const GOLDEN: &str = include_str!("golden/report.txt");

fn config() -> ExperimentConfig {
    ExperimentConfig::direct(7, 0.005)
}

/// One run shared by every test in this binary.
fn shared() -> &'static ExperimentResult {
    static RUN: OnceLock<ExperimentResult> = OnceLock::new();
    RUN.get_or_init(|| run_direct(config()).expect("direct run"))
}

/// A fresh per-test scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decoy-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Journal a finished run's store into `dir` with 16 KiB segments, forcing
/// the streaming paths to cross many rotation boundaries; returns the
/// segment files in replay order.
fn spool_store(store: &EventStore, dir: &Path) -> Vec<PathBuf> {
    let journal = JournalWriter::open(JournalConfig {
        segment_bytes: 16 * 1024,
        fsync: false,
        ..JournalConfig::spool(dir)
    })
    .unwrap();
    store.read(|log| log.iter().for_each(|event| journal.append(event)));
    journal.close().unwrap();
    let mut segs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "dcyj"))
        .collect();
    segs.sort();
    assert!(segs.len() >= 3, "need several segments, got {}", segs.len());
    segs
}

fn copy_into(segs: &[PathBuf], dir: &Path) {
    std::fs::create_dir_all(dir).unwrap();
    for seg in segs {
        std::fs::copy(seg, dir.join(seg.file_name().unwrap())).unwrap();
    }
}

#[test]
fn batch_report_renders_the_golden() {
    assert_eq!(Report::generate(shared()).render_text(), GOLDEN);
}

#[test]
fn every_report_path_renders_the_batch_report() {
    let result = shared();
    let batch = Report::generate(result).render_text();

    let dir = scratch("paths");
    let segs = spool_store(&result.store, &dir);

    let (streamed, stats) = Report::from_journal_streaming(config(), &dir).unwrap();
    assert!(stats.is_clean(), "{}", stats.summary());
    assert_eq!(stats.records_kept as usize, result.store.len());
    assert_eq!(streamed.render_text(), batch, "from_journal_streaming");

    // a live tail over the finished journal drains into the same report
    let mut live = LiveReport::open(&config(), &dir);
    while live.poll().unwrap() > 0 {}
    assert!(live.journal_error().is_none(), "{:?}", live.journal_error());
    assert_eq!(live.events_seen() as usize, result.store.len());
    assert_eq!(live.render().render_text(), batch, "LiveReport");

    // shard join: alternate segments across two directories, passed in
    // scrambled order — the merge reassembles the global sequence
    let (shard_a, shard_b) = (dir.join("shard-a"), dir.join("shard-b"));
    let (even, odd): (Vec<_>, Vec<_>) = segs
        .iter()
        .cloned()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    copy_into(
        &even.into_iter().map(|(_, p)| p).collect::<Vec<_>>(),
        &shard_a,
    );
    copy_into(
        &odd.into_iter().map(|(_, p)| p).collect::<Vec<_>>(),
        &shard_b,
    );
    let (merged, merge_stats) = Report::from_shards(config(), &[&shard_b, &shard_a]).unwrap();
    assert!(merge_stats.error.is_none(), "{}", merge_stats.summary());
    assert_eq!(merge_stats.records_kept as usize, result.store.len());
    assert_eq!(merged.render_text(), batch, "from_shards");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Shard joins are lenient but not blind: a hole in the global sequence
/// range is surfaced in the stats while the report still renders.
#[test]
fn shard_join_detects_missing_segments() {
    let result = shared();
    let dir = scratch("gap");
    let segs = spool_store(&result.store, &dir);

    // shard A is missing the second segment; shard B replicates the first
    // (the duplicate must deduplicate, the hole must surface)
    let (shard_a, shard_b) = (dir.join("shard-a"), dir.join("shard-b"));
    let mut without_middle = segs.clone();
    without_middle.remove(1);
    copy_into(&without_middle, &shard_a);
    copy_into(&segs[..1], &shard_b);

    let (report, stats) = Report::from_shards(config(), &[&shard_a, &shard_b]).unwrap();
    let err = stats
        .error
        .expect("missing segment must surface as an error");
    assert_eq!(err.kind.label(), "sequence-gap", "{err}");
    assert!(
        (stats.records_kept as usize) < result.store.len(),
        "kept {} of {}",
        stats.records_kept,
        result.store.len()
    );
    assert!(!report.render_text().is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A [`RecoveryStats`] as literal values: records kept and dropped, bytes
/// truncated, segments scanned, and the first error's segment, offset and
/// label.
type Pinned = (u64, u64, u64, u32, Option<(u32, usize, &'static str)>);

fn pinned(stats: &RecoveryStats) -> Pinned {
    let error = stats.error.as_ref();
    (
        stats.records_kept,
        stats.records_dropped,
        stats.bytes_truncated,
        stats.segments_scanned,
        error.map(|e| (e.segment, e.offset, e.kind.label())),
    )
}

/// What strict replay recovers from each damaged copy of the golden run's
/// journal, in the order `streamed_fold_recovers_damaged_journals_like_full_recovery`
/// builds them.
const DAMAGED_JOURNAL_STATS: [Pinned; 8] = [
    (203510, 198071, 8211, 756, Some((378, 8185, "crc-mismatch"))),
    (203510, 198071, 13, 756, Some((378, 8185, "torn-record"))),
    (401687, 0, 11, 756, None),
    (203247, 198071, 10, 756, Some((378, 0, "header-truncated"))),
    (203247, 198071, 0, 755, Some((378, 8, "sequence-gap"))),
    (203772, 198596, 0, 757, Some((379, 8, "sequence-gap"))),
    (203247, 198596, 0, 756, Some((378, 8, "sequence-gap"))),
    (203247, 198071, 0, 756, Some((378, 0, "io"))),
];

/// Strict replay of a damaged journal recovers the pinned stats, damage
/// for damage, and the streamed report recovers what `recover_full_store`
/// does.
#[test]
fn streamed_fold_recovers_damaged_journals_like_full_recovery() {
    let result = shared();
    let dir = scratch("damage");
    let segs: Vec<Vec<u8>> = spool_store(&result.store, &dir.join("clean"))
        .iter()
        .map(|seg| std::fs::read(seg).unwrap())
        .collect();
    let (mid, last) = (segs.len() / 2, segs.len() - 1);
    // a journal lists its segment files in order; `None` is a directory
    // posing as a segment, which cannot be read
    let clean = || segs.iter().cloned().map(Some).collect::<Vec<_>>();
    let with = |pos: usize, bytes: Option<Vec<u8>>| {
        let mut damaged = clean();
        damaged[pos] = bytes;
        damaged
    };
    let half = |seg: &[u8]| Some(seg[..seg.len() / 2].to_vec());
    let mut flipped = segs[mid].clone();
    let byte = flipped.len() / 2;
    flipped[byte] ^= 0x5a;
    let mut dropped = clean();
    dropped.remove(mid);
    let mut duplicated = clean();
    duplicated.insert(mid, Some(segs[mid].clone()));
    let mut swapped = clean();
    swapped.swap(mid, mid + 1);
    let damages = [
        ("flipped byte mid-segment", with(mid, Some(flipped))),
        ("truncated middle segment", with(mid, half(&segs[mid]))),
        ("truncated final segment", with(last, half(&segs[last]))),
        (
            "truncated header",
            with(mid, Some(segs[mid][..10].to_vec())),
        ),
        ("dropped segment", dropped),
        ("duplicated segment", duplicated),
        ("swapped segments", swapped),
        ("unreadable segment", with(mid, None)),
    ];
    let cases = damages.into_iter().zip(DAMAGED_JOURNAL_STATS);
    for (i, ((damage, journal), want)) in cases.enumerate() {
        let damaged = dir.join(format!("damage-{i}"));
        std::fs::create_dir_all(&damaged).unwrap();
        for (index, seg) in journal.iter().enumerate() {
            let path = damaged.join(format!("segment-{index:08}.dcyj"));
            match seg {
                Some(bytes) => std::fs::write(path, bytes).unwrap(),
                None => std::fs::create_dir(path).unwrap(),
            }
        }
        let (_, full) = recover_full_store(&damaged).unwrap();
        assert_eq!(pinned(&full), want, "{damage}: {full}");
        let (_, streamed) = Report::from_journal_streaming(config(), &damaged).unwrap();
        assert_eq!(streamed, full, "{damage}");
        assert!(!full.is_clean(), "{damage} left no trace: {full}");
        assert!(
            (full.records_kept as usize) < result.store.len(),
            "{damage}: kept {}",
            full.records_kept
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The shard join's recovery, computed serially from its definition: every
/// directory's `JournalReader::segments()` in (directory, segment) order,
/// each error at the segment's position within its own directory, and of
/// every segment (keyed by its first sequence number) the longest copy
/// that any shard holds.
fn serial_shard_stats(dirs: &[&Path]) -> RecoveryStats {
    let mut stats = RecoveryStats::default();
    let mut longest: BTreeMap<u64, u64> = BTreeMap::new();
    for dir in dirs {
        for (position, next) in JournalReader::open(dir).unwrap().segments().enumerate() {
            stats.segments_scanned += 1;
            let error = match next {
                Ok(batch) => {
                    stats.records_dropped += batch.records_dropped;
                    stats.bytes_truncated += batch.bytes_truncated;
                    let records = batch.events.len() as u64;
                    if records > 0 {
                        let kept = longest.entry(batch.first_seq).or_default();
                        *kept = (*kept).max(records);
                    }
                    batch.error
                }
                Err(err) => Some(JournalError {
                    segment: position as u32,
                    offset: 0,
                    kind: JournalErrorKind::Io {
                        message: err.to_string(),
                    },
                }),
            };
            if stats.error.is_none() {
                stats.error = error;
            }
        }
    }
    stats.records_kept = longest.values().sum();
    let mut expected = 0;
    for (&found, &records) in &longest {
        if found != expected && stats.error.is_none() {
            stats.error = Some(JournalError {
                segment: 0,
                offset: 0,
                kind: JournalErrorKind::SequenceGap { expected, found },
            });
        }
        expected = found + records;
    }
    stats
}

/// A segment file of `shard` rewritten by `damage`.
fn damage(shard: &Path, seg: &Path, damage: fn(Vec<u8>) -> Vec<u8>) {
    let path = shard.join(seg.file_name().unwrap());
    let bytes = damage(std::fs::read(&path).unwrap());
    std::fs::write(&path, bytes).unwrap();
}

fn flip_middle_byte(mut bytes: Vec<u8>) -> Vec<u8> {
    let byte = bytes.len() / 2;
    bytes[byte] ^= 0x5a;
    bytes
}

fn truncate_half(mut bytes: Vec<u8>) -> Vec<u8> {
    bytes.truncate(bytes.len() / 2);
    bytes
}

/// On damaged and on replicated shards, the shard join's stats equal a
/// serial fold's in either directory order, and the rendered report is the
/// same for both orders and every call. Wherever the shards together hold
/// every segment whole, the join keeps every record and renders the batch
/// report: the merge keeps the longest copy of each segment, whichever
/// worker folded it.
#[test]
fn shard_join_of_damaged_shards_matches_a_serial_fold() {
    let result = shared();
    let batch = Report::generate(result).render_text();
    let dir = scratch("damaged-shards");
    let segs = spool_store(&result.store, &dir.join("clean"));
    let (n, mid) = (segs.len(), segs.len() / 2);
    let shard = |name: &str, segs: &[PathBuf]| {
        let shard = dir.join(name);
        copy_into(segs, &shard);
        shard
    };
    let even: Vec<PathBuf> = segs.iter().step_by(2).cloned().collect();
    let odd: Vec<PathBuf> = segs.iter().skip(1).step_by(2).cloned().collect();
    assert!(odd.len() >= 3, "need several segments per shard");

    // two disjoint shards, both damaged. A: a flipped byte in the middle of
    // a middle segment. B: a truncated segment, and right after it a
    // directory named like a segment, which cannot be read: B's `m`-th file
    // holds global segment `2 * m + 1`, so the directory sits at position
    // `m + 1`
    let shard_a = shard("shard-a", &even);
    damage(&shard_a, &even[even.len() / 2], flip_middle_byte);
    let shard_b = shard("shard-b", &odd);
    let m = odd.len() / 2;
    damage(&shard_b, &odd[m], truncate_half);
    std::fs::create_dir(shard_b.join(format!("segment-{:08}.dcyj", 2 * m + 2))).unwrap();
    // replicas: whole copies, and copies damaged in segment `mid`
    let whole = shard("whole", &segs);
    let truncated = shard("truncated", &segs);
    damage(&truncated, &segs[mid], truncate_half);
    let flipped = shard("flipped", &segs);
    damage(&flipped, &segs[mid], flip_middle_byte);

    // (case, shards, whether together they hold every segment whole)
    let cases = [
        ("two damaged halves", shard_a, shard_b.clone(), false),
        (
            "two whole copies",
            whole.clone(),
            shard("copy", &segs),
            true,
        ),
        (
            "copies with different coverage",
            shard("head", &segs[..2 * n / 3]),
            shard("tail", &segs[n / 3..]),
            true,
        ),
        ("a truncated copy", truncated, whole.clone(), true),
        ("a corrupt copy", flipped, whole, true),
    ];
    for (case, a, b, complete) in &cases {
        let (a, b) = (a.as_path(), b.as_path());
        let mut rendered: Option<String> = None;
        for dirs in [[a, b], [b, a], [a, b], [b, a], [a, b]] {
            let (report, stats) = Report::from_shards(config(), &dirs).unwrap();
            assert_eq!(stats, serial_shard_stats(&dirs), "{case}: {dirs:?}");
            let kept = stats.records_kept as usize;
            if *complete {
                assert_eq!(kept, result.store.len(), "{case}: {stats}");
            } else {
                assert!(kept < result.store.len(), "{case}: {stats}");
                assert!(
                    stats.error.is_some() && stats.bytes_truncated > 0,
                    "{case}: {stats}"
                );
            }
            let text = report.render_text();
            let first = rendered.get_or_insert_with(|| text.clone());
            assert_eq!(text, *first, "{case}: {dirs:?}");
            if *complete {
                assert_eq!(text, batch, "{case}: {dirs:?}");
            }
        }
    }

    // behind an undamaged first shard, the unreadable directory is the first
    // error, reported at its position within shard B, not across both shards
    let clean_a = shard("clean-a", &even);
    let dirs = [clean_a.as_path(), shard_b.as_path()];
    let (_, stats) = Report::from_shards(config(), &dirs).unwrap();
    assert_eq!(stats, serial_shard_stats(&dirs));
    let err = stats.error.expect("the unreadable segment is an error");
    assert_eq!(
        (err.kind.label(), err.segment as usize),
        ("io", m + 1),
        "{err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue the 64-bit FNV-1a hash `hash` over `bytes`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The golden run spooled through `persist_to` (the store's journal sink,
/// with the spool defaults: 8 MiB segments, group commit on the run's
/// clock) writes journal bytes with a pinned digest: the FNV-1a hash of its
/// segment files, concatenated in order.
#[test]
fn spooled_golden_run_writes_the_pinned_journal() {
    let dir = scratch("spooled");
    let result = run_direct(config().persist_to(&dir)).expect("spooled run");
    let written = result.store.close_journal().unwrap().expect("a journal");
    assert_eq!((written.records, written.bytes), (401_843, 12_381_109));
    let reader = JournalReader::open(&dir).unwrap();
    assert_eq!(reader.segment_paths().len(), 2);
    let digest = reader.segment_paths().iter().fold(FNV_OFFSET, |h, path| {
        fnv1a(h, &std::fs::read(path).unwrap())
    });
    assert_eq!(
        digest, 0x9cf9_7ff9_de7d_3dc4,
        "journal digest {digest:#018x}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The text fields of an event kind.
fn strings(kind: EventKindRef<'_>) -> Vec<&str> {
    match kind {
        EventKindRef::LoginAttempt {
            username, password, ..
        } => vec![username, password],
        EventKindRef::Command { action, raw } => vec![action, raw],
        EventKindRef::Payload {
            recognized,
            preview,
            ..
        } => recognized.into_iter().chain([preview]).collect(),
        EventKindRef::Malformed { detail } | EventKindRef::Health { detail, .. } => vec![detail],
        EventKindRef::Connect | EventKindRef::Disconnect => Vec::new(),
    }
}

/// The golden run exports to JSON lines with a pinned FNV-1a digest, its
/// strings exercise every escape the dataset needs, and the export imports
/// back into the same events.
#[test]
fn json_lines_export_round_trips_the_golden_run() {
    let store = &shared().store;
    let exported = store.to_json_lines();
    assert_eq!(store.len(), 401_843);
    assert_eq!(exported.lines().count(), store.len());

    // strings with a control character, a `"`, a `\`
    let mut escaped = (0, 0, 0);
    store.read(|log| {
        for s in log.iter().flat_map(|event| strings(event.kind)) {
            escaped.0 += usize::from(s.chars().any(|c| c < ' '));
            escaped.1 += usize::from(s.contains('"'));
            escaped.2 += usize::from(s.contains('\\'));
        }
    });
    assert_eq!(escaped, (58, 124, 33));

    let digest = fnv1a(FNV_OFFSET, exported.as_bytes());
    assert_eq!(
        digest, 0x5fc4_86fb_e16e_f2cc,
        "export digest {digest:#018x}"
    );

    let imported = EventStore::from_json_lines(&exported).unwrap();
    assert!(imported.events_eq(store), "the import changed the events");
}
