//! Incrementally foldable analysis frames.
//!
//! The batch pipeline builds one [`AnalysisFrame`] after the run ends; a
//! live multi-week capture (ROADMAP north star) cannot afford that. A
//! [`PartialFrame`] is a self-contained fold over *any* contiguous slice of
//! the event log — it owns its string table ([`Interner`]), its source
//! table (each source enriched once), and per-partition indices — and two
//! partials combine with [`PartialFrame::merge`], an associative operator
//! that is insensitive to the order segments arrive in.
//! [`PartialFrame::seal`] then produces an [`AnalysisFrame`] identical to
//! what [`AnalysisFrame::build`] would have computed over the concatenated
//! events, so every report section works unchanged over a streamed frame.
//!
//! A fold keeps one 40-byte row per event plus a `u32` partition index,
//! and its rows carry ids into its own string and source tables. Merge
//! unions the two sides' tables and rewrites the ids of the side with
//! fewer rows in place; seal sorts both tables and renumbers the rows
//! while it copies the runs into one vector, freeing each run once it is
//! copied, so no row is resident twice. A fold's memory grows with the
//! events it holds, not with one segment: measured at the benchmark's
//! default scale, 47 bytes per event with the tables, so 54 MB for the
//! streamed 1.19 M-event journal and 126 MB for the 2.82 M-event shard
//! join.
//!
//! Positioning is keyed by the journal's global sequence numbers: a partial
//! started with [`PartialFrame::new`]`(seq)` covers `[seq, seq + span)`.
//! Merge keeps runs apart as they were folded ([`PartialFrame::seal`]
//! splices them) and, among runs that start at the same sequence — the
//! shard-join case where two nodes hold copies of one segment file, one of
//! them perhaps damaged — keeps the longest. Gaps remain visible through
//! [`PartialFrame::run_ranges`].

use crate::frame::{AnalysisFrame, FrameEvent, FrameKind, Interner, SourceList, Sym, Table};
use decoy_geo::{GeoEnricher, IpMeta};
use decoy_store::{Event, EventRef, InteractionLevel};
use std::net::IpAddr;
use std::sync::Arc;

/// One contiguous folded run of events, starting at a global sequence
/// number. The partition indices (`low`, `med_high`) are `u32` positions
/// in `events`; splicing two adjacent runs only requires offsetting the
/// later run's indices by the earlier run's length.
#[derive(Debug, Clone)]
struct Run {
    /// Global sequence number of the first record folded into this run.
    start: u64,
    /// Number of input records consumed (health telemetry included), i.e.
    /// the run covers sequences `[start, start + span)`.
    span: u64,
    events: Vec<FrameEvent>,
    low: Vec<u32>,
    med_high: Vec<u32>,
    health: Vec<Event>,
}

impl Run {
    /// An empty run positioned at `start`.
    fn at(start: u64) -> Self {
        Run {
            start,
            span: 0,
            events: Vec::new(),
            low: Vec::new(),
            med_high: Vec::new(),
            health: Vec::new(),
        }
    }

    /// One past the last sequence number this run covers.
    fn end(&self) -> u64 {
        self.start.saturating_add(self.span)
    }

    /// Rewrite every row's source id and symbols in place.
    fn renumber(&mut self, sources: &[u32], strings: &[Sym]) {
        for row in &mut self.events {
            *row = row.renumbered(sources, strings);
        }
    }

    /// Append `next`, the following run in sequence order, renumbering its
    /// rows and rebasing its indices onto this run; `next` is freed once
    /// it is copied.
    fn splice(&mut self, next: Run, sources: &[u32], strings: &[Sym]) {
        let base = position(self.events.len());
        self.events.extend(
            next.events
                .iter()
                .map(|row| row.renumbered(sources, strings)),
        );
        // every rebased index stays below the new length, so it fits too
        position(self.events.len());
        self.low.extend(next.low.iter().map(|i| base + i));
        self.med_high.extend(next.med_high.iter().map(|i| base + i));
        self.health.extend(next.health);
        self.span = self.span.saturating_add(next.span);
    }
}

/// An event's position as stored in the `u32` partition index columns.
fn position(len: usize) -> u32 {
    u32::try_from(len).expect("fewer than 2^32 events in one frame")
}

/// The sources a partial has seen, numbered in first-seen order, each
/// enriched once when first seen (the geo memo).
#[derive(Debug, Clone, Default)]
struct Sources {
    ips: Table<IpAddr>,
    /// Enrichment, parallel to `ips`.
    meta: Vec<Option<Arc<IpMeta>>>,
}

impl Sources {
    /// The id of `ip`, enriching it through `enricher` when new.
    fn id(&mut self, ip: IpAddr, enricher: &GeoEnricher) -> u32 {
        if let Some(id) = self.ips.get(&ip) {
            return id;
        }
        self.meta.push(enricher.lookup(ip));
        self.ips.insert(ip)
    }

    /// Union `other` into this table; returns, for each of `other`'s ids,
    /// its id here. A source in both keeps this table's enrichment
    /// (lookups are deterministic, so both sides agree).
    fn absorb(&mut self, other: Sources) -> Vec<u32> {
        let ids = self.ips.absorb(other.ips);
        for (&id, meta) in ids.iter().zip(other.meta) {
            if id as usize == self.meta.len() {
                self.meta.push(meta);
            }
        }
        ids
    }

    /// The sources in ascending order with their enrichment, and for each
    /// id its position among them.
    fn into_sorted(self) -> (SourceList, Vec<u32>) {
        let Sources { ips, meta } = self;
        let (sorted, ids) = ips.into_sorted();
        let mut sorted_meta = vec![None; meta.len()];
        for (meta, &id) in meta.into_iter().zip(&ids) {
            sorted_meta[id as usize] = meta;
        }
        ((sorted, sorted_meta), ids)
    }
}

/// A self-contained fold over one slice of the event log.
///
/// Build with [`PartialFrame::new`] + [`PartialFrame::push`] (one partial
/// per closed journal segment), combine across segments or shards with
/// [`PartialFrame::merge`], and finish with [`PartialFrame::seal`]. The
/// fold is the *only* frame-construction code path:
/// [`AnalysisFrame::build`] itself folds blocks of the store's chunks into
/// partials on scoped workers, merges them in order and seals the result.
///
/// Two partials are equal when their runs cover the same sequence ranges
/// with the same number of rows each and they seal to equal frames: row
/// ids depend on the order a partial was folded and merged in, so equality
/// compares the resolved content.
#[derive(Debug, Clone)]
pub struct PartialFrame {
    /// Folded runs, kept sorted by start and pairwise disjoint.
    runs: Vec<Run>,
    /// This partial's own string table; merge unions tables.
    strings: Interner,
    /// This partial's own source table; merge unions tables.
    sources: Sources,
}

impl PartialEq for PartialFrame {
    fn eq(&self, other: &Self) -> bool {
        let bounds = |p: &PartialFrame| -> Vec<(u64, u64, usize)> {
            p.runs
                .iter()
                .map(|r| (r.start, r.span, r.events.len()))
                .collect()
        };
        bounds(self) == bounds(other) && self.clone().seal() == other.clone().seal()
    }
}

impl PartialFrame {
    /// An empty partial positioned at global sequence number `start`.
    pub fn new(start: u64) -> Self {
        PartialFrame {
            runs: vec![Run::at(start)],
            strings: Interner::new(),
            sources: Sources::default(),
        }
    }

    /// Fold one event into the partial's trailing run: a borrowed record
    /// straight from the journal decoder, or an `&Event`. Its strings are
    /// interned from the borrow, so no owned copy is made.
    ///
    /// Health telemetry is diverted to the frame's fleet-health side
    /// channel before interning (it carries a zero source/session and would
    /// pollute the session/geo/partition aggregations) but still advances
    /// the sequence span, since it occupies a journal sequence number like
    /// any record.
    ///
    /// A record from the same source as the trailing run's last event
    /// takes that event's source id without a table lookup.
    pub fn push<'a>(&mut self, event: impl Into<EventRef<'a>>, enricher: &GeoEnricher) {
        let event = event.into();
        if self.runs.is_empty() {
            self.runs.push(Run::at(0));
        }
        let Some(run) = self.runs.last_mut() else {
            return;
        };
        run.span = run.span.saturating_add(1);
        let Some(kind) = FrameKind::from_kind(event.kind, &mut self.strings) else {
            run.health.push(event.to_event());
            return;
        };
        let idx = position(run.events.len());
        match event.honeypot.level {
            InteractionLevel::Low => run.low.push(idx),
            InteractionLevel::Medium | InteractionLevel::High => run.med_high.push(idx),
        }
        let source = match run.events.last() {
            Some(last) if *self.sources.ips.key(last.source) == event.src => last.source,
            _ => self.sources.id(event.src, enricher),
        };
        run.events.push(FrameEvent {
            ts: event.ts,
            session: event.session,
            honeypot: event.honeypot,
            source,
            kind,
        });
    }

    /// Combine two partials into one.
    ///
    /// The partial with fewer rows is numbered into the other's tables:
    /// its strings and sources join the other's, and its rows' ids are
    /// rewritten in place. Runs are then re-sorted by start and otherwise
    /// kept as folded: adjacent runs are not spliced until
    /// [`PartialFrame::seal`]. A run that starts inside an already-kept
    /// run is dropped, and at equal starts the longest run is kept first.
    /// For runs that are whole or cut-short copies of one journal's
    /// segments (the shard join), two runs overlap only when they start at
    /// the same sequence, so the result keeps the longest copy of every
    /// segment: associative, and insensitive to the order segments were
    /// folded or merged in. Splicing adjacent runs here would break that,
    /// since a spliced run could then start inside another and reach past
    /// it, and be dropped with the records only it held. The tables keep
    /// the strings and sources of dropped runs too, which a kept copy of
    /// the same segment holds anyway.
    pub fn merge(a: PartialFrame, b: PartialFrame) -> PartialFrame {
        let a_keeps_ids = a.len() >= b.len();
        let (mut kept, mut moved) = if a_keeps_ids { (a, b) } else { (b, a) };
        let strings = kept.strings.absorb(moved.strings);
        let sources = kept.sources.absorb(moved.sources);
        for run in &mut moved.runs {
            run.renumber(&sources, &strings);
        }
        let (runs_a, runs_b) = if a_keeps_ids {
            (kept.runs, moved.runs)
        } else {
            (moved.runs, kept.runs)
        };
        let mut pending: Vec<Run> = runs_a
            .into_iter()
            .chain(runs_b)
            .filter(|r| r.span > 0)
            .collect();
        // Longest run first at equal starts, so a replica (same start,
        // shorter or equal span) lands inside the covered range and drops.
        pending.sort_by(|x, y| x.start.cmp(&y.start).then(y.span.cmp(&x.span)));
        let mut runs: Vec<Run> = Vec::with_capacity(pending.len());
        for run in pending {
            if runs.last().map_or(true, |last| run.start >= last.end()) {
                runs.push(run);
            }
        }
        if runs.is_empty() {
            runs.push(Run::at(0));
        }
        PartialFrame {
            runs,
            strings: kept.strings,
            sources: kept.sources,
        }
    }

    /// Finish the fold, producing the [`AnalysisFrame`] every report
    /// section consumes.
    ///
    /// Both tables are sorted, so the frame does not depend on the order
    /// the fold was merged in. The first run is renumbered in place and
    /// grown to hold every row; each later run is copied in renumbered, in
    /// sequence order, and freed as soon as it is copied, so no row is ever
    /// resident twice. If gaps remain (lost segments), the frame covers
    /// exactly the folded records — inspect [`PartialFrame::run_ranges`]
    /// before sealing to detect that.
    pub fn seal(self) -> AnalysisFrame {
        let PartialFrame {
            runs,
            strings,
            sources,
        } = self;
        let (strings, string_ids) = strings.into_sorted();
        let (sources, source_ids) = sources.into_sorted();
        let total = |column: fn(&Run) -> usize| runs.iter().map(column).sum::<usize>();
        let (events, low, med_high) = (
            total(|r| r.events.len()),
            total(|r| r.low.len()),
            total(|r| r.med_high.len()),
        );
        let mut runs = runs.into_iter();
        let mut acc = runs.next().unwrap_or_else(|| Run::at(0));
        acc.renumber(&source_ids, &string_ids);
        acc.events.reserve_exact(events - acc.events.len());
        acc.low.reserve_exact(low - acc.low.len());
        acc.med_high.reserve_exact(med_high - acc.med_high.len());
        for run in runs {
            acc.splice(run, &source_ids, &string_ids);
        }
        AnalysisFrame::from_parts(
            acc.events,
            acc.low,
            acc.med_high,
            sources,
            strings,
            acc.health,
        )
    }

    /// The symbol this partial's string table gives `s`.
    #[cfg(test)]
    pub(crate) fn symbol(&self, s: &str) -> Option<Sym> {
        self.strings.get(s)
    }

    /// Number of non-telemetry events folded so far.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.events.len()).sum()
    }

    /// True when nothing has been folded.
    pub fn is_empty(&self) -> bool {
        self.span() == 0
    }

    /// Total input records consumed (health telemetry included).
    pub fn span(&self) -> u64 {
        self.runs
            .iter()
            .map(|r| r.span)
            .fold(0, u64::saturating_add)
    }

    /// The sequence number the next pushed record will occupy.
    pub fn next_seq(&self) -> u64 {
        self.runs.last().map(Run::end).unwrap_or(0)
    }

    /// The contiguous `[start, end)` sequence ranges covered, in order,
    /// adjacent runs joined. A single range starting at the journal's first
    /// sequence means the fold is gapless.
    pub fn run_ranges(&self) -> Vec<(u64, u64)> {
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for run in self.runs.iter().filter(|r| r.span > 0) {
            match ranges.last_mut() {
                Some(last) if last.1 == run.start => last.1 = run.end(),
                _ => ranges.push((run.start, run.end())),
            }
        }
        ranges
    }
}

/// Fold `jobs` on `workers` scoped threads, the split the batch build and
/// the shard join share: the jobs are cut into contiguous blocks, one per
/// worker and at most one per job, each block is folded by `fold` on its
/// own thread into a partial and a side result, and the partials are
/// merged in block order. Returns the merged partial and the side results,
/// in block order.
pub fn fold_blocks<J: Sync, T: Send>(
    jobs: &[J],
    workers: usize,
    fold: impl Fn(&[J]) -> (PartialFrame, T) + Sync,
) -> (PartialFrame, Vec<T>) {
    let block = jobs.len().div_ceil(workers.max(1)).max(1);
    let fold = &fold;
    let blocks: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(block)
            .map(|jobs| s.spawn(move || fold(jobs)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fold worker panicked"))
            .collect()
    });
    let mut merged = PartialFrame::new(0);
    let mut sides = Vec::with_capacity(blocks.len());
    for (partial, side) in blocks {
        merged = PartialFrame::merge(merged, partial);
        sides.push(side);
    }
    (merged, sides)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Partition;
    use decoy_base::time::EXPERIMENT_START;
    use decoy_base::HealthState;
    use decoy_geo::GeoDb;
    use decoy_store::{ConfigVariant, Dbms, EventKind, EventStore, HoneypotId};

    fn hp(dbms: Dbms, level: InteractionLevel) -> HoneypotId {
        HoneypotId::new(dbms, level, ConfigVariant::Default, 0)
    }

    fn ev(dbms: Dbms, level: InteractionLevel, src: &str, session: u64, action: &str) -> Event {
        Event {
            ts: EXPERIMENT_START,
            honeypot: hp(dbms, level),
            src: src.parse().unwrap(),
            session,
            kind: EventKind::Command {
                action: action.into(),
                raw: action.into(),
            },
        }
    }

    fn health() -> Event {
        Event {
            ts: EXPERIMENT_START,
            honeypot: hp(Dbms::Redis, InteractionLevel::Medium),
            src: "0.0.0.0".parse().unwrap(),
            session: 0,
            kind: EventKind::Health {
                state: HealthState::Degraded,
                restarts: 1,
                detail: "accept stall".into(),
            },
        }
    }

    fn fixture() -> Vec<Event> {
        vec![
            ev(
                Dbms::Mssql,
                InteractionLevel::Low,
                "198.51.100.7",
                1,
                "LOGIN",
            ),
            ev(
                Dbms::Redis,
                InteractionLevel::Medium,
                "203.0.113.9",
                2,
                "INFO server",
            ),
            health(),
            ev(
                Dbms::Postgres,
                InteractionLevel::High,
                "203.0.113.9",
                1,
                "SELECT 1",
            ),
            // resumes the Redis session: it straddles a cut after the second
            // record, and its two events are not adjacent
            ev(
                Dbms::Redis,
                InteractionLevel::Medium,
                "203.0.113.9",
                2,
                "KEYS *",
            ),
        ]
    }

    fn batch(events: &[Event]) -> AnalysisFrame {
        let store = EventStore::new();
        store.log_many(events.iter().cloned());
        AnalysisFrame::build(&store, &GeoDb::builtin())
    }

    fn fold_all(events: &[Event], start: u64) -> PartialFrame {
        let enricher = GeoEnricher::new(GeoDb::builtin());
        let mut partial = PartialFrame::new(start);
        for e in events {
            partial.push(e, &enricher);
        }
        partial
    }

    #[test]
    fn seal_of_one_fold_matches_batch_build() {
        let events = fixture();
        let sealed = fold_all(&events, 0).seal();
        assert_eq!(sealed, batch(&events));
        assert_eq!(sealed.len(), 4); // health diverted
        assert_eq!(sealed.health_events().len(), 1);
        assert_eq!(sealed.view(Partition::Low).len(), 1);
        assert_eq!(sealed.view(Partition::MedHigh).len(), 3);
    }

    #[test]
    fn split_fold_merges_to_the_same_frame_in_either_order() {
        let events = fixture();
        let head = fold_all(&events[..2], 0);
        let tail = fold_all(&events[2..], 2);
        assert_eq!(head.next_seq(), 2);
        assert_eq!(tail.next_seq(), 5);
        let forward = PartialFrame::merge(head.clone(), tail.clone());
        let reversed = PartialFrame::merge(tail, head);
        assert_eq!(forward, reversed);
        assert_eq!(forward.run_ranges(), vec![(0, 5)]);
        let sealed = forward.seal();
        assert_eq!(sealed.session_count(), 3, "a split session counts once");
        assert_eq!(sealed, batch(&events));
    }

    #[test]
    fn replica_segments_deduplicate() {
        let events = fixture();
        let head = fold_all(&events[..2], 0);
        let tail = fold_all(&events[2..], 2);
        let replica = fold_all(&events[..2], 0);
        let merged = PartialFrame::merge(PartialFrame::merge(head, replica), tail);
        assert_eq!(merged.span(), 5);
        let sealed = merged.seal();
        assert_eq!(sealed.session_count(), 3, "a replica does not double-count");
        assert_eq!(sealed, batch(&events));
    }

    /// Two full copies of four segments, folded by two workers that each
    /// took a mix of both copies: the workers' partials overlap without
    /// either holding the other, and their merge still keeps every record.
    #[test]
    fn replicas_merged_in_any_grouping_keep_every_record() {
        let events: Vec<Event> = fixture().into_iter().cycle().take(8).collect();
        let seg = |i: usize| fold_all(&events[2 * i..2 * i + 2], 2 * i as u64);
        let fold = |segs: &[usize]| {
            segs.iter().fold(PartialFrame::new(0), |acc, &i| {
                PartialFrame::merge(acc, seg(i))
            })
        };
        // copy A's segments 0 and 2 with copy B's 0 and 1, and the rest
        let (w1, w2) = (fold(&[0, 2, 0, 1]), fold(&[1, 3, 2, 3]));
        assert_eq!(w1.run_ranges(), vec![(0, 6)]);
        assert_eq!(w2.run_ranges(), vec![(2, 8)]);
        let merged = PartialFrame::merge(w1.clone(), w2.clone());
        assert_eq!(merged, PartialFrame::merge(w2, w1));
        assert_eq!(merged, fold(&[0, 1, 2, 3]));
        assert_eq!(merged.span(), 8);
        assert_eq!(merged.seal(), batch(&events));
    }

    /// A copy of a segment cut short (a torn or corrupt tail) loses to a
    /// whole copy of it, whichever was folded or merged first.
    #[test]
    fn the_longest_copy_of_a_segment_wins() {
        let events = fixture();
        let head = fold_all(&events[..2], 0);
        let cut = fold_all(&events[2..3], 2);
        let whole = fold_all(&events[2..], 2);
        for merged in [
            PartialFrame::merge(
                PartialFrame::merge(head.clone(), cut.clone()),
                whole.clone(),
            ),
            PartialFrame::merge(
                whole.clone(),
                PartialFrame::merge(cut.clone(), head.clone()),
            ),
        ] {
            assert_eq!(merged.run_ranges(), vec![(0, 5)]);
            assert_eq!(merged.span(), 5);
            assert_eq!(merged.seal(), batch(&events));
        }
    }

    #[test]
    fn gaps_stay_visible_and_empty_partials_are_neutral() {
        let events = fixture();
        let head = fold_all(&events[..2], 0);
        let gap_tail = fold_all(&events[3..], 3); // sequence 2 lost
        let merged = PartialFrame::merge(PartialFrame::merge(head, PartialFrame::new(7)), gap_tail);
        assert_eq!(merged.run_ranges(), vec![(0, 2), (3, 5)]);
        assert_eq!(merged.span(), 4);
        let empty = PartialFrame::new(0);
        assert!(empty.is_empty());
        assert_eq!(empty.run_ranges(), Vec::new());
        assert!(empty.seal().is_empty());
    }
}
