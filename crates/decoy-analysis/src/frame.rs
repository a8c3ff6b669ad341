//! The materialized analysis frame — built exactly once per [`EventStore`].
//!
//! The paper's pipeline is one normalization/enrichment pass feeding many
//! downstream consumers (§4, Figure 1). [`AnalysisFrame`] is that pass made
//! explicit: a single fold of the store's log (its chunks decoded in
//! place, on every core) that
//!
//! * partitions the fleet into the low-interaction and medium/high slices
//!   every table and figure works over,
//! * enriches each distinct source IP exactly once through a caching
//!   [`GeoEnricher`], and
//! * interns every action/credential string into one per-frame string
//!   table, so a row names its strings by `u32` [`Sym`]bol.
//!
//! Sessions (`(HoneypotId, SessionKey)` groups) are only counted, once,
//! when the frame is sealed: no section reads a per-session index.
//!
//! Every row is a 40-byte [`FrameEvent`]: its timestamp, session,
//! honeypot, the dense id of its source, and a [`FrameKind`] whose strings
//! are symbols. A source's id is its index in the ascending
//! [`AnalysisFrame::sources`] list, so per-source aggregations index flat
//! arrays by `event.source` instead of inserting each event's address into
//! a set, and walking ids in order visits sources in the same order a
//! `BTreeMap<IpAddr, _>` does. The string table is sorted too, so symbol
//! order is string order. With the `u32` position each row has in one
//! partition index column, the frame costs 44 bytes per event; it cost 96
//! when rows held `Arc<str>`s and a 17-byte `IpAddr`, beside a parallel
//! source-id column. At the benchmark's default scale, folds of the
//! 1.19 M-event journal and of the 2.82 M-event shard join measured 54 MB
//! and 126 MB resident (47 bytes per event, tables included).
//!
//! Downstream modules consume [`FrameView`]s (cheap `Copy` handles onto one
//! partition), which resolve a row's source ([`FrameView::src`]) and its
//! strings ([`FrameView::kind`]) on demand; the report they render is
//! pinned byte for byte to the committed golden `tests/golden/report.txt`.

use decoy_base::time::Timestamp;
use decoy_geo::{GeoDb, GeoEnricher, IpMeta};
use decoy_store::{Dbms, Event, EventKindRef, EventStore, HoneypotId, SessionSet};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::net::IpAddr;
use std::num::NonZeroU32;
use std::sync::Arc;

/// Keys numbered densely in first-seen order: a key's id is its index in
/// `keys`. Lookups go through the default keyed-SipHash map, because the
/// keys (source addresses, credentials, commands) are attacker-chosen.
#[derive(Debug, Clone)]
pub(crate) struct Table<K> {
    keys: Vec<K>,
    index: HashMap<K, u32>,
}

impl<K> Default for Table<K> {
    fn default() -> Self {
        Table {
            keys: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl<K: Clone + Eq + Hash + Ord> Table<K> {
    /// The id of `key`, `None` when the table has not seen it.
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<u32>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.index.get(key).copied()
    }

    /// The id of `key`, numbering it next when it is new.
    pub(crate) fn insert(&mut self, key: K) -> u32 {
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = u32::try_from(self.keys.len())
            .ok()
            .filter(|&id| id < u32::MAX)
            .expect("fewer than 2^32 - 1 distinct keys in one frame");
        self.index.insert(key.clone(), id);
        self.keys.push(key);
        id
    }

    /// The key numbered `id`.
    pub(crate) fn key(&self, id: u32) -> &K {
        &self.keys[id as usize]
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Add every key of `other` (the merge half of the fold); returns, for
    /// each of `other`'s ids, that key's id here.
    pub(crate) fn absorb(&mut self, other: Table<K>) -> Vec<u32> {
        other.keys.into_iter().map(|key| self.insert(key)).collect()
    }

    /// The keys in ascending order, and for each id its position among
    /// them (the seal half of the fold: the order no longer depends on
    /// which keys were seen first).
    pub(crate) fn into_sorted(self) -> (Vec<K>, Vec<u32>) {
        let mut keyed: Vec<(K, u32)> = self.keys.into_iter().zip(0..).collect();
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut ids = vec![0; keyed.len()];
        for (position, &(_, id)) in (0..).zip(&keyed) {
            ids[id as usize] = position;
        }
        (keyed.into_iter().map(|(key, _)| key).collect(), ids)
    }
}

/// An interned string: its index in its frame's string table, plus one,
/// so an `Option<Sym>` takes no more room than a `Sym`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(NonZeroU32);

impl Sym {
    /// The symbol of table index `index`.
    fn at(index: u32) -> Sym {
        Sym(NonZeroU32::MIN.saturating_add(index))
    }

    /// This symbol's index in its string table.
    fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// A deduplicating string table: equal strings share one [`Sym`] and one
/// allocation.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    table: Table<Arc<str>>,
}

impl Interner {
    /// An empty table.
    pub fn new() -> Self {
        Interner::default()
    }

    /// The symbol of `s`, allocating only on first sight.
    pub fn intern(&mut self, s: &str) -> Sym {
        match self.get(s) {
            Some(sym) => sym,
            None => Sym::at(self.table.insert(Arc::from(s))),
        }
    }

    /// The symbol of `s`, `None` when it was never interned.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.table.get(s).map(Sym::at)
    }

    /// The string `sym` names.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.table.keys[sym.index()]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.table.len() == 0
    }

    /// Union another table into this one (the merge half of the fold);
    /// returns, indexed by each of `other`'s symbols, its symbol here.
    ///
    /// The distinct-string count after absorbing is exactly the count a
    /// single interner would have reached over the concatenated input.
    pub(crate) fn absorb(&mut self, other: Interner) -> Vec<Sym> {
        let ids = self.table.absorb(other.table);
        ids.into_iter().map(Sym::at).collect()
    }

    /// The strings in ascending order, and indexed by each symbol its
    /// symbol in that order.
    pub(crate) fn into_sorted(self) -> (Vec<Arc<str>>, Vec<Sym>) {
        let (strings, ids) = self.table.into_sorted();
        (strings, ids.into_iter().map(Sym::at).collect())
    }
}

/// [`EventKind`](decoy_store::EventKind) as the frame keeps it, generic
/// over how a string is held: a row holds a [`FrameKind`], whose strings
/// are [`Sym`]s into the frame's string table, and sections match on a
/// [`FrameKindRef`], whose strings are resolved. Fleet-health telemetry has
/// no variant (the fold diverts it before interning), and a payload keeps
/// no byte count (no section reads one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind<S> {
    /// TCP connection accepted.
    Connect,
    /// Connection ended (by either side).
    Disconnect,
    /// An authentication attempt with the captured credentials.
    LoginAttempt {
        /// Username as typed.
        username: S,
        /// Password as observed.
        password: S,
        /// Whether the honeypot granted access.
        success: bool,
    },
    /// A command/query executed against the emulated DBMS.
    Command {
        /// Normalized action token (§6.1 masking applied).
        action: S,
        /// The raw rendered command, verbatim.
        raw: S,
    },
    /// An opaque payload that did not parse as the DBMS protocol.
    Payload {
        /// Recognized foreign protocol label, if any.
        recognized: Option<S>,
        /// Lossy text rendering for the logs.
        preview: S,
    },
    /// Input that violated the protocol grammar.
    Malformed {
        /// Human-readable description.
        detail: S,
    },
}

/// A row's kind: every string a [`Sym`] into the frame's string table.
pub type FrameKind = Kind<Sym>;

/// A kind with its strings resolved: what sections match on.
pub type FrameKindRef<'a> = Kind<&'a str>;

impl<S> Kind<S> {
    /// This kind with every string mapped through `f`, in field order.
    pub fn map<T>(self, mut f: impl FnMut(S) -> T) -> Kind<T> {
        match self {
            Kind::Connect => Kind::Connect,
            Kind::Disconnect => Kind::Disconnect,
            Kind::LoginAttempt {
                username,
                password,
                success,
            } => Kind::LoginAttempt {
                username: f(username),
                password: f(password),
                success,
            },
            Kind::Command { action, raw } => Kind::Command {
                action: f(action),
                raw: f(raw),
            },
            Kind::Payload {
                recognized,
                preview,
            } => Kind::Payload {
                recognized: recognized.map(&mut f),
                preview: f(preview),
            },
            Kind::Malformed { detail } => Kind::Malformed { detail: f(detail) },
        }
    }
}

impl FrameKind {
    /// Intern one borrowed event kind; `None` for fleet-health telemetry,
    /// which is not interned.
    pub(crate) fn from_kind(kind: EventKindRef<'_>, strings: &mut Interner) -> Option<FrameKind> {
        let kind = match kind {
            EventKindRef::Connect => Kind::Connect,
            EventKindRef::Disconnect => Kind::Disconnect,
            EventKindRef::LoginAttempt {
                username,
                password,
                success,
            } => Kind::LoginAttempt {
                username,
                password,
                success,
            },
            EventKindRef::Command { action, raw } => Kind::Command { action, raw },
            EventKindRef::Payload {
                recognized,
                preview,
                ..
            } => Kind::Payload {
                recognized,
                preview,
            },
            EventKindRef::Malformed { detail } => Kind::Malformed { detail },
            EventKindRef::Health { .. } => return None,
        };
        Some(kind.map(|s| strings.intern(s)))
    }
}

/// One frame row (mirrors [`decoy_store::Event`]): 40 bytes, with the
/// source as its dense id and every string as a [`Sym`]. Resolve both
/// through the frame ([`AnalysisFrame::src`], [`AnalysisFrame::kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameEvent {
    /// When it happened.
    pub ts: Timestamp,
    /// Per-honeypot session sequence number.
    pub session: u64,
    /// Which honeypot logged it.
    pub honeypot: HoneypotId,
    /// Dense source id: an index into [`AnalysisFrame::sources`].
    pub source: u32,
    /// What happened, with interned strings.
    pub kind: FrameKind,
}

impl FrameEvent {
    /// This row with its source id and symbols rewritten through `sources`
    /// and `strings` (each indexed by the old id).
    pub(crate) fn renumbered(self, sources: &[u32], strings: &[Sym]) -> FrameEvent {
        FrameEvent {
            source: sources[self.source as usize],
            kind: self.kind.map(|sym| strings[sym.index()]),
            ..self
        }
    }
}

/// Number of DBMS families. Per-family arrays index a family by
/// `dbms as usize`, its position in [`Dbms::all`].
pub(crate) const FAMILIES: usize = 7;

/// Number of panels of a per-family figure: panel 0 covers every family,
/// panel `1 + dbms as usize` one family.
pub(crate) const PANELS: usize = 1 + FAMILIES;

/// The key of every panel in panel order: `None` for every family, then
/// `Some(dbms)` per family.
pub(crate) fn panel_keys() -> impl Iterator<Item = Option<Dbms>> {
    std::iter::once(None).chain(Dbms::all().map(Some))
}

/// The fleet slices the paper's tables are computed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Partition {
    /// Every event.
    All,
    /// Low-interaction fleet only (§5's scanning/brute-force analysis).
    Low,
    /// Medium- and high-interaction fleet (§6's behavioral analysis).
    MedHigh,
}

/// Distinct sources in ascending order, with their enrichment in a
/// parallel `Vec`.
pub(crate) type SourceList = (Vec<IpAddr>, Vec<Option<Arc<IpMeta>>>);

/// The one-pass materialized view of an [`EventStore`].
///
/// Both tables are in ascending order (sources by address, strings by
/// content), so a frame does not depend on the order its events were
/// folded and merged in, and the derived equality compares content.
#[derive(Debug, PartialEq)]
pub struct AnalysisFrame {
    events: Vec<FrameEvent>,
    /// Positions of the low-interaction events in `events`, ascending.
    low: Vec<u32>,
    /// Positions of the medium/high events in `events`, ascending.
    med_high: Vec<u32>,
    sessions: usize,
    /// Distinct sources in ascending order; a source's id is its index.
    sources: Vec<IpAddr>,
    /// Memoized enrichment, parallel to `sources`.
    source_meta: Vec<Option<Arc<IpMeta>>>,
    /// Distinct strings in ascending order; a symbol names its index.
    strings: Vec<Arc<str>>,
    health: Vec<Event>,
}

impl AnalysisFrame {
    /// Build the frame with a fresh [`GeoEnricher`] over `geo`.
    pub fn build(store: &EventStore, geo: &Arc<GeoDb>) -> Self {
        AnalysisFrame::build_with(store, &GeoEnricher::new(Arc::clone(geo)))
    }

    /// Build the frame, enriching through an existing (possibly pre-warmed)
    /// cache.
    ///
    /// The store's chunks are folded on
    /// [`std::thread::available_parallelism`] scoped workers, each into its
    /// own [`PartialFrame`](crate::fold::PartialFrame) anchored at its first
    /// chunk's log position, and the partials are merged in order and
    /// sealed: the fold, merge and seal the streaming and shard paths use,
    /// so batch and incremental construction cannot drift apart.
    pub fn build_with(store: &EventStore, enricher: &GeoEnricher) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
        AnalysisFrame::build_on(store, enricher, workers)
    }

    /// [`AnalysisFrame::build_with`] on `workers` scoped workers.
    fn build_on(store: &EventStore, enricher: &GeoEnricher, workers: usize) -> Self {
        store.read(|log| {
            let (folded, _) = crate::fold::fold_blocks(log.chunks(), workers, |chunks| {
                let start = chunks.first().map_or(0, |chunk| chunk.start());
                let mut partial = crate::fold::PartialFrame::new(start);
                for event in chunks.iter().flat_map(|chunk| chunk.events()) {
                    partial.push(event, enricher);
                }
                (partial, ())
            });
            folded.seal()
        })
    }

    /// Assemble a frame from already-folded parts (the seal step of
    /// [`PartialFrame`](crate::fold::PartialFrame)), whose rows already
    /// carry ids into the sorted `sources` and `strings`, and count its
    /// sessions.
    pub(crate) fn from_parts(
        events: Vec<FrameEvent>,
        low: Vec<u32>,
        med_high: Vec<u32>,
        (sources, source_meta): SourceList,
        strings: Vec<Arc<str>>,
        health: Vec<Event>,
    ) -> Self {
        let mut sessions = SessionSet::new();
        for e in &events {
            sessions.insert(e.honeypot, e.session, e.source);
        }
        AnalysisFrame {
            events,
            low,
            med_high,
            sessions: sessions.len(),
            sources,
            source_meta,
            strings,
            health,
        }
    }

    /// All events in log order.
    pub fn events(&self) -> &[FrameEvent] {
        &self.events
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the frame holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A cheap `Copy` handle onto one fleet slice.
    pub fn view(&self, partition: Partition) -> FrameView<'_> {
        FrameView {
            frame: self,
            partition,
        }
    }

    /// Number of distinct `(honeypot, session)` groups (counted at seal).
    pub fn session_count(&self) -> usize {
        self.sessions
    }

    /// The source address of `event`.
    pub fn src(&self, event: &FrameEvent) -> IpAddr {
        self.sources[event.source as usize]
    }

    /// The string `sym` names.
    pub fn string(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// The kind of `event` with its strings resolved.
    pub fn kind(&self, event: &FrameEvent) -> FrameKindRef<'_> {
        event.kind.map(|sym| self.string(sym))
    }

    /// The memoized enrichment of `ip` (computed once at build time).
    pub fn meta(&self, ip: IpAddr) -> Option<&Arc<IpMeta>> {
        self.source_id(ip).and_then(|id| self.source_meta(id))
    }

    /// Country code of `ip`, `"??"` when unmapped (table convention).
    pub fn country(&self, ip: IpAddr) -> &str {
        self.source_id(ip)
            .map(|id| self.source_country(id))
            .unwrap_or("??")
    }

    /// Number of distinct source IPs observed (enrichment cache size).
    pub fn distinct_sources(&self) -> usize {
        self.sources.len()
    }

    /// Every distinct source, ascending; a source's dense id is its index.
    pub fn sources(&self) -> &[IpAddr] {
        &self.sources
    }

    /// The dense id of `ip`, `None` when the frame never saw it.
    pub fn source_id(&self, ip: IpAddr) -> Option<u32> {
        let idx = self.sources.binary_search(&ip).ok()?;
        u32::try_from(idx).ok()
    }

    /// The memoized enrichment of source `id`.
    pub fn source_meta(&self, id: u32) -> Option<&Arc<IpMeta>> {
        self.source_meta.get(id as usize).and_then(|m| m.as_ref())
    }

    /// Country code of source `id`, `"??"` when unmapped.
    pub fn source_country(&self, id: u32) -> &str {
        self.source_meta(id)
            .map(|m| m.country.as_str())
            .unwrap_or("??")
    }

    /// Number of distinct strings in the string table.
    pub fn interned_strings(&self) -> usize {
        self.strings.len()
    }

    /// Fleet-health telemetry in log order.
    ///
    /// Supervisor transitions are not attacker traffic: they carry a zero
    /// source/session and are kept out of the session, geo, and partition
    /// aggregations above. The fleet-uptime table folds these instead, so a
    /// streamed frame can render the fleet section without an
    /// [`EventStore`].
    pub fn health_events(&self) -> &[Event] {
        &self.health
    }
}

/// Iterator over one partition's events in log order.
#[derive(Debug, Clone)]
pub struct FrameIter<'a> {
    events: &'a [FrameEvent],
    positions: Positions<'a>,
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = &'a FrameEvent;

    fn next(&mut self) -> Option<&'a FrameEvent> {
        self.positions.next().map(|i| &self.events[i])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.positions.size_hint()
    }
}

impl ExactSizeIterator for FrameIter<'_> {}

/// Positions of one partition's events in the frame, ascending.
#[derive(Debug, Clone)]
enum Positions<'a> {
    /// Every event.
    All(std::ops::Range<usize>),
    /// The partition's index column.
    Index(std::slice::Iter<'a, u32>),
}

impl Iterator for Positions<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Positions::All(range) => range.next(),
            Positions::Index(idxs) => idxs.next().map(|&i| i as usize),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Positions::All(range) => range.size_hint(),
            Positions::Index(idxs) => idxs.size_hint(),
        }
    }
}

impl ExactSizeIterator for Positions<'_> {}

/// A borrowed handle onto one partition of an [`AnalysisFrame`].
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    frame: &'a AnalysisFrame,
    partition: Partition,
}

impl<'a> FrameView<'a> {
    /// The underlying frame.
    pub fn frame(self) -> &'a AnalysisFrame {
        self.frame
    }

    /// Which slice this view covers.
    pub fn partition(self) -> Partition {
        self.partition
    }

    /// Positions of this partition's events in the frame.
    fn positions(self) -> Positions<'a> {
        match self.partition {
            Partition::All => Positions::All(0..self.frame.events.len()),
            Partition::Low => Positions::Index(self.frame.low.iter()),
            Partition::MedHigh => Positions::Index(self.frame.med_high.iter()),
        }
    }

    /// This partition's events in log order.
    pub fn events(self) -> FrameIter<'a> {
        FrameIter {
            events: &self.frame.events,
            positions: self.positions(),
        }
    }

    /// This partition's events in log order, optionally restricted to one
    /// DBMS family (`None` keeps every family).
    pub fn events_of(self, dbms: Option<Dbms>) -> impl Iterator<Item = &'a FrameEvent> {
        self.events()
            .filter(move |e| dbms.map(|d| e.honeypot.dbms == d).unwrap_or(true))
    }

    /// Number of events in this partition.
    pub fn len(self) -> usize {
        self.positions().len()
    }

    /// True when the partition holds no events.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The source address of `event`.
    pub fn src(self, event: &FrameEvent) -> IpAddr {
        self.frame.src(event)
    }

    /// The kind of `event` with its strings resolved.
    pub fn kind(self, event: &FrameEvent) -> FrameKindRef<'a> {
        self.frame.kind(event)
    }

    /// The string `sym` names.
    pub fn string(self, sym: Sym) -> &'a str {
        self.frame.string(sym)
    }

    /// The memoized enrichment of `ip`.
    pub fn meta(self, ip: IpAddr) -> Option<&'a Arc<IpMeta>> {
        self.frame.meta(ip)
    }

    /// Country code of `ip`, `"??"` when unmapped.
    pub fn country(self, ip: IpAddr) -> &'a str {
        self.frame.country(ip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_base::time::EXPERIMENT_START;
    use decoy_store::{ConfigVariant, EventKind, InteractionLevel};
    use std::collections::BTreeSet;

    fn hp(dbms: Dbms, level: InteractionLevel) -> HoneypotId {
        HoneypotId::new(dbms, level, ConfigVariant::Default, 0)
    }

    fn cmd(action: &str) -> EventKind {
        EventKind::Command {
            action: action.into(),
            raw: action.into(),
        }
    }

    fn fixture() -> (Arc<EventStore>, Arc<GeoDb>, IpAddr, IpAddr) {
        let geo = GeoDb::builtin();
        let mut rng = decoy_base::Rng::seed_from_u64(11);
        let mapped = IpAddr::V4(geo.sample_ip(4134, Some("CN"), &mut rng).unwrap());
        let unmapped: IpAddr = "203.0.113.50".parse().unwrap();
        let store = EventStore::new();
        let log = |honeypot, src: IpAddr, session: u64, kind| {
            store.log(Event {
                ts: EXPERIMENT_START,
                honeypot,
                src,
                session,
                kind,
            })
        };
        log(
            hp(Dbms::Mssql, InteractionLevel::Low),
            mapped,
            1,
            EventKind::Connect,
        );
        log(
            hp(Dbms::Mssql, InteractionLevel::Low),
            mapped,
            1,
            EventKind::LoginAttempt {
                username: "sa".into(),
                password: "123".into(),
                success: false,
            },
        );
        log(
            hp(Dbms::Redis, InteractionLevel::Medium),
            mapped,
            2,
            cmd("INFO server"),
        );
        log(
            hp(Dbms::Redis, InteractionLevel::Medium),
            unmapped,
            1,
            cmd("INFO server"),
        );
        log(
            hp(Dbms::Postgres, InteractionLevel::High),
            unmapped,
            1,
            EventKind::Disconnect,
        );
        (store, geo, mapped, unmapped)
    }

    #[test]
    fn interner_shares_allocations() {
        let mut interner = Interner::new();
        let a = interner.intern("INFO server");
        let b = interner.intern("INFO server");
        let c = interner.intern("KEYS *");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(interner.resolve(a), "INFO server");
        assert_eq!(interner.resolve(c), "KEYS *");
        assert_eq!(interner.len(), 2);
        assert!(!interner.is_empty());
    }

    /// A row is at most 48 bytes, and holds no `Arc` (it is `Copy`) and no
    /// `IpAddr` (its source is a `u32` id).
    #[test]
    fn a_row_is_at_most_48_bytes() {
        fn copy<T: Copy>() {}
        copy::<FrameEvent>();
        assert!(std::mem::size_of::<FrameEvent>() <= 48);
        assert_eq!(std::mem::size_of::<Option<Sym>>(), 4);
        let (store, geo, mapped, _) = fixture();
        let frame = AnalysisFrame::build(&store, &geo);
        let first = &frame.events()[0];
        let id: u32 = first.source;
        assert_eq!(frame.src(first), mapped);
        assert_eq!(frame.sources()[id as usize], mapped);
    }

    #[test]
    fn build_partitions_and_sessions() {
        let (store, geo, _, _) = fixture();
        let frame = AnalysisFrame::build(&store, &geo);
        assert_eq!(frame.len(), 5);
        assert!(!frame.is_empty());
        assert_eq!(frame.view(Partition::Low).len(), 2);
        assert_eq!(frame.view(Partition::MedHigh).len(), 3);
        assert_eq!(
            frame.view(Partition::Low).len() + frame.view(Partition::MedHigh).len(),
            frame.view(Partition::All).len()
        );
        // sessions: (mssql, mapped, 1), (redis-med, mapped, 2),
        // (redis-med, unmapped, 1), (pg-high, unmapped, 1)
        assert_eq!(frame.session_count(), 4);
        assert_eq!(frame.session_count(), store.session_count());
    }

    #[test]
    fn enrichment_is_memoized_and_matches_geo() {
        let (store, geo, mapped, unmapped) = fixture();
        let frame = AnalysisFrame::build(&store, &geo);
        assert_eq!(frame.distinct_sources(), 2);
        let meta = frame.meta(mapped).expect("mapped source enriched");
        assert_eq!(meta.asn, 4134);
        assert_eq!(frame.country(mapped), geo.lookup(mapped).unwrap().country);
        assert!(frame.meta(unmapped).is_none());
        assert_eq!(frame.country(unmapped), "??");
        // unknown IP: not in frame at all
        assert!(frame.meta("198.51.100.99".parse().unwrap()).is_none());
    }

    #[test]
    fn identical_strings_are_interned_once() {
        let (store, geo, mapped, unmapped) = fixture();
        let frame = AnalysisFrame::build(&store, &geo);
        // "INFO server" appears twice (from two different sources) but is
        // one symbol.
        let actions: Vec<Sym> = frame
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                FrameKind::Command { action, .. } => Some(action),
                _ => None,
            })
            .collect();
        assert_eq!(actions.len(), 2);
        assert_eq!(actions[0], actions[1]);
        assert_eq!(frame.string(actions[0]), "INFO server");
        match frame.kind(&frame.events()[1]) {
            FrameKindRef::LoginAttempt {
                username, password, ..
            } => assert_eq!((username, password), ("sa", "123")),
            other => panic!("{other:?}"),
        }
        // pool: "sa", "123", "INFO server" (action == raw collapses too)
        assert_eq!(frame.interned_strings(), 3);
        let _ = (mapped, unmapped);
    }

    #[test]
    fn source_ids_ascend_and_lookups_agree() {
        let (store, geo, mapped, unmapped) = fixture();
        let IpAddr::V4(v4) = mapped else {
            panic!("fixture sources are IPv4")
        };
        // the mapped source's IPv6 twin: a distinct, unmapped source
        let twin = IpAddr::V6(v4.to_ipv6_mapped());
        store.log(Event {
            ts: EXPERIMENT_START,
            honeypot: hp(Dbms::Mssql, InteractionLevel::Low),
            src: twin,
            session: 1,
            kind: EventKind::Connect,
        });
        let frame = AnalysisFrame::build(&store, &geo);
        let sources = frame.sources();
        assert_eq!(sources.len(), frame.distinct_sources());
        assert_eq!(sources.len(), 3);
        assert!(sources.windows(2).all(|w| w[0] < w[1]), "{sources:?}");
        for (id, &ip) in sources.iter().enumerate() {
            let id = u32::try_from(id).unwrap();
            assert_eq!(frame.source_id(ip), Some(id));
            assert_eq!(frame.source_meta(id), frame.meta(ip));
            assert_eq!(frame.source_country(id), frame.country(ip));
        }
        assert!(frame.meta(mapped).is_some());
        assert!(frame.meta(unmapped).is_none() && frame.meta(twin).is_none());
        assert_eq!(frame.source_id("198.51.100.99".parse().unwrap()), None);
        assert_eq!(frame.source_meta(3), None);
        assert_eq!(frame.source_country(3), "??");
        // every event carries its source's id, and every id is used
        let logged = store.all();
        assert_eq!(frame.len(), logged.len());
        for (event, logged) in frame.events().iter().zip(&logged) {
            assert_eq!(sources[event.source as usize], logged.src);
            assert_eq!(frame.src(event), logged.src);
        }
        let mut used = BTreeSet::new();
        for partition in [Partition::All, Partition::Low, Partition::MedHigh] {
            let view = frame.view(partition);
            assert_eq!(view.events().count(), view.len());
            for event in view.events() {
                assert_eq!(view.src(event), sources[event.source as usize]);
                used.insert(event.source);
            }
        }
        assert!(used.into_iter().eq(0..3));
    }

    /// The batch build folds the store's chunks on 1 to 8 workers to one
    /// frame: every worker's block lands in it, in log order, whichever
    /// chunks fell to which worker. The frame is everything the report
    /// renders from, compared whole (rows, partitions, tables, enrichment,
    /// session count, health), here and against a serial fold of the log.
    #[test]
    fn build_folds_every_chunk_at_every_worker_count() {
        let store = EventStore::new();
        let mut rng = decoy_base::Rng::seed_from_u64(0xF01D);
        let levels = [
            InteractionLevel::Low,
            InteractionLevel::Medium,
            InteractionLevel::High,
        ];
        let mut sessions = [0u64; 6];
        while store.read(|log| log.chunks().len()) < 8 {
            let n = rng.next_u64();
            let which = (n % 6) as usize;
            sessions[which] += 1;
            let honeypot = hp(Dbms::all()[which], levels[which % 3]);
            let src = match (n >> 8) % 40 {
                0 => IpAddr::from([0x2001, 0xdb8, 0, 0, 0, 0, 0, (n >> 16) as u16 % 7]),
                k => IpAddr::from([198, 51, 100, k as u8]),
            };
            let session = sessions[which];
            let at = |ms: u64, kind| Event {
                ts: EXPERIMENT_START.add_millis((n >> 20) % 86_400_000 + ms),
                honeypot,
                src,
                session,
                kind,
            };
            let mut events = vec![at(0, EventKind::Connect)];
            for i in 0..(n >> 40) % 4 {
                events.push(at(
                    i + 1,
                    match (n >> (44 + i)) % 3 {
                        0 => EventKind::LoginAttempt {
                            username: ["sa", "root", "admin"][(i % 3) as usize].into(),
                            password: format!("pw{}", (n >> 48) % 50),
                            success: false,
                        },
                        1 => cmd(&format!("GET key{}", (n >> 52) % 30)),
                        _ => EventKind::Payload {
                            len: 4,
                            recognized: None,
                            preview: "\u{1}x".into(),
                        },
                    },
                ));
            }
            if n % 97 == 0 {
                events.push(at(
                    9,
                    EventKind::Health {
                        state: decoy_base::HealthState::Degraded,
                        restarts: 1,
                        detail: "stall".into(),
                    },
                ));
            }
            events.push(at(10, EventKind::Disconnect));
            store.log_many(events);
        }
        let geo = GeoDb::builtin();
        let enricher = GeoEnricher::new(Arc::clone(&geo));
        let one = AnalysisFrame::build_on(&store, &enricher, 1);
        let mut serial = crate::fold::PartialFrame::new(0);
        for event in store.all() {
            serial.push(&event, &enricher);
        }
        assert!(one == serial.seal(), "one worker is the serial fold");
        assert_eq!(one.len() + one.health_events().len(), store.len());
        assert_eq!(one.session_count(), store.session_count());
        for workers in 2..=8 {
            let enricher = GeoEnricher::new(Arc::clone(&geo));
            let frame = AnalysisFrame::build_on(&store, &enricher, workers);
            assert!(frame == one, "{workers} workers");
        }
    }

    #[test]
    fn a_family_index_is_its_position_in_dbms_all() {
        let families: [Dbms; FAMILIES] = Dbms::all();
        for (i, dbms) in families.into_iter().enumerate() {
            assert_eq!(dbms as usize, i);
        }
        let keys: Vec<Option<Dbms>> = panel_keys().collect();
        assert_eq!(keys.len(), PANELS);
        assert_eq!(keys[0], None);
        assert!(keys[1..].iter().zip(families).all(|(k, d)| *k == Some(d)));
    }

    #[test]
    fn views_filter_to_one_family_in_log_order() {
        let (store, geo, mapped, _) = fixture();
        let frame = AnalysisFrame::build(&store, &geo);
        let mh = frame.view(Partition::MedHigh);
        assert_eq!(mh.partition(), Partition::MedHigh);
        let redis: Vec<&FrameEvent> = mh.events_of(Some(Dbms::Redis)).collect();
        assert_eq!(redis.len(), 2);
        assert_eq!(mh.src(redis[0]), mapped);
        assert!(mh.events_of(Some(Dbms::Mssql)).next().is_none());
        let all: Vec<&FrameEvent> = mh.events_of(None).collect();
        assert_eq!(all.len(), 3);
        // iterator agreement with a filter over the store's log
        let store_redis = store.filter(|e| e.honeypot.dbms == Dbms::Redis);
        assert_eq!(redis.len(), store_redis.len());
        for (f, e) in redis.iter().zip(&store_redis) {
            assert_eq!(mh.src(f), e.src);
            assert_eq!(f.ts, e.ts);
        }
        assert!(!mh.is_empty());
        assert_eq!(mh.events().len(), 3);
        assert_eq!(mh.frame().len(), 5);
        assert_eq!(mh.meta(mapped).unwrap().asn, 4134);
        assert_eq!(mh.country(mapped), "CN");
    }
}
