//! The standardized event store (the paper's SQLite pipeline stage).
//!
//! Every honeypot session appends [`Event`]s here through a cheaply clonable
//! handle. The store is the log and nothing else. An append encodes the
//! event once, as the journal's record payload behind a varint length, into
//! the store's current fixed-size byte [`Chunk`], and notes its `(honeypot,
//! session, source)` in a [`SessionSet`]; when spooling, the journal sink
//! frames a copy of the same bytes. No `Event` is kept. Readers walk the
//! chunks in place ([`EventStore::read`]), decoding each record into a
//! borrowed [`EventRef`] as it is visited; the analysis crate folds the
//! chunks into its frame on every core, and the query methods here decode
//! through the same walk.

use crate::journal::decode::Payloads;
use crate::journal::{encode, JournalSink};
use decoy_base::json::{self, Value};
use decoy_base::sync::RwLock;
use decoy_base::time::Timestamp;
use decoy_base::HealthState;
use std::fmt;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which database a honeypot emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dbms {
    /// MySQL (port 3306).
    MySql,
    /// PostgreSQL (port 5432).
    Postgres,
    /// Redis (port 6379).
    Redis,
    /// Microsoft SQL Server (port 1433).
    Mssql,
    /// Elasticsearch (port 9200).
    Elastic,
    /// MongoDB (port 27017).
    MongoDb,
    /// CouchDB (port 5984) — coverage extension beyond Table 4 (the
    /// paper's limitations section names it as future work).
    CouchDb,
}

impl Dbms {
    /// The standard TCP port of this DBMS (Table 4).
    pub fn port(&self) -> u16 {
        match self {
            Dbms::MySql => 3306,
            Dbms::Postgres => 5432,
            Dbms::Redis => 6379,
            Dbms::Mssql => 1433,
            Dbms::Elastic => 9200,
            Dbms::MongoDb => 27017,
            Dbms::CouchDb => 5984,
        }
    }

    /// Display name used in tables (matches the paper's abbreviations).
    pub fn label(&self) -> &'static str {
        match self {
            Dbms::MySql => "MySQL",
            Dbms::Postgres => "PostgreSQL",
            Dbms::Redis => "Redis",
            Dbms::Mssql => "MSSQL",
            Dbms::Elastic => "Elastic",
            Dbms::MongoDb => "MongoDB",
            Dbms::CouchDb => "CouchDB",
        }
    }

    /// All DBMS in a stable order.
    pub fn all() -> [Dbms; 7] {
        [
            Dbms::MySql,
            Dbms::Postgres,
            Dbms::Redis,
            Dbms::Mssql,
            Dbms::Elastic,
            Dbms::MongoDb,
            Dbms::CouchDb,
        ]
    }
}

/// Honeypot interaction level (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InteractionLevel {
    /// Qeeqbox-style: banner + credential capture only.
    Low,
    /// Protocol emulation with scripted responses.
    Medium,
    /// A real database engine behind the protocol.
    High,
}

/// Deployment configuration variant (Table 4 / §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConfigVariant {
    /// Out-of-the-box configuration.
    Default,
    /// Populated with Mockaroo-style fake entries (Redis medium, MongoDB).
    FakeData,
    /// Logins always rejected (Sticky Elephant restricted variant).
    LoginDisabled,
    /// Low-interaction VM hosting all four DBMS on one IP.
    MultiService,
    /// Low-interaction control group: one DBMS per IP.
    SingleService,
}

/// Identifies one deployed honeypot instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HoneypotId {
    /// Emulated DBMS.
    pub dbms: Dbms,
    /// Interaction level.
    pub level: InteractionLevel,
    /// Configuration variant.
    pub config: ConfigVariant,
    /// Instance number within its (dbms, level, config) group.
    pub instance: u16,
}

impl HoneypotId {
    /// Construct an id.
    pub fn new(dbms: Dbms, level: InteractionLevel, config: ConfigVariant, instance: u16) -> Self {
        HoneypotId {
            dbms,
            level,
            config,
            instance,
        }
    }
}

impl fmt::Display for HoneypotId {
    /// `MySQL/Low/SingleService#0`: family, level, configuration, instance.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (level, config, instance) = (self.level, self.config, self.instance);
        write!(f, "{}/{level:?}/{config:?}#{instance}", self.dbms.label())
    }
}

/// `(source IP, session sequence)` — the unit the paper groups actions by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionKey {
    /// Source address of the session.
    pub src: IpAddr,
    /// Per-honeypot session sequence number.
    pub session: u64,
}

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// TCP connection accepted.
    Connect,
    /// Connection ended (by either side).
    Disconnect,
    /// An authentication attempt with the captured credentials.
    LoginAttempt {
        /// Username as typed.
        username: String,
        /// Password as observed (cleartext where the protocol allows).
        password: String,
        /// Whether the honeypot granted access.
        success: bool,
    },
    /// A command/query executed against the emulated DBMS.
    Command {
        /// Normalized action token used for TF clustering (§6.1): the verb
        /// with volatile parameters (hashes, IPs, ports) masked.
        action: String,
        /// The raw rendered command, verbatim.
        raw: String,
    },
    /// An opaque payload that did not parse as the DBMS protocol.
    Payload {
        /// Captured byte count.
        len: usize,
        /// Recognized foreign protocol label (`rdp-scan`, ...), if any.
        recognized: Option<String>,
        /// Lossy text rendering for the logs.
        preview: String,
    },
    /// Input that violated the protocol grammar.
    Malformed {
        /// Human-readable description.
        detail: String,
    },
    /// A fleet-supervision health transition (operational telemetry, not
    /// attacker traffic; logged with a zero source and session).
    Health {
        /// State the supervised listener entered.
        state: HealthState,
        /// Total restarts of that listener so far.
        restarts: u32,
        /// Human-readable cause.
        detail: String,
    },
}

impl EventKind {
    /// True for kinds that constitute "meaningful interaction beyond basic
    /// connection" in the paper's classification (§4.3).
    pub fn is_interactive(&self) -> bool {
        !matches!(
            self,
            EventKind::Connect | EventKind::Disconnect | EventKind::Health { .. }
        )
    }
}

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// When it happened (virtual time in experiments).
    pub ts: Timestamp,
    /// Which honeypot logged it.
    pub honeypot: HoneypotId,
    /// Source address.
    pub src: IpAddr,
    /// Per-honeypot session sequence number.
    pub session: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// This event as a borrowed record.
    pub fn view(&self) -> EventRef<'_> {
        let kind = match &self.kind {
            EventKind::Connect => EventKindRef::Connect,
            EventKind::Disconnect => EventKindRef::Disconnect,
            EventKind::LoginAttempt {
                username,
                password,
                success,
            } => EventKindRef::LoginAttempt {
                username,
                password,
                success: *success,
            },
            EventKind::Command { action, raw } => EventKindRef::Command { action, raw },
            EventKind::Payload {
                len,
                recognized,
                preview,
            } => EventKindRef::Payload {
                len: *len,
                recognized: recognized.as_deref(),
                preview,
            },
            EventKind::Malformed { detail } => EventKindRef::Malformed { detail },
            EventKind::Health {
                state,
                restarts,
                detail,
            } => EventKindRef::Health {
                state: *state,
                restarts: *restarts,
                detail,
            },
        };
        EventRef {
            ts: self.ts,
            honeypot: self.honeypot,
            src: self.src,
            session: self.session,
            kind,
        }
    }
}

/// [`EventKind`] with every string borrowed instead of owned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKindRef<'a> {
    /// TCP connection accepted.
    Connect,
    /// Connection ended (by either side).
    Disconnect,
    /// An authentication attempt with the captured credentials.
    LoginAttempt {
        /// Username as typed.
        username: &'a str,
        /// Password as observed.
        password: &'a str,
        /// Whether the honeypot granted access.
        success: bool,
    },
    /// A command/query executed against the emulated DBMS.
    Command {
        /// Normalized action token.
        action: &'a str,
        /// The raw rendered command, verbatim.
        raw: &'a str,
    },
    /// An opaque payload that did not parse as the DBMS protocol.
    Payload {
        /// Captured byte count.
        len: usize,
        /// Recognized foreign protocol label, if any.
        recognized: Option<&'a str>,
        /// Lossy text rendering for the logs.
        preview: &'a str,
    },
    /// Input that violated the protocol grammar.
    Malformed {
        /// Human-readable description.
        detail: &'a str,
    },
    /// A fleet-supervision health transition.
    Health {
        /// State the supervised listener entered.
        state: HealthState,
        /// Total restarts of that listener so far.
        restarts: u32,
        /// Human-readable cause.
        detail: &'a str,
    },
}

/// One log record whose strings borrow the buffer it was read from: the
/// journal decoder hands these to its visitors, so reading a segment
/// allocates nothing per record. [`Event::view`] borrows an owned event
/// and [`EventRef::to_event`] copies one out for a caller that keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRef<'a> {
    /// When it happened.
    pub ts: Timestamp,
    /// Which honeypot logged it.
    pub honeypot: HoneypotId,
    /// Source address.
    pub src: IpAddr,
    /// Per-honeypot session sequence number.
    pub session: u64,
    /// What happened, with borrowed strings.
    pub kind: EventKindRef<'a>,
}

impl EventRef<'_> {
    /// An owned copy of this record.
    pub fn to_event(self) -> Event {
        let kind = match self.kind {
            EventKindRef::Connect => EventKind::Connect,
            EventKindRef::Disconnect => EventKind::Disconnect,
            EventKindRef::LoginAttempt {
                username,
                password,
                success,
            } => EventKind::LoginAttempt {
                username: username.to_owned(),
                password: password.to_owned(),
                success,
            },
            EventKindRef::Command { action, raw } => EventKind::Command {
                action: action.to_owned(),
                raw: raw.to_owned(),
            },
            EventKindRef::Payload {
                len,
                recognized,
                preview,
            } => EventKind::Payload {
                len,
                recognized: recognized.map(str::to_owned),
                preview: preview.to_owned(),
            },
            EventKindRef::Malformed { detail } => EventKind::Malformed {
                detail: detail.to_owned(),
            },
            EventKindRef::Health {
                state,
                restarts,
                detail,
            } => EventKind::Health {
                state,
                restarts,
                detail: detail.to_owned(),
            },
        };
        Event {
            ts: self.ts,
            honeypot: self.honeypot,
            src: self.src,
            session: self.session,
            kind,
        }
    }
}

impl<'a> From<&'a Event> for EventRef<'a> {
    fn from(event: &'a Event) -> Self {
        event.view()
    }
}

impl EventRef<'_> {
    /// Write this event as one line of the Appendix-B dataset, in the
    /// layout serde's derives give these types: fields in declaration order,
    /// `ts` a bare number, `src` its display string, unit variants by name
    /// and struct variants as `{"Name":{fields}}`.
    fn write_json<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        let HoneypotId {
            dbms,
            level,
            config,
            instance,
        } = self.honeypot;
        write!(
            out,
            r#"{{"ts":{},"honeypot":{{"dbms":"{}","level":"{}","config":"{}","instance":{instance}}},"src":"{}","session":{},"kind":"#,
            self.ts.as_millis(),
            dbms.variant_name(),
            level.variant_name(),
            config.variant_name(),
            self.src,
            self.session,
        )?;
        match self.kind {
            EventKindRef::Connect => out.write_str(r#""Connect""#)?,
            EventKindRef::Disconnect => out.write_str(r#""Disconnect""#)?,
            EventKindRef::LoginAttempt {
                username,
                password,
                success,
            } => {
                out.write_str(r#"{"LoginAttempt":{"username":"#)?;
                json::quote(out, username)?;
                out.write_str(r#","password":"#)?;
                json::quote(out, password)?;
                write!(out, r#","success":{success}}}}}"#)?;
            }
            EventKindRef::Command { action, raw } => {
                out.write_str(r#"{"Command":{"action":"#)?;
                json::quote(out, action)?;
                out.write_str(r#","raw":"#)?;
                json::quote(out, raw)?;
                out.write_str("}}")?;
            }
            EventKindRef::Payload {
                len,
                recognized,
                preview,
            } => {
                write!(out, r#"{{"Payload":{{"len":{len},"recognized":"#)?;
                match recognized {
                    Some(label) => json::quote(out, label)?,
                    None => out.write_str("null")?,
                }
                out.write_str(r#","preview":"#)?;
                json::quote(out, preview)?;
                out.write_str("}}")?;
            }
            EventKindRef::Malformed { detail } => {
                out.write_str(r#"{"Malformed":{"detail":"#)?;
                json::quote(out, detail)?;
                out.write_str("}}")?;
            }
            EventKindRef::Health {
                state,
                restarts,
                detail,
            } => {
                let state = state.variant_name();
                write!(
                    out,
                    r#"{{"Health":{{"state":"{state}","restarts":{restarts},"detail":"#
                )?;
                json::quote(out, detail)?;
                out.write_str("}}")?;
            }
        }
        out.write_char('}')
    }
}

impl Event {
    /// Read one line written by `EventRef::write_json`. Fields may come in
    /// any order, unknown fields are ignored and a missing `recognized` is
    /// `None`, as serde's derives read them.
    fn from_json(v: &Value) -> Result<Event, String> {
        let honeypot = member(v, "honeypot", Some)?;
        Ok(Event {
            ts: Timestamp(member(v, "ts", Value::as_u64)?),
            honeypot: HoneypotId {
                dbms: member(honeypot, "dbms", variant)?,
                level: member(honeypot, "level", variant)?,
                config: member(honeypot, "config", variant)?,
                instance: member(honeypot, "instance", integer)?,
            },
            src: member(v, "src", |src| src.as_str()?.parse().ok())?,
            session: member(v, "session", Value::as_u64)?,
            kind: EventKind::from_json(member(v, "kind", Some)?)?,
        })
    }
}

impl EventKind {
    /// Read serde's externally tagged form: `"Name"` for a unit variant,
    /// `{"Name":{fields}}` for a struct variant.
    fn from_json(v: &Value) -> Result<EventKind, String> {
        let unknown = |name: &str| format!("field `kind`: unknown event kind `{name}`");
        if let Some(name) = v.as_str() {
            return match name {
                "Connect" => Ok(EventKind::Connect),
                "Disconnect" => Ok(EventKind::Disconnect),
                _ => Err(unknown(name)),
            };
        }
        let tagged = v.as_object().filter(|map| map.len() == 1);
        let Some((name, f)) = tagged.and_then(|map| map.iter().next()) else {
            return Err("field `kind`: not an event kind".to_string());
        };
        Ok(match name.as_str() {
            "LoginAttempt" => EventKind::LoginAttempt {
                username: member(f, "username", string)?,
                password: member(f, "password", string)?,
                success: member(f, "success", Value::as_bool)?,
            },
            "Command" => EventKind::Command {
                action: member(f, "action", string)?,
                raw: member(f, "raw", string)?,
            },
            "Payload" => EventKind::Payload {
                len: member(f, "len", integer)?,
                recognized: match f.get("recognized") {
                    None | Some(Value::Null) => None,
                    Some(_) => Some(member(f, "recognized", string)?),
                },
                preview: member(f, "preview", string)?,
            },
            "Malformed" => EventKind::Malformed {
                detail: member(f, "detail", string)?,
            },
            "Health" => EventKind::Health {
                state: member(f, "state", variant)?,
                restarts: member(f, "restarts", integer)?,
                detail: member(f, "detail", string)?,
            },
            _ => return Err(unknown(name)),
        })
    }
}

/// Member `key` of the object `v`, converted by `read`.
fn member<'a, T>(
    v: &'a Value,
    key: &str,
    read: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, String> {
    v.get(key)
        .and_then(read)
        .ok_or_else(|| format!("field `{key}` is missing or invalid"))
}

fn string(v: &Value) -> Option<String> {
    v.as_str().map(str::to_string)
}

fn integer<T: TryFrom<u64>>(v: &Value) -> Option<T> {
    T::try_from(v.as_u64()?).ok()
}

fn variant<T: VariantName>(v: &Value) -> Option<T> {
    T::from_variant_name(v.as_str()?)
}

/// The name serde gives a unit variant (its identifier), both ways: the
/// dataset export writes and reads these enums by name.
trait VariantName: Sized {
    fn variant_name(self) -> &'static str;
    fn from_variant_name(name: &str) -> Option<Self>;
}

macro_rules! variant_names {
    ($($ty:ty: $($variant:ident),+;)+) => {$(
        impl VariantName for $ty {
            fn variant_name(self) -> &'static str {
                match self {
                    $(Self::$variant => stringify!($variant),)+
                }
            }

            fn from_variant_name(name: &str) -> Option<Self> {
                match name {
                    $(stringify!($variant) => Some(Self::$variant),)+
                    _ => None,
                }
            }
        }
    )+};
}

variant_names! {
    Dbms: MySql, Postgres, Redis, Mssql, Elastic, MongoDb, CouchDb;
    InteractionLevel: Low, Medium, High;
    ConfigVariant: Default, FakeData, LoginDisabled, MultiService, SingleService;
    HealthState: Healthy, Degraded, Down;
}

/// Distinct `(honeypot, session, source)` triples, counted as they are
/// inserted: the store's session list (sources as addresses) and a sealed
/// frame's (sources as dense ids).
///
/// Each honeypot keeps its `(session, source)` pairs sorted and distinct.
/// A honeypot numbers its sessions in order, and a session's events are
/// contiguous, or nearly so, in the log, so an insert almost always repeats
/// its bucket's last pair or goes after it; anything else costs a binary
/// search, plus, for a session first seen out of order, an insert inside
/// its bucket. No hashing is involved, so attacker-chosen sources cannot
/// force collisions.
#[derive(Debug, Clone)]
pub struct SessionSet<K> {
    /// Per honeypot, ascending by honeypot: its sorted, distinct pairs.
    per_honeypot: Vec<(HoneypotId, Vec<(u64, K)>)>,
    /// Index in `per_honeypot` of the honeypot inserted last.
    slot: usize,
    /// Distinct triples.
    len: usize,
}

impl<K> Default for SessionSet<K> {
    fn default() -> Self {
        SessionSet {
            per_honeypot: Vec::new(),
            slot: 0,
            len: 0,
        }
    }
}

impl<K: Copy + Ord> SessionSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        SessionSet::default()
    }

    /// Add session `session` from `source` on `honeypot`, if it is new.
    pub fn insert(&mut self, honeypot: HoneypotId, session: u64, source: K) {
        if self.per_honeypot.get(self.slot).map(|(h, _)| *h) != Some(honeypot) {
            let found = self
                .per_honeypot
                .binary_search_by_key(&honeypot, |(h, _)| *h);
            self.slot = found.unwrap_or_else(|slot| {
                self.per_honeypot.insert(slot, (honeypot, Vec::new()));
                slot
            });
        }
        let Some((_, pairs)) = self.per_honeypot.get_mut(self.slot) else {
            return;
        };
        let pair = (session, source);
        match pairs.last() {
            Some(last) if *last == pair => return,
            Some(last) if *last > pair => match pairs.binary_search(&pair) {
                Ok(_) => return,
                Err(at) => pairs.insert(at, pair),
            },
            _ => pairs.push(pair),
        }
        self.len += 1;
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every triple, ascending by honeypot, then session, then source.
    pub fn iter(&self) -> impl Iterator<Item = (HoneypotId, u64, K)> + '_ {
        self.per_honeypot.iter().flat_map(|(honeypot, pairs)| {
            pairs
                .iter()
                .map(move |&(session, source)| (*honeypot, session, source))
        })
    }
}

/// Capacity of one of the store's chunks. An event whose encoding does not
/// fit gets a chunk of its own.
const CHUNK_BYTES: usize = 64 * 1024;

/// Room for an event's length prefix: the longest varint.
const MAX_PREFIX: usize = 10;

/// One fixed-capacity buffer of the store's log: whole events, each the
/// journal's record payload behind its varint length.
#[derive(Debug)]
pub struct Chunk {
    /// Log position of the chunk's first event.
    start: u64,
    bytes: Vec<u8>,
}

impl Chunk {
    /// Log position of the chunk's first event: the number of events
    /// logged before it.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// The chunk's events in log order, each decoded as it is visited into
    /// a record borrowing the chunk.
    pub fn events(&self) -> impl Iterator<Item = EventRef<'_>> {
        Payloads::new(&self.bytes)
    }
}

/// The store's events, read in place under its read lock (see
/// [`EventStore::read`]).
#[derive(Debug, Clone, Copy)]
pub struct EventLog<'a> {
    chunks: &'a [Chunk],
    len: usize,
}

impl<'a> EventLog<'a> {
    /// Number of events.
    pub fn len(self) -> usize {
        self.len
    }

    /// True when no events have been logged.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The chunks, in log order: what a parallel fold splits.
    pub fn chunks(self) -> &'a [Chunk] {
        self.chunks
    }

    /// Every event in log order, decoded as it is visited.
    pub fn iter(self) -> impl Iterator<Item = EventRef<'a>> {
        self.chunks.iter().flat_map(Chunk::events)
    }
}

/// Append-only event store shared by all honeypots in a deployment.
///
/// Writers call [`EventStore::log`]; readers take a consistent snapshot via
/// the query methods. Locking is a single `RwLock` — honeypot sessions write
/// in short bursts, analysis reads after the run.
#[derive(Debug, Default)]
pub struct EventStore {
    inner: RwLock<Inner>,
    /// Fault-injection hook consulted before every append (chaos testing).
    fault_hook: RwLock<Option<FaultHook>>,
    /// Appends dropped by the fault hook.
    dropped: AtomicU64,
    /// Durable journal writer, when spooling is enabled (see
    /// [`EventStore::with_journal`]). Kept here so the store owns the
    /// writer's lifetime: dropping the store flushes and joins the writer.
    journal: RwLock<Option<crate::journal::JournalWriter>>,
}

/// Wrapper so the hook can live inside a `Debug` store.
struct FaultHook(Arc<dyn Fn(&Event) -> bool + Send + Sync>);

impl fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FaultHook")
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// The log: every event encoded, in append order.
    chunks: Vec<Chunk>,
    /// Events logged.
    len: usize,
    /// Every `(honeypot, session, source)` logged.
    sessions: SessionSet<IpAddr>,
    /// The encoding of the event being appended.
    scratch: Vec<u8>,
    /// Journal sink, when spooling is enabled. Living inside `Inner`
    /// means each event is framed into the journal under the same write
    /// lock as the append, so the journal sees events in exactly the
    /// store's order.
    sink: Option<JournalSink>,
}

impl Inner {
    /// Append one event under the held write lock: encode it into the
    /// current chunk (starting a new one when it does not fit, the only
    /// allocation here), note its session, and hand its bytes to the
    /// journal sink when spooling. The single place events enter the log —
    /// the fault hook has already run by the time an event gets here, so a
    /// dropped append is dropped from the journal too.
    // decoy-hot-path: fn -- runs under the store write lock, once per logged event
    fn append_locked(&mut self, event: &Event) {
        self.sessions
            .insert(event.honeypot, event.session, event.src);
        self.scratch.clear();
        encode::put_event(&mut self.scratch, event.view());
        let need = self.scratch.len().saturating_add(MAX_PREFIX);
        let fits = |chunk: &Chunk| chunk.bytes.capacity() - chunk.bytes.len() >= need;
        if !self.chunks.last().is_some_and(fits) {
            self.chunks.push(Chunk {
                start: self.len as u64,
                // decoy-lint: allow(alloc-vec) -- one chunk per 64 KiB of encoded events
                bytes: Vec::with_capacity(CHUNK_BYTES.max(need)),
            });
        }
        if let Some(chunk) = self.chunks.last_mut() {
            encode::put_varint(&mut chunk.bytes, self.scratch.len() as u64);
            chunk.bytes.extend_from_slice(&self.scratch);
        }
        if let Some(sink) = &self.sink {
            sink.send(&self.scratch);
        }
        self.len += 1;
    }

    fn log(&self) -> EventLog<'_> {
        EventLog {
            chunks: &self.chunks,
            len: self.len,
        }
    }
}

impl EventStore {
    /// A fresh, empty store behind an `Arc` handle.
    pub fn new() -> Arc<Self> {
        Arc::new(EventStore::default())
    }

    /// Append one event. When a fault hook is installed and claims the
    /// event, the append is dropped and counted instead — the writer never
    /// learns, exactly like a lost log line in a real pipeline.
    pub fn log(&self, event: Event) {
        if self.hook_drops(&event) {
            return;
        }
        self.inner.write().append_locked(&event);
    }

    /// Install a fault hook consulted before every append; events for which
    /// it returns `true` are silently dropped (see
    /// [`EventStore::dropped_appends`]). Chaos tests use this to prove the
    /// pipeline tolerates log loss.
    pub fn set_fault_hook(&self, hook: impl Fn(&Event) -> bool + Send + Sync + 'static) {
        *self.fault_hook.write() = Some(FaultHook(Arc::new(hook)));
    }

    /// Remove the fault hook.
    pub fn clear_fault_hook(&self) {
        *self.fault_hook.write() = None;
    }

    /// Number of appends dropped by the fault hook.
    pub fn dropped_appends(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn hook_drops(&self, event: &Event) -> bool {
        let hook = self.fault_hook.read();
        match hook.as_ref() {
            Some(h) if (h.0)(event) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Attach a durable journal: every event that survives the fault hook
    /// is framed into `writer`'s pending records from inside
    /// `append_locked`, from the bytes the store keeps and under the same
    /// write lock as the in-memory append, so the on-disk order is exactly
    /// the store order. The store takes ownership of the writer; call
    /// [`EventStore::close_journal`] (or drop the store) to flush and
    /// fsync, and [`EventStore::journal_sync`] for an explicit barrier.
    pub fn with_journal(&self, writer: crate::journal::JournalWriter) {
        self.inner.write().sink = writer.sink();
        *self.journal.write() = Some(writer);
    }

    /// Block until every event logged so far is on disk (no-op without an
    /// attached journal).
    pub fn journal_sync(&self) -> std::io::Result<()> {
        match self.journal.read().as_ref() {
            Some(writer) => writer.sync(),
            None => Ok(()),
        }
    }

    /// Detach and shut down the journal, returning its final counters
    /// (`Ok(None)` when no journal was attached).
    pub fn close_journal(&self) -> std::io::Result<Option<crate::journal::WriterStats>> {
        self.inner.write().sink = None;
        let writer = self.journal.write().take();
        match writer {
            Some(writer) => writer.close().map(Some),
            None => Ok(None),
        }
    }

    /// Append many events at once (used by the direct-mode generator). The
    /// fault hook applies per event, as in [`EventStore::log`], but the
    /// write lock is taken once for the whole batch.
    pub fn log_many(&self, events: impl IntoIterator<Item = Event>) {
        let hook = self.fault_hook.read();
        let mut inner = self.inner.write();
        for event in events {
            if let Some(h) = hook.as_ref() {
                if (h.0)(&event) {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            inner.append_locked(&event);
        }
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.inner.read().len
    }

    /// True when no events have been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read access in place: run `f` over the log under the read lock. The
    /// log's records are decoded as they are visited, borrowing the store's
    /// chunks, so a walk allocates nothing per event.
    ///
    /// `f` must not call back into this store (the lock is held).
    pub fn read<T>(&self, f: impl FnOnce(EventLog<'_>) -> T) -> T {
        let inner = self.inner.read();
        f(inner.log())
    }

    /// Snapshot of all events in log order.
    pub fn all(&self) -> Vec<Event> {
        self.read(|log| log.iter().map(EventRef::to_event).collect())
    }

    /// Distinct source IPs observed, ascending (walks the log).
    pub fn sources(&self) -> Vec<IpAddr> {
        let mut sources: Vec<IpAddr> = self.read(|log| log.iter().map(|e| e.src).collect());
        sources.sort_unstable();
        sources.dedup();
        sources
    }

    /// Events matching an arbitrary predicate (the "any query" escape hatch).
    pub fn filter(&self, pred: impl Fn(&Event) -> bool) -> Vec<Event> {
        self.read(|log| {
            log.iter()
                .map(EventRef::to_event)
                .filter(|e| pred(e))
                .collect()
        })
    }

    /// True when both stores hold identical event sequences, compared
    /// record by record as they are decoded.
    ///
    /// Two locks of the same kind are taken, so the acquisition order is
    /// fixed by address: concurrent `a.events_eq(b)` / `b.events_eq(a)`
    /// callers take the locks in the same global order and cannot
    /// deadlock each other.
    pub fn events_eq(&self, other: &EventStore) -> bool {
        if std::ptr::eq(self, other) {
            return true;
        }
        let (first, second) = if std::ptr::from_ref(self) < std::ptr::from_ref(other) {
            (self, other)
        } else {
            (other, self)
        };
        // decoy-lint: allow(lock-order) -- address-ordered acquisition above fixes a global order
        let a = first.inner.read();
        let b = second.inner.read();
        a.len == b.len && a.log().iter().eq(b.log().iter())
    }

    /// Number of distinct `(honeypot, session)` groups observed (counted at
    /// append).
    pub fn session_count(&self) -> usize {
        self.inner.read().sessions.len()
    }

    /// All `(honeypot, session key)` pairs observed, sorted (from the
    /// session list kept at append).
    pub fn session_keys(&self) -> Vec<(HoneypotId, SessionKey)> {
        let inner = self.inner.read();
        let mut keys: Vec<_> = inner
            .sessions
            .iter()
            .map(|(honeypot, session, src)| (honeypot, SessionKey { src, session }))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Events of one session, in log order (walks the log).
    pub fn by_session(&self, honeypot: HoneypotId, key: SessionKey) -> Vec<Event> {
        self.read(|log| {
            log.iter()
                .filter(|e| (e.honeypot, e.src, e.session) == (honeypot, key.src, key.session))
                .map(EventRef::to_event)
                .collect()
        })
    }

    /// Export as JSON lines (the dataset format of Appendix B): one event
    /// per line, in serde's layout.
    pub fn to_json_lines(&self) -> String {
        self.read(|log| {
            let mut out = String::new();
            for event in log.iter() {
                // writing into a String cannot fail
                let _ = event.write_json(&mut out);
                out.push('\n');
            }
            out
        })
    }

    /// Import JSON lines previously produced by [`EventStore::to_json_lines`].
    /// Blank lines are skipped; a malformed line fails the import with an
    /// error that names its 1-based line number.
    pub fn from_json_lines(text: &str) -> Result<Arc<Self>, String> {
        let mut events = Vec::new();
        for (index, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event = json::parse(line.as_bytes())
                .map_err(|e| e.to_string())
                .and_then(|v| Event::from_json(&v));
            events.push(event.map_err(|e| format!("line {}: {e}", index + 1))?);
        }
        let store = EventStore::new();
        store.log_many(events);
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_base::rng::{for_all, mutate, Rng};
    use decoy_base::time::EXPERIMENT_START;

    fn ip(n: u8) -> IpAddr {
        IpAddr::from([198, 51, 100, n])
    }

    fn hp(dbms: Dbms) -> HoneypotId {
        HoneypotId::new(dbms, InteractionLevel::Low, ConfigVariant::MultiService, 0)
    }

    fn ev(src: IpAddr, dbms: Dbms, kind: EventKind) -> Event {
        Event {
            ts: EXPERIMENT_START,
            honeypot: hp(dbms),
            src,
            session: 1,
            kind,
        }
    }

    #[test]
    fn ports_match_table4() {
        assert_eq!(Dbms::MySql.port(), 3306);
        assert_eq!(Dbms::Postgres.port(), 5432);
        assert_eq!(Dbms::Redis.port(), 6379);
        assert_eq!(Dbms::Mssql.port(), 1433);
        assert_eq!(Dbms::Elastic.port(), 9200);
        assert_eq!(Dbms::MongoDb.port(), 27017);
        assert_eq!(Dbms::CouchDb.port(), 5984);
        assert_eq!(Dbms::all().len(), 7);
    }

    #[test]
    fn log_and_query() {
        let store = EventStore::new();
        store.log(ev(ip(1), Dbms::Redis, EventKind::Connect));
        store.log(ev(ip(2), Dbms::Mssql, EventKind::Connect));
        store.log(ev(
            ip(1),
            Dbms::Redis,
            EventKind::Command {
                action: "INFO".into(),
                raw: "INFO".into(),
            },
        ));
        assert_eq!(store.len(), 3);
        assert_eq!(store.filter(|e| e.src == ip(1)).len(), 2);
        assert_eq!(store.filter(|e| e.honeypot.dbms == Dbms::Redis).len(), 2);
        assert!(store.filter(|e| e.honeypot.dbms == Dbms::MySql).is_empty());
        // ascending and distinct, whatever the log order
        store.log(ev(ip(0), Dbms::Redis, EventKind::Connect));
        assert_eq!(store.sources(), vec![ip(0), ip(1), ip(2)]);
    }

    #[test]
    fn filter_and_fold() {
        let store = EventStore::new();
        for i in 0..10u8 {
            store.log(ev(
                ip(i),
                Dbms::Postgres,
                EventKind::LoginAttempt {
                    username: "postgres".into(),
                    password: format!("pw{i}"),
                    success: false,
                },
            ));
        }
        let logins = store.filter(|e| matches!(e.kind, EventKind::LoginAttempt { .. }));
        assert_eq!(logins.len(), 10);
    }

    #[test]
    fn interactivity_classification() {
        assert!(!EventKind::Connect.is_interactive());
        assert!(!EventKind::Disconnect.is_interactive());
        assert!(EventKind::LoginAttempt {
            username: "sa".into(),
            password: "123".into(),
            success: false
        }
        .is_interactive());
        assert!(EventKind::Command {
            action: "KEYS".into(),
            raw: "KEYS *".into()
        }
        .is_interactive());
        assert!(EventKind::Payload {
            len: 14,
            recognized: Some("jdwp-scan".into()),
            preview: "JDWP-Handshake".into()
        }
        .is_interactive());
    }

    #[test]
    fn health_events_are_operational_not_interactive() {
        let kind = EventKind::Health {
            state: HealthState::Degraded,
            restarts: 2,
            detail: "accept loop died; restarting".into(),
        };
        assert!(!kind.is_interactive());
        // and they serialize like any other event
        let store = EventStore::new();
        store.log(ev(ip(1), Dbms::Redis, kind));
        let text = store.to_json_lines();
        let restored = EventStore::from_json_lines(&text).unwrap();
        assert!(restored
            .all()
            .first()
            .is_some_and(|e| matches!(e.kind, EventKind::Health { restarts: 2, .. })));
    }

    #[test]
    fn fault_hook_drops_and_counts_appends() {
        let store = EventStore::new();
        let n = std::sync::atomic::AtomicU64::new(0);
        store
            .set_fault_hook(move |_| n.fetch_add(1, std::sync::atomic::Ordering::Relaxed) % 3 == 0);
        for i in 0..9u8 {
            store.log(ev(ip(i), Dbms::Redis, EventKind::Connect));
        }
        assert_eq!(store.len(), 6, "every third append must be dropped");
        assert_eq!(store.dropped_appends(), 3);
        // batch path honors the hook too
        store.log_many((0..3u8).map(|i| ev(ip(i), Dbms::MySql, EventKind::Connect)));
        assert_eq!(store.dropped_appends(), 4);
        store.clear_fault_hook();
        store.log(ev(ip(9), Dbms::Redis, EventKind::Connect));
        assert_eq!(store.dropped_appends(), 4);
    }

    #[test]
    fn json_lines_roundtrip() {
        let store = EventStore::new();
        store.log(ev(ip(7), Dbms::MongoDb, EventKind::Connect));
        store.log(ev(
            ip(7),
            Dbms::MongoDb,
            EventKind::Command {
                action: "listDatabases".into(),
                raw: "listDatabases".into(),
            },
        ));
        let text = store.to_json_lines();
        assert_eq!(text.lines().count(), 2);
        let restored = EventStore::from_json_lines(&text).unwrap();
        assert_eq!(restored.all(), store.all());
        // garbage input errors
        assert!(EventStore::from_json_lines("not json\n").is_err());
    }

    /// One event of every kind, as the Appendix-B export writes it.
    fn every_kind() -> (Vec<Event>, &'static str) {
        let at = |ms: u64, dbms, level, config, instance, src: &str, session, kind| Event {
            ts: EXPERIMENT_START.add_millis(ms),
            honeypot: HoneypotId::new(dbms, level, config, instance),
            src: src.parse().unwrap(),
            session,
            kind,
        };
        use ConfigVariant::*;
        use InteractionLevel::*;
        let events = vec![
            at(
                0,
                Dbms::Redis,
                Low,
                MultiService,
                0,
                "198.51.100.1",
                1,
                EventKind::Connect,
            ),
            at(
                1,
                Dbms::MongoDb,
                High,
                FakeData,
                3,
                "2001:db8::7",
                42,
                EventKind::Disconnect,
            ),
            at(
                2,
                Dbms::Mssql,
                Low,
                SingleService,
                12,
                "198.51.100.2",
                7,
                EventKind::LoginAttempt {
                    username: "sa".into(),
                    password: "p\"w\\d\u{1}".into(),
                    success: false,
                },
            ),
            at(
                3,
                Dbms::Redis,
                Medium,
                Default,
                1,
                "198.51.100.3",
                8,
                EventKind::Command {
                    action: "KEYS".into(),
                    raw: "KEYS *\r\n".into(),
                },
            ),
            at(
                4,
                Dbms::Elastic,
                Medium,
                Default,
                0,
                "198.51.100.4",
                9,
                EventKind::Payload {
                    len: 14,
                    recognized: Some("jdwp-scan".into()),
                    preview: "JDWP-Handshake".into(),
                },
            ),
            at(
                5,
                Dbms::MySql,
                Low,
                MultiService,
                2,
                "198.51.100.5",
                10,
                EventKind::Payload {
                    len: 3,
                    recognized: None,
                    preview: "\u{0}\u{8}é".into(),
                },
            ),
            at(
                6,
                Dbms::CouchDb,
                Medium,
                FakeData,
                0,
                "198.51.100.6",
                11,
                EventKind::Malformed {
                    detail: "bad frame\t\"x\"".into(),
                },
            ),
            at(
                7,
                Dbms::Postgres,
                Medium,
                LoginDisabled,
                4,
                "0.0.0.0",
                0,
                EventKind::Health {
                    state: HealthState::Degraded,
                    restarts: 2,
                    detail: "accept loop died; restarting".into(),
                },
            ),
        ];
        let lines = r#"{"ts":1711065600000,"honeypot":{"dbms":"Redis","level":"Low","config":"MultiService","instance":0},"src":"198.51.100.1","session":1,"kind":"Connect"}
{"ts":1711065600001,"honeypot":{"dbms":"MongoDb","level":"High","config":"FakeData","instance":3},"src":"2001:db8::7","session":42,"kind":"Disconnect"}
{"ts":1711065600002,"honeypot":{"dbms":"Mssql","level":"Low","config":"SingleService","instance":12},"src":"198.51.100.2","session":7,"kind":{"LoginAttempt":{"username":"sa","password":"p\"w\\d\u0001","success":false}}}
{"ts":1711065600003,"honeypot":{"dbms":"Redis","level":"Medium","config":"Default","instance":1},"src":"198.51.100.3","session":8,"kind":{"Command":{"action":"KEYS","raw":"KEYS *\r\n"}}}
{"ts":1711065600004,"honeypot":{"dbms":"Elastic","level":"Medium","config":"Default","instance":0},"src":"198.51.100.4","session":9,"kind":{"Payload":{"len":14,"recognized":"jdwp-scan","preview":"JDWP-Handshake"}}}
{"ts":1711065600005,"honeypot":{"dbms":"MySql","level":"Low","config":"MultiService","instance":2},"src":"198.51.100.5","session":10,"kind":{"Payload":{"len":3,"recognized":null,"preview":"\u0000\bé"}}}
{"ts":1711065600006,"honeypot":{"dbms":"CouchDb","level":"Medium","config":"FakeData","instance":0},"src":"198.51.100.6","session":11,"kind":{"Malformed":{"detail":"bad frame\t\"x\""}}}
{"ts":1711065600007,"honeypot":{"dbms":"Postgres","level":"Medium","config":"LoginDisabled","instance":4},"src":"0.0.0.0","session":0,"kind":{"Health":{"state":"Degraded","restarts":2,"detail":"accept loop died; restarting"}}}
"#;
        (events, lines)
    }

    #[test]
    fn json_lines_keep_the_dataset_layout() {
        let (events, lines) = every_kind();
        let store = EventStore::new();
        store.log_many(events.clone());
        assert_eq!(store.to_json_lines(), lines);
        assert_eq!(EventStore::from_json_lines(lines).unwrap().all(), events);
    }

    #[test]
    fn json_lines_import_reads_fields_in_any_order() {
        let reordered = r#"{"kind":{"Payload":{"preview":"x","len":1}},"session":3,"src":"::1","honeypot":{"instance":5,"config":"Default","level":"High","dbms":"MongoDb"},"extra":[1],"ts":9}"#;
        let store = EventStore::from_json_lines(reordered).unwrap();
        let honeypot = HoneypotId::new(
            Dbms::MongoDb,
            InteractionLevel::High,
            ConfigVariant::Default,
            5,
        );
        let want = Event {
            ts: Timestamp(9),
            honeypot,
            src: "::1".parse().unwrap(),
            session: 3,
            kind: EventKind::Payload {
                len: 1,
                recognized: None,
                preview: "x".into(),
            },
        };
        assert_eq!(store.all(), vec![want]);
    }

    #[test]
    fn malformed_json_lines_name_their_line_number() {
        let (_, lines) = every_kind();
        let first = lines.lines().next().unwrap();
        let error = |bad: &str| {
            let text = format!("{first}\n\n{bad}\n{first}\n");
            EventStore::from_json_lines(&text).unwrap_err()
        };
        assert!(
            error("not json").starts_with("line 3: "),
            "{}",
            error("not json")
        );
        for bad in [
            first.replace("\"Connect\"", "\"Reconnect\""),
            first.replace("\"Redis\"", "\"Cassandra\""),
            first.replace("198.51.100.1", "198.51.100"),
            first.replace("\"instance\":0", "\"instance\":70000"),
            first.replace("\"ts\":1711065600000", "\"ts\":-1"),
            first.replace(",\"session\":1", ""),
            first.replace("\"Connect\"", r#"{"Command":{"action":"x"}}"#),
            first.replace(
                "\"Connect\"",
                r#"{"Malformed":{"detail":"x"},"Command":{}}"#,
            ),
        ] {
            let message = error(&bad);
            assert!(message.starts_with("line 3: field `"), "{bad}: {message}");
        }
    }

    /// Dataset files come from outside the program: every mutant of the
    /// every-kind export imports or fails, and what imports exports to
    /// lines that import back to an equal store.
    #[test]
    fn json_lines_import_is_total() {
        let (_, lines) = every_kind();
        let mut seeds = vec![lines.as_bytes().to_vec()];
        seeds.extend(lines.lines().map(|line| line.as_bytes().to_vec()));
        let gen = |rng: &mut Rng| String::from_utf8_lossy(&mutate(rng, &seeds)).into_owned();
        let (mut imported, mut refused) = (0, 0);
        for_all(0x150_11e5, 2_000, gen, |text| {
            let Ok(store) = EventStore::from_json_lines(text) else {
                refused += 1;
                return;
            };
            let again = EventStore::from_json_lines(&store.to_json_lines());
            assert_eq!(again.map(|s| s.all()), Ok(store.all()));
            imported += 1;
        });
        assert!(
            imported > 0 && refused > 0,
            "{imported} imported, {refused} refused"
        );
    }

    #[test]
    fn log_many_matches_sequential_logging() {
        let a = EventStore::new();
        let b = EventStore::new();
        let events: Vec<Event> = (0..5u8)
            .map(|i| ev(ip(i), Dbms::Elastic, EventKind::Connect))
            .collect();
        for e in &events {
            a.log(e.clone());
        }
        b.log_many(events);
        assert_eq!(a.all(), b.all());
        assert!(a.events_eq(&b));
        assert_eq!(a.sources().len(), b.sources().len());
        assert_eq!(a.session_count(), b.session_count());
    }

    #[test]
    fn read_sees_events_without_cloning() {
        let store = EventStore::new();
        store.log(ev(ip(1), Dbms::Redis, EventKind::Connect));
        store.log(ev(ip(2), Dbms::Redis, EventKind::Disconnect));
        let (n, first_src) = store.read(|log| (log.len(), log.iter().next().map(|e| e.src)));
        assert_eq!(n, 2);
        assert_eq!(first_src, Some(ip(1)));
    }

    #[test]
    fn events_eq_detects_divergence() {
        let a = EventStore::new();
        let b = EventStore::new();
        a.log(ev(ip(1), Dbms::Redis, EventKind::Connect));
        b.log(ev(ip(1), Dbms::Redis, EventKind::Connect));
        assert!(a.events_eq(&b));
        assert!(a.events_eq(&a)); // self-comparison must not deadlock
        b.log(ev(ip(2), Dbms::Redis, EventKind::Connect));
        assert!(!a.events_eq(&b));
    }

    #[test]
    fn by_session_groups_in_log_order() {
        let store = EventStore::new();
        let mk = |src: IpAddr, session: u64, kind: EventKind| Event {
            ts: EXPERIMENT_START,
            honeypot: hp(Dbms::Redis),
            src,
            session,
            kind,
        };
        store.log(mk(ip(1), 1, EventKind::Connect));
        store.log(mk(ip(2), 1, EventKind::Connect));
        store.log(mk(
            ip(1),
            1,
            EventKind::Command {
                action: "INFO".into(),
                raw: "INFO".into(),
            },
        ));
        store.log(mk(ip(1), 2, EventKind::Connect));

        assert_eq!(store.session_count(), 3);
        let key = SessionKey {
            src: ip(1),
            session: 1,
        };
        let events = store.by_session(hp(Dbms::Redis), key);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Connect);
        assert!(matches!(events[1].kind, EventKind::Command { .. }));
        // unknown session is empty
        let missing = SessionKey {
            src: ip(9),
            session: 1,
        };
        assert!(store.by_session(hp(Dbms::Redis), missing).is_empty());
        let keys = store.session_keys();
        assert_eq!(keys.len(), 3);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
    }

    /// The number of distinct triples among `keys`, through a
    /// [`SessionSet`] keyed by address and through one keyed by dense id
    /// (ids numbered in ascending address order, as a sealed frame's are).
    fn count_both(keys: &[(HoneypotId, u64, IpAddr)]) -> usize {
        let mut by_addr = SessionSet::new();
        for &(honeypot, session, src) in keys {
            by_addr.insert(honeypot, session, src);
        }
        let mut addrs: Vec<IpAddr> = keys.iter().map(|&(_, _, src)| src).collect();
        addrs.sort_unstable();
        addrs.dedup();
        let mut by_id = SessionSet::new();
        for &(honeypot, session, src) in keys {
            let id = u32::try_from(addrs.binary_search(&src).unwrap()).unwrap();
            by_id.insert(honeypot, session, id);
        }
        assert_eq!(by_addr.len(), by_id.len(), "{keys:?}");
        let ids: Vec<_> = by_id
            .iter()
            .map(|(h, session, id)| (h, session, addrs[id as usize]))
            .collect();
        assert!(by_addr.iter().eq(ids), "both list the same triples");
        by_addr.len()
    }

    #[test]
    fn distinct_sessions_is_exact() {
        let count = |keys: &[(Dbms, &str, u64)]| {
            let keys: Vec<_> = keys
                .iter()
                .map(|&(dbms, src, session)| (hp(dbms), session, src.parse().unwrap()))
                .collect();
            count_both(&keys)
        };
        let r = Dbms::Redis;
        let (a, b) = ((r, "198.51.100.1", 1), (r, "198.51.100.2", 1));
        assert_eq!(count(&[]), 0);
        assert_eq!(count(&[a, b, a]), 2, "interleaved sessions");
        assert_eq!(count(&[b, a, b, a]), 2, "a session first seen out of order");
        assert_eq!(count(&[a, (Dbms::Mssql, a.1, 1), a]), 2, "two honeypots");
        assert_eq!(count(&[a, b]), 2, "one (honeypot, session), two sources");
        assert_eq!(count(&[(r, "0.0.0.1", 7), (r, "::1", 7)]), 2);
        assert_eq!(count(&[(r, "1.2.3.4", 7), (r, "::ffff:1.2.3.4", 7)]), 2);
        // every honeypot field and the session number tell triples apart
        let (low, multi) = (InteractionLevel::Low, ConfigVariant::MultiService);
        let on = |level, config, instance, session| {
            (HoneypotId::new(r, level, config, instance), session, ip(1))
        };
        let keys = [
            on(low, multi, 0, 1),
            on(InteractionLevel::High, multi, 0, 1),
            on(low, ConfigVariant::Default, 0, 1),
            on(low, multi, 1, 1),
            on(low, multi, 0, 2),
            on(low, multi, 0, 1),
        ];
        assert_eq!(count_both(&keys), 5);
        // sessions in any order, repeated: the exact count of distinct ones
        let mut rng = decoy_base::Rng::seed_from_u64(0x5E55);
        let keys: Vec<_> = (0..2_000)
            .map(|_| {
                let n = rng.next_u64();
                let honeypot = HoneypotId::new(r, low, multi, (n % 3) as u16);
                (honeypot, (n >> 8) % 40, ip(((n >> 16) % 5) as u8))
            })
            .collect();
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(count_both(&keys), distinct.len());
    }

    /// Every kind of event, an IPv6 source, empty strings and an event
    /// larger than a chunk read back as logged, through `all()` and through
    /// the visitor, which sees each chunk's events in log order.
    #[test]
    fn every_event_reads_back_as_logged() {
        let (mut events, _) = every_kind();
        events.push(ev(
            "2001:db8::1".parse().unwrap(),
            Dbms::Redis,
            EventKind::LoginAttempt {
                username: String::new(),
                password: String::new(),
                success: true,
            },
        ));
        events.push(ev(
            ip(3),
            Dbms::Elastic,
            EventKind::Command {
                action: "PUT".into(),
                raw: "x".repeat(3 * CHUNK_BYTES / 2),
            },
        ));
        let store = EventStore::new();
        for event in events.iter().chain(&events) {
            store.log(event.clone());
        }
        let twice: Vec<Event> = events.iter().chain(&events).cloned().collect();
        assert_eq!(store.all(), twice);
        store.read(|log| {
            assert_eq!(log.len(), twice.len());
            assert!(log.iter().eq(twice.iter().map(Event::view)));
            assert!(
                log.chunks().len() >= 3,
                "the large event gets chunks of its own"
            );
            let mut start = 0;
            for chunk in log.chunks() {
                assert_eq!(chunk.start(), start);
                start += chunk.events().count() as u64;
            }
            assert_eq!(start, twice.len() as u64);
        });
    }

    #[test]
    fn events_eq_tells_one_changed_byte_apart() {
        let login = |password: &str| {
            ev(
                ip(4),
                Dbms::Mssql,
                EventKind::LoginAttempt {
                    username: "sa".into(),
                    password: password.into(),
                    success: false,
                },
            )
        };
        let (a, b) = (EventStore::new(), EventStore::new());
        for store in [&a, &b] {
            store.log(ev(ip(4), Dbms::Mssql, EventKind::Connect));
        }
        a.log(login("hunter2"));
        b.log(login("hunter3"));
        assert_eq!(a.len(), b.len());
        assert!(!a.events_eq(&b) && !b.events_eq(&a));
        let c = EventStore::new();
        c.log_many(a.all());
        assert!(a.events_eq(&c));
    }

    /// 300,000 events in three-event sessions cost at most 48 bytes each,
    /// counting the capacity of the chunks and of the session list; an
    /// owned `Event` alone is larger than that.
    #[test]
    fn the_store_keeps_at_most_48_bytes_per_event() {
        const EVENTS: usize = 300_000;
        assert!(std::mem::size_of::<Event>() > 48);
        let store = EventStore::new();
        store.log_many((0..EVENTS as u64 / 3).flat_map(|session| {
            let src = IpAddr::from([203, 0, 113, (session % 251) as u8]);
            let at = |ms, kind| Event {
                ts: EXPERIMENT_START.add_millis(session * 1_000 + ms),
                honeypot: hp(Dbms::Mssql),
                src,
                session,
                kind,
            };
            let login = EventKind::LoginAttempt {
                username: "sa".into(),
                password: format!("pw{}", session % 1_000),
                success: false,
            };
            [
                at(0, EventKind::Connect),
                at(5, login),
                at(9, EventKind::Disconnect),
            ]
        }));
        assert_eq!(store.len(), EVENTS);
        assert_eq!(store.session_count(), EVENTS / 3);
        let inner = store.inner.read();
        let chunks: usize = inner
            .chunks
            .iter()
            .map(|c| c.bytes.capacity())
            .sum::<usize>()
            + inner.chunks.capacity() * std::mem::size_of::<Chunk>();
        let sessions: usize = inner
            .sessions
            .per_honeypot
            .iter()
            .map(|(_, pairs)| pairs.capacity() * std::mem::size_of::<(u64, IpAddr)>())
            .sum();
        let per_event = (chunks + sessions) as f64 / EVENTS as f64;
        assert!(per_event <= 48.0, "{per_event:.1} bytes per event");
    }
}
