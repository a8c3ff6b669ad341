//! Offline mode equivalence: the substitution argument of DESIGN.md §1,
//! checked event for event.
//!
//! Direct mode writes, for each planned session, the events the target
//! honeypot would log (`decoy_agents::direct`). Here the same planned
//! session also runs as the attack client (`decoy_agents::client`) against
//! the honeypot's session machine through the in-memory transport, and the
//! two must agree: the connections opened, and per event its `ts`, `src`,
//! session number and kind. The two exceptions are named in
//! [`after_ransom`] and [`rdp_on_redis`].

use decoy_databases::agents::client;
use decoy_databases::agents::direct::{emit_session, DirectSink};
use decoy_databases::agents::schedule::PlannedSession;
use decoy_databases::agents::scripts::SessionScript;
use decoy_databases::base::time::{Clock, SimClock};
use decoy_databases::core::deployment::{fake_redis_entries, instance_seed, InstanceRef};
use decoy_databases::core::runner::{ExperimentConfig, Replay};
use decoy_databases::store::{foreign, normalize_action, ConfigVariant, Dbms, Event, EventKind};
use decoy_databases::store::{EventStore, HoneypotId};
use decoy_honeypots::driver::{poll_once, Memory};
use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;
use std::ops::Range;
use std::sync::Arc;

/// `modes_equivalent`'s run, with the §7 extension honeypots on.
const SEED: u64 = 904;

fn config() -> ExperimentConfig {
    let mut config = ExperimentConfig::direct(SEED, 0.004);
    config.deployment_scale = 0.05;
    config.extensions = true;
    config
}

/// One honeypot instance on both paths, each logging into its own store.
struct Instance {
    id: HoneypotId,
    /// The in-memory deployment the client visits.
    memory: Memory,
    offline: Arc<EventStore>,
    direct: Arc<EventStore>,
    /// Direct mode's session counter.
    direct_seq: u64,
    /// The bait of a fake-data Redis instance, as direct mode reads it.
    fake_entries: Vec<(String, String)>,
    /// A ransom visit has emptied the instance's customer data.
    ransomed: bool,
}

impl Instance {
    fn deploy(inst: &InstanceRef, clock: &Arc<SimClock>) -> Instance {
        let offline = EventStore::new();
        let clock = Clock::Sim(Arc::clone(clock));
        let memory = Memory::deploy(&offline, inst.id, inst.seed, clock).expect("deploy");
        let redis_bait = inst.id.dbms == Dbms::Redis && inst.id.config == ConfigVariant::FakeData;
        Instance {
            id: inst.id,
            memory,
            offline,
            direct: EventStore::new(),
            direct_seq: 0,
            fake_entries: match redis_bait {
                true => fake_redis_entries(inst.seed),
                false => Vec::new(),
            },
            ransomed: false,
        }
    }

    /// Replay `session` on both paths: where its events sit in the direct
    /// store, then in the offline one.
    fn visit(&mut self, session: &PlannedSession) -> (Range<usize>, Range<usize>) {
        let start = (self.direct.len(), self.offline.len());
        let mut sink = DirectSink {
            store: &self.direct,
            honeypot: self.id,
            session_seq: &mut self.direct_seq,
            fake_entries: &self.fake_entries,
        };
        emit_session(&mut sink, session);
        let src = IpAddr::V4(session.src);
        let outcome = poll_once(client::run(self.memory.with_source(src), session))
            .expect("an in-memory visit never waits");
        let script = &session.script;
        assert_eq!(outcome.errors, 0, "{script:?} on {}", self.id);
        assert_eq!(outcome.connections, script.connections_per_visit());
        (start.0..self.direct.len(), start.1..self.offline.len())
    }
}

/// What the client path logs on `instance` for a visit direct mode logged
/// as `direct`.
fn expected(instance: &Instance, script: &SessionScript, direct: &[Event]) -> Vec<Event> {
    match script {
        SessionScript::RdpProbe if instance.id.dbms == Dbms::Redis => rdp_on_redis(direct),
        _ if instance.ransomed => after_ransom(script, direct),
        _ => direct.to_vec(),
    }
}

/// A named case. The MongoDB and CouchDB honeypots hold real documents
/// (§6.3), and a ransom visit empties them: MongoDB's second ransom visit
/// finds only the previous note, and later CouchDB visits find only the
/// `warning` database. Direct mode always emits the first-visit shape. So
/// after a ransom on the instance, the client path logs direct mode's
/// events with the customer data replaced by what the ransom left.
fn after_ransom(script: &SessionScript, direct: &[Event]) -> Vec<Event> {
    let edit = |raw: &str| match script {
        SessionScript::MongoRansom { .. } => Some(raw.replace(".records", ".README")),
        SessionScript::CouchScout => Some(raw.replace("/customers/", "/warning/")),
        SessionScript::CouchRansom if raw.contains("/customers") => None,
        _ => Some(raw.to_string()),
    };
    let mut expected = Vec::new();
    for event in direct {
        let mut event = event.clone();
        if let EventKind::Command { raw, action } = &mut event.kind {
            let Some(edited) = edit(raw) else {
                continue;
            };
            *action = normalize_action(&edited);
            *raw = edited;
        }
        expected.push(event);
    }
    expected
}

/// A named case. Direct mode logs the RDP probe of Listing 10 as one
/// 47-byte payload. On a Redis port its first byte is no RESP type byte, so
/// the honeypots read an inline command, a line of text, as real Redis does.
/// They log the probe's first line as it came (its `\r\n` cut: 37 raw
/// bytes, its non-UTF-8 byte kept, still an RDP scan), then the 8-byte
/// negotiation request left unterminated when the client hangs up.
fn rdp_on_redis(direct: &[Event]) -> Vec<Event> {
    let probe = foreign::rdp_connection_request("Administr");
    let end = probe
        .iter()
        .position(|&b| b == b'\n')
        .map_or(0, |at| at + 1);
    let line = probe[..end].strip_suffix(b"\r\n").unwrap_or_default();
    assert_eq!(line.len(), 37);
    assert_eq!(
        foreign::recognize(line).map(|f| f.label()),
        Some("rdp-scan")
    );
    let parts = [line, &probe[end..]];
    let mut expected = Vec::new();
    for event in direct {
        match event.kind {
            EventKind::Payload { .. } => {
                for part in parts {
                    let kind = payload(part);
                    expected.push(Event {
                        kind,
                        ..event.clone()
                    });
                }
            }
            _ => expected.push(event.clone()),
        }
    }
    expected
}

/// The payload event both paths log for `bytes`.
fn payload(bytes: &[u8]) -> EventKind {
    let preview = String::from_utf8_lossy(&bytes[..bytes.len().min(256)]);
    let dot = |c: char| if c.is_control() { '.' } else { c };
    EventKind::Payload {
        len: bytes.len(),
        recognized: foreign::recognize(bytes).map(|f| f.label().to_string()),
        preview: preview.chars().map(dot).collect(),
    }
}

/// The schedule replayed on both paths, the instances keeping their state
/// across visits as listeners do, compared session by session.
#[test]
fn schedule_matches_direct_mode_session_by_session() {
    let replay = Replay::start(config()).expect("plan and schedule");
    let plan = &replay.plan;
    let mut instances: Vec<Instance> = plan
        .instances
        .iter()
        .map(|inst| Instance::deploy(inst, &replay.sim))
        .collect();
    let mut visits = Vec::new();
    for session in &replay.schedule {
        let Some(idx) = plan.pick(&session.target, session.src) else {
            continue;
        };
        replay.sim.advance_to(session.ts);
        visits.push((idx, session, instances[idx].visit(session)));
    }
    assert!(visits.len() > 2_000, "{} visits", visits.len());
    let logs: Vec<_> = instances
        .iter()
        .map(|instance| (instance.direct.all(), instance.offline.all()))
        .collect();
    let mut after_ransom_visits = 0;
    for (idx, session, (direct, offline)) in visits {
        let instance = &mut instances[idx];
        let (direct, offline) = (&logs[idx].0[direct], &logs[idx].1[offline]);
        let script = &session.script;
        let expected = expected(instance, script, direct);
        assert_eq!(offline, expected, "{script:?} on {}", instance.id);
        after_ransom_visits += usize::from(instance.ransomed && expected != direct);
        let ransom = matches!(
            script,
            SessionScript::MongoRansom { .. } | SessionScript::CouchRansom
        );
        instance.ransomed |= ransom;
    }
    assert!(after_ransom_visits > 0, "no visit to a ransomed instance");
}

/// Every script against every honeypot kind the population targets with
/// it, each on a fresh instance.
#[test]
fn every_script_matches_direct_mode_on_every_target() {
    let replay = Replay::start(config()).expect("plan and schedule");
    let plan = &replay.plan;
    let mut cases = BTreeMap::new();
    for session in &replay.schedule {
        let script = format!("{:?}", session.script);
        let variant = script.split([' ', '{']).next().unwrap_or_default();
        for idx in plan.matching(&session.target) {
            let id = plan.instances[idx].id;
            let kind = (id.dbms, id.level, id.config);
            cases.entry((variant.to_string(), kind)).or_insert(session);
        }
    }
    let variants: BTreeSet<_> = cases.keys().map(|(variant, _)| variant).collect();
    assert_eq!(variants.len(), 26, "{variants:?}");
    for ((_, (dbms, level, config)), session) in &cases {
        let id = HoneypotId::new(*dbms, *level, *config, 0);
        let inst = InstanceRef {
            id,
            seed: instance_seed(SEED, id),
            addr: None,
        };
        let clock = SimClock::starting_at(session.ts);
        let mut instance = Instance::deploy(&inst, &clock);
        instance.visit(session);
        let (direct, offline) = (instance.direct.all(), instance.offline.all());
        let expected = expected(&instance, &session.script, &direct);
        assert_eq!(offline, expected, "{:?} on {id}", session.script);
    }
}
