//! Session logging shared by all honeypot families.
//!
//! A [`SessionLogger`] binds one accepted connection to the shared
//! [`EventStore`]: it resolves the effective source address (honoring a
//! PROXY-protocol announcement when present), stamps events with the
//! honeypot's id and the session's virtual time, and provides typed helpers
//! for the event kinds of §4.3.
//!
//! Two functions log the fleet's own state, and both fleets call them:
//! decoy-fleet's supervised listeners and the in-memory transport's
//! ([`crate::driver::Memory`]). [`log_transition`] turns a supervision
//! transition into an [`EventKind::Health`] event, and [`drop_appends`]
//! installs a fault plan's store drops.

use decoy_base::chaos::FaultPlan;
use decoy_base::supervision::Transition;
use decoy_base::time::Clock;
use decoy_base::HealthState;
use decoy_store::foreign;
use decoy_store::{Event, EventKind, EventStore, HoneypotId};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source address health events are logged under (not attacker traffic).
const HEALTH_SRC: IpAddr = IpAddr::V4(Ipv4Addr::UNSPECIFIED);

/// Log honeypot `id`'s health `transition` into `store` as an
/// [`EventKind::Health`] event, so the report can build the fleet-uptime
/// table. The initial healthy-on-bind transition is not logged, which
/// keeps fault-free runs byte-identical to direct mode.
pub fn log_transition(store: &EventStore, id: HoneypotId, transition: &Transition) {
    if transition.state == HealthState::Healthy && transition.restarts == 0 {
        return;
    }
    store.log(Event {
        ts: transition.at,
        honeypot: id,
        src: HEALTH_SRC,
        session: 0,
        kind: EventKind::Health {
            state: transition.state,
            restarts: transition.restarts,
            detail: transition.detail.clone(),
        },
    });
}

/// Drop the appends to `store` that `plan` draws: the `n`-th append that
/// is not a health event is dropped when [`FaultPlan::drops_append`] says
/// so. Health events are exempt, so the uptime table never loses a
/// transition.
pub fn drop_appends(store: &EventStore, plan: FaultPlan) {
    let appends = AtomicU64::new(0);
    store.set_fault_hook(move |e| {
        !matches!(e.kind, EventKind::Health { .. })
            && plan.drops_append(appends.fetch_add(1, Ordering::Relaxed))
    });
}

/// Per-session logging handle.
#[derive(Clone)]
pub struct SessionLogger {
    store: Arc<EventStore>,
    honeypot: HoneypotId,
    src: IpAddr,
    session: u64,
    clock: Clock,
}

impl SessionLogger {
    /// Create a logger for session number `session`, stamping events from
    /// `clock`. `proxied_src` is the address a PROXY header announced, if
    /// any; otherwise the TCP `peer` address is the source of record.
    pub fn new(
        store: Arc<EventStore>,
        honeypot: HoneypotId,
        clock: Clock,
        session: u64,
        peer: IpAddr,
        proxied_src: Option<IpAddr>,
    ) -> Self {
        SessionLogger {
            store,
            honeypot,
            src: proxied_src.unwrap_or(peer),
            session,
            clock,
        }
    }

    /// The effective source address of this session.
    pub fn src(&self) -> IpAddr {
        self.src
    }

    /// The honeypot this session connected to.
    pub fn honeypot(&self) -> HoneypotId {
        self.honeypot
    }

    /// The session's number on its honeypot.
    pub fn session(&self) -> u64 {
        self.session
    }

    fn push(&self, kind: EventKind) {
        self.store.log(Event {
            ts: self.clock.now(),
            honeypot: self.honeypot,
            src: self.src,
            session: self.session,
            kind,
        });
    }

    /// Log the TCP connect.
    pub fn connect(&self) {
        self.push(EventKind::Connect);
    }

    /// Log the session end.
    pub fn disconnect(&self) {
        self.push(EventKind::Disconnect);
    }

    /// Log an authentication attempt.
    pub fn login(&self, username: &str, password: &str, success: bool) {
        self.push(EventKind::LoginAttempt {
            username: username.to_string(),
            password: password.to_string(),
            success,
        });
    }

    /// Log a command; `raw` is the rendered command, the clustering action
    /// is derived by masking volatile parameters.
    pub fn command(&self, raw: &str) {
        self.push(EventKind::Command {
            action: decoy_store::normalize_action(raw),
            raw: raw.to_string(),
        });
    }

    /// Log an opaque payload, running foreign-protocol recognition on it.
    pub fn payload(&self, bytes: &[u8]) {
        let recognized = foreign::recognize(bytes).map(|p| p.label().to_string());
        let preview: String =
            String::from_utf8_lossy(bytes.get(..bytes.len().min(256)).unwrap_or(bytes))
                .chars()
                .map(|c| if c.is_control() { '.' } else { c })
                .collect();
        self.push(EventKind::Payload {
            len: bytes.len(),
            recognized,
            preview,
        });
    }

    /// Log a protocol violation.
    pub fn malformed(&self, detail: impl Into<String>) {
        self.push(EventKind::Malformed {
            detail: detail.into(),
        });
    }

    /// Handle a decode fault: if the undecodable bytes are a recognizable
    /// foreign-protocol probe (RDP, JDWP, TLS, ...), log them as a payload
    /// capture; otherwise record the protocol violation. This is how the
    /// paper's Table 9 "scans for services unrelated to the DBMS" are
    /// observed on SQL/Redis ports.
    pub fn fault(&self, buffered: &[u8], err: &decoy_wire::error::NetError) {
        if !buffered.is_empty() && foreign::recognize(buffered).is_some() {
            self.payload(buffered);
            return;
        }
        if err.is_peer_fault() {
            if buffered.is_empty() {
                self.malformed(err.to_string());
            } else {
                self.payload(buffered);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_store::{ConfigVariant, Dbms, InteractionLevel};

    fn logger(store: Arc<EventStore>, proxied: Option<IpAddr>) -> SessionLogger {
        SessionLogger::new(
            store,
            HoneypotId::new(
                Dbms::Redis,
                InteractionLevel::Medium,
                ConfigVariant::Default,
                0,
            ),
            Clock::simulated(),
            3,
            "127.0.0.1".parse().unwrap(),
            proxied,
        )
    }

    #[test]
    fn proxied_source_wins_over_peer() {
        let store = EventStore::new();
        let proxied: IpAddr = "198.51.100.9".parse().unwrap();
        let log = logger(store.clone(), Some(proxied));
        assert_eq!(log.src(), proxied);
        log.connect();
        assert_eq!(store.filter(|e| e.src == proxied).len(), 1);
    }

    #[test]
    fn peer_is_source_without_proxy() {
        let store = EventStore::new();
        let log = logger(store.clone(), None);
        assert_eq!(log.src(), "127.0.0.1".parse::<IpAddr>().unwrap());
    }

    #[test]
    fn command_is_normalized_for_clustering() {
        let store = EventStore::new();
        let log = logger(store.clone(), None);
        log.command("SLAVEOF 203.0.113.1 8886");
        let events = store.all();
        let EventKind::Command { action, raw } = &events[0].kind else {
            panic!("expected command");
        };
        assert_eq!(action, "SLAVEOF <IP> <N>");
        assert_eq!(raw, "SLAVEOF 203.0.113.1 8886");
    }

    #[test]
    fn payload_recognition_and_preview_sanitization() {
        let store = EventStore::new();
        let log = logger(store.clone(), None);
        log.payload(b"JDWP-Handshake\x00\x01");
        let events = store.all();
        let EventKind::Payload {
            len,
            recognized,
            preview,
        } = &events[0].kind
        else {
            panic!("expected payload");
        };
        assert_eq!(*len, 16);
        assert_eq!(recognized.as_deref(), Some("jdwp-scan"));
        assert!(preview.starts_with("JDWP-Handshake"));
        assert!(!preview.contains('\x00'));
    }

    #[test]
    fn full_session_event_sequence() {
        let store = EventStore::new();
        let log = logger(store.clone(), None);
        log.connect();
        log.login("default", "", false);
        log.malformed("bad RESP type byte");
        log.disconnect();
        let kinds: Vec<_> = store.all().into_iter().map(|e| e.kind).collect();
        assert!(matches!(kinds[0], EventKind::Connect));
        assert!(matches!(kinds[1], EventKind::LoginAttempt { .. }));
        assert!(matches!(kinds[2], EventKind::Malformed { .. }));
        assert!(matches!(kinds[3], EventKind::Disconnect));
        // all share session id 3
        assert!(store.all().iter().all(|e| e.session == 3));
    }
}
