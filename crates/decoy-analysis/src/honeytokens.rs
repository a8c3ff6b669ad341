//! Honeytoken / bait-data reuse detection.
//!
//! §4.2: "The primary objective is to assess whether adversaries would
//! exhibit any knowledge of the data" planted in the fake-data Redis
//! configuration. This module answers that question from the standardized
//! logs: which sources presented a bait password as a credential, and
//! which read the bait entries beforehand (harvest → reuse). The same
//! machinery implements the honeytoken tripwire idea of Wegerer & Tjoa
//! (§3, related work): any bait credential appearing in an authentication
//! attempt anywhere in the fleet is a high-confidence alarm.

use crate::frame::{FrameKindRef, FrameView};
use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;

/// One source's demonstrated knowledge of the bait data.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BaitKnowledge {
    /// Bait passwords this source presented as credentials.
    pub reused_passwords: Vec<String>,
    /// Bait keys this source read (`GET user:...`) before reusing.
    pub harvested_keys: Vec<String>,
    /// Honeypot families where the reuse happened.
    pub reuse_sites: BTreeSet<decoy_store::Dbms>,
}

/// Fleet-wide honeytoken report.
#[derive(Debug, Clone, Default)]
pub struct HoneytokenReport {
    /// Number of bait credentials planted.
    pub bait_planted: usize,
    /// Sources that demonstrated knowledge of the bait, with evidence.
    pub knowing_sources: BTreeMap<IpAddr, BaitKnowledge>,
    /// Total reuse attempts observed.
    pub reuse_attempts: usize,
}

impl HoneytokenReport {
    /// True when at least one adversary exhibited knowledge of the data.
    pub fn tripped(&self) -> bool {
        !self.knowing_sources.is_empty()
    }
}

/// Scan `view` for reuse of the planted `(key, password)` bait entries.
pub fn detect_reuse(view: FrameView<'_>, bait: &[(String, String)]) -> HoneytokenReport {
    let passwords: BTreeMap<&str, &str> =
        bait.iter().map(|(k, v)| (v.as_str(), k.as_str())).collect();
    let keys: BTreeSet<&str> = bait.iter().map(|(k, _)| k.as_str()).collect();
    let mut report = HoneytokenReport {
        bait_planted: bait.len(),
        ..Default::default()
    };
    for event in view.events() {
        match view.kind(event) {
            FrameKindRef::LoginAttempt { password, .. } if passwords.contains_key(password) => {
                report.reuse_attempts += 1;
                let entry = report.knowing_sources.entry(view.src(event)).or_default();
                if !entry.reused_passwords.iter().any(|p| p == password) {
                    entry.reused_passwords.push(password.to_string());
                }
                entry.reuse_sites.insert(event.honeypot.dbms);
            }
            FrameKindRef::Command { raw, .. } => {
                if let Some(key) = raw.strip_prefix("GET ") {
                    if keys.contains(key.trim()) {
                        // harvests are stashed for every reader; only
                        // sources that also reuse survive the retain below
                        report
                            .knowing_sources
                            .entry(view.src(event))
                            .or_default()
                            .harvested_keys
                            .push(key.trim().to_string());
                    }
                }
            }
            _ => {}
        }
    }
    // Drop sources that only read bait but never reused it — reading the
    // planted data is expected scouting; *knowledge* means reuse.
    report
        .knowing_sources
        .retain(|_, k| !k.reused_passwords.is_empty());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{AnalysisFrame, Partition};
    use decoy_base::time::EXPERIMENT_START;
    use decoy_store::{
        ConfigVariant, Dbms, Event, EventKind, EventStore, HoneypotId, InteractionLevel,
    };

    fn scan(store: &EventStore) -> HoneytokenReport {
        let frame = AnalysisFrame::build(store, &decoy_geo::GeoDb::builtin());
        detect_reuse(frame.view(Partition::All), &bait())
    }

    fn log(store: &EventStore, src: u8, dbms: Dbms, kind: EventKind) {
        store.log(Event {
            ts: EXPERIMENT_START,
            honeypot: HoneypotId::new(dbms, InteractionLevel::Medium, ConfigVariant::FakeData, 0),
            src: IpAddr::from([60, 44, 0, src]),
            session: 1,
            kind,
        });
    }

    fn bait() -> Vec<(String, String)> {
        vec![
            ("user:alice1".into(), "sunshine42".into()),
            ("user:bob7".into(), "dragon99!".into()),
        ]
    }

    #[test]
    fn harvest_then_reuse_is_detected() {
        let store = EventStore::new();
        log(
            &store,
            1,
            Dbms::Redis,
            EventKind::Command {
                action: "GET user:alice1".into(),
                raw: "GET user:alice1".into(),
            },
        );
        log(
            &store,
            1,
            Dbms::Redis,
            EventKind::LoginAttempt {
                username: "default".into(),
                password: "sunshine42".into(),
                success: false,
            },
        );
        let report = scan(&store);
        assert!(report.tripped());
        assert_eq!(report.reuse_attempts, 1);
        let k = &report.knowing_sources[&IpAddr::from([60, 44, 0, 1])];
        assert_eq!(k.reused_passwords, vec!["sunshine42"]);
        assert_eq!(k.harvested_keys, vec!["user:alice1"]);
        assert!(k.reuse_sites.contains(&Dbms::Redis));
    }

    #[test]
    fn reuse_on_another_family_is_a_tripwire() {
        // the Wegerer & Tjoa scenario: bait credentials reappear elsewhere
        let store = EventStore::new();
        log(
            &store,
            2,
            Dbms::Postgres,
            EventKind::LoginAttempt {
                username: "postgres".into(),
                password: "dragon99!".into(),
                success: false,
            },
        );
        let report = scan(&store);
        assert!(report.tripped());
        assert!(report.knowing_sources[&IpAddr::from([60, 44, 0, 2])]
            .reuse_sites
            .contains(&Dbms::Postgres));
    }

    #[test]
    fn reading_without_reuse_is_not_knowledge() {
        let store = EventStore::new();
        log(
            &store,
            3,
            Dbms::Redis,
            EventKind::Command {
                action: "GET user:alice1".into(),
                raw: "GET user:alice1".into(),
            },
        );
        let report = scan(&store);
        assert!(!report.tripped());
        assert_eq!(report.reuse_attempts, 0);
    }

    #[test]
    fn unrelated_credentials_do_not_trip() {
        let store = EventStore::new();
        log(
            &store,
            4,
            Dbms::Mssql,
            EventKind::LoginAttempt {
                username: "sa".into(),
                password: "123".into(),
                success: false,
            },
        );
        let report = scan(&store);
        assert!(!report.tripped());
        assert_eq!(report.bait_planted, 2);
    }
}
