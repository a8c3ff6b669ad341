//! Behavioral classification (§4.3): scanning, scouting, exploiting.
//!
//! The paper applies rule filters to each source IP's actions. The sets are
//! nested by construction: every scout also scans; every exploiter may also
//! scout and scan. [`BehaviorProfile`] keeps the set structure; tables that
//! need a single label use [`BehaviorProfile::primary`].

use crate::frame::{FrameKindRef, FrameView};
use decoy_store::Dbms;
use std::collections::BTreeMap;
use std::net::IpAddr;

/// One behavior class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Behavior {
    /// Connect/disconnect without meaningful interaction.
    Scanning,
    /// Login attempts and information-gathering queries.
    Scouting,
    /// Attempts to alter, exploit, or take control.
    Exploiting,
}

impl Behavior {
    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            Behavior::Scanning => "Scanning",
            Behavior::Scouting => "Scouting",
            Behavior::Exploiting => "Exploiting",
        }
    }
}

/// Which classes a source belongs to (nested sets, §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BehaviorProfile {
    /// Always true once the source connected.
    pub scanning: bool,
    /// Logins or info-gathering observed.
    pub scouting: bool,
    /// Manipulation/exploitation observed.
    pub exploiting: bool,
}

impl BehaviorProfile {
    /// The most intrusive class (exploiting > scouting > scanning).
    pub fn primary(&self) -> Behavior {
        if self.exploiting {
            Behavior::Exploiting
        } else if self.scouting {
            Behavior::Scouting
        } else {
            Behavior::Scanning
        }
    }

    /// Merge with another observation of the same source.
    pub fn merge(&mut self, other: BehaviorProfile) {
        self.scanning |= other.scanning;
        self.scouting |= other.scouting;
        self.exploiting |= other.exploiting;
    }
}

/// Exploit indicators: lowercase substrings of the normalized action. One
/// match marks the source as exploiting. These mirror Table 9's attack
/// inventory.
const EXPLOIT_PATTERNS: &[&str] = &[
    // Redis system takeover (Listing 1/2) and CVE-2022-0543 (Listing 3)
    "config set dir",
    "config set dbfilename",
    "slaveof",
    "replicaof",
    "module load",
    "system.exec",
    "eval ",
    // data destruction / ransom staging
    "flushdb",
    "flushall",
    "drop ",
    "dropdatabase",
    "delete ",
    "insert ",
    // PostgreSQL RCE (Listing 4) and privilege manipulation (Listing 13)
    "from program",
    "alter user",
    "alter role",
    "create table",
    // Elasticsearch script execution (Listings 5/6)
    "script_fields",
    "runtime.getruntime",
];

/// Scouting indicators (beyond any login attempt, which always counts).
const SCOUT_PATTERNS: &[&str] = &[
    "keys",
    "info",
    "type ",
    "dbsize",
    "config get",
    "get ",
    "select",
    "show",
    "listdatabases",
    "listcollections",
    "find ",
    "count ",
    "ismaster",
    "hello",
    "buildinfo",
    "serverstatus",
    "getlog",
    "whatsmyuri",
    "aggregate",
    "legacy-find",
    "ping",
    "echo",
    "/_cat",
    "_all_dbs",
    "_all_docs",
    "/_nodes",
    "/_cluster",
    "/_search",
    "get /",
];

/// Classify one normalized action string.
pub fn classify_action(action: &str) -> Behavior {
    let lower = action.to_lowercase();
    // Exploit wins over scout when both match ("config set dir" contains
    // "config get"-adjacent text etc.).
    if EXPLOIT_PATTERNS.iter().any(|p| lower.contains(p)) {
        return Behavior::Exploiting;
    }
    if SCOUT_PATTERNS.iter().any(|p| lower.contains(p)) {
        return Behavior::Scouting;
    }
    Behavior::Scanning
}

/// Classify one event by its kind.
pub fn classify_event(kind: FrameKindRef<'_>) -> BehaviorProfile {
    let mut profile = BehaviorProfile {
        scanning: true,
        ..Default::default()
    };
    match kind {
        FrameKindRef::Connect | FrameKindRef::Disconnect | FrameKindRef::Malformed { .. } => {}
        FrameKindRef::LoginAttempt { .. } => profile.scouting = true,
        FrameKindRef::Payload { recognized, .. } => {
            // Foreign-service probes (RDP, JDWP, VMware SOAP, Craft CMS) are
            // scouting per §6.2: "classified as scanning and scouting rather
            // than exploitation".
            if recognized.is_some() {
                profile.scouting = true;
            }
        }
        FrameKindRef::Command { action, .. } => match classify_action(action) {
            Behavior::Exploiting => {
                profile.scouting = true;
                profile.exploiting = true;
            }
            Behavior::Scouting => profile.scouting = true,
            Behavior::Scanning => {}
        },
    }
    profile
}

/// Classify every source IP seen in `view` on honeypots of `dbms` (or all
/// honeypots when `dbms` is `None`). Deterministic ordering via `BTreeMap`.
/// This is the per-address reference fold; the report reads the profiles
/// [`BehaviorTable`](crate::behavior::BehaviorTable) folds per source id.
pub fn classify_sources(
    view: FrameView<'_>,
    dbms: Option<Dbms>,
) -> BTreeMap<IpAddr, BehaviorProfile> {
    let mut out: BTreeMap<IpAddr, BehaviorProfile> = BTreeMap::new();
    for event in view.events_of(dbms) {
        out.entry(view.src(event))
            .or_default()
            .merge(classify_event(view.kind(event)));
    }
    out
}

/// Counts per class with the paper's nested-set semantics removed: each
/// source counted once, under its primary class (the Table 8 presentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassCounts {
    /// Sources whose primary class is scanning.
    pub scanning: usize,
    /// Sources whose primary class is scouting.
    pub scouting: usize,
    /// Sources whose primary class is exploiting.
    pub exploiting: usize,
}

impl ClassCounts {
    /// Tally primary classes.
    pub fn from_profiles<'a>(profiles: impl IntoIterator<Item = &'a BehaviorProfile>) -> Self {
        let mut counts = ClassCounts::default();
        for p in profiles {
            match p.primary() {
                Behavior::Scanning => counts.scanning += 1,
                Behavior::Scouting => counts.scouting += 1,
                Behavior::Exploiting => counts.exploiting += 1,
            }
        }
        counts
    }

    /// Total sources.
    pub fn total(&self) -> usize {
        self.scanning + self.scouting + self.exploiting
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{AnalysisFrame, Partition};
    use decoy_base::time::EXPERIMENT_START;
    use decoy_store::{ConfigVariant, Event, EventKind, EventStore, HoneypotId, InteractionLevel};

    fn classify(store: &EventStore, dbms: Option<Dbms>) -> BTreeMap<IpAddr, BehaviorProfile> {
        let frame = AnalysisFrame::build(store, &decoy_geo::GeoDb::builtin());
        classify_sources(frame.view(Partition::All), dbms)
    }

    fn ev(src: u8, kind: EventKind) -> Event {
        Event {
            ts: EXPERIMENT_START,
            honeypot: HoneypotId::new(
                Dbms::Redis,
                InteractionLevel::Medium,
                ConfigVariant::Default,
                0,
            ),
            src: IpAddr::from([192, 0, 2, src]),
            session: 1,
            kind,
        }
    }

    fn cmd(src: u8, action: &str) -> Event {
        ev(
            src,
            EventKind::Command {
                action: action.into(),
                raw: action.into(),
            },
        )
    }

    #[test]
    fn action_classification_rules() {
        assert_eq!(classify_action("SLAVEOF <IP> <N>"), Behavior::Exploiting);
        assert_eq!(
            classify_action("CONFIG SET dir /root/.ssh/"),
            Behavior::Exploiting
        );
        assert_eq!(
            classify_action("COPY <HASH> FROM PROGRAM 'echo <CODE>| base64 -d | bash'"),
            Behavior::Exploiting
        );
        assert_eq!(
            classify_action("ALTER USER postgres WITH NOSUPERUSER"),
            Behavior::Exploiting
        );
        assert_eq!(classify_action("KEYS *"), Behavior::Scouting);
        assert_eq!(classify_action("INFO server"), Behavior::Scouting);
        assert_eq!(classify_action("listDatabases"), Behavior::Scouting);
        assert_eq!(classify_action("GET / HTTP"), Behavior::Scouting);
        assert_eq!(classify_action("xyzzy"), Behavior::Scanning);
    }

    #[test]
    fn profiles_are_nested_sets() {
        let store = EventStore::new();
        // pure scanner
        store.log(ev(1, EventKind::Connect));
        store.log(ev(1, EventKind::Disconnect));
        // scout: brute-force login
        store.log(ev(2, EventKind::Connect));
        store.log(ev(
            2,
            EventKind::LoginAttempt {
                username: "sa".into(),
                password: "123".into(),
                success: false,
            },
        ));
        // exploiter: scouted first, then attacked
        store.log(ev(3, EventKind::Connect));
        store.log(cmd(3, "INFO server"));
        store.log(cmd(3, "SLAVEOF <IP> <N>"));

        let profiles = classify(&store, Some(Dbms::Redis));
        let p1 = profiles[&IpAddr::from([192, 0, 2, 1])];
        assert!(p1.scanning && !p1.scouting && !p1.exploiting);
        let p2 = profiles[&IpAddr::from([192, 0, 2, 2])];
        assert!(p2.scanning && p2.scouting && !p2.exploiting);
        let p3 = profiles[&IpAddr::from([192, 0, 2, 3])];
        assert!(p3.scanning && p3.scouting && p3.exploiting);

        assert_eq!(p1.primary(), Behavior::Scanning);
        assert_eq!(p2.primary(), Behavior::Scouting);
        assert_eq!(p3.primary(), Behavior::Exploiting);

        let counts = ClassCounts::from_profiles(profiles.values());
        assert_eq!(
            (counts.scanning, counts.scouting, counts.exploiting),
            (1, 1, 1)
        );
        assert_eq!(counts.total(), 3);
    }

    #[test]
    fn foreign_probes_are_scouting_not_exploiting() {
        let store = EventStore::new();
        store.log(ev(9, EventKind::Connect));
        store.log(ev(
            9,
            EventKind::Payload {
                len: 14,
                recognized: Some("jdwp-scan".into()),
                preview: "JDWP-Handshake".into(),
            },
        ));
        let profiles = classify(&store, None);
        let p = profiles[&IpAddr::from([192, 0, 2, 9])];
        assert_eq!(p.primary(), Behavior::Scouting);
    }

    #[test]
    fn unrecognized_payload_is_scanning() {
        let store = EventStore::new();
        store.log(ev(
            4,
            EventKind::Payload {
                len: 4,
                recognized: None,
                preview: "....".into(),
            },
        ));
        store.log(ev(4, EventKind::Malformed { detail: "x".into() }));
        let profiles = classify(&store, None);
        assert_eq!(
            profiles[&IpAddr::from([192, 0, 2, 4])].primary(),
            Behavior::Scanning
        );
    }

    #[test]
    fn dbms_filter_scopes_classification() {
        let store = EventStore::new();
        store.log(ev(5, EventKind::Connect));
        let redis = classify(&store, Some(Dbms::Redis));
        let mongo = classify(&store, Some(Dbms::MongoDb));
        assert_eq!(redis.len(), 1);
        assert!(mongo.is_empty());
    }
}
