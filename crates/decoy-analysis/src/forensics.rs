//! Forensic session reconstruction — render a source's captured activity
//! the way the paper's Appendix E listings present it (Listing 1, 2, 4, ...):
//! numbered command lines with volatile fields already masked, connection
//! boundaries marked, and login attempts summarized.

use decoy_store::{Dbms, EventKindRef, EventRef, EventStore, HoneypotId};
use std::fmt::Write as _;
use std::net::IpAddr;

/// One reconstructed session (connection) from a source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionListing {
    /// Honeypot the session hit.
    pub honeypot: HoneypotId,
    /// Session sequence number on that honeypot.
    pub session: u64,
    /// Masked lines in order.
    pub lines: Vec<String>,
}

/// Reconstruct all sessions of `src` (optionally scoped to one family).
/// Consecutive events of one `(honeypot, session)` form one listing.
pub fn sessions_of(store: &EventStore, src: IpAddr, dbms: Option<Dbms>) -> Vec<SessionListing> {
    let mut sessions: Vec<SessionListing> = Vec::new();
    store.read(|log| {
        let scoped = |e: &EventRef<'_>| e.src == src && dbms.map_or(true, |d| e.honeypot.dbms == d);
        for event in log.iter().filter(scoped) {
            let line = match event.kind {
                EventKindRef::Connect => "NewConnect".to_string(),
                EventKindRef::Disconnect => "Closed".to_string(),
                EventKindRef::Command { action, .. } => action.to_string(),
                EventKindRef::LoginAttempt {
                    username, success, ..
                } => format!(
                    "login {} as {username} (password masked)",
                    if success { "accepted" } else { "rejected" },
                ),
                EventKindRef::Payload {
                    recognized,
                    preview,
                    ..
                } => match recognized {
                    Some(label) => format!("[{label}] {preview}"),
                    None => format!("[payload] {preview}"),
                },
                EventKindRef::Malformed { detail } => format!("[malformed] {detail}"),
                // Operational telemetry never belongs in an attacker listing.
                EventKindRef::Health { .. } => continue,
            };
            match sessions.last_mut() {
                Some(last) if (last.honeypot, last.session) == (event.honeypot, event.session) => {
                    last.lines.push(line)
                }
                _ => sessions.push(SessionListing {
                    honeypot: event.honeypot,
                    session: event.session,
                    lines: vec![line],
                }),
            }
        }
    });
    sessions
}

/// Render a source's activity as a numbered, paper-style listing.
pub fn render_listing(store: &EventStore, src: IpAddr, dbms: Option<Dbms>) -> String {
    let mut out = String::new();
    for listing in sessions_of(store, src, dbms) {
        let (honeypot, session) = (listing.honeypot, listing.session);
        let _ = writeln!(out, "-- {honeypot} session {session} --");
        for (i, line) in listing.lines.iter().enumerate() {
            let _ = writeln!(out, "{:>3}  {line}", i + 1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_base::time::EXPERIMENT_START;
    use decoy_store::{ConfigVariant, Event, EventKind, InteractionLevel};

    fn log(store: &EventStore, session: u64, kind: EventKind) {
        let honeypot = HoneypotId::new(
            Dbms::Redis,
            InteractionLevel::Medium,
            ConfigVariant::Default,
            0,
        );
        log_on(store, honeypot, session, kind);
    }

    fn log_on(store: &EventStore, honeypot: HoneypotId, session: u64, kind: EventKind) {
        store.log(Event {
            ts: EXPERIMENT_START,
            honeypot,
            src: "60.1.2.3".parse().unwrap(),
            session,
            kind,
        });
    }

    #[test]
    fn reconstructs_sessions_in_order_with_masking() {
        let store = EventStore::new();
        let src: IpAddr = "60.1.2.3".parse().unwrap();
        log(&store, 1, EventKind::Connect);
        log(
            &store,
            1,
            EventKind::Command {
                action: "SLAVEOF <IP> <N>".into(),
                raw: "SLAVEOF 1.2.3.4 8886".into(),
            },
        );
        log(&store, 1, EventKind::Disconnect);
        log(&store, 2, EventKind::Connect);
        log(
            &store,
            2,
            EventKind::LoginAttempt {
                username: "default".into(),
                password: "secret".into(),
                success: false,
            },
        );
        log(&store, 2, EventKind::Disconnect);

        let sessions = sessions_of(&store, src, Some(Dbms::Redis));
        assert_eq!(sessions.len(), 2);
        assert_eq!(
            sessions[0].lines,
            vec!["NewConnect", "SLAVEOF <IP> <N>", "Closed"]
        );
        let listing = render_listing(&store, src, None);
        assert!(listing.contains("-- Redis/Medium/Default#0 session 1 --"));
        assert!(listing.contains("  2  SLAVEOF <IP> <N>"));
        // credentials never appear in a listing
        assert!(!listing.contains("secret"));
        assert!(listing.contains("login rejected as default"));
    }

    #[test]
    fn unknown_source_renders_empty() {
        let store = EventStore::new();
        let listing = render_listing(&store, "60.9.9.9".parse().unwrap(), None);
        assert!(listing.is_empty());
    }

    #[test]
    fn foreign_payloads_carry_their_label() {
        let store = EventStore::new();
        log(
            &store,
            3,
            EventKind::Payload {
                len: 14,
                recognized: Some("jdwp-scan".into()),
                preview: "JDWP-Handshake".into(),
            },
        );
        let listing = render_listing(&store, "60.1.2.3".parse().unwrap(), None);
        assert!(listing.contains("[jdwp-scan] JDWP-Handshake"));
    }

    #[test]
    fn same_numbered_sessions_on_two_honeypots_stay_apart() {
        // one source's session 1 on a single-service MySQL honeypot, then
        // its session 1 on a multi-service one, adjacent in the log
        let store = EventStore::new();
        let (single, multi) = (ConfigVariant::SingleService, ConfigVariant::MultiService);
        let mysql = |config| HoneypotId::new(Dbms::MySql, InteractionLevel::Low, config, 0);
        log_on(&store, mysql(single), 1, EventKind::Connect);
        log_on(&store, mysql(single), 1, EventKind::Disconnect);
        log_on(&store, mysql(multi), 1, EventKind::Connect);
        log_on(&store, mysql(multi), 1, EventKind::Disconnect);

        let sessions = sessions_of(&store, "60.1.2.3".parse().unwrap(), Some(Dbms::MySql));
        assert_eq!(sessions.len(), 2, "{sessions:?}");
        assert_eq!(sessions[0].honeypot, mysql(single));
        assert_eq!(sessions[1].honeypot, mysql(multi));
        for listing in &sessions {
            assert_eq!(listing.session, 1);
            assert_eq!(listing.lines, vec!["NewConnect", "Closed"]);
        }
        // the printed headers tell the two honeypots apart too
        let listing = render_listing(&store, "60.1.2.3".parse().unwrap(), None);
        let headers: Vec<&str> = listing.lines().filter(|l| l.starts_with("--")).collect();
        assert_eq!(
            headers,
            [
                "-- MySQL/Low/SingleService#0 session 1 --",
                "-- MySQL/Low/MultiService#0 session 1 --",
            ]
        );
    }
}
