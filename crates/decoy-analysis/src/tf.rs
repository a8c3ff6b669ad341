//! Term Frequency vectorization of action sequences (§6.1).
//!
//! Each source IP's observed action sequence is a "document"; each
//! normalized action is a "term". `tf(t, d)` is the relative frequency of
//! term `t` in document `d` (duplicates included), exactly as the paper
//! defines it. Vectors are sparse over a shared [`Vocabulary`] — see
//! [`crate::tfvec`] for the representation; this module re-exports the
//! types and holds the per-event term rule and the frame document
//! extraction.

pub use crate::tfvec::{TfVector, Vocabulary};

use crate::frame::{FrameKindRef, FrameView};
use decoy_store::Dbms;
use std::collections::BTreeMap;
use std::net::IpAddr;

/// The §6.1 term of one event: the normalized command action, `LOGIN` for
/// an authentication attempt, the recognized label of a foreign payload
/// (`PAYLOAD` when unrecognized), and `MALFORMED` for a grammar violation.
/// Connects and disconnects carry no behavioral signal and have no term
/// (they would swamp the TF mass of scanners' documents); fleet-health
/// telemetry never becomes a frame row.
/// Terms borrow the frame's interned strings.
pub(crate) fn event_term<'a>(kind: FrameKindRef<'a>) -> Option<&'a str> {
    match kind {
        FrameKindRef::Connect | FrameKindRef::Disconnect => None,
        FrameKindRef::LoginAttempt { .. } => Some("LOGIN"),
        FrameKindRef::Command { action, .. } => Some(action),
        FrameKindRef::Payload { recognized, .. } => Some(recognized.unwrap_or("PAYLOAD")),
        FrameKindRef::Malformed { .. } => Some("MALFORMED"),
    }
}

/// Extract the per-source action sequences ("documents") for one DBMS, in
/// event order: each event's term (`event_term`), grouped by source address.
/// This is the per-address reference fold; the report reads the documents
/// [`BehaviorTable`](crate::behavior::BehaviorTable) builds per source id.
pub fn action_sequences(view: FrameView<'_>, dbms: Option<Dbms>) -> BTreeMap<IpAddr, Vec<&str>> {
    let mut docs: BTreeMap<IpAddr, Vec<&str>> = BTreeMap::new();
    for event in view.events_of(dbms) {
        // Every connecting source gets a (possibly empty) document so that
        // scanners appear in the clustering input too.
        docs.entry(view.src(event))
            .or_default()
            .extend(event_term(view.kind(event)));
    }
    docs
}

/// Vectorize a set of documents under one shared vocabulary; returns
/// `(sources, vectors, vocabulary)` with parallel ordering.
pub fn vectorize<T: AsRef<str>>(
    docs: &BTreeMap<IpAddr, Vec<T>>,
) -> (Vec<IpAddr>, Vec<TfVector>, Vocabulary) {
    let mut vocab = Vocabulary::new();
    let mut sources = Vec::with_capacity(docs.len());
    let mut vectors = Vec::with_capacity(docs.len());
    for (src, terms) in docs {
        sources.push(*src);
        vectors.push(TfVector::from_terms(terms, &mut vocab));
    }
    (sources, vectors, vocab)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{AnalysisFrame, Partition};
    use decoy_store::{EventKind, EventStore};

    // Representation-level TfVector/Vocabulary tests live in `crate::tfvec`;
    // this module keeps the document extraction tests.

    #[test]
    fn sequences_from_frame() {
        use decoy_base::time::EXPERIMENT_START;
        use decoy_store::{ConfigVariant, Event, HoneypotId, InteractionLevel};
        let store = EventStore::new();
        let src: IpAddr = "192.0.2.10".parse().unwrap();
        let hp = HoneypotId::new(
            Dbms::Redis,
            InteractionLevel::Medium,
            ConfigVariant::Default,
            0,
        );
        for kind in [
            EventKind::Connect,
            EventKind::LoginAttempt {
                username: "u".into(),
                password: "p".into(),
                success: false,
            },
            EventKind::Command {
                action: "KEYS *".into(),
                raw: "KEYS *".into(),
            },
            EventKind::Disconnect,
        ] {
            store.log(Event {
                ts: EXPERIMENT_START,
                honeypot: hp,
                src,
                session: 1,
                kind,
            });
        }
        let frame = AnalysisFrame::build(&store, &decoy_geo::GeoDb::builtin());
        let docs = action_sequences(frame.view(Partition::All), Some(Dbms::Redis));
        assert_eq!(docs[&src], ["LOGIN", "KEYS *"]);
        let (sources, vectors, vocab) = vectorize(&docs);
        assert_eq!(sources, vec![src]);
        assert_eq!(vectors.len(), 1);
        assert_eq!(vocab.len(), 2);
    }
}
