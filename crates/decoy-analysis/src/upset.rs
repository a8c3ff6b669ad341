//! Cross-honeypot IP intersections — the UpSet plot of Figure 4.
//!
//! For the medium/high-interaction deployment, which sources appeared on
//! which DBMS honeypots, aggregated by exact combination ("most IP
//! addresses appear in only a single honeypot").

use crate::frame::FrameView;
use decoy_store::Dbms;
use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;

/// Exact-combination intersection counts: each source is counted once,
/// under the full set of DBMS it contacted.
#[derive(Debug, Clone, Default)]
pub struct UpSet {
    /// Combination → number of sources contacting exactly that combination.
    pub intersections: BTreeMap<Vec<Dbms>, usize>,
    /// Per-DBMS totals (marginal set sizes).
    pub set_sizes: BTreeMap<Dbms, usize>,
}

impl UpSet {
    /// Sources that contacted exactly one honeypot family.
    pub fn exclusive_total(&self) -> usize {
        self.intersections
            .iter()
            .filter(|(combo, _)| combo.len() == 1)
            .map(|(_, n)| n)
            .sum()
    }

    /// Sources that contacted two or more families.
    pub fn multi_total(&self) -> usize {
        self.intersections
            .iter()
            .filter(|(combo, _)| combo.len() > 1)
            .map(|(_, n)| n)
            .sum()
    }

    /// All sources.
    pub fn total(&self) -> usize {
        self.intersections.values().sum()
    }

    /// Intersections sorted by size, descending (UpSet bar order).
    pub fn sorted(&self) -> Vec<(Vec<Dbms>, usize)> {
        let mut rows: Vec<(Vec<Dbms>, usize)> = self
            .intersections
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }
}

/// Compute the UpSet over sources seen in `view` on honeypots of the given
/// DBMS set, in one pass over the view's events.
pub fn upset(view: FrameView<'_>, families: &[Dbms]) -> UpSet {
    let mut membership: BTreeMap<IpAddr, BTreeSet<Dbms>> = BTreeMap::new();
    for event in view.events() {
        let dbms = event.honeypot.dbms;
        if families.contains(&dbms) {
            membership.entry(view.src(event)).or_default().insert(dbms);
        }
    }
    let mut result = UpSet::default();
    for sets in membership.values() {
        let combo: Vec<Dbms> = sets.iter().copied().collect();
        *result.intersections.entry(combo).or_insert(0) += 1;
        for &dbms in sets {
            *result.set_sizes.entry(dbms).or_insert(0) += 1;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{AnalysisFrame, Partition};
    use decoy_base::time::EXPERIMENT_START;
    use decoy_store::{ConfigVariant, Event, EventKind, EventStore, HoneypotId, InteractionLevel};

    fn upset_of(store: &EventStore) -> UpSet {
        let frame = AnalysisFrame::build(store, &decoy_geo::GeoDb::builtin());
        upset(frame.view(Partition::All), &FAMILIES)
    }

    fn log(store: &EventStore, src: u8, dbms: Dbms) {
        store.log(Event {
            ts: EXPERIMENT_START,
            honeypot: HoneypotId::new(dbms, InteractionLevel::Medium, ConfigVariant::Default, 0),
            src: IpAddr::from([198, 18, 0, src]),
            session: 1,
            kind: EventKind::Connect,
        });
    }

    const FAMILIES: [Dbms; 4] = [Dbms::Elastic, Dbms::MongoDb, Dbms::Postgres, Dbms::Redis];

    #[test]
    fn exact_combinations() {
        let store = EventStore::new();
        // 1 hits PG only; 2 hits PG+Redis; 3 hits all four; 4 hits Mongo only
        log(&store, 1, Dbms::Postgres);
        log(&store, 2, Dbms::Postgres);
        log(&store, 2, Dbms::Redis);
        for d in FAMILIES {
            log(&store, 3, d);
        }
        log(&store, 4, Dbms::MongoDb);

        let u = upset_of(&store);
        assert_eq!(u.total(), 4);
        assert_eq!(u.exclusive_total(), 2);
        assert_eq!(u.multi_total(), 2);
        assert_eq!(u.intersections[&vec![Dbms::Postgres]], 1);
        assert_eq!(u.intersections[&vec![Dbms::Postgres, Dbms::Redis]], 1);
        assert_eq!(u.set_sizes[&Dbms::Postgres], 3);
        assert_eq!(u.set_sizes[&Dbms::Redis], 2);
        assert_eq!(u.set_sizes[&Dbms::MongoDb], 2);
        // sorted() is size-descending
        let sorted = u.sorted();
        assert!(sorted.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn repeat_visits_count_once() {
        let store = EventStore::new();
        for _ in 0..5 {
            log(&store, 9, Dbms::Redis);
        }
        let u = upset_of(&store);
        assert_eq!(u.total(), 1);
        assert_eq!(u.set_sizes[&Dbms::Redis], 1);
    }

    #[test]
    fn families_filter_excludes_other_dbms() {
        let store = EventStore::new();
        log(&store, 1, Dbms::MySql); // not in the medium/high families
        let u = upset_of(&store);
        assert_eq!(u.total(), 0);
        assert!(u.intersections.is_empty());
    }
}
