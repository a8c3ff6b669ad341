//! The behavior table: every medium/high source's behavior, derived once
//! and read by every §6 artifact (Tables 8–11, Figure 5, the §6 intel gap).
//!
//! The paper derives a source's behavior once: the rule-based classes of
//! §4.3, the TF documents that Ward linkage cuts into clusters and the
//! manual review refines (§6.1), and the campaign tags of Table 9.
//! [`BehaviorTable::build`] is that derivation, as one pass over a view's
//! events on the frame's dense source ids. Per (source id, family) it folds
//! the behavior profile ([`classify_event`]), the term document
//! (`tf::event_term`) and the tag activity (`tagging::ActivityFold`).
//! Then, per clustered family, Ward runs once over the documents and the
//! table keeps the plain cut (Table 9), the cluster count after the
//! manual-review pass (Table 8) and the campaign tags (Table 9).
//!
//! [`classify_sources`](crate::classify::classify_sources),
//! [`cluster_sources`](crate::cluster::cluster_sources) and
//! [`tag_sources`](crate::tagging::tag_sources) apply the same per-event
//! rules grouped by address; they are the reference folds the differential
//! test holds this table to.

use crate::classify::{classify_event, BehaviorProfile};
use crate::cluster::{cluster_documents, refine_by_behavior, ClusterResult};
use crate::frame::{FrameView, FAMILIES};
use crate::tagging::{tag_activity, ActivityFold, CampaignTag};
use crate::tf::event_term;
use decoy_store::Dbms;
use std::collections::BTreeMap;
use std::net::IpAddr;

/// One clustered family's §6.1 results.
#[derive(Debug, Clone)]
pub struct FamilyBehavior {
    /// The family.
    pub dbms: Dbms,
    /// The plain Ward cut of the family's documents (Table 9's clusters).
    pub clusters: ClusterResult,
    /// The cut's cluster count after the manual-review pass (Table 8).
    pub refined_clusters: usize,
    /// The campaign tags of every tagged source (Table 9's rows).
    pub tags: BTreeMap<IpAddr, Vec<CampaignTag>>,
}

/// What the pass folds for one (source id, family).
#[derive(Default)]
struct Cell<'a> {
    profile: BehaviorProfile,
    document: Vec<&'a str>,
    activity: ActivityFold<'a>,
}

/// Every source's behavior in one view, by dense source id and family.
pub struct BehaviorTable<'a> {
    view: FrameView<'a>,
    /// Per source id, its profile on each family (indexed by
    /// `dbms as usize`); `None` where it never hit that family.
    profiles: Vec<[Option<BehaviorProfile>; FAMILIES]>,
    families: Vec<FamilyBehavior>,
}

impl<'a> BehaviorTable<'a> {
    /// Fold every event of `view` once, then cluster each family of
    /// `clustered` with one Ward run cut at `threshold`.
    pub fn build(view: FrameView<'a>, clustered: &[Dbms], threshold: f64) -> Self {
        let sources = view.frame().sources();
        let mut cells: Vec<[Option<Cell<'a>>; FAMILIES]> = Vec::new();
        cells.resize_with(sources.len(), Default::default);
        for event in view.events() {
            let cell = cells[event.source as usize][event.honeypot.dbms as usize]
                .get_or_insert_with(Default::default);
            let kind = view.kind(event);
            cell.profile.merge(classify_event(kind));
            cell.document.extend(event_term(kind));
            cell.activity.push(kind);
        }
        let profiles = cells
            .iter()
            .map(|row| std::array::from_fn(|f| row[f].as_ref().map(|cell| cell.profile)))
            .collect();
        let families = clustered
            .iter()
            .map(|&dbms| {
                let mut documents = BTreeMap::new();
                let mut family_profiles = BTreeMap::new();
                let mut tags = BTreeMap::new();
                for (&ip, row) in sources.iter().zip(&mut cells) {
                    let Some(cell) = row[dbms as usize].take() else {
                        continue;
                    };
                    let source_tags = tag_activity(&cell.activity.finish());
                    if !source_tags.is_empty() {
                        tags.insert(ip, source_tags);
                    }
                    family_profiles.insert(ip, cell.profile);
                    documents.insert(ip, cell.document);
                }
                let clusters = cluster_documents(&documents, threshold);
                let mut refined = clusters.clone();
                refine_by_behavior(&mut refined, &family_profiles);
                FamilyBehavior {
                    dbms,
                    clusters,
                    refined_clusters: refined.num_clusters,
                    tags,
                }
            })
            .collect();
        BehaviorTable {
            view,
            profiles,
            families,
        }
    }

    /// The view the table was built from.
    pub fn view(&self) -> FrameView<'a> {
        self.view
    }

    /// The clustered families' results, in the order `build` was given.
    pub fn families(&self) -> &[FamilyBehavior] {
        &self.families
    }

    /// Every source id of the frame, ascending (ids the view never saw
    /// have no profile).
    pub fn ids(&self) -> impl Iterator<Item = u32> {
        0..u32::try_from(self.profiles.len()).expect("fewer than 2^32 distinct sources")
    }

    /// Source `id`'s profile on `dbms`, or merged over every family when
    /// `dbms` is `None`; `None` when the source never hit it.
    pub fn profile(&self, id: u32, dbms: Option<Dbms>) -> Option<BehaviorProfile> {
        match dbms {
            Some(dbms) => self.merged(id, [dbms]),
            None => self.merged(id, Dbms::all()),
        }
    }

    /// Source `id`'s profile merged over the clustered families (the scope
    /// of Tables 10 and 11); `None` when the source hit none of them.
    pub fn clustered_profile(&self, id: u32) -> Option<BehaviorProfile> {
        self.merged(id, self.families.iter().map(|f| f.dbms))
    }

    /// Every profiled source's [`profile`](Self::profile) on `dbms`, keyed
    /// by address.
    pub fn profiles(&self, dbms: Option<Dbms>) -> BTreeMap<IpAddr, BehaviorProfile> {
        let sources = self.view.frame().sources();
        self.ids()
            .filter_map(|id| Some((sources[id as usize], self.profile(id, dbms)?)))
            .collect()
    }

    /// Source `id`'s profiles on `families`, merged.
    fn merged(&self, id: u32, families: impl IntoIterator<Item = Dbms>) -> Option<BehaviorProfile> {
        let row = &self.profiles[id as usize];
        families
            .into_iter()
            .filter_map(|dbms| row[dbms as usize])
            .reduce(|mut merged, profile| {
                merged.merge(profile);
                merged
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Behavior;
    use crate::frame::{AnalysisFrame, Partition};
    use decoy_base::time::EXPERIMENT_START;
    use decoy_store::{ConfigVariant, Event, EventKind, EventStore, HoneypotId, InteractionLevel};

    fn log(store: &EventStore, src: u8, dbms: Dbms, kind: EventKind) {
        store.log(Event {
            ts: EXPERIMENT_START,
            honeypot: HoneypotId::new(dbms, InteractionLevel::Medium, ConfigVariant::Default, 0),
            src: IpAddr::from([192, 0, 2, src]),
            session: 1,
            kind,
        });
    }

    fn cmd(raw: &str) -> EventKind {
        EventKind::Command {
            action: raw.into(),
            raw: raw.into(),
        }
    }

    #[test]
    fn one_pass_keeps_profiles_clusters_and_tags_per_family() {
        let store = EventStore::new();
        // two P2PInfect bots and a scout on Redis; one bot also scans MongoDB
        for bot in [1, 2] {
            log(&store, bot, Dbms::Redis, cmd("INFO server"));
            log(&store, bot, Dbms::Redis, cmd("MODULE LOAD /tmp/exp.so"));
        }
        log(&store, 1, Dbms::MongoDb, EventKind::Connect);
        log(&store, 3, Dbms::Redis, cmd("KEYS *"));
        let frame = AnalysisFrame::build(&store, &decoy_geo::GeoDb::builtin());
        let table = BehaviorTable::build(
            frame.view(Partition::MedHigh),
            &[Dbms::MongoDb, Dbms::Redis],
            0.05,
        );

        let bot = frame.source_id(IpAddr::from([192, 0, 2, 1])).unwrap();
        let redis = table.profile(bot, Some(Dbms::Redis)).unwrap();
        assert_eq!(redis.primary(), Behavior::Exploiting);
        let mongo = table.profile(bot, Some(Dbms::MongoDb)).unwrap();
        assert_eq!(mongo.primary(), Behavior::Scanning);
        assert_eq!(table.profile(bot, None), Some(redis));
        assert_eq!(table.clustered_profile(bot), Some(redis));
        assert_eq!(table.profile(bot, Some(Dbms::Postgres)), None);
        assert_eq!(table.profiles(Some(Dbms::Redis)).len(), 3);
        assert_eq!(table.profiles(None).len(), 3);

        let families = table.families();
        assert_eq!(families.len(), 2);
        assert_eq!(
            (families[0].dbms, families[1].dbms),
            (Dbms::MongoDb, Dbms::Redis)
        );
        assert_eq!(families[0].clusters.assignments.len(), 1);
        assert!(families[0].tags.is_empty());
        let redis = &families[1];
        assert_eq!(redis.clusters.num_clusters, 2);
        assert_eq!(redis.refined_clusters, 2);
        assert_eq!(redis.tags.len(), 2);
        assert!(redis
            .tags
            .values()
            .all(|tags| tags == &[CampaignTag::P2pInfect]));
    }
}
