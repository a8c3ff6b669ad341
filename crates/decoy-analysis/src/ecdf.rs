//! Empirical cumulative distribution functions.
//!
//! Used for the client-retention CDFs of Figure 3 (low-interaction, by
//! DBMS) and Figure 5 (medium/high, by behavior class): "retention" is the
//! number of distinct days a source was observed on during the experiment.
//! [`retention_days`] computes it for every DBMS panel in one pass, with a
//! per-source day mask indexed by the frame's dense source ids.

use crate::frame::{panel_keys, FrameView, PANELS};
use decoy_base::time::Timestamp;
use decoy_store::Dbms;
use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs remain"));
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0.0..=1.0`), by the nearest-rank method.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        Some(self.sorted[rank.min(self.sorted.len() - 1)])
    }

    /// Mean of the samples.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }

    /// The step points `(x, P(X<=x))` for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            let y = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == x => last.1 = y,
                _ => out.push((x, y)),
            }
        }
        out
    }
}

/// Distinct active days per source in `view`, relative to `origin` — the
/// retention metric of Figures 3 and 5 — for every panel from one pass:
/// `None` over every DBMS family, `Some(d)` over the honeypots of family
/// `d`. Every panel is present, empty when no event fell into it.
pub fn retention_days(
    view: FrameView<'_>,
    origin: Timestamp,
) -> BTreeMap<Option<Dbms>, BTreeMap<IpAddr, usize>> {
    let frame = view.frame();
    // per source id and panel, one bit per day below 64; the rare later
    // days are kept exactly, per (id, panel)
    let mut masks = vec![[0u64; PANELS]; frame.distinct_sources()];
    let mut late: BTreeMap<(u32, usize), BTreeSet<u64>> = BTreeMap::new();
    for event in view.events() {
        let id = event.source;
        let day = event.ts.days_since(origin);
        for panel in [0, 1 + event.honeypot.dbms as usize] {
            if day < 64 {
                masks[id as usize][panel] |= 1 << day;
            } else {
                late.entry((id, panel)).or_default().insert(day);
            }
        }
    }
    panel_keys()
        .enumerate()
        .map(|(panel, key)| {
            let sources = frame.sources().iter().zip(&masks).enumerate();
            let per_source = sources
                .filter_map(|(id, (&ip, mask))| {
                    let late = late.get(&(id as u32, panel)).map_or(0, BTreeSet::len);
                    let days = mask[panel].count_ones() as usize + late;
                    (days > 0).then_some((ip, days))
                })
                .collect();
            (key, per_source)
        })
        .collect()
}

/// Fraction of sources active on exactly one day (the paper's "43% of all
/// clients hitting our infrastructure only on a single day").
pub fn single_day_fraction(retention: &BTreeMap<IpAddr, usize>) -> f64 {
    if retention.is_empty() {
        return 0.0;
    }
    let single = retention.values().filter(|&&d| d == 1).count();
    single as f64 / retention.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_base::rng::{for_all, Rng};
    use decoy_base::time::{EXPERIMENT_START, MILLIS_PER_DAY};
    use decoy_store::{ConfigVariant, Event, EventKind, EventStore, HoneypotId, InteractionLevel};

    #[test]
    fn ecdf_basic_math() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(100.0), 1.0);
        assert_eq!(e.mean(), Some(2.25));
        assert_eq!(e.quantile(0.5), Some(2.0));
        assert_eq!(e.quantile(1.0), Some(4.0));
        assert_eq!(e.quantile(0.0), Some(1.0));
    }

    #[test]
    fn ecdf_empty_and_nan() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.eval(1.0), 0.0);
        assert_eq!(e.quantile(0.5), None);
        assert_eq!(e.mean(), None);
        let e = Ecdf::new(vec![f64::NAN, 1.0]);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn points_deduplicate_steps() {
        let e = Ecdf::new(vec![1.0, 1.0, 2.0]);
        assert_eq!(e.points(), vec![(1.0, 2.0 / 3.0), (2.0, 1.0)]);
    }

    #[test]
    fn retention_counts_distinct_days() {
        let store = EventStore::new();
        let hp = HoneypotId::new(
            Dbms::Mssql,
            InteractionLevel::Low,
            ConfigVariant::MultiService,
            0,
        );
        let src: IpAddr = "192.0.2.1".parse().unwrap();
        // three events on day 0 (still one day), one on day 5
        for offset in [0u64, 1000, 2000, 5 * MILLIS_PER_DAY] {
            store.log(Event {
                ts: EXPERIMENT_START.add_millis(offset),
                honeypot: hp,
                src,
                session: 1,
                kind: EventKind::Connect,
            });
        }
        let once: IpAddr = "192.0.2.2".parse().unwrap();
        store.log(Event {
            ts: EXPERIMENT_START,
            honeypot: hp,
            src: once,
            session: 1,
            kind: EventKind::Connect,
        });
        let frame = crate::frame::AnalysisFrame::build(&store, &decoy_geo::GeoDb::builtin());
        let view = frame.view(crate::frame::Partition::All);
        let panels = retention_days(view, EXPERIMENT_START);
        let r = &panels[&Some(Dbms::Mssql)];
        assert_eq!(r[&src], 2);
        assert_eq!(r[&once], 1);
        assert_eq!(single_day_fraction(r), 0.5);
        // every event is on MSSQL, so the all-family panel is the same and
        // every other family's panel is present but empty
        assert_eq!(&panels[&None], r);
        assert_eq!(panels.len(), 1 + Dbms::all().len());
        assert!(panels[&Some(Dbms::Redis)].is_empty());
        // empty case
        assert_eq!(single_day_fraction(&BTreeMap::new()), 0.0);
    }

    #[test]
    fn ecdf_is_monotone() {
        let gen = |rng: &mut Rng| -> Vec<f64> {
            (0..rng.gen_range(0..64))
                .map(|_| rng.gen_range(-1e6..1e6))
                .collect()
        };
        for_all(0xecdf, 256, gen, |samples| {
            let e = Ecdf::new(samples.clone());
            let mut prev = 0.0;
            for x in [-1e7, -10.0, 0.0, 10.0, 1e7] {
                let y = e.eval(x);
                assert!(y >= prev);
                assert!((0.0..=1.0).contains(&y));
                prev = y;
            }
        });
    }
}
