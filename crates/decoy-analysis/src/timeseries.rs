//! Hourly activity series (Figure 2, Figures 6–9).
//!
//! For each hour of the observation window: the number of distinct client
//! IPs connecting, and the cumulative count of never-before-seen IPs — the
//! two curves of the paper's temporal-distribution figures. Every DBMS
//! panel comes from one pass that sets a bit per (hour, source id).

use crate::frame::{panel_keys, FrameView, PANELS};
use decoy_base::time::Timestamp;
use decoy_store::Dbms;
use std::collections::BTreeMap;

/// One hourly bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HourBucket {
    /// Distinct client IPs seen this hour.
    pub unique_clients: usize,
    /// Clients seen this hour that had never appeared before.
    pub new_clients: usize,
    /// Cumulative distinct clients up to and including this hour.
    pub cumulative_clients: usize,
}

/// The full series over `[origin, origin + hours)`.
#[derive(Debug, Clone)]
pub struct HourlySeries {
    /// Series origin.
    pub origin: Timestamp,
    /// One bucket per hour.
    pub buckets: Vec<HourBucket>,
}

impl HourlySeries {
    /// Mean distinct clients per hour (the paper's "on average we observe
    /// 50 clients probing our honeypots every hour").
    pub fn mean_clients_per_hour(&self) -> f64 {
        if self.buckets.is_empty() {
            return 0.0;
        }
        self.buckets.iter().map(|b| b.unique_clients).sum::<usize>() as f64
            / self.buckets.len() as f64
    }

    /// Mean previously-unseen clients per hour ("7 previously unseen
    /// clients each hour").
    pub fn mean_new_clients_per_hour(&self) -> f64 {
        if self.buckets.is_empty() {
            return 0.0;
        }
        self.buckets.iter().map(|b| b.new_clients).sum::<usize>() as f64 / self.buckets.len() as f64
    }

    /// Total distinct clients over the window.
    pub fn total_unique_clients(&self) -> usize {
        self.buckets
            .last()
            .map(|b| b.cumulative_clients)
            .unwrap_or(0)
    }
}

/// Build the hourly series of `view` over `[origin, origin + hours·1h)`
/// for every panel from one pass: `None` over every DBMS family, `Some(d)`
/// over the honeypots of family `d`. Events outside the window are ignored;
/// every panel is present.
pub fn hourly_series(
    view: FrameView<'_>,
    origin: Timestamp,
    hours: usize,
) -> BTreeMap<Option<Dbms>, HourlySeries> {
    let words = view.frame().distinct_sources().div_ceil(64);
    // one bit per (panel, hour, source id), a row of `words` per hour
    let mut bits = vec![0u64; PANELS * hours * words];
    for event in view.events() {
        let id = event.source;
        if event.ts < origin {
            continue;
        }
        let hour = event.ts.hours_since(origin);
        if hour >= hours as u64 {
            continue;
        }
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        for panel in [0, 1 + event.honeypot.dbms as usize] {
            bits[(panel * hours + hour as usize) * words + word] |= bit;
        }
    }
    let series = |panel: usize| {
        let mut seen = vec![0u64; words];
        let mut cumulative_clients = 0;
        let buckets = (0..hours)
            .map(|hour| {
                let row = &bits[(panel * hours + hour) * words..][..words];
                let (mut unique_clients, mut new_clients) = (0, 0);
                for (seen, &row) in seen.iter_mut().zip(row) {
                    unique_clients += row.count_ones() as usize;
                    new_clients += (row & !*seen).count_ones() as usize;
                    *seen |= row;
                }
                cumulative_clients += new_clients;
                HourBucket {
                    unique_clients,
                    new_clients,
                    cumulative_clients,
                }
            })
            .collect();
        HourlySeries { origin, buckets }
    };
    panel_keys()
        .enumerate()
        .map(|(panel, key)| (key, series(panel)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{AnalysisFrame, Partition};
    use decoy_base::time::{EXPERIMENT_START, MILLIS_PER_HOUR};
    use decoy_store::{ConfigVariant, Event, EventKind, EventStore, HoneypotId, InteractionLevel};
    use std::net::IpAddr;

    fn series(store: &EventStore, dbms: Option<Dbms>, hours: usize) -> HourlySeries {
        let frame = AnalysisFrame::build(store, &decoy_geo::GeoDb::builtin());
        let mut panels = hourly_series(frame.view(Partition::All), EXPERIMENT_START, hours);
        assert_eq!(panels.len(), 1 + Dbms::all().len());
        panels.remove(&dbms).expect("every panel is present")
    }

    fn log_at(store: &EventStore, src: u8, hour: u64) {
        store.log(Event {
            ts: EXPERIMENT_START.add_millis(hour * MILLIS_PER_HOUR + 60_000),
            honeypot: HoneypotId::new(
                Dbms::MySql,
                InteractionLevel::Low,
                ConfigVariant::MultiService,
                0,
            ),
            src: IpAddr::from([203, 0, 113, src]),
            session: 1,
            kind: EventKind::Connect,
        });
    }

    #[test]
    fn buckets_and_cumulative_counts() {
        let store = EventStore::new();
        // hour 0: ips 1, 2; hour 1: ips 2, 3; hour 3: ip 1 again
        log_at(&store, 1, 0);
        log_at(&store, 2, 0);
        log_at(&store, 2, 1);
        log_at(&store, 3, 1);
        log_at(&store, 1, 3);
        let s = series(&store, Some(Dbms::MySql), 4);
        assert_eq!(
            s.buckets[0],
            HourBucket {
                unique_clients: 2,
                new_clients: 2,
                cumulative_clients: 2
            }
        );
        assert_eq!(
            s.buckets[1],
            HourBucket {
                unique_clients: 2,
                new_clients: 1,
                cumulative_clients: 3
            }
        );
        assert_eq!(
            s.buckets[2],
            HourBucket {
                unique_clients: 0,
                new_clients: 0,
                cumulative_clients: 3
            }
        );
        assert_eq!(
            s.buckets[3],
            HourBucket {
                unique_clients: 1,
                new_clients: 0,
                cumulative_clients: 3
            }
        );
        assert_eq!(s.total_unique_clients(), 3);
        assert!((s.mean_clients_per_hour() - 5.0 / 4.0).abs() < 1e-12);
        assert!((s.mean_new_clients_per_hour() - 3.0 / 4.0).abs() < 1e-12);
        assert_eq!(s.origin, EXPERIMENT_START);
    }

    #[test]
    fn events_outside_window_are_ignored() {
        let store = EventStore::new();
        log_at(&store, 1, 0);
        log_at(&store, 2, 100); // beyond a 4-hour window
        let s = series(&store, None, 4);
        assert_eq!(s.total_unique_clients(), 1);
    }

    #[test]
    fn multiple_events_same_ip_same_hour_count_once() {
        let store = EventStore::new();
        for _ in 0..10 {
            log_at(&store, 7, 2);
        }
        let s = series(&store, None, 4);
        assert_eq!(s.buckets[2].unique_clients, 1);
    }

    #[test]
    fn empty_series() {
        let store = EventStore::new();
        let s = series(&store, None, 0);
        assert_eq!(s.total_unique_clients(), 0);
        assert_eq!(s.mean_clients_per_hour(), 0.0);
        assert_eq!(s.mean_new_clients_per_hour(), 0.0);
    }
}
