#![warn(missing_docs)]

//! # decoy-base
//!
//! The std-only leaf of the workspace: what every other crate may depend on
//! without pulling in a crates.io package. That is [`rng`], the one seeded
//! generator behind every draw, so `(seed, scale)` names exactly one
//! experiment under every build, and [`rng::for_all`], the seeded runner
//! behind every property test; [`json`], the one JSON codec behind the
//! HTTP honeypots' bodies, the Appendix-B dataset export and the
//! fingerprint baseline; [`time`], the virtual clock and the
//! [`time::Timestamp`] every event carries; [`health`], the listener
//! health the supervisor tracks, the event store logs and the report
//! renders; [`sync`], the one lock type, which never poisons;
//! [`latency`], the seeded response-latency shaper the listeners and the
//! fingerprint battery's in-memory timing draw from; [`chaos`], the
//! seeded fault plan and the byte rule of a faulted connection; and
//! [`supervision`], the restart policy of a supervised listener. With
//! these here, the event store, the analysis and the report name no crate
//! that opens a socket, and the fleet's failure handling runs in memory as
//! it does on sockets.

pub mod chaos;
pub mod health;
pub mod json;
pub mod latency;
pub mod rng;
pub mod supervision;
pub mod sync;
pub mod time;

pub use health::HealthState;
pub use rng::{splitmix64, Rng};

#[cfg(test)]
mod tests {
    use crate::rng::{mutate, mutate_journal, Rng};
    use std::collections::HashSet;

    #[test]
    fn mutator_produces_varied_inputs() {
        let mut rng = Rng::seed_from_u64(99);
        let seeds = vec![vec![0xaa; 32]];
        let mutants: HashSet<Vec<u8>> = (0..50).map(|_| mutate(&mut rng, &seeds)).collect();
        assert!(
            mutants.len() > 10,
            "{} distinct mutants of 50",
            mutants.len()
        );
    }

    #[test]
    fn empty_seed_list_yields_empty_input() {
        let mut rng = Rng::seed_from_u64(5);
        assert!(mutate(&mut rng, &[]).is_empty());
        assert!(mutate_journal(&mut rng, &[]).is_empty());
    }

    #[test]
    fn journal_mutations_are_deterministic_and_varied() {
        let segments = vec![vec![0x11; 40], vec![0x22; 40], vec![0x33; 40]];
        let (mut a, mut b) = (Rng::seed_from_u64(77), Rng::seed_from_u64(77));
        for _ in 0..100 {
            assert_eq!(
                mutate_journal(&mut a, &segments),
                mutate_journal(&mut b, &segments)
            );
        }

        let mut rng = Rng::seed_from_u64(78);
        let journals: Vec<Vec<Vec<u8>>> = (0..100)
            .map(|_| mutate_journal(&mut rng, &segments))
            .collect();
        let distinct = journals.iter().collect::<HashSet<_>>().len();
        assert!(distinct > 20, "{distinct} distinct journals of 100");
        // a whole-segment fault changes the segment count
        assert!(journals.iter().any(|j| j.len() != segments.len()));
    }
}
