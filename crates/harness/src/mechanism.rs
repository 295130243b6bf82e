//! The four mechanisms compared in the paper's evaluation (Section IV-A).

use puno_htm::BackoffKind;
use serde::{Deserialize, Serialize};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Mechanism {
    /// LogTM-style eager HTM, multicast invalidations, fixed 20-cycle nack
    /// backoff.
    Baseline,
    /// Baseline + randomized linear backoff on abort \[17\].
    RandomBackoff,
    /// Baseline + per-node 256-entry read-modify-write predictor \[5\].
    RmwPred,
    /// Baseline + PUNO (predictive unicast + notification).
    Puno,
}

impl Mechanism {
    pub const ALL: [Mechanism; 4] = [
        Mechanism::Baseline,
        Mechanism::RandomBackoff,
        Mechanism::RmwPred,
        Mechanism::Puno,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Mechanism::Baseline => "baseline",
            Mechanism::RandomBackoff => "backoff",
            Mechanism::RmwPred => "rmw-pred",
            Mechanism::Puno => "puno",
        }
    }

    pub fn backoff_kind(self) -> BackoffKind {
        match self {
            Mechanism::Baseline | Mechanism::RmwPred => BackoffKind::Fixed,
            Mechanism::RandomBackoff => BackoffKind::RandomLinear,
            Mechanism::Puno => BackoffKind::NotificationGuided,
        }
    }

    pub fn uses_rmw_predictor(self) -> bool {
        self == Mechanism::RmwPred
    }

    pub fn uses_puno(self) -> bool {
        self == Mechanism::Puno
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_wiring_matches_paper() {
        assert_eq!(Mechanism::Baseline.backoff_kind(), BackoffKind::Fixed);
        assert_eq!(
            Mechanism::RandomBackoff.backoff_kind(),
            BackoffKind::RandomLinear
        );
        assert_eq!(Mechanism::RmwPred.backoff_kind(), BackoffKind::Fixed);
        assert_eq!(
            Mechanism::Puno.backoff_kind(),
            BackoffKind::NotificationGuided
        );
        assert!(Mechanism::RmwPred.uses_rmw_predictor());
        assert!(!Mechanism::Puno.uses_rmw_predictor());
        assert!(Mechanism::Puno.uses_puno());
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<_> = Mechanism::ALL.iter().map(|m| m.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
