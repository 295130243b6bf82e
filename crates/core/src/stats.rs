//! PUNO mechanism statistics: prediction volume and accuracy.

use puno_sim::Counter;
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PunoStats {
    /// Rollover timeouts fired.
    pub timeouts: Counter,
    /// Prediction opportunities (transactional GETX with holders).
    pub opportunities: Counter,
    /// Times the predictor chose to unicast.
    pub unicasts: Counter,
    /// Times prediction declined (no valid UD priority, or requester wins).
    pub declined: Counter,
    /// Misprediction feedback received (stale priority invalidated).
    pub mispredictions: Counter,
    /// Notifications attached to unicast NACKs. The nodes count them (as
    /// `HtmStats::notifications_sent`); the run copies that merged count
    /// here, so per-bank predictor stats leave it at zero.
    pub notifications: Counter,
}

impl PunoStats {
    /// Unicast prediction hit rate (the paper reports 90%+ in simulation).
    pub fn accuracy(&self) -> f64 {
        let u = self.unicasts.get();
        if u == 0 {
            return 1.0;
        }
        1.0 - self.mispredictions.get() as f64 / u as f64
    }

    pub fn merge(&mut self, other: &PunoStats) {
        self.timeouts.add(other.timeouts.get());
        self.opportunities.add(other.opportunities.get());
        self.unicasts.add(other.unicasts.get());
        self.declined.add(other.declined.get());
        self.mispredictions.add(other.mispredictions.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_definition() {
        let mut s = PunoStats::default();
        assert_eq!(s.accuracy(), 1.0);
        s.unicasts.add(10);
        s.mispredictions.add(1);
        assert!((s.accuracy() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn merge_sums() {
        let mut a = PunoStats::default();
        let mut b = PunoStats::default();
        a.unicasts.add(3);
        b.unicasts.add(4);
        b.mispredictions.inc();
        a.merge(&b);
        assert_eq!(a.unicasts.get(), 7);
        assert_eq!(a.mispredictions.get(), 1);
    }
}
