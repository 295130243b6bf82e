//! PUNO configuration, including the ablation switches the DESIGN.md
//! experiment index calls out.

use serde::{Deserialize, Serialize};

#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PunoConfig {
    /// Enable the predictive-unicast half of the mechanism.
    pub unicast_enabled: bool,
    /// Enable the notification half (T_est on unicast NACKs).
    pub notification_enabled: bool,
    /// Also apply prediction when the line is exclusively owned (the
    /// forward is a single message either way, but a predicted-NACK still
    /// lets the owner attach a notification instead of aborting).
    pub predict_owner_state: bool,
    /// P-Buffer entries per directory bank (Table II: 16 = node count).
    pub pbuffer_entries: usize,
    /// Validity-counter threshold for trusting a priority (2 = the paper's
    /// "greater than 1" rule; 3 requires two recent refreshes, which
    /// separates actively-retrying transactions from committed ones).
    pub validity_threshold: u8,
    /// TxLB entries per node (Table II: 32).
    pub txlb_entries: usize,
    /// Critical-path cycles added by prediction: 1 to read the P-Buffer +
    /// 1 to decide (Section IV-A).
    pub decision_latency: u64,
    /// Rollover period clamps.
    pub rollover_min: u64,
    pub rollover_max: u64,
    /// Rollover period = `rollover_factor x` the observed average
    /// transaction length ("determined dynamically based on the average
    /// transaction length" — the constant is a tuning choice; priorities
    /// must outlive the transaction that posted them by a comfortable
    /// margin or the predictor starves on valid entries).
    pub rollover_factor: u64,
    /// Age gate: decline to unicast when the candidate priority's
    /// transaction has already run more than `age_gate_factor x` the
    /// average transaction length (it has almost certainly committed, so a
    /// probe would mispredict). Timestamps in the time-based policy encode
    /// the transaction's begin time, so the directory can compute the age
    /// locally; 0 disables the gate. Disabled by default: under high
    /// contention a transaction keeps its first-begin timestamp across
    /// retries, so old timestamps often belong to *live* (starving)
    /// transactions and gating on age starves the predictor exactly where
    /// it matters. Kept as an ablation knob.
    pub age_gate_factor: u64,
    /// EXTENSION (paper §VI future work): when a transaction that sent
    /// notification-bearing NACKs finishes (commit or abort), it sends
    /// `WakeupHint`s to the nacked requesters so they retry immediately
    /// instead of sleeping out a stale T_est. Off by default — the shipped
    /// defaults reproduce the paper's mechanism; measured by the ablation
    /// binary.
    pub wakeup_hints: bool,
}

impl Default for PunoConfig {
    fn default() -> Self {
        Self {
            unicast_enabled: true,
            notification_enabled: true,
            predict_owner_state: true,
            pbuffer_entries: 16,
            validity_threshold: 2,
            txlb_entries: 32,
            decision_latency: 2,
            rollover_min: 256,
            rollover_max: 1 << 20,
            rollover_factor: 2,
            age_gate_factor: 0,
            wakeup_hints: false,
        }
    }
}

impl PunoConfig {
    /// Ablation: unicast without notification.
    pub fn unicast_only() -> Self {
        Self {
            notification_enabled: false,
            ..Self::default()
        }
    }

    /// Ablation: notification without... notification requires unicast to
    /// deliver T_est, so this variant keeps unicast but restricts prediction
    /// to the read-shared (multicast-replacement) case only.
    pub fn shared_state_only() -> Self {
        Self {
            predict_owner_state: false,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let c = PunoConfig::default();
        assert_eq!(c.pbuffer_entries, 16);
        assert_eq!(c.txlb_entries, 32);
        assert_eq!(c.decision_latency, 2);
        assert!(c.unicast_enabled && c.notification_enabled);
    }

    #[test]
    fn ablation_variants() {
        assert!(!PunoConfig::unicast_only().notification_enabled);
        assert!(!PunoConfig::shared_state_only().predict_owner_state);
    }
}
