//! Backoff engines: how long a nacked requester or an aborted transaction
//! waits before trying again.
//!
//! Three policies, matching the paper's evaluation matrix (Section IV-A):
//!
//! * **Fixed** (baseline and RMW-Pred): a nacked requester backs off a fixed
//!   20 cycles before retrying the request; aborted transactions restart as
//!   soon as recovery finishes.
//! * **RandomLinear** (the "Random backoff" comparison \[17\]): aborted
//!   transactions enter randomized linear backoff — the window grows
//!   linearly with the consecutive-abort count, the wait is drawn uniformly
//!   from the window. Nack handling stays at the fixed 20 cycles.
//! * **NotificationGuided** (PUNO, Section III-D): when the NACK carries a
//!   notification `T_est`, the requester backs off `T_est - 2 x avg
//!   cache-to-cache latency` if that is positive, else the fixed default.
//!   The backoff is derived from the *remote* nacker's remaining run time —
//!   the quantity that actually gates progress — rather than from local
//!   retry statistics.

use puno_sim::{Cycles, SimRng};
use serde::{Deserialize, Serialize};

/// Which backoff policy a mechanism uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackoffKind {
    Fixed,
    RandomLinear,
    NotificationGuided,
}

/// Tunables shared by the engines.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BackoffConfig {
    /// Baseline nack backoff (Table II footnote: fixed 20 cycles).
    pub fixed_nack: Cycles,
    /// Random-linear base window per consecutive abort.
    pub linear_step: Cycles,
    /// Random-linear window cap (in steps) so Labyrinth-style pathologies
    /// stay bounded.
    pub linear_cap: u32,
    /// Twice the average cache-to-cache latency, subtracted from T_est
    /// (computed from the mesh by `puno_noc::LatencyModel`).
    pub round_trip_allowance: Cycles,
    /// Upper clamp on a notification-guided wait. The paper's rule uses
    /// T_est directly, which assumes the nacker *commits* its current
    /// attempt; in deeply saturated workloads the nacker is often itself
    /// aborted early and an uncapped wait oversleeps the free line. The cap
    /// bounds that loss; `u64::MAX` recovers the paper's exact rule.
    pub notification_cap: Cycles,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        Self {
            fixed_nack: 20,
            linear_step: 64,
            linear_cap: 16,
            round_trip_allowance: 30,
            notification_cap: u64::MAX,
        }
    }
}

/// Per-node backoff engine.
#[derive(Clone, Debug)]
pub struct BackoffEngine {
    kind: BackoffKind,
    config: BackoffConfig,
    rng: SimRng,
}

impl BackoffEngine {
    pub fn new(kind: BackoffKind, config: BackoffConfig, rng: SimRng) -> Self {
        Self { kind, config, rng }
    }

    pub fn kind(&self) -> BackoffKind {
        self.kind
    }

    /// Wait after a NACKed request. `notification` is PUNO's T_est field
    /// when present.
    pub fn on_nack(&mut self, notification: Option<Cycles>) -> Cycles {
        match self.kind {
            BackoffKind::NotificationGuided => match notification {
                Some(t_est) if t_est > self.config.round_trip_allowance => {
                    (t_est - self.config.round_trip_allowance).min(self.config.notification_cap)
                }
                _ => self.config.fixed_nack,
            },
            _ => self.config.fixed_nack,
        }
    }

    /// Wait after an abort, before re-executing the transaction.
    /// `consecutive_aborts` counts this transaction's failed attempts so far
    /// (>= 1 when called).
    pub fn on_abort(&mut self, consecutive_aborts: u32) -> Cycles {
        match self.kind {
            BackoffKind::RandomLinear => {
                let steps = consecutive_aborts.min(self.config.linear_cap) as u64;
                let window = steps * self.config.linear_step;
                if window == 0 {
                    0
                } else {
                    self.rng.gen_range(window + 1)
                }
            }
            // Baseline and PUNO restart immediately after recovery; PUNO's
            // improvement targets the *requester* side via notification.
            BackoffKind::Fixed | BackoffKind::NotificationGuided => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(kind: BackoffKind) -> BackoffEngine {
        BackoffEngine::new(kind, BackoffConfig::default(), SimRng::new(1))
    }

    #[test]
    fn fixed_nack_is_twenty_cycles() {
        let mut e = engine(BackoffKind::Fixed);
        assert_eq!(e.on_nack(None), 20);
        assert_eq!(e.on_nack(Some(500)), 20, "baseline ignores notifications");
        assert_eq!(e.on_abort(3), 0);
    }

    #[test]
    fn notification_guided_subtracts_round_trip() {
        let mut e = engine(BackoffKind::NotificationGuided);
        // T_est = 500, allowance = 30 -> 470.
        assert_eq!(e.on_nack(Some(500)), 470);
    }

    #[test]
    fn short_or_absent_notification_falls_back_to_fixed() {
        let mut e = engine(BackoffKind::NotificationGuided);
        assert_eq!(e.on_nack(Some(10)), 20, "T_est below allowance");
        assert_eq!(e.on_nack(Some(30)), 20, "T_est equal to allowance");
        assert_eq!(e.on_nack(None), 20, "no notification");
    }

    #[test]
    fn random_linear_grows_with_aborts_and_stays_in_window() {
        let mut e = engine(BackoffKind::RandomLinear);
        for aborts in 1..=20u32 {
            let window = (aborts.min(16) as u64) * 64;
            for _ in 0..50 {
                let b = e.on_abort(aborts);
                assert!(b <= window, "backoff {b} above window {window}");
            }
        }
    }

    #[test]
    fn random_linear_is_actually_random() {
        let mut e = engine(BackoffKind::RandomLinear);
        let draws: Vec<Cycles> = (0..32).map(|_| e.on_abort(8)).collect();
        let first = draws[0];
        assert!(draws.iter().any(|&d| d != first));
    }

    #[test]
    fn random_linear_caps_the_window() {
        let mut e = engine(BackoffKind::RandomLinear);
        let cap_window = 16 * 64;
        for _ in 0..200 {
            assert!(e.on_abort(1000) <= cap_window);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = engine(BackoffKind::RandomLinear);
        let mut b = engine(BackoffKind::RandomLinear);
        for k in 1..50 {
            assert_eq!(a.on_abort(k), b.on_abort(k));
        }
    }
}
