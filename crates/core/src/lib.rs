//! # puno-core
//!
//! PUNO — **P**redictive **U**nicast and **No**tification (Section III of the
//! paper) — the mechanism that suppresses *false aborting* in eager HTM.
//!
//! Two cooperating ideas:
//!
//! 1. **Predictive unicast.** Each home directory bank tracks the latest
//!    transaction priority of every node in a Transaction Priority Buffer
//!    (P-Buffer), freshness-managed by 2-bit validity counters and an
//!    adaptive rollover-counter timeout. Each directory entry carries a UD
//!    (Unicast Destination) pointer naming the highest-priority sharer.
//!    When a transactional GETX arrives and the UD sharer's (valid) priority
//!    outranks the requester's, the request is *predicted to be nacked* and
//!    is unicast to that single sharer with the U-bit set — the other
//!    sharers are never disturbed, so they cannot be falsely aborted.
//!    Mispredictions answer with a conservative MP-NACK and are fed back
//!    through UNBLOCK to invalidate the stale P-Buffer priority.
//!
//! 2. **Notification.** The nacker of a unicast request attaches its
//!    estimated remaining running time (average length of the static
//!    transaction from the per-node TxLB, minus cycles already executed).
//!    The requester backs off by that estimate minus twice the average
//!    cache-to-cache latency, instead of myopically polling every 20 cycles.

#![forbid(unsafe_code)]

pub mod config;
pub mod pbuffer;
pub mod predictor;
pub mod rollover;
pub mod stats;
pub mod txlb;
pub mod validity;

pub use config::PunoConfig;
pub use pbuffer::PBuffer;
pub use predictor::PunoPredictor;
pub use rollover::RolloverCounter;
pub use stats::PunoStats;
pub use txlb::TxLengthBuffer;
pub use validity::ValidityCounter;

/// The nacker-side notification value: estimated remaining running time of
/// the transaction (Section III-D, Figure 8(c1)) — its static transaction's
/// average length minus the cycles this attempt has already run, floored at
/// zero.
#[inline]
pub fn notification_estimate(avg_static_len: u64, elapsed: u64) -> u64 {
    avg_static_len.saturating_sub(elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notification_estimate_floors_at_zero() {
        assert_eq!(notification_estimate(500, 100), 400);
        assert_eq!(notification_estimate(500, 500), 0);
        assert_eq!(notification_estimate(500, 900), 0);
    }
}
