//! Per-node HTM statistics: abort causes, the false-abort oracle inputs,
//! and the good/discarded effort accounting of Figure 14.

use puno_sim::{Counter, Cycles};
use serde::{Deserialize, Serialize};

/// Why a transaction aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AbortCause {
    /// Invalidation from a transactional writer (GETX multicast) — the
    /// class that can be a *false abort* when the request is later nacked.
    TxWriteInvalidation,
    /// Forwarded transactional read hit our write set and we lost.
    TxReadConflict,
    /// Non-transactional access conflicted and... (does not occur with the
    /// always-nack policy; kept for the accounting's totality).
    NonTxConflict,
    /// L1 set overflow in a bounded-HTM configuration. The default system
    /// recovers from overflow with LogTM-style sticky writebacks instead
    /// (see `overflow_evictions`), so this cause stays at zero there;
    /// retained for the accounting's totality and for bounded variants.
    Capacity,
    /// Fault-injected abort (forced by a `FaultPlan`, not by any conflict).
    /// Zero in fault-free runs.
    Injected,
}

impl AbortCause {
    pub const ALL: [AbortCause; 5] = [
        AbortCause::TxWriteInvalidation,
        AbortCause::TxReadConflict,
        AbortCause::NonTxConflict,
        AbortCause::Capacity,
        AbortCause::Injected,
    ];

    fn index(self) -> usize {
        match self {
            AbortCause::TxWriteInvalidation => 0,
            AbortCause::TxReadConflict => 1,
            AbortCause::NonTxConflict => 2,
            AbortCause::Capacity => 3,
            AbortCause::Injected => 4,
        }
    }

    /// The layering-neutral mirror of this cause used by the typed trace
    /// events in `puno_sim::trace` (the sim kernel cannot depend on this
    /// crate).
    pub fn trace_code(self) -> puno_sim::AbortCauseCode {
        match self {
            AbortCause::TxWriteInvalidation => puno_sim::AbortCauseCode::TxWriteInvalidation,
            AbortCause::TxReadConflict => puno_sim::AbortCauseCode::TxReadConflict,
            AbortCause::NonTxConflict => puno_sim::AbortCauseCode::NonTxConflict,
            AbortCause::Capacity => puno_sim::AbortCauseCode::Capacity,
            AbortCause::Injected => puno_sim::AbortCauseCode::Injected,
        }
    }
}

/// Per-node (mergeable) HTM statistics.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct HtmStats {
    pub commits: Counter,
    pub aborts: Counter,
    aborts_by_cause: [u64; 5],
    pub nacks_received: Counter,
    pub nacks_sent: Counter,
    /// NACKs sent that carried a PUNO notification.
    pub notifications_sent: Counter,
    /// Request retries after a nack.
    pub retries: Counter,
    /// Cycles spent inside attempts that eventually committed ("good
    /// transaction effort", Figure 14).
    pub good_cycles: Counter,
    /// Cycles spent inside attempts that were aborted ("discarded
    /// transaction effort").
    pub discarded_cycles: Counter,
    /// Cycles spent backed off (not executing) between attempts/retries.
    pub backoff_cycles: Counter,
    /// Transactional overflow events: a fill had no unpinned victim and a
    /// transactional line was force-evicted with a sticky writeback
    /// (LogTM-style; conflict detection survives via the directory).
    pub overflow_evictions: Counter,
}

impl HtmStats {
    pub fn record_abort(&mut self, cause: AbortCause, attempt_cycles: Cycles) {
        self.aborts.inc();
        self.aborts_by_cause[cause.index()] += 1;
        self.discarded_cycles.add(attempt_cycles);
    }

    pub fn record_commit(&mut self, attempt_cycles: Cycles) {
        self.commits.inc();
        self.good_cycles.add(attempt_cycles);
    }

    pub fn aborts_for(&self, cause: AbortCause) -> u64 {
        self.aborts_by_cause[cause.index()]
    }

    /// Abort rate = aborts / (aborts + commits), the Table I column.
    pub fn abort_rate(&self) -> f64 {
        let total = self.aborts.get() + self.commits.get();
        if total == 0 {
            0.0
        } else {
            self.aborts.get() as f64 / total as f64
        }
    }

    /// The G/D ratio of Figure 14 (good over discarded effort). Infinite
    /// (no waste) maps to `f64::INFINITY`; callers normalize against the
    /// baseline, so only relative values matter.
    pub fn gd_ratio(&self) -> f64 {
        if self.discarded_cycles.get() == 0 {
            if self.good_cycles.get() == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.good_cycles.get() as f64 / self.discarded_cycles.get() as f64
        }
    }

    pub fn merge(&mut self, other: &HtmStats) {
        self.commits.add(other.commits.get());
        self.aborts.add(other.aborts.get());
        for i in 0..self.aborts_by_cause.len() {
            self.aborts_by_cause[i] += other.aborts_by_cause[i];
        }
        self.nacks_received.add(other.nacks_received.get());
        self.nacks_sent.add(other.nacks_sent.get());
        self.notifications_sent.add(other.notifications_sent.get());
        self.retries.add(other.retries.get());
        self.good_cycles.add(other.good_cycles.get());
        self.discarded_cycles.add(other.discarded_cycles.get());
        self.backoff_cycles.add(other.backoff_cycles.get());
        self.overflow_evictions.add(other.overflow_evictions.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_rate_matches_definition() {
        let mut s = HtmStats::default();
        s.record_commit(100);
        s.record_abort(AbortCause::TxWriteInvalidation, 50);
        s.record_abort(AbortCause::TxWriteInvalidation, 60);
        s.record_abort(AbortCause::Capacity, 10);
        assert!((s.abort_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.aborts_for(AbortCause::TxWriteInvalidation), 2);
        assert_eq!(s.aborts_for(AbortCause::Capacity), 1);
        assert_eq!(s.aborts_for(AbortCause::TxReadConflict), 0);
    }

    #[test]
    fn gd_ratio() {
        let mut s = HtmStats::default();
        s.record_commit(300);
        s.record_abort(AbortCause::TxReadConflict, 100);
        assert!((s.gd_ratio() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn gd_ratio_with_no_waste_is_infinite() {
        let mut s = HtmStats::default();
        s.record_commit(100);
        assert!(s.gd_ratio().is_infinite());
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = HtmStats::default();
        let mut b = HtmStats::default();
        a.record_commit(10);
        b.record_commit(20);
        b.record_abort(AbortCause::Capacity, 5);
        a.merge(&b);
        assert_eq!(a.commits.get(), 2);
        assert_eq!(a.good_cycles.get(), 30);
        assert_eq!(a.aborts_for(AbortCause::Capacity), 1);
    }
}
