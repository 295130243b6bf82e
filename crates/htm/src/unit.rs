//! The per-node HTM unit: transaction lifecycle, footprint tracking, abort
//! recovery, and the hook the node controller calls to answer forwarded
//! coherence requests.

use crate::conflict::{decide_forward, decide_with_conflict, ForwardDecision, IncomingKind};
use crate::log::{LogEntry, UndoLog};
use crate::rmw::{OpSite, RmwPredictor};
use crate::rwset::ReadWriteSets;
use crate::signature::{SignatureConfig, SignaturePair};
use crate::stats::{AbortCause, HtmStats};
use puno_sim::{Cycle, Cycles, LineAddr, LineMap, NodeId, StaticTxId, Timestamp, TxId};
use serde::{Deserialize, Serialize};

/// Whether a transaction is running on the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxStatus {
    Idle,
    Active,
}

/// Abort recovery timing (the baseline's hardware-buffer fast recovery:
/// a fixed pipeline flush plus a per-log-entry unroll).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AbortTiming {
    pub base: Cycles,
    pub per_log_entry: Cycles,
}

impl Default for AbortTiming {
    fn default() -> Self {
        Self {
            base: 20,
            per_log_entry: 2,
        }
    }
}

/// State of one transaction attempt.
#[derive(Clone, Debug)]
pub struct TxContext {
    pub tx: TxId,
    pub static_tx: StaticTxId,
    /// Priority timestamp — minted at the *first* attempt and preserved
    /// across retries so the transaction ages toward victory.
    pub timestamp: Timestamp,
    /// When this attempt began executing.
    pub attempt_begin: Cycle,
    /// Consecutive failed attempts before this one.
    pub prior_aborts: u32,
    pub sets: ReadWriteSets,
    pub undo: UndoLog,
    /// Cycles this attempt has spent backed off waiting on NACKed requests
    /// (excluded from the good/discarded *effort* accounting of Figure 14:
    /// a stalled transaction burns no execution resources).
    pub stalled: Cycles,
    /// First load site per line this attempt (for RMW training).
    loads: LineMap<LineAddr, OpSite>,
    /// Optional Bloom signatures mirroring the footprint (signature-based
    /// conflict detection ablation; conflict answers then come from these,
    /// with alias false positives).
    signatures: Option<SignaturePair>,
}

/// Per-attempt structures recycled across begin/commit/abort so a retry
/// storm reuses the same allocations instead of re-growing sets, logs and
/// signature bit vectors on every attempt.
#[derive(Clone, Debug)]
struct TxScratch {
    sets: ReadWriteSets,
    undo: UndoLog,
    loads: LineMap<LineAddr, OpSite>,
    signatures: Option<SignaturePair>,
}

impl TxScratch {
    fn fresh() -> Self {
        Self {
            sets: ReadWriteSets::new(),
            undo: UndoLog::new(),
            loads: LineMap::new(),
            signatures: None,
        }
    }
}

impl TxContext {
    /// Cycles this attempt has been running (feeds the notification's
    /// elapsed-time subtraction).
    pub fn elapsed(&self, now: Cycle) -> Cycles {
        now.saturating_sub(self.attempt_begin)
    }

    /// Execution effort of this attempt: wall time minus stall time.
    pub fn effort(&self, now: Cycle) -> Cycles {
        self.elapsed(now).saturating_sub(self.stalled)
    }
}

/// Everything the node controller needs to recover from an abort.
#[derive(Debug)]
pub struct AbortOutcome {
    /// Undo-log entries in rollback order (newest first).
    pub rollback: Vec<LogEntry>,
    /// Cycles the recovery occupies the core.
    pub penalty: Cycles,
    /// Write-set lines to unpin/invalidate bookkeeping at the cache level.
    pub write_set: Vec<LineAddr>,
    /// Total failed attempts of this transaction so far (>= 1).
    pub consecutive_aborts: u32,
    /// Identity to reuse on retry (same TxId, same timestamp).
    pub tx: TxId,
    pub timestamp: Timestamp,
    pub static_tx: StaticTxId,
}

/// Commit summary.
#[derive(Debug)]
pub struct CommitOutcome {
    /// Wall-clock cycles from this attempt's begin to commit — what the
    /// TxLB tracks, because a notified requester waits *wall* time for the
    /// nacker to finish.
    pub length: Cycles,
    /// Execution effort (wall minus stall) — what the G/D ratio counts.
    pub effort: Cycles,
    pub write_set: Vec<LineAddr>,
    pub static_tx: StaticTxId,
}

/// Per-node HTM unit.
#[derive(Clone)]
pub struct HtmUnit {
    node: NodeId,
    abort_timing: AbortTiming,
    current: Option<TxContext>,
    rmw: Option<RmwPredictor>,
    /// When set, conflict detection answers from Bloom signatures of this
    /// geometry instead of the exact sets.
    signature_mode: Option<SignatureConfig>,
    /// Recycled per-attempt state (None only while a transaction is active).
    scratch: Option<TxScratch>,
    stats: HtmStats,
}

impl HtmUnit {
    pub fn new(node: NodeId, abort_timing: AbortTiming, rmw: Option<RmwPredictor>) -> Self {
        Self {
            node,
            abort_timing,
            current: None,
            rmw,
            signature_mode: None,
            scratch: Some(TxScratch::fresh()),
            stats: HtmStats::default(),
        }
    }

    /// Switch conflict detection to Bloom signatures (LogTM-SE style).
    pub fn enable_signatures(&mut self, config: SignatureConfig) {
        assert!(
            self.current.is_none(),
            "cannot switch modes mid-transaction"
        );
        self.signature_mode = Some(config);
        // Any recycled signature pair may have the old geometry.
        if let Some(s) = self.scratch.as_mut() {
            s.signatures = None;
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn status(&self) -> TxStatus {
        if self.current.is_some() {
            TxStatus::Active
        } else {
            TxStatus::Idle
        }
    }

    pub fn current(&self) -> Option<&TxContext> {
        self.current.as_ref()
    }

    pub fn stats(&self) -> &HtmStats {
        &self.stats
    }

    pub fn stats_mut(&mut self) -> &mut HtmStats {
        &mut self.stats
    }

    /// Begin (or retry) a transaction. The caller mints `tx`/`timestamp` on
    /// the first attempt and replays them on retries.
    pub fn begin(
        &mut self,
        now: Cycle,
        static_tx: StaticTxId,
        tx: TxId,
        timestamp: Timestamp,
        prior_aborts: u32,
    ) {
        assert!(
            self.current.is_none(),
            "transaction already active on {:?}",
            self.node
        );
        let mut scratch = self.scratch.take().unwrap_or_else(TxScratch::fresh);
        scratch.sets.clear();
        scratch.undo.clear();
        scratch.loads.clear();
        let signatures = self
            .signature_mode
            .map(|config| match scratch.signatures.take() {
                Some(mut pair) => {
                    pair.clear();
                    pair
                }
                None => SignaturePair::new(config),
            });
        self.current = Some(TxContext {
            tx,
            static_tx,
            timestamp,
            attempt_begin: now,
            prior_aborts,
            sets: scratch.sets,
            undo: scratch.undo,
            stalled: 0,
            loads: scratch.loads,
            signatures,
        });
    }

    /// Should the transactional load at `site` request exclusive permission
    /// up front? (RMW-Pred mechanism; always false when disabled.)
    pub fn load_wants_exclusive(&self, site: OpSite) -> bool {
        self.rmw.as_ref().is_some_and(|p| p.predicts_rmw(site))
    }

    /// Record a committed transactional load (permission already obtained).
    pub fn record_load(&mut self, addr: LineAddr, site: OpSite) {
        let ctx = self.current.as_mut().expect("load outside transaction");
        ctx.sets.record_read(addr);
        if let Some(sigs) = ctx.signatures.as_mut() {
            sigs.record_read(addr);
        }
        ctx.loads.get_or_insert_with(addr, || site);
    }

    /// Record a transactional store. `old_value` is the pre-store memory
    /// value (undo log). Trains the RMW predictor when the store upgrades a
    /// line loaded earlier in the same attempt.
    pub fn record_store(&mut self, addr: LineAddr, old_value: u64) {
        let ctx = self.current.as_mut().expect("store outside transaction");
        ctx.sets.record_write(addr);
        if let Some(sigs) = ctx.signatures.as_mut() {
            sigs.record_write(addr);
        }
        ctx.undo.record(addr, old_value);
        if let Some(p) = self.rmw.as_mut() {
            if let Some(&site) = ctx.loads.get(addr) {
                p.train(site);
            }
        }
    }

    /// Answer a forwarded coherence request against the active transaction.
    /// Pure decision — stat updates and abort execution are separate so the
    /// node controller can sequence cache updates in between.
    pub fn respond_forward(
        &mut self,
        addr: LineAddr,
        kind: IncomingKind,
        requester_ts: Option<Timestamp>,
        unicast: bool,
    ) -> ForwardDecision {
        let Some(ctx) = self.current.as_ref() else {
            return decide_forward(None, addr, kind, requester_ts, unicast);
        };
        match ctx.signatures.as_ref() {
            None => decide_forward(
                Some((&ctx.sets, ctx.timestamp)),
                addr,
                kind,
                requester_ts,
                unicast,
            ),
            Some(sigs) => {
                let is_write = kind == IncomingKind::Write;
                let sig_conflict = sigs.maybe_conflicts(addr, is_write);
                let exact_conflict = ctx.sets.conflicts_with(addr, is_write);
                debug_assert!(
                    !exact_conflict || sig_conflict,
                    "signature missed a true conflict"
                );
                if sig_conflict && !exact_conflict {
                    // Aliasing manufactured this conflict.
                    self.stats.sig_alias_conflicts.inc();
                }
                let ts = ctx.timestamp;
                decide_with_conflict(Some((sig_conflict, ts)), requester_ts, unicast)
            }
        }
    }

    /// Record backoff time charged to the active attempt (excluded from
    /// effort accounting).
    pub fn note_stall(&mut self, cycles: Cycles) {
        if let Some(ctx) = self.current.as_mut() {
            ctx.stalled += cycles;
        }
    }

    /// Abort the active transaction: returns the rollback plan and retry
    /// identity. The caller applies the rollback to memory/caches and
    /// schedules the restart.
    pub fn abort(&mut self, now: Cycle, cause: AbortCause) -> AbortOutcome {
        let mut ctx = self.current.take().expect("abort without transaction");
        let attempt_cycles = ctx.effort(now);
        self.stats.record_abort(cause, attempt_cycles);
        let write_set: Vec<LineAddr> = ctx.sets.writes().collect();
        let rollback: Vec<LogEntry> = ctx.undo.drain_rollback().collect();
        let penalty =
            self.abort_timing.base + self.abort_timing.per_log_entry * rollback.len() as u64;
        let out = AbortOutcome {
            rollback,
            penalty,
            write_set,
            consecutive_aborts: ctx.prior_aborts + 1,
            tx: ctx.tx,
            timestamp: ctx.timestamp,
            static_tx: ctx.static_tx,
        };
        self.recycle(ctx);
        out
    }

    /// Commit the active transaction.
    pub fn commit(&mut self, now: Cycle) -> CommitOutcome {
        let ctx = self.current.take().expect("commit without transaction");
        let length = ctx.elapsed(now);
        let effort = ctx.effort(now);
        self.stats.record_commit(effort);
        let out = CommitOutcome {
            length,
            effort,
            write_set: ctx.sets.writes().collect(),
            static_tx: ctx.static_tx,
        };
        self.recycle(ctx);
        out
    }

    /// Return a finished attempt's structures to the scratch slot so the
    /// next `begin` reuses their allocations.
    fn recycle(&mut self, ctx: TxContext) {
        self.scratch = Some(TxScratch {
            sets: ctx.sets,
            undo: ctx.undo,
            loads: ctx.loads,
            signatures: ctx.signatures,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> HtmUnit {
        HtmUnit::new(NodeId(0), AbortTiming::default(), None)
    }

    fn begin(u: &mut HtmUnit, now: Cycle, ts: u64) {
        u.begin(now, StaticTxId(0), TxId(ts), Timestamp(ts), 0);
    }

    #[test]
    fn lifecycle_commit() {
        let mut u = unit();
        assert_eq!(u.status(), TxStatus::Idle);
        begin(&mut u, 100, 1);
        assert_eq!(u.status(), TxStatus::Active);
        u.record_load(
            LineAddr(1),
            OpSite {
                static_tx: 0,
                op_index: 0,
            },
        );
        u.record_store(LineAddr(2), 42);
        let out = u.commit(250);
        assert_eq!(out.length, 150);
        assert_eq!(out.write_set, vec![LineAddr(2)]);
        assert_eq!(u.status(), TxStatus::Idle);
        assert_eq!(u.stats().commits.get(), 1);
        assert_eq!(u.stats().good_cycles.get(), 150);
    }

    #[test]
    fn abort_returns_rollback_and_penalty() {
        let mut u = unit();
        begin(&mut u, 0, 1);
        u.record_store(LineAddr(5), 10);
        u.record_store(LineAddr(6), 20);
        let out = u.abort(80, AbortCause::TxWriteInvalidation);
        assert_eq!(out.rollback.len(), 2);
        assert_eq!(
            out.rollback[0].addr,
            LineAddr(6),
            "rollback is newest-first"
        );
        assert_eq!(out.penalty, 20 + 2 * 2);
        assert_eq!(out.consecutive_aborts, 1);
        assert_eq!(u.stats().aborts.get(), 1);
        assert_eq!(u.stats().discarded_cycles.get(), 80);
    }

    #[test]
    fn retry_keeps_timestamp_and_counts_attempts() {
        let mut u = unit();
        begin(&mut u, 0, 7);
        let out = u.abort(10, AbortCause::TxReadConflict);
        u.begin(
            30,
            out.static_tx,
            out.tx,
            out.timestamp,
            out.consecutive_aborts,
        );
        let ctx = u.current().unwrap();
        assert_eq!(ctx.timestamp, Timestamp(7));
        assert_eq!(ctx.prior_aborts, 1);
        let out2 = u.abort(40, AbortCause::TxReadConflict);
        assert_eq!(out2.consecutive_aborts, 2);
    }

    #[test]
    fn forward_decision_uses_active_footprint() {
        let mut u = unit();
        begin(&mut u, 0, 10);
        u.record_load(
            LineAddr(3),
            OpSite {
                static_tx: 0,
                op_index: 0,
            },
        );
        // Older writer (ts 5) beats our reader (ts 10): abort.
        assert_eq!(
            u.respond_forward(LineAddr(3), IncomingKind::Write, Some(Timestamp(5)), false),
            ForwardDecision::AbortAndComply
        );
        // Younger writer (ts 20) loses: nack.
        assert_eq!(
            u.respond_forward(LineAddr(3), IncomingKind::Write, Some(Timestamp(20)), false),
            ForwardDecision::Nack { mispredict: false }
        );
    }

    #[test]
    fn rmw_predictor_trains_through_unit() {
        let mut u = HtmUnit::new(
            NodeId(0),
            AbortTiming::default(),
            Some(RmwPredictor::new(8)),
        );
        let site = OpSite {
            static_tx: 3,
            op_index: 1,
        };
        begin(&mut u, 0, 1);
        assert!(!u.load_wants_exclusive(site));
        u.record_load(LineAddr(9), site);
        u.record_store(LineAddr(9), 0); // read-modify-write observed
        u.commit(10);
        assert!(u.load_wants_exclusive(site));
    }

    #[test]
    fn rmw_disabled_never_predicts() {
        let mut u = unit();
        begin(&mut u, 0, 1);
        let site = OpSite {
            static_tx: 0,
            op_index: 0,
        };
        u.record_load(LineAddr(9), site);
        u.record_store(LineAddr(9), 0);
        u.commit(10);
        assert!(!u.load_wants_exclusive(site));
    }

    #[test]
    #[should_panic(expected = "transaction already active")]
    fn double_begin_panics() {
        let mut u = unit();
        begin(&mut u, 0, 1);
        begin(&mut u, 1, 2);
    }

    #[test]
    fn elapsed_tracks_attempt_not_first_begin() {
        let mut u = unit();
        begin(&mut u, 0, 1);
        let out = u.abort(50, AbortCause::Capacity);
        u.begin(
            100,
            out.static_tx,
            out.tx,
            out.timestamp,
            out.consecutive_aborts,
        );
        assert_eq!(u.current().unwrap().elapsed(130), 30);
    }
}
