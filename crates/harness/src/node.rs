//! Per-node controller: the in-order core executing its synthetic program,
//! the L1 + HTM unit answering forwarded coherence requests, the MSHR
//! tracking the (single) outstanding miss, and the writeback buffer.
//!
//! All methods are effect-returning: they mutate the node and hand back an
//! [`Effects`] record (messages to send, a wake-up to schedule, an oracle
//! episode to log) that the [`crate::system::System`] applies. That keeps
//! the protocol logic unit-testable without a network.

use crate::memory::MemoryImage;
use puno_coherence::l1::{Eviction, L1Cache, LineState, LookupOutcome};
use puno_coherence::msg::{CoherenceMsg, TxInfo};
use puno_coherence::sharers::SharerSet;
use puno_core::{notification_estimate, TxLengthBuffer};
use puno_htm::conflict::{ForwardDecision, IncomingKind};
use puno_htm::rmw::OpSite;
use puno_htm::stats::AbortCause;
use puno_htm::unit::HtmUnit;
use puno_htm::BackoffEngine;
use puno_sim::{
    ChannelMask, Cycle, Cycles, LineAddr, LineMap, LineSet, NodeId, StaticTxId, Timestamp,
    TraceChannel, TraceEvent, TxId,
};
use puno_workloads::op::{NodeProgram, TxOp, WorkItem};
use std::sync::Arc;

/// What a node step/message handler asks the system to do.
#[derive(Debug, Default)]
pub struct Effects {
    /// Messages to inject, from this node.
    pub sends: Vec<(NodeId, CoherenceMsg)>,
    /// Schedule a core wake-up at this absolute cycle (with the node's
    /// *current* epoch).
    pub wake_at: Option<Cycle>,
    /// A transactional-GETX episode concluded: (nacked, aborted_sharers).
    pub oracle_episode: Option<(bool, u64)>,
    /// The node just finished its program.
    pub finished: bool,
    /// An armed spurious-NACK fault actually fired on this forward (the
    /// system keeps the per-kind fault accounting).
    pub injected_nack: bool,
    /// A transaction committed during this step (the system maintains a
    /// running commit total for its watchdog progress marker).
    pub committed: bool,
}

impl Effects {
    fn wake(mut self, at: Cycle) -> Self {
        self.wake_at = Some(at);
        self
    }
}

/// Identity of the transaction being executed (survives retries).
#[derive(Clone, Copy, Debug)]
struct CurTx {
    tx: TxId,
    timestamp: Timestamp,
    prior_aborts: u32,
}

/// The single outstanding miss.
#[derive(Clone, Debug)]
pub struct Mshr {
    pub addr: LineAddr,
    /// The request was a GETX (write, upgrade, or RMW-predicted load).
    pub is_getx: bool,
    /// The *semantic* operation is a store (false for RMW-predicted loads).
    pub sem_write: bool,
    /// Issued from inside a transaction.
    pub is_tx: bool,
    /// Operation site (for RMW training/prediction bookkeeping).
    pub site: OpSite,
    pub acks_expected: Option<u32>,
    pub acks_received: u32,
    pub nackers: SharerSet,
    pub aborted_sharers: u64,
    pub got_grant: bool,
    pub grant_exclusive: bool,
    /// Data came from the previous owner, which kept a shared copy.
    pub owner_kept_by: Option<NodeId>,
    pub notification: Option<Cycles>,
    pub mp_node: Option<NodeId>,
    /// The local transaction aborted while this request was in flight; the
    /// episode must still conclude for the directory, but its result is
    /// discarded.
    pub abandoned: bool,
}

/// Core execution phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Will act on the next matching wake event.
    Ready,
    /// Waiting for the MSHR to conclude.
    Blocked,
    /// Program exhausted.
    Done,
}

#[derive(Clone)]
pub struct NodeState {
    pub id: NodeId,
    pub l1: L1Cache,
    pub htm: HtmUnit,
    pub txlb: TxLengthBuffer,
    pub backoff: BackoffEngine,
    /// Immutable program, shared across mechanism cells replaying the same
    /// `(params, seed)` trace (see `puno_workloads::ProgramSet`).
    pub program: Arc<NodeProgram>,
    /// Program counter over `program.items`.
    pub pc: usize,
    /// Operation index within the current transaction body.
    pub op_idx: usize,
    /// Wake-event epoch: stale wakes (scheduled before an abort redirected
    /// control flow) are ignored.
    pub epoch: u64,
    pub phase: Phase,
    pub mshr: Option<Mshr>,
    /// Lines with writebacks in flight, with a count per line: a line can
    /// be evicted, refetched and evicted again before the first WbAck
    /// returns, leaving two acks outstanding.
    pub wb_buffer: LineMap<LineAddr, u32>,
    /// Write-set lines force-evicted with sticky-owner writebacks: the
    /// directory still names this node owner (LogTM sticky-M), used by the
    /// invariant checker and cleared when ownership actually moves.
    pub sticky_owned: LineSet<LineAddr>,
    cur_tx: Option<CurTx>,
    next_tx_seq: u64,
    /// Deferred restart (abort happened while the MSHR was in flight):
    /// cycles of recovery+backoff to apply once the episode concludes.
    pending_restart: Option<Cycles>,
    pub done_at: Option<Cycle>,
    nodes: u16,
    commit_latency: Cycles,
    notification_enabled: bool,
    /// Wake-up hint extension (off reproduces the paper).
    wakeup_hints: bool,
    /// Requesters this node nacked-with-notification; poked when the
    /// current transaction finishes. Bounded like a small CAM.
    pending_wakeups: Vec<(NodeId, LineAddr)>,
    /// The line whose NACKed request this node is currently backing off
    /// on (a WakeupHint for it ends the backoff early).
    waiting_retry: Option<LineAddr>,
    /// Who nacked this node's last failed episode (wait-for diagnostics;
    /// meaningful while `waiting_retry` is set).
    last_nackers: SharerSet,
    /// One-shot fault injection: answer the next eligible forward with a
    /// spurious NACK instead of complying.
    force_nack_once: bool,
    /// Effective trace mask pushed down by the system; the node only emits
    /// `Htm`-channel events, so the hot-path cost when tracing is off is a
    /// single bit test per site.
    trace_mask: ChannelMask,
    /// Events recorded during the current step/handler call; the system
    /// drains this into its tracer/telemetry sinks after each call.
    trace_buf: Vec<(Cycle, TraceEvent)>,
}

impl NodeState {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: NodeId,
        nodes: u16,
        l1: L1Cache,
        htm: HtmUnit,
        txlb: TxLengthBuffer,
        backoff: BackoffEngine,
        program: Arc<NodeProgram>,
        commit_latency: Cycles,
        notification_enabled: bool,
    ) -> Self {
        Self {
            id,
            l1,
            htm,
            txlb,
            backoff,
            program,
            pc: 0,
            op_idx: 0,
            epoch: 0,
            phase: Phase::Ready,
            mshr: None,
            wb_buffer: LineMap::new(),
            sticky_owned: LineSet::new(),
            cur_tx: None,
            next_tx_seq: 0,
            pending_restart: None,
            done_at: None,
            nodes,
            commit_latency,
            notification_enabled,
            wakeup_hints: false,
            pending_wakeups: Vec::new(),
            waiting_retry: None,
            last_nackers: SharerSet::EMPTY,
            force_nack_once: false,
            trace_mask: ChannelMask::NONE,
            trace_buf: Vec::new(),
        }
    }

    /// Whether this node's next live wake would execute TX_BEGIN: the
    /// program counter rests on a transaction item with no transaction in
    /// flight and no outstanding miss. `System::run_to_first_begin` stops
    /// the run when any node satisfies this, so `sweep_all --trace` can
    /// skip the pre-transaction warm-up with its sinks detached.
    pub fn poised_to_begin(&self) -> bool {
        self.phase == Phase::Ready
            && self.mshr.is_none()
            && self.htm.current().is_none()
            && matches!(
                self.program.items.get(self.pc),
                Some(WorkItem::Transaction(_))
            )
    }

    /// Set the effective trace mask (the node emits `Htm`-channel events).
    pub fn set_trace_mask(&mut self, mask: ChannelMask) {
        self.trace_mask = mask;
    }

    #[inline]
    fn htm_trace_on(&self) -> bool {
        self.trace_mask.contains(TraceChannel::Htm)
    }

    /// Whether any recorded events await draining.
    #[inline]
    pub fn has_trace_events(&self) -> bool {
        !self.trace_buf.is_empty()
    }

    /// Hand the recorded events to the system (paired with
    /// [`NodeState::restore_trace_buf`] so the allocation is reused).
    pub fn take_trace_buf(&mut self) -> Vec<(Cycle, TraceEvent)> {
        std::mem::take(&mut self.trace_buf)
    }

    /// Give back the drained buffer from [`NodeState::take_trace_buf`].
    pub fn restore_trace_buf(&mut self, buf: Vec<(Cycle, TraceEvent)>) {
        debug_assert!(buf.is_empty(), "restoring a non-empty trace buffer");
        self.trace_buf = buf;
    }

    /// Fault injection: the next forward that this node would comply with
    /// is answered with a spurious NACK instead. The flag is consumed by
    /// the next forward delivery whether or not it ends up applying (a
    /// forward that would be nacked anyway absorbs it).
    pub fn arm_spurious_nack(&mut self) {
        self.force_nack_once = true;
    }

    /// The line this node is backing off on after a nacked episode.
    pub fn waiting_on(&self) -> Option<LineAddr> {
        self.waiting_retry
    }

    /// The nackers of the last failed episode (see [`Self::waiting_on`]).
    pub fn last_nackers(&self) -> SharerSet {
        self.last_nackers
    }

    /// Fault injection: abort the running transaction as if a conflict had
    /// been detected. Returns whether a transaction was actually aborted
    /// (idle nodes and committed transactions absorb the fault).
    pub fn force_abort(&mut self, now: Cycle, memory: &mut MemoryImage) -> (bool, Effects) {
        let mut eff = Effects::default();
        if self.htm.current().is_none() {
            return (false, eff);
        }
        self.abort_current_tx(now, AbortCause::Injected, None, memory, &mut eff);
        (true, eff)
    }

    /// Enable the §VI wake-up-hint extension (see `PunoConfig::wakeup_hints`).
    pub fn set_wakeup_hints(&mut self, enabled: bool) {
        self.wakeup_hints = enabled;
    }

    fn home_of(&self, addr: LineAddr) -> NodeId {
        puno_coherence::home_node(addr, self.nodes)
    }

    fn tx_info(&self) -> Option<TxInfo> {
        let ctx = self.htm.current()?;
        Some(TxInfo {
            tx: ctx.tx,
            timestamp: ctx.timestamp,
            static_tx: ctx.static_tx,
            avg_len_hint: self.txlb.global_estimate().unwrap_or(0),
        })
    }

    /// ------------------------------------------------------------------
    /// Core step: advance the program. Called by the system on a matching
    /// wake event while `phase == Ready`.
    /// ------------------------------------------------------------------
    pub fn step(&mut self, now: Cycle, memory: &mut MemoryImage) -> Effects {
        debug_assert_eq!(self.phase, Phase::Ready);
        debug_assert!(self.mshr.is_none());
        self.waiting_retry = None;

        if self.pc >= self.program.items.len() {
            self.phase = Phase::Done;
            self.done_at = Some(now);
            return Effects {
                finished: true,
                ..Effects::default()
            };
        }

        match self.program.items[self.pc] {
            WorkItem::Think(c) => {
                self.pc += 1;
                Effects::default().wake(now + c)
            }
            WorkItem::Access { addr, is_write } => self.access(
                now,
                addr,
                is_write,
                false,
                OpSite {
                    static_tx: u32::MAX,
                    op_index: 0,
                },
                memory,
            ),
            // Only the static id and the next op are copied out; the body
            // stays borrowed in the shared program.
            WorkItem::Transaction(ref spec) => {
                let next_op = spec.ops.get(self.op_idx).copied();
                self.step_transaction(now, spec.static_tx, next_op, memory)
            }
        }
    }

    /// One step of the current transaction: begin it, perform `next_op`,
    /// or commit when the body is exhausted (`next_op` is `None`).
    fn step_transaction(
        &mut self,
        now: Cycle,
        static_tx: StaticTxId,
        next_op: Option<TxOp>,
        memory: &mut MemoryImage,
    ) -> Effects {
        if self.htm.current().is_none() {
            // TX_BEGIN (first attempt or retry).
            let cur = self.cur_tx.get_or_insert_with(|| {
                let tx = TxId(self.id.0 as u64 | (self.next_tx_seq << 16));
                self.next_tx_seq += 1;
                // Global-time-unique priority: cycle * nodes + node id.
                let timestamp = Timestamp(now * self.nodes as u64 + self.id.0 as u64);
                CurTx {
                    tx,
                    timestamp,
                    prior_aborts: 0,
                }
            });
            let (tx, timestamp, prior_aborts) = (cur.tx, cur.timestamp, cur.prior_aborts);
            self.htm.begin(now, static_tx, tx, timestamp, prior_aborts);
            self.op_idx = 0;
            if self.htm_trace_on() {
                self.trace_buf.push((
                    now,
                    TraceEvent::HtmBegin {
                        node: self.id,
                        tx,
                        static_tx,
                        timestamp,
                        attempt: prior_aborts,
                    },
                ));
            }
            return Effects::default().wake(now + 1);
        }
        if let Some(op) = next_op {
            match op {
                TxOp::Think(c) => {
                    self.op_idx += 1;
                    Effects::default().wake(now + c)
                }
                TxOp::Read(addr) => {
                    let site = OpSite {
                        static_tx: static_tx.0,
                        op_index: self.op_idx as u32,
                    };
                    self.access(now, addr, false, true, site, memory)
                }
                TxOp::Write(addr) => {
                    let site = OpSite {
                        static_tx: static_tx.0,
                        op_index: self.op_idx as u32,
                    };
                    self.access(now, addr, true, true, site, memory)
                }
            }
        } else {
            // TX_END: commit.
            let out = self.htm.commit(now);
            self.txlb.record_commit(out.static_tx, out.length);
            self.l1.unpin_all();
            if self.htm_trace_on() {
                let tx = self.cur_tx.expect("commit without tx identity").tx;
                self.trace_buf.push((
                    now,
                    TraceEvent::HtmCommit {
                        node: self.id,
                        tx,
                        length: out.length,
                    },
                ));
            }
            self.cur_tx = None;
            self.pc += 1;
            self.op_idx = 0;
            let mut eff = Effects::default().wake(now + self.commit_latency);
            eff.committed = true;
            self.drain_wakeup_hints(&mut eff);
            eff
        }
    }

    /// Perform (or start) a memory access.
    #[allow(clippy::too_many_arguments)]
    fn access(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        sem_write: bool,
        is_tx: bool,
        site: OpSite,
        memory: &mut MemoryImage,
    ) -> Effects {
        match self.l1.access(addr, sem_write) {
            LookupOutcome::Hit(state) => {
                self.complete_access_locally(now, addr, sem_write, is_tx, site, state, memory)
            }
            LookupOutcome::UpgradeNeeded => {
                self.issue_request(now, addr, true, sem_write, is_tx, site)
            }
            LookupOutcome::Miss => {
                let predicted_rmw = is_tx && !sem_write && self.htm.load_wants_exclusive(site);
                // Re-reading a line this transaction already *wrote* (it was
                // force-evicted sticky) must re-acquire ownership: letting
                // the home demote it to Shared would hand other readers the
                // speculative value without a conflict check.
                let own_written = is_tx
                    && self
                        .htm
                        .current()
                        .is_some_and(|ctx| ctx.sets.in_write_set(addr));
                let is_getx = sem_write || predicted_rmw || own_written;
                self.issue_request(now, addr, is_getx, sem_write, is_tx, site)
            }
        }
    }

    /// The access hit (or the miss completed): record footprint, apply the
    /// store to memory, pin, and advance.
    #[allow(clippy::too_many_arguments)]
    fn complete_access_locally(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        sem_write: bool,
        is_tx: bool,
        site: OpSite,
        state: LineState,
        memory: &mut MemoryImage,
    ) -> Effects {
        if is_tx {
            if sem_write {
                let old = memory.read(addr);
                self.htm.record_store(addr, old);
                memory.write(addr, old.wrapping_add(1));
                if state == LineState::Exclusive {
                    self.l1.set_state(addr, LineState::Modified);
                }
                self.l1.pin(addr);
            } else {
                self.htm.record_load(addr, site);
                // Owned-state read-set lines are pinned: their eviction
                // would silently drop the directory's conflict-forwarding
                // path (S-state read lines evict silently and stay sticky
                // in the sharer list instead).
                if state.writable() {
                    self.l1.pin(addr);
                }
            }
        } else if sem_write {
            let old = memory.read(addr);
            memory.write(addr, old.wrapping_add(1));
            if state == LineState::Exclusive {
                self.l1.set_state(addr, LineState::Modified);
            }
        }
        self.advance_after_access(is_tx);
        Effects::default().wake(now + 1)
    }

    fn advance_after_access(&mut self, is_tx: bool) {
        if is_tx {
            self.op_idx += 1;
        } else {
            self.pc += 1;
        }
    }

    fn issue_request(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        is_getx: bool,
        sem_write: bool,
        is_tx: bool,
        site: OpSite,
    ) -> Effects {
        let _ = now;
        debug_assert!(self.mshr.is_none());
        let tx = if is_tx { self.tx_info() } else { None };
        let msg = if is_getx {
            CoherenceMsg::Getx {
                addr,
                requester: self.id,
                tx,
            }
        } else {
            CoherenceMsg::Gets {
                addr,
                requester: self.id,
                tx,
            }
        };
        self.mshr = Some(Mshr {
            addr,
            is_getx,
            sem_write,
            is_tx,
            site,
            acks_expected: None,
            acks_received: 0,
            nackers: SharerSet::EMPTY,
            aborted_sharers: 0,
            got_grant: false,
            grant_exclusive: false,
            owner_kept_by: None,
            notification: None,
            mp_node: None,
            abandoned: false,
        });
        self.phase = Phase::Blocked;
        Effects {
            sends: vec![(self.home_of(addr), msg)],
            ..Effects::default()
        }
    }

    /// ------------------------------------------------------------------
    /// Forwarded requests from the directory (Inv / FwdGets / FwdGetx).
    /// ------------------------------------------------------------------
    pub fn on_forward(
        &mut self,
        now: Cycle,
        msg: &CoherenceMsg,
        memory: &mut MemoryImage,
    ) -> Effects {
        let (addr, requester, tx, kind, unicast) = match msg {
            CoherenceMsg::Inv {
                addr,
                requester,
                tx,
                unicast,
            } => (*addr, *requester, *tx, IncomingKind::Write, *unicast),
            CoherenceMsg::FwdGetx {
                addr,
                requester,
                tx,
                unicast,
            } => (*addr, *requester, *tx, IncomingKind::Write, *unicast),
            CoherenceMsg::FwdGets {
                addr,
                requester,
                tx,
            } => (*addr, *requester, *tx, IncomingKind::Read, false),
            other => panic!("on_forward: not a forward: {other:?}"),
        };
        let req_ts = tx.map(|t| t.timestamp);
        let force_nack = std::mem::take(&mut self.force_nack_once);
        let mut eff = Effects::default();
        // A sticky-owned line re-requested by this very node arrives back
        // as a self-forward (the directory still names us owner after an
        // overflow writeback). Serving our own request is never a
        // conflict.
        let decision = if requester == self.id {
            ForwardDecision::Comply
        } else {
            let real = self.htm.respond_forward(addr, kind, req_ts, unicast);
            // A spurious-NACK fault downgrades a would-be Comply to a plain
            // NACK — the conservative refusal the protocol already handles
            // (cf. a mispredicted unicast probe). Decisions that nack or
            // abort anyway absorb the fault unchanged.
            if force_nack && matches!(real, ForwardDecision::Comply) {
                eff.injected_nack = true;
                ForwardDecision::Nack { mispredict: false }
            } else {
                real
            }
        };
        match decision {
            ForwardDecision::Nack { mispredict } => {
                // Only the receiver of a *unicast* request notifies the
                // requester (Section III-D): a unicast nacker is the
                // predicted highest-priority sharer, so its remaining run
                // time is the quantity that actually gates the requester.
                // Multicast nackers stay silent — we measured the
                // alternative (every nacker notifying, requester waiting for
                // the max) and it oversleeps badly when nackers are
                // themselves aborted. Misprediction nacks carry no
                // notification (Figure 8(c2)).
                let notification = if unicast && !mispredict && self.notification_enabled {
                    self.htm.current().and_then(|ctx| {
                        self.txlb
                            .estimate(ctx.static_tx)
                            .map(|avg| notification_estimate(avg, ctx.elapsed(now)))
                    })
                } else {
                    None
                };
                let stats = self.htm.stats_mut();
                stats.nacks_sent.inc();
                if notification.is_some() {
                    stats.notifications_sent.inc();
                }
                if self.wakeup_hints && notification.is_some() {
                    // Remember the requester; poke it when we finish.
                    if self.pending_wakeups.len() >= 4 {
                        self.pending_wakeups.remove(0);
                    }
                    if !self.pending_wakeups.contains(&(requester, addr)) {
                        self.pending_wakeups.push((requester, addr));
                    }
                }
                if self.htm_trace_on() {
                    self.trace_buf.push((
                        now,
                        TraceEvent::HtmNackSent {
                            node: self.id,
                            requester,
                            addr,
                            notified: notification.is_some(),
                            mispredict,
                        },
                    ));
                }
                let terminal = unicast || !matches!(msg, CoherenceMsg::Inv { .. });
                eff.sends.push((
                    requester,
                    CoherenceMsg::Nack {
                        addr,
                        from: self.id,
                        notification,
                        mispredict,
                        unicast: terminal,
                    },
                ));
            }
            ForwardDecision::Comply => {
                self.comply(now, addr, requester, msg, false, &mut eff);
            }
            ForwardDecision::AbortAndComply => {
                let cause = match kind {
                    IncomingKind::Write => AbortCause::TxWriteInvalidation,
                    IncomingKind::Read => AbortCause::TxReadConflict,
                };
                self.abort_current_tx(now, cause, Some((requester, addr)), memory, &mut eff);
                self.comply(now, addr, requester, msg, true, &mut eff);
            }
        }
        eff
    }

    /// Comply with a forward: surrender the line per the request type.
    fn comply(
        &mut self,
        _now: Cycle,
        addr: LineAddr,
        requester: NodeId,
        msg: &CoherenceMsg,
        aborted: bool,
        eff: &mut Effects,
    ) {
        // Ownership (sticky or real) moves away with this forward.
        self.sticky_owned.remove(addr);
        match msg {
            CoherenceMsg::Inv { .. } => {
                self.l1.invalidate(addr);
                eff.sends.push((
                    requester,
                    CoherenceMsg::Ack {
                        addr,
                        from: self.id,
                        aborted,
                    },
                ));
            }
            CoherenceMsg::FwdGets { .. } => {
                // Keep a shared copy unless we aborted (in which case the
                // rolled-back line is dropped) or no longer hold the line
                // (writeback in flight).
                let have_line = self.l1.state(addr).is_some();
                let keep = have_line && !aborted;
                if keep {
                    self.l1.set_state(addr, LineState::Shared);
                } else {
                    self.l1.invalidate(addr);
                }
                eff.sends.push((
                    requester,
                    CoherenceMsg::Data {
                        addr,
                        from: self.id,
                        acks_expected: 0,
                        exclusive: false,
                        owner_kept: keep,
                    },
                ));
                // Sharing writeback refreshes the home's L2 copy.
                eff.sends.push((
                    self.home_of(addr),
                    CoherenceMsg::WbData {
                        addr,
                        from: self.id,
                    },
                ));
            }
            CoherenceMsg::FwdGetx { .. } => {
                self.l1.invalidate(addr);
                eff.sends.push((
                    requester,
                    CoherenceMsg::Data {
                        addr,
                        from: self.id,
                        acks_expected: 0,
                        exclusive: true,
                        owner_kept: false,
                    },
                ));
            }
            other => panic!("comply: not a forward: {other:?}"),
        }
    }

    /// Abort the running transaction (conflict loser or capacity): roll
    /// back memory, unpin, and schedule the re-execution. `by` names the
    /// aborter node and conflicting line for conflict aborts (`None` for
    /// injected faults) — the attribution the blame matrix is built from.
    fn abort_current_tx(
        &mut self,
        now: Cycle,
        cause: AbortCause,
        by: Option<(NodeId, LineAddr)>,
        memory: &mut MemoryImage,
        eff: &mut Effects,
    ) {
        let discarded = self.htm.current().map_or(0, |ctx| ctx.effort(now));
        let out = self.htm.abort(now, cause);
        if self.htm_trace_on() {
            self.trace_buf.push((
                now,
                TraceEvent::HtmAbort {
                    node: self.id,
                    tx: out.tx,
                    cause: cause.trace_code(),
                    by: by.map(|(node, _)| node),
                    addr: by.map(|(_, addr)| addr),
                    discarded,
                },
            ));
        }
        memory.rollback(out.rollback);
        self.l1.unpin_all();
        // The aborting transaction's isolation is gone: requesters it
        // nacked can retry right away.
        self.drain_wakeup_hints(eff);
        let cur = self.cur_tx.as_mut().expect("abort without tx identity");
        cur.prior_aborts = out.consecutive_aborts;
        let backoff = self.backoff.on_abort(out.consecutive_aborts);
        self.htm.stats_mut().backoff_cycles.add(backoff);
        let delay = out.penalty + backoff;
        self.op_idx = 0;
        self.epoch += 1; // cancel any in-flight wake (e.g. a pending nack retry)
                         // A late WakeupHint must not short-circuit abort recovery.
        self.waiting_retry = None;
        if let Some(mshr) = self.mshr.as_mut() {
            // Our own request is still in flight; the episode must conclude
            // before the core can restart cleanly.
            mshr.abandoned = true;
            self.pending_restart = Some(delay);
        } else {
            self.phase = Phase::Ready;
            eff.wake_at = Some(now + delay);
        }
    }

    /// ------------------------------------------------------------------
    /// Responses to our outstanding request.
    /// ------------------------------------------------------------------
    pub fn on_response(
        &mut self,
        now: Cycle,
        msg: &CoherenceMsg,
        memory: &mut MemoryImage,
    ) -> Effects {
        if let CoherenceMsg::WbAck { addr } = msg {
            match self.wb_buffer.get_mut(*addr) {
                Some(count) if *count > 1 => *count -= 1,
                Some(_) => {
                    self.wb_buffer.remove(*addr);
                }
                None => debug_assert!(false, "WbAck for unknown writeback"),
            }
            return Effects::default();
        }
        let mut eff = Effects::default();
        {
            let mshr = self.mshr.as_mut().expect("response without MSHR");
            debug_assert_eq!(mshr.addr, msg.addr(), "response for wrong line");
            match msg {
                CoherenceMsg::Data {
                    acks_expected,
                    exclusive,
                    owner_kept,
                    from,
                    ..
                } => {
                    mshr.got_grant = true;
                    mshr.acks_expected = Some(*acks_expected);
                    mshr.grant_exclusive = *exclusive;
                    if *owner_kept {
                        mshr.owner_kept_by = Some(*from);
                    }
                }
                CoherenceMsg::UpgradeAck { acks_expected, .. } => {
                    mshr.got_grant = true;
                    mshr.acks_expected = Some(*acks_expected);
                    mshr.grant_exclusive = true;
                }
                CoherenceMsg::Ack { from, aborted, .. } => {
                    let _ = from;
                    mshr.acks_received += 1;
                    if *aborted {
                        mshr.aborted_sharers += 1;
                    }
                }
                CoherenceMsg::Nack {
                    from,
                    notification,
                    mispredict,
                    unicast,
                    ..
                } => {
                    mshr.acks_received += 1;
                    mshr.nackers.insert(*from);
                    if let Some(n) = notification {
                        // Wait for the *last* nacker: the request cannot
                        // succeed until every refusing transaction is gone.
                        mshr.notification =
                            Some(mshr.notification.map_or(*n, |old: u64| old.max(*n)));
                    }
                    if *mispredict {
                        mshr.mp_node = Some(*from);
                    }
                    if *unicast {
                        // Terminal nack (unicast probe or owner refusal):
                        // nothing else is coming.
                        mshr.got_grant = true;
                        mshr.acks_expected = Some(mshr.acks_received);
                    }
                }
                other => panic!("unexpected response: {other:?}"),
            }
            let complete =
                mshr.got_grant && mshr.acks_expected.is_some_and(|n| mshr.acks_received >= n);
            if !complete {
                return eff;
            }
        }
        let mshr = self.mshr.take().unwrap();
        self.conclude_episode(now, mshr, memory, &mut eff);
        eff
    }

    fn conclude_episode(
        &mut self,
        now: Cycle,
        mshr: Mshr,
        memory: &mut MemoryImage,
        eff: &mut Effects,
    ) {
        let success = mshr.nackers.is_empty();
        // Relay: on a successful owner transfer, tell the home whether the
        // previous owner kept a shared copy (encoded in the nackers mask —
        // see DirectoryBank::on_unblock). On failure, report the nackers.
        let unblock_mask = if success {
            mshr.owner_kept_by
                .map(SharerSet::single)
                .unwrap_or(SharerSet::EMPTY)
        } else {
            mshr.nackers
        };
        eff.sends.push((
            self.home_of(mshr.addr),
            CoherenceMsg::Unblock {
                addr: mshr.addr,
                requester: self.id,
                success,
                nackers: unblock_mask,
                mp_node: mshr.mp_node,
                tx: if mshr.is_tx { self.tx_info() } else { None },
            },
        ));

        // False-abort oracle: every transactional GETX episode.
        if mshr.is_tx && mshr.is_getx {
            eff.oracle_episode = Some((!success, mshr.aborted_sharers));
        }

        if success {
            self.last_nackers = SharerSet::EMPTY;
            // Install the line.
            let state = if mshr.is_getx {
                LineState::Modified
            } else if mshr.grant_exclusive {
                LineState::Exclusive
            } else {
                LineState::Shared
            };
            let eviction = match self.l1.fill(mshr.addr, state) {
                Ok(ev) => ev,
                Err(_) => {
                    // No unpinned victim: transactional overflow. LogTM-
                    // style recovery: force-evict a pinned line with a
                    // *sticky* writeback so conflict detection survives at
                    // the directory (the transaction does NOT abort).
                    self.htm.stats_mut().overflow_evictions.inc();
                    self.l1.fill_forced(mshr.addr, state)
                }
            };
            self.handle_eviction(eviction, eff);
            if mshr.abandoned {
                // The transaction that wanted this line is gone; the line
                // stays cached (coherent), the op is not performed.
                self.finish_abandoned(now, eff);
            } else {
                self.finish_completed_access(now, &mshr, memory, eff);
            }
        } else {
            // NACKed: retry after backoff (mechanism-specific). A nack with
            // the MP-bit means the episode was a stale-prediction probe —
            // the directory has already invalidated the bad priority, so
            // the requester retries immediately (the retry will be serviced
            // as a normal multicast).
            if mshr.abandoned {
                self.finish_abandoned(now, eff);
            } else {
                let bo = if mshr.mp_node.is_some() {
                    1
                } else {
                    self.backoff.on_nack(mshr.notification)
                };
                if mshr.is_tx {
                    self.htm.note_stall(bo);
                }
                if self.htm_trace_on() {
                    self.trace_buf.push((
                        now,
                        TraceEvent::HtmStall {
                            node: self.id,
                            addr: mshr.addr,
                            backoff: bo,
                        },
                    ));
                }
                let stats = self.htm.stats_mut();
                stats.nacks_received.inc();
                stats.retries.inc();
                stats.backoff_cycles.add(bo);
                self.phase = Phase::Ready;
                self.waiting_retry = Some(mshr.addr);
                self.last_nackers = mshr.nackers;
                eff.wake_at = Some(now + bo);
            }
        }
    }

    fn finish_abandoned(&mut self, now: Cycle, eff: &mut Effects) {
        let delay = self
            .pending_restart
            .take()
            .expect("abandoned episode without pending restart");
        self.phase = Phase::Ready;
        eff.wake_at = Some(now + delay);
    }

    fn finish_completed_access(
        &mut self,
        now: Cycle,
        mshr: &Mshr,
        memory: &mut MemoryImage,
        eff: &mut Effects,
    ) {
        if mshr.is_tx {
            if mshr.sem_write {
                let old = memory.read(mshr.addr);
                self.htm.record_store(mshr.addr, old);
                memory.write(mshr.addr, old.wrapping_add(1));
                self.l1.pin(mshr.addr);
            } else {
                self.htm.record_load(mshr.addr, mshr.site);
                // GETX-granted loads (RMW prediction) and E grants hold the
                // line in an owned state: pin (see complete_access_locally).
                if mshr.is_getx || mshr.grant_exclusive {
                    self.l1.pin(mshr.addr);
                }
            }
            self.op_idx += 1;
        } else {
            if mshr.sem_write {
                let old = memory.read(mshr.addr);
                memory.write(mshr.addr, old.wrapping_add(1));
            }
            self.pc += 1;
        }
        self.phase = Phase::Ready;
        eff.wake_at = Some(now + 1);
        let _ = eff;
    }

    /// Send queued wake-up hints (extension; no-op when disabled or empty).
    fn drain_wakeup_hints(&mut self, eff: &mut Effects) {
        for (requester, addr) in self.pending_wakeups.drain(..) {
            eff.sends.push((
                requester,
                CoherenceMsg::WakeupHint {
                    addr,
                    from: self.id,
                },
            ));
        }
    }

    /// A nacker we were waiting on finished: cut the backoff short and
    /// retry now. Stale hints (we moved on) are ignored.
    pub fn on_wakeup_hint(&mut self, now: Cycle, addr: LineAddr) -> Effects {
        if self.waiting_retry == Some(addr) && self.phase == Phase::Ready {
            self.waiting_retry = None;
            self.epoch += 1; // cancel the scheduled (longer) wake
            return Effects::default().wake(now + 1);
        }
        Effects::default()
    }

    fn handle_eviction(&mut self, eviction: Eviction, eff: &mut Effects) {
        let sticky_of = |node: &Self, addr: LineAddr| match node.htm.current() {
            Some(ctx) if ctx.sets.in_write_set(addr) => puno_coherence::msg::StickyKind::Writer,
            Some(ctx) if ctx.sets.in_read_set(addr) => puno_coherence::msg::StickyKind::Reader,
            _ => puno_coherence::msg::StickyKind::None,
        };
        match eviction {
            Eviction::None | Eviction::Silent(_) => {}
            Eviction::CleanOwned(addr) => {
                let sticky = sticky_of(self, addr);
                *self.wb_buffer.get_or_insert_with(addr, || 0) += 1;
                eff.sends.push((
                    self.home_of(addr),
                    CoherenceMsg::Puts {
                        addr,
                        owner: self.id,
                        sticky,
                    },
                ));
            }
            Eviction::Dirty(addr) => {
                let sticky = sticky_of(self, addr);
                if sticky == puno_coherence::msg::StickyKind::Writer {
                    self.sticky_owned.insert(addr);
                }
                *self.wb_buffer.get_or_insert_with(addr, || 0) += 1;
                eff.sends.push((
                    self.home_of(addr),
                    CoherenceMsg::Putx {
                        addr,
                        owner: self.id,
                        sticky,
                    },
                ));
            }
        }
    }

    /// Committed + retired everything?
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }
}

/// Marker: the op-site used for non-transactional accesses.
pub const NON_TX_SITE: u32 = u32::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::Mechanism;
    use puno_coherence::l1::L1Config;
    use puno_htm::backoff::{BackoffConfig, BackoffKind};
    use puno_htm::unit::AbortTiming;
    use puno_sim::SimRng;
    use puno_workloads::op::{DynTxSpec, WorkItem};

    fn node_with(items: Vec<WorkItem>) -> NodeState {
        let id = NodeId(1);
        NodeState::new(
            id,
            4,
            L1Cache::new(L1Config { sets: 8, ways: 2 }),
            HtmUnit::new(id, AbortTiming::default(), None),
            TxLengthBuffer::new(8),
            BackoffEngine::new(BackoffKind::Fixed, BackoffConfig::default(), SimRng::new(1)),
            Arc::new(NodeProgram { items }),
            5,
            true,
        )
    }

    fn tx(ops: Vec<TxOp>) -> WorkItem {
        WorkItem::Transaction(DynTxSpec {
            static_tx: StaticTxId(0),
            ops,
        })
    }

    #[test]
    fn think_advances_pc_and_schedules_wake() {
        let mut n = node_with(vec![WorkItem::Think(30)]);
        let mut mem = MemoryImage::new();
        let eff = n.step(0, &mut mem);
        assert_eq!(eff.wake_at, Some(30));
        assert_eq!(n.pc, 1);
    }

    #[test]
    fn empty_program_finishes() {
        let mut n = node_with(vec![]);
        let mut mem = MemoryImage::new();
        let eff = n.step(7, &mut mem);
        assert!(eff.finished);
        assert!(n.is_done());
        assert_eq!(n.done_at, Some(7));
    }

    #[test]
    fn tx_read_miss_issues_gets_to_home() {
        let mut n = node_with(vec![tx(vec![TxOp::Read(LineAddr(6))])]);
        let mut mem = MemoryImage::new();
        // Begin.
        let eff = n.step(0, &mut mem);
        assert_eq!(eff.wake_at, Some(1));
        // Read -> miss -> GETS to home (6 % 4 = node 2).
        let eff = n.step(1, &mut mem);
        assert_eq!(eff.sends.len(), 1);
        let (dst, msg) = &eff.sends[0];
        assert_eq!(*dst, NodeId(2));
        assert!(matches!(msg, CoherenceMsg::Gets { tx: Some(_), .. }));
        assert_eq!(n.phase, Phase::Blocked);
    }

    #[test]
    fn data_grant_completes_read_and_unblocks() {
        let mut n = node_with(vec![tx(vec![TxOp::Read(LineAddr(6))])]);
        let mut mem = MemoryImage::new();
        n.step(0, &mut mem);
        n.step(1, &mut mem);
        let eff = n.on_response(
            40,
            &CoherenceMsg::Data {
                addr: LineAddr(6),
                from: NodeId(2),
                acks_expected: 0,
                exclusive: false,
                owner_kept: false,
            },
            &mut mem,
        );
        // Unblock success to home.
        assert!(eff.sends.iter().any(|(dst, m)| *dst == NodeId(2)
            && matches!(m, CoherenceMsg::Unblock { success: true, .. })));
        assert_eq!(n.phase, Phase::Ready);
        assert_eq!(n.op_idx, 1);
        assert!(n.htm.current().unwrap().sets.in_read_set(LineAddr(6)));
        assert_eq!(n.l1.state(LineAddr(6)), Some(LineState::Shared));
    }

    #[test]
    fn tx_write_hit_updates_memory_and_pins() {
        let mut n = node_with(vec![tx(vec![TxOp::Write(LineAddr(6))])]);
        let mut mem = MemoryImage::new();
        n.step(0, &mut mem);
        n.l1.fill(LineAddr(6), LineState::Exclusive).unwrap();
        let eff = n.step(1, &mut mem);
        assert!(eff.sends.is_empty(), "E hit needs no traffic");
        assert_eq!(mem.read(LineAddr(6)), 1, "write increments");
        assert!(n.l1.is_pinned(LineAddr(6)));
        assert_eq!(n.l1.state(LineAddr(6)), Some(LineState::Modified));
    }

    #[test]
    fn nacked_getx_retries_after_fixed_backoff() {
        let mut n = node_with(vec![tx(vec![TxOp::Write(LineAddr(6))])]);
        let mut mem = MemoryImage::new();
        n.step(0, &mut mem);
        n.step(1, &mut mem); // GETX out
                             // Data grant with 1 invalidation expected, then a NACK.
        n.on_response(
            30,
            &CoherenceMsg::Data {
                addr: LineAddr(6),
                from: NodeId(2),
                acks_expected: 1,
                exclusive: true,
                owner_kept: false,
            },
            &mut mem,
        );
        let eff = n.on_response(
            35,
            &CoherenceMsg::Nack {
                addr: LineAddr(6),
                from: NodeId(3),
                notification: None,
                mispredict: false,
                unicast: false,
            },
            &mut mem,
        );
        // Unblock failure carrying the nacker.
        let unblock = eff
            .sends
            .iter()
            .find_map(|(_, m)| match m {
                CoherenceMsg::Unblock {
                    success, nackers, ..
                } => Some((*success, *nackers)),
                _ => None,
            })
            .unwrap();
        assert!(!unblock.0);
        assert!(unblock.1.contains(NodeId(3)));
        // Oracle: nacked tx-GETX with zero aborted sharers.
        assert_eq!(eff.oracle_episode, Some((true, 0)));
        // Fixed 20-cycle retry.
        assert_eq!(eff.wake_at, Some(55));
        assert_eq!(n.htm.stats().retries.get(), 1);
        // Retry reissues the same op.
        let eff = n.step(55, &mut mem);
        assert!(matches!(eff.sends[0].1, CoherenceMsg::Getx { .. }));
    }

    #[test]
    fn notification_guides_retry_backoff() {
        let mut n = node_with(vec![tx(vec![TxOp::Write(LineAddr(6))])]);
        n.backoff = BackoffEngine::new(
            BackoffKind::NotificationGuided,
            BackoffConfig {
                round_trip_allowance: 30,
                ..BackoffConfig::default()
            },
            SimRng::new(1),
        );
        let mut mem = MemoryImage::new();
        n.step(0, &mut mem);
        n.step(1, &mut mem);
        let eff = n.on_response(
            100,
            &CoherenceMsg::Nack {
                addr: LineAddr(6),
                from: NodeId(3),
                notification: Some(500),
                mispredict: false,
                unicast: true,
            },
            &mut mem,
        );
        // Terminal unicast nack concludes immediately; backoff = 500 - 30.
        assert_eq!(eff.wake_at, Some(100 + 470));
        assert_eq!(eff.oracle_episode, Some((true, 0)));
    }

    #[test]
    fn forward_invalidation_aborts_younger_reader() {
        let mut n = node_with(vec![tx(vec![TxOp::Read(LineAddr(6)), TxOp::Think(100)])]);
        let mut mem = MemoryImage::new();
        n.step(0, &mut mem); // begin at cycle 0 -> ts = 0*4+1 = 1
        n.l1.fill(LineAddr(6), LineState::Shared).unwrap();
        n.step(1, &mut mem); // read hits, recorded
        assert!(n.htm.current().unwrap().sets.in_read_set(LineAddr(6)));
        // Older writer (ts 0) invalidates.
        let eff = n.on_forward(
            50,
            &CoherenceMsg::Inv {
                addr: LineAddr(6),
                requester: NodeId(0),
                tx: Some(TxInfo {
                    tx: TxId(99),
                    timestamp: Timestamp(0),
                    static_tx: StaticTxId(0),
                    avg_len_hint: 0,
                }),
                unicast: false,
            },
            &mut mem,
        );
        // Ack with aborted flag; transaction gone; restart scheduled.
        assert!(matches!(
            eff.sends[0].1,
            CoherenceMsg::Ack { aborted: true, .. }
        ));
        assert!(n.htm.current().is_none());
        assert!(eff.wake_at.is_some());
        assert_eq!(n.htm.stats().aborts.get(), 1);
        assert_eq!(n.l1.state(LineAddr(6)), None);
        // Restart keeps the timestamp.
        let restart = eff.wake_at.unwrap();
        let eff = n.step(restart, &mut mem);
        assert_eq!(eff.wake_at, Some(restart + 1));
        assert_eq!(n.htm.current().unwrap().timestamp, Timestamp(1));
        assert_eq!(n.htm.current().unwrap().prior_aborts, 1);
    }

    #[test]
    fn older_reader_nacks_younger_writer() {
        let mut n = node_with(vec![tx(vec![TxOp::Read(LineAddr(6)), TxOp::Think(100)])]);
        let mut mem = MemoryImage::new();
        n.step(0, &mut mem);
        n.l1.fill(LineAddr(6), LineState::Shared).unwrap();
        n.step(1, &mut mem);
        let eff = n.on_forward(
            50,
            &CoherenceMsg::Inv {
                addr: LineAddr(6),
                requester: NodeId(0),
                tx: Some(TxInfo {
                    tx: TxId(99),
                    timestamp: Timestamp(1000),
                    static_tx: StaticTxId(0),
                    avg_len_hint: 0,
                }),
                unicast: false,
            },
            &mut mem,
        );
        assert!(matches!(
            eff.sends[0].1,
            CoherenceMsg::Nack {
                mispredict: false,
                unicast: false,
                ..
            }
        ));
        assert!(n.htm.current().is_some(), "tx survives");
        assert_eq!(n.htm.stats().nacks_sent.get(), 1);
    }

    #[test]
    fn unicast_nack_carries_notification_once_txlb_trained() {
        let mut n = node_with(vec![tx(vec![TxOp::Read(LineAddr(6)), TxOp::Think(400)])]);
        // Train the TxLB: static tx 0 averages 1000 cycles.
        n.txlb.record_commit(StaticTxId(0), 1000);
        let mut mem = MemoryImage::new();
        n.step(0, &mut mem);
        n.l1.fill(LineAddr(6), LineState::Shared).unwrap();
        n.step(1, &mut mem);
        // A younger writer's unicast probe at cycle 300 (tx began ~0).
        let eff = n.on_forward(
            300,
            &CoherenceMsg::Inv {
                addr: LineAddr(6),
                requester: NodeId(0),
                tx: Some(TxInfo {
                    tx: TxId(99),
                    timestamp: Timestamp(5000),
                    static_tx: StaticTxId(0),
                    avg_len_hint: 0,
                }),
                unicast: true,
            },
            &mut mem,
        );
        match &eff.sends[0].1 {
            CoherenceMsg::Nack {
                notification: Some(t_est),
                unicast: true,
                mispredict: false,
                ..
            } => {
                // avg 1000 - elapsed 300 = 700.
                assert_eq!(*t_est, 700);
            }
            other => panic!("expected notified nack, got {other:?}"),
        }
        assert_eq!(n.htm.stats().notifications_sent.get(), 1);
    }

    #[test]
    fn mispredicted_unicast_sets_mp_bit_and_keeps_tx() {
        let mut n = node_with(vec![tx(vec![TxOp::Read(LineAddr(6)), TxOp::Think(100)])]);
        let mut mem = MemoryImage::new();
        n.step(0, &mut mem); // ts = 1
        n.l1.fill(LineAddr(6), LineState::Shared).unwrap();
        n.step(1, &mut mem);
        // An *older* writer's unicast probe: we are mispredicted.
        let eff = n.on_forward(
            50,
            &CoherenceMsg::Inv {
                addr: LineAddr(6),
                requester: NodeId(0),
                tx: Some(TxInfo {
                    tx: TxId(99),
                    timestamp: Timestamp(0),
                    static_tx: StaticTxId(0),
                    avg_len_hint: 0,
                }),
                unicast: true,
            },
            &mut mem,
        );
        assert!(matches!(
            eff.sends[0].1,
            CoherenceMsg::Nack {
                mispredict: true,
                notification: None,
                ..
            }
        ));
        assert!(n.htm.current().is_some(), "conservative nack, no abort");
        assert!(n.l1.state(LineAddr(6)).is_some(), "copy retained");
    }

    #[test]
    fn abort_while_request_in_flight_defers_restart() {
        let mut n = node_with(vec![tx(vec![
            TxOp::Read(LineAddr(6)),
            TxOp::Write(LineAddr(9)),
        ])]);
        let mut mem = MemoryImage::new();
        n.step(0, &mut mem);
        n.l1.fill(LineAddr(6), LineState::Shared).unwrap();
        n.step(1, &mut mem); // read hit
        let eff = n.step(2, &mut mem); // write miss -> GETX(9) in flight
        assert_eq!(eff.sends.len(), 1);
        // While blocked, an older writer invalidates our read line: abort.
        let eff = n.on_forward(
            10,
            &CoherenceMsg::Inv {
                addr: LineAddr(6),
                requester: NodeId(0),
                tx: Some(TxInfo {
                    tx: TxId(99),
                    timestamp: Timestamp(0),
                    static_tx: StaticTxId(0),
                    avg_len_hint: 0,
                }),
                unicast: false,
            },
            &mut mem,
        );
        assert!(eff.wake_at.is_none(), "restart deferred to episode end");
        assert!(n.htm.current().is_none());
        // The in-flight GETX(9) concludes successfully; line installs but
        // the op is NOT performed; restart is scheduled.
        let eff = n.on_response(
            60,
            &CoherenceMsg::Data {
                addr: LineAddr(9),
                from: NodeId(1),
                acks_expected: 0,
                exclusive: true,
                owner_kept: false,
            },
            &mut mem,
        );
        assert!(eff
            .sends
            .iter()
            .any(|(_, m)| matches!(m, CoherenceMsg::Unblock { success: true, .. })));
        assert!(eff.wake_at.is_some());
        assert_eq!(mem.read(LineAddr(9)), 0, "abandoned op must not write");
        assert_eq!(n.l1.state(LineAddr(9)), Some(LineState::Modified));
        assert_eq!(n.op_idx, 0, "transaction restarts from the top");
    }

    #[test]
    fn dirty_eviction_issues_putx_and_wb_ack_clears() {
        let mut n = node_with(vec![]);
        let mut mem = MemoryImage::new();
        // Fill set 0 (addrs 0 and 8 with sets=8... addr%8: use 0 and 8).
        n.l1.fill(LineAddr(0), LineState::Modified).unwrap();
        n.l1.fill(LineAddr(8), LineState::Shared).unwrap();
        n.l1.access(LineAddr(8), false);
        // Next fill in set 0 evicts dirty LineAddr(0).
        let mut eff = Effects::default();
        let ev = n.l1.fill(LineAddr(16), LineState::Shared).unwrap();
        n.handle_eviction(ev, &mut eff);
        assert!(matches!(eff.sends[0].1, CoherenceMsg::Putx { .. }));
        assert!(n.wb_buffer.contains_key(LineAddr(0)));
        n.on_response(5, &CoherenceMsg::WbAck { addr: LineAddr(0) }, &mut mem);
        assert!(n.wb_buffer.is_empty());
    }

    #[test]
    fn rmw_predicted_load_issues_getx() {
        let id = NodeId(1);
        let mut n = NodeState::new(
            id,
            4,
            L1Cache::new(L1Config { sets: 8, ways: 2 }),
            HtmUnit::new(
                id,
                AbortTiming::default(),
                Some(puno_htm::RmwPredictor::new(8)),
            ),
            TxLengthBuffer::new(8),
            BackoffEngine::new(BackoffKind::Fixed, BackoffConfig::default(), SimRng::new(1)),
            Arc::new(NodeProgram {
                items: vec![
                    tx(vec![TxOp::Read(LineAddr(6)), TxOp::Write(LineAddr(6))]),
                    tx(vec![TxOp::Read(LineAddr(6))]),
                ],
            }),
            5,
            true,
        );
        let mut mem = MemoryImage::new();
        // First transaction trains the predictor: read then write line 6.
        n.step(0, &mut mem); // begin
        n.l1.fill(LineAddr(6), LineState::Exclusive).unwrap();
        n.step(1, &mut mem); // read hit
        n.step(2, &mut mem); // write hit (E->M) -> trains RMW
        n.step(3, &mut mem); // commit
                             // Second transaction: the load at the same site now predicts RMW.
        n.l1.invalidate(LineAddr(6));
        n.step(10, &mut mem); // begin
        let eff = n.step(11, &mut mem); // read miss
        assert!(
            matches!(eff.sends[0].1, CoherenceMsg::Getx { .. }),
            "predicted RMW load must request exclusive"
        );
        let _ = Mechanism::RmwPred;
    }
}
