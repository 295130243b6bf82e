//! Home-node directory bank: a blocking MESI directory in the style of the
//! SGI Origin / GEMS `MESI_CMP_directory` protocol the paper builds on.
//!
//! Each memory line has a static home bank (`home_node`). The bank tracks,
//! per line: the stable state (uncached / shared / owned), the sharer
//! bit-vector or owner, and — while a request is in flight — a transient
//! *busy* record. Requests arriving for a busy line wait in a FIFO at the
//! home and are serviced in order when the current episode's UNBLOCK
//! arrives. The cycles an entry spends busy servicing a transactional GETX
//! are accumulated for the paper's Figure 12.
//!
//! PUNO hooks in at exactly one decision point: when a transactional GETX is
//! about to be forwarded to the current holders, the bank consults a
//! [`UnicastPredictor`]. If the predictor names a target, the bank sends one
//! `Inv`/`FwdGetx` with the U-bit set instead of the exhaustive multicast,
//! and the episode concludes through the NACK/UNBLOCK path without
//! disturbing the other sharers (Section III-A, Figure 4(b)).

use crate::msg::{CoherenceMsg, TxInfo};
use crate::predictor::UnicastPredictor;
use crate::sharers::SharerSet;
use crate::stats::DirStats;
use puno_sim::{Cycle, Cycles, LineAddr, LineMap, NodeId};
use std::collections::VecDeque;

/// Directory/L2 timing knobs (Table II).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirConfig {
    /// L2 bank access latency for data responses.
    pub l2_latency: Cycles,
    /// Directory/tag access for control responses and forwards.
    pub dir_latency: Cycles,
    /// Off-chip memory latency for lines not yet resident in L2.
    pub mem_latency: Cycles,
}

impl Default for DirConfig {
    fn default() -> Self {
        Self {
            l2_latency: 20,
            dir_latency: 1,
            mem_latency: 200,
        }
    }
}

/// Stable directory states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stable {
    /// No cached copies. `in_l2` distinguishes lines already fetched from
    /// memory (L2 hit) from first-touch lines (memory fetch).
    Uncached { in_l2: bool },
    /// One or more read-only copies; L2 data is current.
    Shared,
    /// A single owner holds the (possibly dirty) line in E or M.
    Owned,
}

/// What the entry is busy doing, which determines the transition applied
/// when the requester's UNBLOCK arrives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BusyKind {
    /// Waiting for memory, then grant data. `is_getx` selects the final
    /// transition (shared vs owned).
    MemFetch { is_getx: bool },
    /// Granted data/permission from L2 on a GETS (exclusive when no other
    /// sharers existed).
    GrantS { exclusive: bool },
    /// Granted data + invalidation fan-out on a GETX in Shared state.
    InvMulticast { targets: SharerSet },
    /// PUNO: single predicted-NACK probe; always concludes unsuccessfully.
    InvUnicast { target: NodeId },
    /// Forwarded a GETS to the owner.
    FwdGets { prev_owner: NodeId },
    /// Forwarded a GETX to the owner (unicast flag only affects the
    /// receiver's conservative-NACK obligation, not the transition).
    FwdGetx { prev_owner: NodeId },
}

#[derive(Clone, Debug)]
struct Busy {
    requester: NodeId,
    kind: BusyKind,
    since: Cycle,
    tx_getx: bool,
}

/// One line's directory state. Requests queued behind a busy entry live
/// out of line in [`DirectoryBank::waiting`]: few entries ever have any, and
/// keeping them out keeps a map slot (key + entry) within one 64 B cache
/// line.
#[derive(Clone, Debug)]
struct Entry {
    state: Stable,
    sharers: SharerSet,
    owner: Option<NodeId>,
    busy: Option<Busy>,
}

impl Entry {
    fn new() -> Self {
        Self {
            state: Stable::Uncached { in_l2: false },
            sharers: SharerSet::EMPTY,
            owner: None,
            busy: None,
        }
    }

    /// The nodes currently holding a copy (sharers or the single owner).
    fn holders(&self) -> SharerSet {
        match self.state {
            Stable::Uncached { .. } => SharerSet::EMPTY,
            Stable::Shared => self.sharers,
            Stable::Owned => self
                .owner
                .map(SharerSet::single)
                .unwrap_or(SharerSet::EMPTY),
        }
    }
}

/// An action the directory asks the surrounding system to perform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirAction {
    /// Send `msg` to `dst`, `delay` cycles from now (models L2/dir access
    /// and, under PUNO, the P-Buffer lookup + unicast decision).
    Send {
        dst: NodeId,
        msg: CoherenceMsg,
        delay: Cycles,
    },
    /// Start a memory fetch; call [`DirectoryBank::mem_ready`] after
    /// `delay` cycles.
    FetchMem { addr: LineAddr, delay: Cycles },
}

/// One home directory bank.
#[derive(Clone)]
pub struct DirectoryBank {
    home: NodeId,
    config: DirConfig,
    entries: LineMap<LineAddr, Entry>,
    /// FIFO of requests that arrived while their line was busy, per line.
    /// A line's queue is kept once made, so a contended line reuses it.
    waiting: LineMap<LineAddr, VecDeque<CoherenceMsg>>,
    stats: DirStats,
}

impl DirectoryBank {
    pub fn new(home: NodeId, config: DirConfig) -> Self {
        Self {
            home,
            config,
            // Both maps start at the minimum and grow amortized to the lines
            // this bank is home to: most banks of a big mesh see few.
            entries: LineMap::new(),
            waiting: LineMap::new(),
            stats: DirStats::default(),
        }
    }

    pub fn stats(&self) -> &DirStats {
        &self.stats
    }

    pub fn home(&self) -> NodeId {
        self.home
    }

    /// Debug/test visibility: current holders of a line.
    pub fn holders_of(&self, addr: LineAddr) -> SharerSet {
        self.entries
            .get(addr)
            .map(|e| e.holders())
            .unwrap_or(SharerSet::EMPTY)
    }

    /// Debug/test visibility: current owner of a line.
    pub fn owner_of(&self, addr: LineAddr) -> Option<NodeId> {
        let e = self.entries.get(addr)?;
        (e.state == Stable::Owned).then_some(e.owner).flatten()
    }

    /// Debug/test visibility: is the entry busy?
    pub fn is_busy(&self, addr: LineAddr) -> bool {
        self.entries.get(addr).is_some_and(|e| e.busy.is_some())
    }

    /// Coarse line state for the typed trace's `DirState` transition event:
    /// the stable state plus whether a service episode is in flight.
    pub fn trace_state(&self, addr: LineAddr) -> (puno_sim::DirLineState, bool) {
        match self.entries.get(addr) {
            None => (puno_sim::DirLineState::Uncached, false),
            Some(e) => {
                let state = match e.state {
                    Stable::Uncached { .. } => puno_sim::DirLineState::Uncached,
                    Stable::Shared => puno_sim::DirLineState::Shared,
                    Stable::Owned => puno_sim::DirLineState::Owned,
                };
                (state, e.busy.is_some())
            }
        }
    }

    /// Process a message addressed to this home bank.
    ///
    /// Allocation-per-call wrapper over [`DirectoryBank::handle_into`]; hot
    /// loops should hold a reusable scratch buffer and call that directly.
    pub fn handle<P: UnicastPredictor>(
        &mut self,
        now: Cycle,
        msg: CoherenceMsg,
        predictor: &mut P,
    ) -> Vec<DirAction> {
        let mut actions = Vec::new();
        self.handle_into(now, msg, predictor, &mut actions);
        actions
    }

    /// Process a message addressed to this home bank, appending the
    /// resulting actions to `actions` (not cleared: the caller owns the
    /// buffer lifecycle) in the same deterministic order [`Self::handle`]
    /// returns them.
    pub fn handle_into<P: UnicastPredictor>(
        &mut self,
        now: Cycle,
        msg: CoherenceMsg,
        predictor: &mut P,
        actions: &mut Vec<DirAction>,
    ) {
        self.dispatch(now, msg, predictor, actions);
    }

    /// Memory fetch for `addr` finished: grant data to the waiting requester.
    ///
    /// Allocation-per-call wrapper over [`DirectoryBank::mem_ready_into`].
    pub fn mem_ready<P: UnicastPredictor>(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        predictor: &mut P,
    ) -> Vec<DirAction> {
        let mut actions = Vec::new();
        self.mem_ready_into(now, addr, predictor, &mut actions);
        actions
    }

    /// Memory fetch completion, emitting into a caller-provided buffer.
    pub fn mem_ready_into<P: UnicastPredictor>(
        &mut self,
        _now: Cycle,
        addr: LineAddr,
        _predictor: &mut P,
        actions: &mut Vec<DirAction>,
    ) {
        let entry = self
            .entries
            .get_mut(addr)
            .expect("mem_ready for unknown line");
        let busy = entry.busy.as_mut().expect("mem_ready for non-busy line");
        let BusyKind::MemFetch { is_getx } = busy.kind else {
            panic!("mem_ready while not fetching");
        };
        entry.state = Stable::Uncached { in_l2: true };
        // Either way the requester becomes the exclusive holder: a GETS to
        // an uncached line grants E, a GETX grants M.
        busy.kind = if is_getx {
            BusyKind::InvMulticast {
                targets: SharerSet::EMPTY,
            }
        } else {
            BusyKind::GrantS { exclusive: true }
        };
        let requester = busy.requester;
        actions.push(DirAction::Send {
            dst: requester,
            msg: CoherenceMsg::Data {
                addr,
                from: self.home,
                acks_expected: 0,
                exclusive: true,
                owner_kept: false,
            },
            delay: 0,
        });
    }

    fn dispatch<P: UnicastPredictor>(
        &mut self,
        now: Cycle,
        msg: CoherenceMsg,
        predictor: &mut P,
        actions: &mut Vec<DirAction>,
    ) {
        // P-Buffer learns the priority of every transactional requester.
        if let CoherenceMsg::Gets {
            requester,
            tx: Some(info),
            ..
        }
        | CoherenceMsg::Getx {
            requester,
            tx: Some(info),
            ..
        } = &msg
        {
            predictor.observe_request(now, *requester, info);
        }

        match msg {
            CoherenceMsg::Gets { .. }
            | CoherenceMsg::Getx { .. }
            | CoherenceMsg::Putx { .. }
            | CoherenceMsg::Puts { .. } => {
                let addr = msg.addr();
                let entry = self.entries.get_or_insert_with(addr, Entry::new);
                if entry.busy.is_some() {
                    self.waiting
                        .get_or_insert_with(addr, VecDeque::new)
                        .push_back(msg);
                    self.stats.queued_requests.inc();
                } else {
                    self.service(now, msg, predictor, actions);
                }
            }
            CoherenceMsg::Unblock {
                addr,
                requester,
                success,
                nackers,
                mp_node,
                tx,
            } => {
                // Unblocks refresh the P-Buffer too (Figure 7: every
                // transactional coherence message carries {node, priority}).
                if let Some(info) = &tx {
                    predictor.observe_request(now, requester, info);
                }
                self.on_unblock(
                    now, addr, requester, success, nackers, mp_node, predictor, actions,
                );
            }
            CoherenceMsg::WbData { addr, .. } => {
                // Sharing writeback from a downgrading owner: refreshes the
                // L2 copy; no state transition (the UNBLOCK carries it).
                if let Some(entry) = self.entries.get_mut(addr) {
                    if let Stable::Uncached { in_l2 } = &mut entry.state {
                        *in_l2 = true;
                    }
                }
            }
            other => panic!("directory received unexpected message: {other:?}"),
        }
    }

    /// Service a request against a non-busy entry.
    fn service<P: UnicastPredictor>(
        &mut self,
        now: Cycle,
        msg: CoherenceMsg,
        predictor: &mut P,
        actions: &mut Vec<DirAction>,
    ) {
        match msg {
            CoherenceMsg::Gets {
                addr,
                requester,
                tx,
            } => {
                self.stats.gets_received.inc();
                self.service_gets(now, addr, requester, tx, actions);
            }
            CoherenceMsg::Getx {
                addr,
                requester,
                tx,
            } => {
                self.stats.getx_received.inc();
                self.service_getx(now, addr, requester, tx, predictor, actions);
            }
            CoherenceMsg::Putx {
                addr,
                owner,
                sticky,
            }
            | CoherenceMsg::Puts {
                addr,
                owner,
                sticky,
            } => {
                self.stats.putx_received.inc();
                self.service_putx(addr, owner, sticky, actions);
            }
            other => panic!("service() on non-request: {other:?}"),
        }
    }

    fn service_gets(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        requester: NodeId,
        tx: Option<TxInfo>,
        actions: &mut Vec<DirAction>,
    ) {
        let home = self.home;
        let config = self.config;
        let entry = self.entries.get_mut(addr).unwrap();
        match entry.state {
            Stable::Uncached { in_l2: false } => {
                entry.busy = Some(Busy {
                    requester,
                    kind: BusyKind::MemFetch { is_getx: false },
                    since: now,
                    tx_getx: false,
                });
                self.stats.mem_fetches.inc();
                actions.push(DirAction::FetchMem {
                    addr,
                    delay: config.mem_latency,
                });
            }
            Stable::Uncached { in_l2: true } => {
                entry.busy = Some(Busy {
                    requester,
                    kind: BusyKind::GrantS { exclusive: true },
                    since: now,
                    tx_getx: false,
                });
                actions.push(DirAction::Send {
                    dst: requester,
                    msg: CoherenceMsg::Data {
                        addr,
                        from: home,
                        acks_expected: 0,
                        exclusive: true,
                        owner_kept: false,
                    },
                    delay: config.l2_latency,
                });
            }
            Stable::Shared => {
                entry.busy = Some(Busy {
                    requester,
                    kind: BusyKind::GrantS { exclusive: false },
                    since: now,
                    tx_getx: false,
                });
                actions.push(DirAction::Send {
                    dst: requester,
                    msg: CoherenceMsg::Data {
                        addr,
                        from: home,
                        acks_expected: 0,
                        exclusive: false,
                        owner_kept: false,
                    },
                    delay: config.l2_latency,
                });
            }
            Stable::Owned => {
                let owner = entry.owner.expect("owned entry without owner");
                entry.busy = Some(Busy {
                    requester,
                    kind: BusyKind::FwdGets { prev_owner: owner },
                    since: now,
                    tx_getx: false,
                });
                actions.push(DirAction::Send {
                    dst: owner,
                    msg: CoherenceMsg::FwdGets {
                        addr,
                        requester,
                        tx,
                    },
                    delay: config.dir_latency,
                });
            }
        }
    }

    fn service_getx<P: UnicastPredictor>(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        requester: NodeId,
        tx: Option<TxInfo>,
        predictor: &mut P,
        actions: &mut Vec<DirAction>,
    ) {
        let home = self.home;
        let config = self.config;
        let is_tx = tx.is_some();
        // Compute the holder set before borrowing the entry mutably for the
        // busy update, because the predictor also needs it.
        let (state, holders, owner) = {
            let entry = self.entries.get_mut(addr).unwrap();
            (entry.state, entry.holders(), entry.owner)
        };
        match state {
            Stable::Uncached { in_l2: false } => {
                let entry = self.entries.get_mut(addr).unwrap();
                entry.busy = Some(Busy {
                    requester,
                    kind: BusyKind::MemFetch { is_getx: true },
                    since: now,
                    tx_getx: is_tx,
                });
                self.stats.mem_fetches.inc();
                actions.push(DirAction::FetchMem {
                    addr,
                    delay: config.mem_latency,
                });
            }
            Stable::Uncached { in_l2: true } => {
                let entry = self.entries.get_mut(addr).unwrap();
                entry.busy = Some(Busy {
                    requester,
                    kind: BusyKind::InvMulticast {
                        targets: SharerSet::EMPTY,
                    },
                    since: now,
                    tx_getx: is_tx,
                });
                actions.push(DirAction::Send {
                    dst: requester,
                    msg: CoherenceMsg::Data {
                        addr,
                        from: home,
                        acks_expected: 0,
                        exclusive: true,
                        owner_kept: false,
                    },
                    delay: config.l2_latency,
                });
            }
            Stable::Shared => {
                let mut targets = holders;
                targets.remove(requester);
                if targets.is_empty() {
                    // Requester is the only sharer: pure upgrade.
                    let entry = self.entries.get_mut(addr).unwrap();
                    entry.busy = Some(Busy {
                        requester,
                        kind: BusyKind::InvMulticast { targets },
                        since: now,
                        tx_getx: is_tx,
                    });
                    let msg = if holders.contains(requester) {
                        CoherenceMsg::UpgradeAck {
                            addr,
                            from: home,
                            acks_expected: 0,
                        }
                    } else {
                        CoherenceMsg::Data {
                            addr,
                            from: home,
                            acks_expected: 0,
                            exclusive: true,
                            owner_kept: false,
                        }
                    };
                    let delay = if matches!(msg, CoherenceMsg::Data { .. }) {
                        config.l2_latency
                    } else {
                        config.dir_latency
                    };
                    actions.push(DirAction::Send {
                        dst: requester,
                        msg,
                        delay,
                    });
                    return;
                }
                // PUNO decision point: predicted-NACK unicast?
                let predicted = tx.as_ref().and_then(|info| {
                    predictor.predict_unicast(now, addr, requester, info, targets, false)
                });
                if let Some(target) = predicted {
                    debug_assert!(targets.contains(target.node));
                    let entry = self.entries.get_mut(addr).unwrap();
                    entry.busy = Some(Busy {
                        requester,
                        kind: BusyKind::InvUnicast {
                            target: target.node,
                        },
                        since: now,
                        tx_getx: is_tx,
                    });
                    self.stats.unicasts_sent.inc();
                    actions.push(DirAction::Send {
                        dst: target.node,
                        msg: CoherenceMsg::Inv {
                            addr,
                            requester,
                            tx,
                            unicast: true,
                        },
                        delay: config.dir_latency + predictor.decision_latency(),
                    });
                } else {
                    let entry = self.entries.get_mut(addr).unwrap();
                    entry.busy = Some(Busy {
                        requester,
                        kind: BusyKind::InvMulticast { targets },
                        since: now,
                        tx_getx: is_tx,
                    });
                    let fan_out = targets.len();
                    self.stats.invalidations_sent.add(fan_out as u64);
                    let fwd_delay = config.dir_latency + predictor.decision_latency();
                    for sharer in targets.iter() {
                        actions.push(DirAction::Send {
                            dst: sharer,
                            msg: CoherenceMsg::Inv {
                                addr,
                                requester,
                                tx,
                                unicast: false,
                            },
                            delay: fwd_delay,
                        });
                    }
                    // Data or upgrade permission, carrying the ack count.
                    let msg = if holders.contains(requester) {
                        CoherenceMsg::UpgradeAck {
                            addr,
                            from: home,
                            acks_expected: fan_out,
                        }
                    } else {
                        CoherenceMsg::Data {
                            addr,
                            from: home,
                            acks_expected: fan_out,
                            exclusive: true,
                            owner_kept: false,
                        }
                    };
                    let delay = if matches!(msg, CoherenceMsg::Data { .. }) {
                        config.l2_latency
                    } else {
                        config.dir_latency
                    };
                    actions.push(DirAction::Send {
                        dst: requester,
                        msg,
                        delay,
                    });
                }
            }
            Stable::Owned => {
                let prev_owner = owner.expect("owned entry without owner");
                // The owner-state forward is a single message either way;
                // PUNO may still mark it with the U-bit so a predicted-NACK
                // conflict resolves with a notification instead of an abort.
                let predicted = tx.as_ref().and_then(|info| {
                    predictor.predict_unicast(
                        now,
                        addr,
                        requester,
                        info,
                        SharerSet::single(prev_owner),
                        true,
                    )
                });
                let unicast = predicted.is_some();
                if unicast {
                    self.stats.unicasts_sent.inc();
                }
                let entry = self.entries.get_mut(addr).unwrap();
                entry.busy = Some(Busy {
                    requester,
                    kind: BusyKind::FwdGetx { prev_owner },
                    since: now,
                    tx_getx: is_tx,
                });
                actions.push(DirAction::Send {
                    dst: prev_owner,
                    msg: CoherenceMsg::FwdGetx {
                        addr,
                        requester,
                        tx,
                        unicast,
                    },
                    delay: config.dir_latency + predictor.decision_latency(),
                });
            }
        }
    }

    fn service_putx(
        &mut self,
        addr: LineAddr,
        owner: NodeId,
        sticky: crate::msg::StickyKind,
        actions: &mut Vec<DirAction>,
    ) {
        let delay = self.config.dir_latency;
        let entry = self.entries.get_mut(addr).unwrap();
        if entry.state == Stable::Owned && entry.owner == Some(owner) {
            match sticky {
                // LogTM-style sticky-M: data is written back (L2 current)
                // but the node stays the logical owner, so conflict checks
                // keep being forwarded to its write set.
                crate::msg::StickyKind::Writer => {}
                // Sticky sharer: the evictor stays in the sharer list so
                // writers' invalidations still reach its read set; data
                // serves from L2.
                crate::msg::StickyKind::Reader => {
                    entry.state = Stable::Shared;
                    entry.sharers = SharerSet::single(owner);
                    entry.owner = None;
                }
                crate::msg::StickyKind::None => {
                    entry.state = Stable::Uncached { in_l2: true };
                    entry.owner = None;
                    entry.sharers = SharerSet::EMPTY;
                }
            }
        }
        // Stale PUTX (ownership already moved on): just ack so the evicting
        // node can free its writeback buffer.
        actions.push(DirAction::Send {
            dst: owner,
            msg: CoherenceMsg::WbAck { addr },
            delay,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn on_unblock<P: UnicastPredictor>(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        requester: NodeId,
        success: bool,
        nackers: SharerSet,
        mp_node: Option<NodeId>,
        predictor: &mut P,
        actions: &mut Vec<DirAction>,
    ) {
        let (holders, tx_getx, blocked_for) = {
            let entry = self
                .entries
                .get_mut(addr)
                .expect("unblock for unknown line");
            let busy = entry.busy.take().expect("unblock for non-busy line");
            assert_eq!(
                busy.requester, requester,
                "unblock from a node that is not the current requester"
            );
            let blocked_for = now - busy.since;

            match busy.kind {
                BusyKind::MemFetch { .. } => unreachable!("unblock during memory fetch"),
                BusyKind::GrantS { exclusive } => {
                    debug_assert!(success, "data grants cannot fail");
                    if exclusive {
                        entry.state = Stable::Owned;
                        entry.owner = Some(requester);
                        entry.sharers = SharerSet::EMPTY;
                    } else {
                        entry.state = Stable::Shared;
                        entry.sharers.insert(requester);
                    }
                }
                BusyKind::InvMulticast { targets } => {
                    if success {
                        entry.state = Stable::Owned;
                        entry.owner = Some(requester);
                        entry.sharers = SharerSet::EMPTY;
                    } else {
                        // Sharers that acked have invalidated; nackers keep
                        // their copies. The requester keeps its S copy iff it
                        // had one (upgrade attempt).
                        let kept_requester = entry.sharers.intersect(SharerSet::single(requester));
                        let remaining = nackers.intersect(targets).union(kept_requester);
                        if remaining.is_empty() {
                            entry.state = Stable::Uncached { in_l2: true };
                            entry.sharers = SharerSet::EMPTY;
                        } else {
                            entry.state = Stable::Shared;
                            entry.sharers = remaining;
                        }
                    }
                }
                BusyKind::InvUnicast { .. } => {
                    debug_assert!(!success, "unicast probes always conclude nacked");
                    // No sharer state changes: nobody was invalidated.
                }
                BusyKind::FwdGets { prev_owner } => {
                    if success {
                        // `nackers` doubles as the owner-kept relay: the
                        // requester inserts the previous owner when the Data
                        // it received said the owner downgraded (kept).
                        let owner_kept = nackers.contains(prev_owner);
                        entry.state = Stable::Shared;
                        entry.sharers = SharerSet::single(requester);
                        entry.owner = None;
                        if owner_kept {
                            entry.sharers.insert(prev_owner);
                        }
                    }
                    // On failure (owner nacked): unchanged, owner keeps M.
                }
                BusyKind::FwdGetx { .. } => {
                    if success {
                        entry.state = Stable::Owned;
                        entry.owner = Some(requester);
                        entry.sharers = SharerSet::EMPTY;
                    }
                }
            }
            (entry.holders(), busy.tx_getx, blocked_for)
        };

        if tx_getx {
            self.stats.blocking_cycles_tx_getx.record(blocked_for);
        }

        if let Some(node) = mp_node {
            predictor.on_mispredict_feedback(now, addr, node);
        }
        // Off the critical path: refresh the UD pointer for this entry.
        predictor.after_service(now, addr, holders);

        // Drain queued requests until one blocks the entry again.
        while self.entries.get(addr).unwrap().busy.is_none() {
            let Some(next) = self.waiting.get_mut(addr).and_then(VecDeque::pop_front) else {
                break;
            };
            self.service(now, next, predictor, actions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::StickyKind;
    use crate::predictor::{NullPredictor, PredictedTarget};
    use puno_sim::{StaticTxId, Timestamp, TxId};

    const HOME: NodeId = NodeId(0);

    #[test]
    fn a_directory_slot_fits_one_cache_line() {
        assert!(LineMap::<LineAddr, Entry>::slot_bytes() <= 64);
    }

    fn bank() -> DirectoryBank {
        DirectoryBank::new(HOME, DirConfig::default())
    }

    fn info(ts: u64) -> TxInfo {
        TxInfo {
            tx: TxId(ts),
            timestamp: Timestamp(ts),
            static_tx: StaticTxId(0),
            avg_len_hint: 100,
        }
    }

    fn gets(addr: u64, req: u16) -> CoherenceMsg {
        CoherenceMsg::Gets {
            addr: LineAddr(addr),
            requester: NodeId(req),
            tx: Some(info(req as u64 + 10)),
        }
    }

    fn getx(addr: u64, req: u16, ts: u64) -> CoherenceMsg {
        CoherenceMsg::Getx {
            addr: LineAddr(addr),
            requester: NodeId(req),
            tx: Some(info(ts)),
        }
    }

    fn unblock(addr: u64, req: u16, success: bool, nackers: SharerSet) -> CoherenceMsg {
        CoherenceMsg::Unblock {
            addr: LineAddr(addr),
            requester: NodeId(req),
            success,
            nackers,
            mp_node: None,
            tx: None,
        }
    }

    /// Bring a line into Shared state with the given sharers.
    fn make_shared(bank: &mut DirectoryBank, addr: u64, sharers: &[u16]) {
        let mut p = NullPredictor;
        // First GETS: memory fetch, E grant; unblock; then the node is the
        // owner. Subsequent GETS go through FwdGets. To seed a plain shared
        // set conveniently we drive the protocol messages in order.
        for (i, &s) in sharers.iter().enumerate() {
            let acts = bank.handle(0, gets(addr, s), &mut p);
            if i == 0 {
                // Memory fetch path.
                assert!(matches!(acts[0], DirAction::FetchMem { .. }));
                bank.mem_ready(200, LineAddr(addr), &mut p);
                bank.handle(210, unblock(addr, s, true, SharerSet::EMPTY), &mut p);
            } else if i == 1 {
                // Forwarded to the E owner; owner keeps a copy.
                assert!(matches!(
                    acts[0],
                    DirAction::Send {
                        msg: CoherenceMsg::FwdGets { .. },
                        ..
                    }
                ));
                // Requester relays owner_kept by inserting prev owner into
                // the nackers mask.
                bank.handle(
                    220,
                    unblock(addr, s, true, SharerSet::single(NodeId(sharers[0]))),
                    &mut p,
                );
            } else {
                bank.handle(230, unblock(addr, s, true, SharerSet::EMPTY), &mut p);
            }
        }
    }

    #[test]
    fn first_touch_fetches_memory_and_grants_exclusive() {
        let mut bank = bank();
        let mut p = NullPredictor;
        let acts = bank.handle(0, gets(7, 3), &mut p);
        assert_eq!(
            acts,
            vec![DirAction::FetchMem {
                addr: LineAddr(7),
                delay: 200
            }]
        );
        assert!(bank.is_busy(LineAddr(7)));
        let acts = bank.mem_ready(200, LineAddr(7), &mut p);
        match &acts[0] {
            DirAction::Send {
                dst,
                msg:
                    CoherenceMsg::Data {
                        exclusive,
                        acks_expected,
                        ..
                    },
                ..
            } => {
                assert_eq!(*dst, NodeId(3));
                assert!(*exclusive);
                assert_eq!(*acks_expected, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        bank.handle(220, unblock(7, 3, true, SharerSet::EMPTY), &mut p);
        assert_eq!(bank.owner_of(LineAddr(7)), Some(NodeId(3)));
        assert!(!bank.is_busy(LineAddr(7)));
    }

    #[test]
    fn shared_getx_multicasts_invalidations() {
        let mut bank = bank();
        let mut p = NullPredictor;
        make_shared(&mut bank, 5, &[1, 2, 3]);
        assert_eq!(bank.holders_of(LineAddr(5)).len(), 3);

        let acts = bank.handle(300, getx(5, 4, 1), &mut p);
        let invs: Vec<_> = acts
            .iter()
            .filter_map(|a| match a {
                DirAction::Send {
                    dst,
                    msg: CoherenceMsg::Inv { unicast, .. },
                    ..
                } => Some((*dst, *unicast)),
                _ => None,
            })
            .collect();
        assert_eq!(
            invs,
            vec![(NodeId(1), false), (NodeId(2), false), (NodeId(3), false)]
        );
        // Data to requester carries acks_expected = 3.
        let data = acts
            .iter()
            .find_map(|a| match a {
                DirAction::Send {
                    msg: CoherenceMsg::Data { acks_expected, .. },
                    dst,
                    ..
                } => Some((*dst, *acks_expected)),
                _ => None,
            })
            .unwrap();
        assert_eq!(data, (NodeId(4), 3));

        // All sharers abort/ack; requester succeeds.
        bank.handle(350, unblock(5, 4, true, SharerSet::EMPTY), &mut p);
        assert_eq!(bank.owner_of(LineAddr(5)), Some(NodeId(4)));
    }

    #[test]
    fn failed_getx_keeps_nackers_in_sharer_list() {
        let mut bank = bank();
        let mut p = NullPredictor;
        make_shared(&mut bank, 5, &[1, 2, 3]);
        bank.handle(300, getx(5, 4, 100), &mut p);
        // Sharer 1 nacked; 2 and 3 acked (aborted and invalidated).
        bank.handle(
            350,
            unblock(5, 4, false, SharerSet::single(NodeId(1))),
            &mut p,
        );
        let holders = bank.holders_of(LineAddr(5));
        assert!(holders.contains(NodeId(1)));
        assert!(!holders.contains(NodeId(2)));
        assert!(!holders.contains(NodeId(3)));
        assert_eq!(bank.owner_of(LineAddr(5)), None);
    }

    #[test]
    fn upgrade_from_sole_sharer_needs_no_invalidation() {
        let mut bank = bank();
        let mut p = NullPredictor;
        make_shared(&mut bank, 9, &[2]);
        // Node 2's own copy is E-owned after a single GETS... force Shared
        // by adding and failing-out another sharer is complex; instead use
        // two sharers then have one acked away.
        make_shared(&mut bank, 11, &[2, 5]);
        let acts = bank.handle(400, getx(11, 2, 1), &mut p);
        // Only one Inv (to node 5); requester gets UpgradeAck, not Data.
        let n_inv = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    DirAction::Send {
                        msg: CoherenceMsg::Inv { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(n_inv, 1);
        assert!(acts.iter().any(|a| matches!(
            a,
            DirAction::Send {
                msg: CoherenceMsg::UpgradeAck { acks_expected: 1, .. },
                dst,
                ..
            } if *dst == NodeId(2)
        )));
        bank.handle(450, unblock(11, 2, true, SharerSet::EMPTY), &mut p);
        assert_eq!(bank.owner_of(LineAddr(11)), Some(NodeId(2)));
    }

    #[test]
    fn requests_queue_behind_busy_entry() {
        let mut bank = bank();
        let mut p = NullPredictor;
        make_shared(&mut bank, 6, &[1, 2]);
        let _ = bank.handle(300, getx(6, 3, 50), &mut p);
        // Entry busy: a competing GETS must queue, not be serviced.
        let acts = bank.handle(310, gets(6, 4), &mut p);
        assert!(acts.is_empty());
        assert_eq!(bank.stats().queued_requests.get(), 1);
        // Unblock releases the queue: the queued GETS is serviced.
        let acts = bank.handle(400, unblock(6, 3, true, SharerSet::EMPTY), &mut p);
        assert!(acts.iter().any(|a| matches!(
            a,
            DirAction::Send {
                msg: CoherenceMsg::FwdGets { .. },
                ..
            }
        )));
    }

    #[test]
    fn blocking_cycles_accounted_per_tx_getx() {
        let mut bank = bank();
        let mut p = NullPredictor;
        make_shared(&mut bank, 6, &[1, 2]);
        bank.handle(300, getx(6, 3, 50), &mut p);
        bank.handle(400, unblock(6, 3, true, SharerSet::EMPTY), &mut p);
        assert_eq!(bank.stats().blocking_cycles_tx_getx.count(), 1);
        assert_eq!(bank.stats().blocking_cycles_tx_getx.sum(), 100);
    }

    /// Predictor that always unicasts to a fixed node.
    struct FixedPredictor(NodeId);
    impl UnicastPredictor for FixedPredictor {
        fn observe_request(&mut self, _: Cycle, _: NodeId, _: &TxInfo) {}
        fn predict_unicast(
            &mut self,
            _: Cycle,
            _: LineAddr,
            _: NodeId,
            _: &TxInfo,
            holders: SharerSet,
            _: bool,
        ) -> Option<PredictedTarget> {
            holders
                .contains(self.0)
                .then_some(PredictedTarget { node: self.0 })
        }
        fn on_mispredict_feedback(&mut self, _: Cycle, _: LineAddr, _: NodeId) {}
        fn after_service(&mut self, _: Cycle, _: LineAddr, _: SharerSet) {}
        fn decision_latency(&self) -> Cycle {
            2
        }
    }

    #[test]
    fn unicast_probe_reaches_only_the_predicted_sharer() {
        let mut bank = bank();
        let p = NullPredictor;
        make_shared(&mut bank, 8, &[1, 2, 3]);
        let mut fp = FixedPredictor(NodeId(2));
        let acts = bank.handle(500, getx(8, 4, 999), &mut fp);
        // Exactly one send: the U-bit Inv to node 2, with +2 cycle decision
        // latency on top of the 1-cycle dir access.
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            DirAction::Send {
                dst,
                msg: CoherenceMsg::Inv { unicast, .. },
                delay,
            } => {
                assert_eq!(*dst, NodeId(2));
                assert!(*unicast);
                assert_eq!(*delay, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(bank.stats().unicasts_sent.get(), 1);
        // The episode concludes nacked; sharer list must be intact.
        bank.handle(
            550,
            unblock(8, 4, false, SharerSet::single(NodeId(2))),
            &mut fp,
        );
        assert_eq!(bank.holders_of(LineAddr(8)).len(), 3);
        let _ = p;
    }

    #[test]
    fn owned_getx_forwards_to_owner() {
        let mut bank = bank();
        let mut p = NullPredictor;
        make_shared(&mut bank, 3, &[5]); // node 5 is E owner
        let acts = bank.handle(300, getx(3, 6, 42), &mut p);
        assert!(matches!(
            &acts[0],
            DirAction::Send {
                dst,
                msg: CoherenceMsg::FwdGetx { unicast: false, .. },
                ..
            } if *dst == NodeId(5)
        ));
        bank.handle(350, unblock(3, 6, true, SharerSet::EMPTY), &mut p);
        assert_eq!(bank.owner_of(LineAddr(3)), Some(NodeId(6)));
    }

    #[test]
    fn putx_from_owner_returns_line_to_l2() {
        let mut bank = bank();
        let mut p = NullPredictor;
        make_shared(&mut bank, 3, &[5]); // node 5 is E owner
        let acts = bank.handle(
            400,
            CoherenceMsg::Putx {
                addr: LineAddr(3),
                owner: NodeId(5),
                sticky: StickyKind::None,
            },
            &mut p,
        );
        assert!(matches!(
            acts[0],
            DirAction::Send {
                msg: CoherenceMsg::WbAck { .. },
                ..
            }
        ));
        assert_eq!(bank.owner_of(LineAddr(3)), None);
        // Next GETS hits in L2, no memory fetch.
        let acts = bank.handle(410, gets(3, 7), &mut p);
        assert!(matches!(
            acts[0],
            DirAction::Send {
                msg: CoherenceMsg::Data {
                    exclusive: true,
                    ..
                },
                delay: 20,
                ..
            }
        ));
    }

    #[test]
    fn stale_putx_is_acked_and_ignored() {
        let mut bank = bank();
        let mut p = NullPredictor;
        make_shared(&mut bank, 3, &[5]);
        // Ownership moves to node 6.
        bank.handle(300, getx(3, 6, 1), &mut p);
        bank.handle(350, unblock(3, 6, true, SharerSet::EMPTY), &mut p);
        // Node 5's in-flight PUTX arrives late.
        let acts = bank.handle(
            360,
            CoherenceMsg::Putx {
                addr: LineAddr(3),
                owner: NodeId(5),
                sticky: StickyKind::None,
            },
            &mut p,
        );
        assert!(matches!(
            acts[0],
            DirAction::Send {
                msg: CoherenceMsg::WbAck { .. },
                dst,
                ..
            } if dst == NodeId(5)
        ));
        assert_eq!(bank.owner_of(LineAddr(3)), Some(NodeId(6)));
    }

    #[test]
    fn fwd_gets_success_tracks_owner_kept() {
        let mut bank = bank();
        let mut p = NullPredictor;
        make_shared(&mut bank, 4, &[8]); // node 8 E owner
        bank.handle(300, gets(4, 9), &mut p);
        // Owner aborted/invalidated: nackers mask does NOT contain node 8.
        bank.handle(350, unblock(4, 9, true, SharerSet::EMPTY), &mut p);
        let holders = bank.holders_of(LineAddr(4));
        assert!(holders.contains(NodeId(9)));
        assert!(!holders.contains(NodeId(8)));
    }
}
