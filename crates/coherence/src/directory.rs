//! Home-node directory bank: a blocking MESI directory in the style of the
//! SGI Origin / GEMS `MESI_CMP_directory` protocol the paper builds on.
//!
//! Each memory line has a static home bank (`home_node`). The bank tracks,
//! per line: the stable state (uncached / shared / owned), one holder set
//! (the sharers, or the owner as its single member), and — while a request
//! is in flight — a transient *busy* record. Requests arriving for a busy
//! line wait in a FIFO at the home and are serviced in order when the
//! current episode's UNBLOCK arrives. The cycles an entry spends busy
//! servicing a transactional GETX are accumulated for the paper's Figure 12.
//! DESIGN §3 states every transition as two tables, which a test here
//! checks row by row.
//!
//! PUNO hooks in at exactly one decision point (`unicast_target`): when a
//! transactional GETX is about to be forwarded to the current holders, the
//! bank consults a [`UnicastPredictor`]. If the predictor names a target,
//! the bank sends one `Inv`/`FwdGetx` with the U-bit set instead of the
//! exhaustive multicast, and the episode concludes through the NACK/UNBLOCK
//! path without disturbing the other sharers (Section III-A, Figure 4(b)).

use crate::msg::{CoherenceMsg, StickyKind, TxInfo};
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
/// when the requester's UNBLOCK arrives. It names no node: the holders
/// cannot change while the line is busy (every request queues, and
/// `WbData` touches only `in_l2`), so the entry's holder set still says
/// who was invalidated or forwarded to when the UNBLOCK arrives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BusyKind {
    /// Waiting for memory; [`DirectoryBank::mem_ready`] then grants the
    /// requester the line exclusively and the episode goes on as
    /// `GrantOwned`.
    MemFetch,
    /// Granted a GETS shared data from L2: the requester joins the sharers.
    GrantShared,
    /// Granted the requester the line exclusively (E on a GETS, M on a
    /// GETX), invalidating every other holder (none on an uncached line).
    GrantOwned,
    /// PUNO: single predicted-NACK probe; always concludes unsuccessfully.
    InvUnicast,
    /// Forwarded a GETS to the owner.
    FwdGets,
    /// Forwarded a GETX to the owner (unicast flag only affects the
    /// receiver's conservative-NACK obligation, not the transition).
    FwdGetx,
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
    /// The nodes holding a copy: the sharers when `Shared`, the owner as
    /// the single member when `Owned`, empty when `Uncached`.
    holders: SharerSet,
    busy: Option<Busy>,
}

impl Entry {
    fn new() -> Self {
        Self {
            state: Stable::Uncached { in_l2: false },
            holders: SharerSet::EMPTY,
            busy: None,
        }
    }

    /// The owner of an `Owned` line: its holder set's one member.
    fn owner(&self) -> Option<NodeId> {
        (self.state == Stable::Owned)
            .then(|| self.holders.iter().next())
            .flatten()
    }

    /// The requester becomes the one holder, in E or M.
    fn grant_owned(&mut self, requester: NodeId) {
        self.state = Stable::Owned;
        self.holders = SharerSet::single(requester);
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
            .map_or(SharerSet::EMPTY, |e| e.holders)
    }

    /// Debug/test visibility: current owner of a line.
    pub fn owner_of(&self, addr: LineAddr) -> Option<NodeId> {
        self.entries.get(addr)?.owner()
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
        // The P-Buffer learns the priority of every transactional requester;
        // unblocks refresh it too (Figure 7: every transactional coherence
        // message carries {node, priority}).
        if let CoherenceMsg::Gets {
            requester,
            tx: Some(info),
            ..
        }
        | CoherenceMsg::Getx {
            requester,
            tx: Some(info),
            ..
        }
        | CoherenceMsg::Unblock {
            requester,
            tx: Some(info),
            ..
        } = &msg
        {
            predictor.observe_request(now, *requester, info);
        }

        match msg {
            CoherenceMsg::Unblock { .. } => self.on_unblock(now, msg, predictor, actions),
            CoherenceMsg::WbData { addr, .. } => {
                // Sharing writeback from a downgrading owner: refreshes the
                // L2 copy; no state transition (the UNBLOCK carries it).
                if let Some(entry) = self.entries.get_mut(addr) {
                    if let Stable::Uncached { in_l2 } = &mut entry.state {
                        *in_l2 = true;
                    }
                }
            }
            CoherenceMsg::Gets { addr, .. }
            | CoherenceMsg::Getx { addr, .. }
            | CoherenceMsg::Putx { addr, .. }
            | CoherenceMsg::Puts { addr, .. } => {
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
            other => panic!("directory received unexpected message: {other:?}"),
        }
    }

    /// Memory fetch for `addr` finished: grant data to the waiting requester.
    ///
    /// Allocation-per-call wrapper over [`DirectoryBank::mem_ready_into`].
    pub fn mem_ready(&mut self, addr: LineAddr) -> Vec<DirAction> {
        let mut actions = Vec::new();
        self.mem_ready_into(addr, &mut actions);
        actions
    }

    /// Memory fetch completion, emitting into a caller-provided buffer.
    pub fn mem_ready_into(&mut self, addr: LineAddr, actions: &mut Vec<DirAction>) {
        let entry = self
            .entries
            .get_mut(addr)
            .expect("mem_ready for unknown line");
        let busy = entry.busy.as_mut().expect("mem_ready for non-busy line");
        assert_eq!(
            busy.kind,
            BusyKind::MemFetch,
            "mem_ready while not fetching"
        );
        entry.state = Stable::Uncached { in_l2: true };
        // Either way the requester becomes the exclusive holder: a GETS to
        // an uncached line grants E, a GETX grants M.
        busy.kind = BusyKind::GrantOwned;
        let requester = busy.requester;
        // The data comes with the fetch: no L2 access on top.
        let (msg, _) = self.grant(addr, false, true, 0);
        actions.push(DirAction::Send {
            dst: requester,
            msg,
            delay: 0,
        });
    }

    /// The home's grant to a requester that must collect `acks_expected`
    /// invalidation answers: an `UpgradeAck` from the directory when a GETX
    /// requester already holds an S copy, else `Data` from L2. Returns the
    /// message and its access latency.
    fn grant(
        &self,
        addr: LineAddr,
        upgrade: bool,
        exclusive: bool,
        acks_expected: u32,
    ) -> (CoherenceMsg, Cycles) {
        let from = self.home;
        if upgrade {
            let msg = CoherenceMsg::UpgradeAck {
                addr,
                from,
                acks_expected,
            };
            (msg, self.config.dir_latency)
        } else {
            let msg = CoherenceMsg::Data {
                addr,
                from,
                acks_expected,
                exclusive,
                owner_kept: false,
            };
            (msg, self.config.l2_latency)
        }
    }

    /// PUNO's one decision point: should this TxGETX go to one predicted
    /// NACKer instead of every node its forward would reach (the sharers
    /// but the requester, or the owner)? Returns that node.
    fn unicast_target<P: UnicastPredictor>(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        requester: NodeId,
        tx: Option<&TxInfo>,
        predictor: &mut P,
    ) -> Option<NodeId> {
        let entry = self.entries.get(addr)?;
        let owned = entry.state == Stable::Owned;
        let targets = if owned {
            entry.holders
        } else {
            entry.holders.difference(SharerSet::single(requester))
        };
        if targets.is_empty() {
            return None;
        }
        let target = predictor.predict_unicast(now, addr, requester, tx?, targets, owned)?;
        debug_assert!(targets.contains(target.node));
        self.stats.unicasts_sent.inc();
        Some(target.node)
    }

    /// Service a request against a non-busy entry: apply its row of the
    /// request table in DESIGN §3. A GETS or GETX opens a service episode,
    /// which holds the line busy until the requester's UNBLOCK.
    fn service<P: UnicastPredictor>(
        &mut self,
        now: Cycle,
        msg: CoherenceMsg,
        predictor: &mut P,
        actions: &mut Vec<DirAction>,
    ) {
        let (addr, requester, tx, getx) = match msg {
            CoherenceMsg::Gets {
                addr,
                requester,
                tx,
            } => {
                self.stats.gets_received.inc();
                (addr, requester, tx, false)
            }
            CoherenceMsg::Getx {
                addr,
                requester,
                tx,
            } => {
                self.stats.getx_received.inc();
                (addr, requester, tx, true)
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
            } => return self.service_put(addr, owner, sticky, actions),
            other => unreachable!("service() on non-request: {other:?}"),
        };
        let config = self.config;
        let entry = self.entries.get(addr).unwrap();
        let (state, holders, owner) = (entry.state, entry.holders, entry.owner());
        let mut send = |dst, msg, delay| actions.push(DirAction::Send { dst, msg, delay });
        let fwd_delay = config.dir_latency + predictor.decision_latency();
        let kind = match (state, getx) {
            (Stable::Uncached { in_l2: false }, _) => {
                self.stats.mem_fetches.inc();
                actions.push(DirAction::FetchMem {
                    addr,
                    delay: config.mem_latency,
                });
                BusyKind::MemFetch
            }
            (Stable::Uncached { in_l2: true }, _) => {
                let (msg, delay) = self.grant(addr, false, true, 0);
                send(requester, msg, delay);
                BusyKind::GrantOwned
            }
            (Stable::Shared, false) => {
                let (msg, delay) = self.grant(addr, false, false, 0);
                send(requester, msg, delay);
                BusyKind::GrantShared
            }
            (Stable::Owned, false) => {
                let owner = owner.expect("owned entry without owner");
                let msg = CoherenceMsg::FwdGets {
                    addr,
                    requester,
                    tx,
                };
                send(owner, msg, config.dir_latency);
                BusyKind::FwdGets
            }
            (Stable::Shared, true) => {
                let targets = holders.difference(SharerSet::single(requester));
                let inv = |unicast| CoherenceMsg::Inv {
                    addr,
                    requester,
                    tx,
                    unicast,
                };
                if let Some(target) =
                    self.unicast_target(now, addr, requester, tx.as_ref(), predictor)
                {
                    send(target, inv(true), fwd_delay);
                    BusyKind::InvUnicast
                } else {
                    let fan_out = targets.len();
                    self.stats.invalidations_sent.add(fan_out as u64);
                    for sharer in targets.iter() {
                        send(sharer, inv(false), fwd_delay);
                    }
                    let (msg, delay) = self.grant(addr, holders.contains(requester), true, fan_out);
                    send(requester, msg, delay);
                    BusyKind::GrantOwned
                }
            }
            (Stable::Owned, true) => {
                // The owner-state forward is a single message either way;
                // PUNO may still mark it with the U-bit so a predicted-NACK
                // conflict resolves with a notification instead of an abort.
                let owner = owner.expect("owned entry without owner");
                let unicast = self
                    .unicast_target(now, addr, requester, tx.as_ref(), predictor)
                    .is_some();
                let msg = CoherenceMsg::FwdGetx {
                    addr,
                    requester,
                    tx,
                    unicast,
                };
                send(owner, msg, fwd_delay);
                BusyKind::FwdGetx
            }
        };
        self.entries.get_mut(addr).unwrap().busy = Some(Busy {
            requester,
            kind,
            since: now,
            tx_getx: getx && tx.is_some(),
        });
    }

    fn service_put(
        &mut self,
        addr: LineAddr,
        owner: NodeId,
        sticky: StickyKind,
        actions: &mut Vec<DirAction>,
    ) {
        self.stats.putx_received.inc();
        let entry = self.entries.get_mut(addr).unwrap();
        if entry.owner() == Some(owner) {
            match sticky {
                // LogTM-style sticky-M: data is written back (L2 current)
                // but the node stays the logical owner, so conflict checks
                // keep being forwarded to its write set.
                StickyKind::Writer => {}
                // Sticky sharer: the evictor stays in the sharer list so
                // writers' invalidations still reach its read set; data
                // serves from L2.
                StickyKind::Reader => entry.state = Stable::Shared,
                StickyKind::None => {
                    entry.state = Stable::Uncached { in_l2: true };
                    entry.holders = SharerSet::EMPTY;
                }
            }
        }
        // Stale PUTX (ownership already moved on): just ack so the evicting
        // node can free its writeback buffer.
        actions.push(DirAction::Send {
            dst: owner,
            msg: CoherenceMsg::WbAck { addr },
            delay: self.config.dir_latency,
        });
    }

    /// Conclude the episode an UNBLOCK closes: apply its row of the UNBLOCK
    /// table in DESIGN §3, pass PUNO's misprediction feedback on, and
    /// service queued requests until one blocks the line again.
    fn on_unblock<P: UnicastPredictor>(
        &mut self,
        now: Cycle,
        unblock: CoherenceMsg,
        predictor: &mut P,
        actions: &mut Vec<DirAction>,
    ) {
        let CoherenceMsg::Unblock {
            addr,
            requester,
            success,
            nackers,
            owner_kept,
            mp_node,
            ..
        } = unblock
        else {
            unreachable!("on_unblock takes an Unblock");
        };
        let entry = self
            .entries
            .get_mut(addr)
            .expect("unblock for unknown line");
        let busy = entry.busy.take().expect("unblock for non-busy line");
        assert_eq!(
            busy.requester, requester,
            "unblock from a node that is not the current requester"
        );
        match (busy.kind, success) {
            (BusyKind::MemFetch, _) => unreachable!("unblock during memory fetch"),
            (BusyKind::GrantShared, _) => {
                debug_assert!(success, "data grants cannot fail");
                entry.state = Stable::Shared;
                entry.holders.insert(requester);
            }
            (BusyKind::GrantOwned | BusyKind::FwdGetx, true) => entry.grant_owned(requester),
            (BusyKind::GrantOwned, false) => {
                // The invalidated were the holders but the requester. Those
                // that acked have dropped their copies; nackers keep theirs.
                // The requester keeps its S copy iff it had one (upgrade
                // attempt).
                let own = SharerSet::single(requester);
                let targets = entry.holders.difference(own);
                entry.holders = nackers
                    .intersect(targets)
                    .union(entry.holders.intersect(own));
                entry.state = if entry.holders.is_empty() {
                    Stable::Uncached { in_l2: true }
                } else {
                    Stable::Shared
                };
            }
            (BusyKind::InvUnicast, _) => {
                debug_assert!(!success, "unicast probes always conclude nacked");
                // No sharer state changes: nobody was invalidated.
            }
            (BusyKind::FwdGets, true) => {
                // The previous owner is still the one holder; it stays a
                // sharer iff it downgraded rather than aborting.
                if !owner_kept {
                    entry.holders = SharerSet::EMPTY;
                }
                entry.state = Stable::Shared;
                entry.holders.insert(requester);
            }
            // The owner nacked: unchanged, it keeps the line.
            (BusyKind::FwdGets | BusyKind::FwdGetx, false) => {}
        }
        let holders = entry.holders;

        if busy.tx_getx {
            self.stats.blocking_cycles_tx_getx.record(now - busy.since);
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
            owner_kept: false,
            mp_node: None,
            tx: None,
        }
    }

    /// The successful unblock of a GETS the owner answered by downgrading.
    fn unblock_owner_kept(addr: u64, req: u16) -> CoherenceMsg {
        CoherenceMsg::Unblock {
            addr: LineAddr(addr),
            requester: NodeId(req),
            success: true,
            nackers: SharerSet::EMPTY,
            owner_kept: true,
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
                bank.mem_ready(LineAddr(addr));
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
                // The owner downgraded and kept a copy.
                bank.handle(220, unblock_owner_kept(addr, s), &mut p);
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
        let acts = bank.mem_ready(LineAddr(7));
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

    fn nodes(ids: &[u16]) -> SharerSet {
        ids.iter().map(|&n| NodeId(n)).collect()
    }

    /// Invalidations sent, in order, and the ack count the requester was
    /// told to wait for.
    fn invs_and_acks(acts: &[DirAction]) -> (Vec<NodeId>, u32) {
        let mut invs = Vec::new();
        let mut acks = None;
        for a in acts {
            match a {
                DirAction::Send {
                    dst,
                    msg: CoherenceMsg::Inv { .. },
                    ..
                } => invs.push(*dst),
                DirAction::Send {
                    msg:
                        CoherenceMsg::Data { acks_expected, .. }
                        | CoherenceMsg::UpgradeAck { acks_expected, .. },
                    ..
                } => acks = Some(*acks_expected),
                _ => {}
            }
        }
        (invs, acks.expect("a grant"))
    }

    /// Sharers in three different words of the holder set: a multicast
    /// reaches every one, and a nacked GETX leaves exactly the nackers
    /// among those it invalidated, plus the requester's own S copy.
    #[test]
    fn holders_across_words_are_all_invalidated_and_reconciled() {
        let mut p = NullPredictor;
        let mut bank = bank();
        make_shared(&mut bank, 5, &[3, 70, 200]);
        assert_eq!(bank.holders_of(LineAddr(5)), nodes(&[3, 70, 200]));
        let acts = bank.handle(300, getx(5, 100, 1), &mut p);
        assert_eq!(
            invs_and_acks(&acts),
            (vec![NodeId(3), NodeId(70), NodeId(200)], 3)
        );
        // N255 nacking is not a target's answer and must not be recorded.
        bank.handle(350, unblock(5, 100, false, nodes(&[70, 255])), &mut p);
        assert_eq!(bank.holders_of(LineAddr(5)), nodes(&[70]));

        make_shared(&mut bank, 6, &[3, 70, 200]);
        let acts = bank.handle(400, getx(6, 70, 2), &mut p);
        assert_eq!(invs_and_acks(&acts), (vec![NodeId(3), NodeId(200)], 2));
        bank.handle(450, unblock(6, 70, false, nodes(&[200])), &mut p);
        assert_eq!(bank.holders_of(LineAddr(6)), nodes(&[70, 200]));
        assert_eq!(bank.owner_of(LineAddr(6)), None);

        bank.handle(500, getx(6, 200, 3), &mut p);
        bank.handle(550, unblock(6, 200, true, SharerSet::EMPTY), &mut p);
        assert_eq!(bank.owner_of(LineAddr(6)), Some(NodeId(200)));
        assert_eq!(bank.holders_of(LineAddr(6)), nodes(&[200]));
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

    /// Predictor that unicasts to a fixed node whenever it is among the
    /// targets, and records the nodes misprediction feedback names.
    struct FixedPredictor {
        target: NodeId,
        dropped: Vec<NodeId>,
    }

    impl FixedPredictor {
        fn new(target: NodeId) -> Self {
            Self {
                target,
                dropped: Vec::new(),
            }
        }
    }

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
                .contains(self.target)
                .then_some(PredictedTarget { node: self.target })
        }
        fn on_mispredict_feedback(&mut self, _: Cycle, _: LineAddr, node: NodeId) {
            self.dropped.push(node);
        }
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
        let mut fp = FixedPredictor::new(NodeId(2));
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
        // Owner aborted/invalidated: the unblock relays that it kept nothing.
        bank.handle(350, unblock(4, 9, true, SharerSet::EMPTY), &mut p);
        let holders = bank.holders_of(LineAddr(4));
        assert!(holders.contains(NodeId(9)));
        assert!(!holders.contains(NodeId(8)));
    }

    // ---- DESIGN §3's directory tables, walked row by row ----

    /// The nodes the tables name: A and B hold the line, R requests it.
    const A: NodeId = NodeId(1);
    const B: NodeId = NodeId(2);
    const R: NodeId = NodeId(3);
    /// A node no table names: a predictor aimed at it predicts nothing.
    const NOBODY: NodeId = NodeId(9);
    const LINE: u64 = 40;

    fn name(node: NodeId) -> &'static str {
        match node {
            A => "A",
            B => "B",
            R => "R",
            other => panic!("{other:?} has no name in the tables"),
        }
    }

    fn names(set: SharerSet) -> String {
        let names: Vec<_> = set.iter().map(name).collect();
        format!("{{{}}}", names.join(", "))
    }

    /// A line state as the tables write it.
    fn render_line(bank: &DirectoryBank) -> String {
        let Some(entry) = bank.entries.get(LineAddr(LINE)) else {
            return "I".to_string();
        };
        match entry.state {
            Stable::Uncached { in_l2: false } => "I".to_string(),
            Stable::Uncached { in_l2: true } => "I, in L2".to_string(),
            Stable::Shared => format!("S {}", names(entry.holders)),
            Stable::Owned => format!("M {}", names(entry.holders)),
        }
    }

    fn render_busy(bank: &DirectoryBank) -> String {
        match bank
            .entries
            .get(LineAddr(LINE))
            .and_then(|e| e.busy.as_ref())
        {
            Some(busy) => format!("`{:?}`", busy.kind),
            None => "none".to_string(),
        }
    }

    /// The actions as the tables write them: one item per message kind and
    /// latency, its destinations grouped. `P` is the predictor's decision
    /// latency.
    fn render_sends(actions: &[DirAction]) -> String {
        let config = DirConfig::default();
        let at = |delay: Cycles| match delay {
            0 => "@0",
            d if d == config.mem_latency => "@mem",
            d if d == config.l2_latency => "@L2",
            d if d == config.dir_latency => "@dir",
            d if d == config.dir_latency + 2 => "@dir+P",
            d => panic!("unexpected latency {d}"),
        };
        let mut items: Vec<(String, Vec<&str>, &str)> = Vec::new();
        for action in actions {
            let (what, dst, delay) = match action {
                DirAction::FetchMem { delay, .. } => ("FetchMem".to_string(), None, *delay),
                DirAction::Send { dst, msg, delay } => {
                    let u = |unicast: bool| if unicast { "(U)" } else { "" };
                    let what = match msg {
                        CoherenceMsg::Data {
                            exclusive,
                            acks_expected,
                            ..
                        } => {
                            let mode = if *exclusive { "E" } else { "S" };
                            format!("Data({mode}, acks={acks_expected})")
                        }
                        CoherenceMsg::UpgradeAck { acks_expected, .. } => {
                            format!("UpgradeAck(acks={acks_expected})")
                        }
                        CoherenceMsg::Inv { unicast, .. } => format!("Inv{}", u(*unicast)),
                        CoherenceMsg::FwdGets { .. } => "FwdGets".to_string(),
                        CoherenceMsg::FwdGetx { unicast, .. } => format!("FwdGetx{}", u(*unicast)),
                        CoherenceMsg::WbAck { .. } => "WbAck".to_string(),
                        other => panic!("the directory sent {other:?}"),
                    };
                    (what, Some(name(*dst)), *delay)
                }
            };
            match items.last_mut() {
                Some((last, dsts, last_at)) if *last == what && *last_at == at(delay) => {
                    dsts.extend(dst)
                }
                _ => items.push((what, dst.into_iter().collect(), at(delay))),
            }
        }
        let items: Vec<_> = items
            .into_iter()
            .map(|(what, dsts, at)| match dsts.is_empty() {
                true => format!("{what} {at}"),
                false => format!("{what} → {} {at}", dsts.join(", ")),
            })
            .collect();
        items.join("; ")
    }

    fn unicast(actions: &[DirAction]) -> bool {
        actions.iter().any(|a| {
            matches!(
                a,
                DirAction::Send {
                    msg: CoherenceMsg::Inv { unicast: true, .. }
                        | CoherenceMsg::FwdGetx { unicast: true, .. },
                    ..
                }
            )
        })
    }

    /// A bank whose line [`LINE`] is in the named stable state, driven
    /// there through `handle` alone.
    fn bank_at(line: &str) -> DirectoryBank {
        let mut bank = bank();
        let mut p = NullPredictor;
        let owned_by = |bank: &mut DirectoryBank, node: NodeId| {
            let mut p = NullPredictor;
            bank.handle(0, gets(LINE, node.0), &mut p);
            bank.mem_ready(LineAddr(LINE));
            bank.handle(210, unblock(LINE, node.0, true, SharerSet::EMPTY), &mut p);
        };
        let put = |node: NodeId, sticky| CoherenceMsg::Putx {
            addr: LineAddr(LINE),
            owner: node,
            sticky,
        };
        match line {
            "I" => {}
            "I, in L2" => {
                owned_by(&mut bank, A);
                bank.handle(220, put(A, StickyKind::None), &mut p);
            }
            "S {A, B}" => make_shared(&mut bank, LINE, &[A.0, B.0]),
            "S {A, R}" => make_shared(&mut bank, LINE, &[A.0, R.0]),
            "S {R}" => {
                owned_by(&mut bank, R);
                bank.handle(220, put(R, StickyKind::Reader), &mut p);
            }
            "M {A}" => owned_by(&mut bank, A),
            other => panic!("no recipe for line {other}"),
        }
        assert_eq!(render_line(&bank), line);
        assert!(!bank.is_busy(LineAddr(LINE)));
        bank
    }

    /// A request of the tables, from R unless it is a PUT, and the node the
    /// predictor names for it.
    fn request(label: &str) -> (CoherenceMsg, NodeId) {
        let addr = LineAddr(LINE);
        let tx = |ts| Some(info(ts));
        let put = |owner, sticky| CoherenceMsg::Putx {
            addr,
            owner,
            sticky,
        };
        let puts = |owner, sticky| CoherenceMsg::Puts {
            addr,
            owner,
            sticky,
        };
        let getx = |tx| CoherenceMsg::Getx {
            addr,
            requester: R,
            tx,
        };
        match label {
            "GETS" => (
                CoherenceMsg::Gets {
                    addr,
                    requester: R,
                    tx: None,
                },
                NOBODY,
            ),
            "GETX" => (getx(None), NOBODY),
            "TxGETX, not predicted" => (getx(tx(7)), NOBODY),
            "TxGETX, A predicted" => (getx(tx(7)), A),
            "PUTX from A, sticky None" => (put(A, StickyKind::None), NOBODY),
            "PUTS from A, sticky None" => (puts(A, StickyKind::None), NOBODY),
            "PUTX from A, sticky Reader" => (put(A, StickyKind::Reader), NOBODY),
            "PUTS from A, sticky Reader" => (puts(A, StickyKind::Reader), NOBODY),
            "PUTX from A, sticky Writer" => (put(A, StickyKind::Writer), NOBODY),
            "PUTS from A, sticky Writer" => (puts(A, StickyKind::Writer), NOBODY),
            "PUTX from B, sticky None" => (put(B, StickyKind::None), NOBODY),
            "PUTS from B, sticky Writer" => (puts(B, StickyKind::Writer), NOBODY),
            other => panic!("no recipe for request {other}"),
        }
    }

    /// The request table: per stable line, the requests that each get one
    /// row (with the label the row shows) because they act alike.
    const REQUEST_ROWS: &[(&str, &str, &[&str])] = &[
        (
            "I",
            "GETS, GETX, TxGETX",
            &["GETS", "GETX", "TxGETX, A predicted"],
        ),
        (
            "I, in L2",
            "GETS, GETX, TxGETX",
            &["GETS", "GETX", "TxGETX, A predicted"],
        ),
        ("S {A, B}", "GETS", &["GETS"]),
        (
            "S {A, B}",
            "GETX, or TxGETX not predicted",
            &["GETX", "TxGETX, not predicted"],
        ),
        ("S {A, B}", "TxGETX, A predicted", &["TxGETX, A predicted"]),
        (
            "S {A, R}",
            "GETX, or TxGETX not predicted",
            &["GETX", "TxGETX, not predicted"],
        ),
        ("S {A, R}", "TxGETX, A predicted", &["TxGETX, A predicted"]),
        ("S {R}", "GETX, TxGETX", &["GETX", "TxGETX, A predicted"]),
        ("M {A}", "GETS", &["GETS"]),
        (
            "M {A}",
            "GETX, or TxGETX not predicted",
            &["GETX", "TxGETX, not predicted"],
        ),
        ("M {A}", "TxGETX, A predicted", &["TxGETX, A predicted"]),
        (
            "M {A}",
            "PUTX/PUTS from A, sticky None",
            &["PUTX from A, sticky None", "PUTS from A, sticky None"],
        ),
        (
            "M {A}",
            "PUTX/PUTS from A, sticky Reader",
            &["PUTX from A, sticky Reader", "PUTS from A, sticky Reader"],
        ),
        (
            "M {A}",
            "PUTX/PUTS from A, sticky Writer",
            &["PUTX from A, sticky Writer", "PUTS from A, sticky Writer"],
        ),
        (
            "M {A}",
            "PUTX/PUTS from B (stale), any sticky",
            &["PUTX from B, sticky None", "PUTS from B, sticky Writer"],
        ),
        (
            "S {A, B}",
            "PUTX/PUTS from A (stale), any sticky",
            &["PUTX from A, sticky None", "PUTS from A, sticky Writer"],
        ),
    ];

    /// One row of the request table, rendered from what the bank does.
    fn request_row(line: &str, label: &str, request_label: &str) -> String {
        let mut bank = bank_at(line);
        let (msg, target) = request(request_label);
        let mut p = FixedPredictor::new(target);
        let actions = bank.handle(300, msg, &mut p);
        let busy = match render_busy(&bank).as_str() {
            "none" => format!("none; line → {}", render_line(&bank)),
            busy => busy.to_string(),
        };
        let puno = if unicast(&actions) { "**U-bit**" } else { "" };
        let sends = render_sends(&actions);
        format!("| {line} | {label} | {sends} | {busy} | {puno} |")
    }

    /// An event of the UNBLOCK table.
    enum Event {
        MemReady,
        WbData,
        Unblock {
            success: bool,
            nackers: &'static [NodeId],
            owner_kept: bool,
            mp_node: Option<NodeId>,
        },
    }

    const fn ok(owner_kept: bool) -> Event {
        Event::Unblock {
            success: true,
            nackers: &[],
            owner_kept,
            mp_node: None,
        }
    }

    const fn nacked(nackers: &'static [NodeId], mp_node: Option<NodeId>) -> Event {
        Event::Unblock {
            success: false,
            nackers,
            owner_kept: false,
            mp_node,
        }
    }

    /// The UNBLOCK table: a line, the request that makes it busy (if any),
    /// the events that lead up to the row, and the row's event.
    const UNBLOCK_ROWS: &[(&str, Option<&str>, &[Event], Event)] = &[
        ("I", Some("GETS"), &[], Event::MemReady),
        ("I", Some("GETS"), &[], Event::WbData),
        ("I", Some("GETX"), &[Event::MemReady], ok(false)),
        ("S {A, B}", Some("GETS"), &[], ok(false)),
        ("S {A, B}", Some("GETX"), &[], ok(false)),
        ("S {A, B}", Some("GETX"), &[], nacked(&[A], None)),
        ("S {A, R}", Some("GETX"), &[], nacked(&[A], None)),
        (
            "S {A, B}",
            Some("TxGETX, A predicted"),
            &[],
            nacked(&[A], None),
        ),
        (
            "S {A, B}",
            Some("TxGETX, A predicted"),
            &[],
            nacked(&[A], Some(A)),
        ),
        ("M {A}", Some("GETS"), &[], ok(true)),
        ("M {A}", Some("GETS"), &[], ok(false)),
        ("M {A}", Some("GETS"), &[], nacked(&[A], None)),
        ("M {A}", Some("GETX"), &[], ok(false)),
        ("M {A}", Some("GETX"), &[], nacked(&[A], None)),
        (
            "M {A}",
            Some("TxGETX, A predicted"),
            &[],
            nacked(&[A], None),
        ),
        (
            "M {A}",
            Some("TxGETX, A predicted"),
            &[],
            nacked(&[A], Some(A)),
        ),
        ("M {A}", None, &[], Event::WbData),
    ];

    /// Apply `event` to the bank; returns the sends and the event's label.
    fn apply(
        bank: &mut DirectoryBank,
        p: &mut FixedPredictor,
        event: &Event,
    ) -> (Vec<DirAction>, String) {
        let addr = LineAddr(LINE);
        match event {
            Event::MemReady => (bank.mem_ready(addr), "memory ready".to_string()),
            Event::WbData => {
                let msg = CoherenceMsg::WbData { addr, from: A };
                (bank.handle(400, msg, p), "WbData".to_string())
            }
            &Event::Unblock {
                success,
                nackers,
                owner_kept,
                mp_node,
            } => {
                let nackers: SharerSet = nackers.iter().copied().collect();
                let mut label = match success {
                    true => "UNBLOCK success".to_string(),
                    false => format!("UNBLOCK nacked by {}", names(nackers)),
                };
                if owner_kept {
                    label += ", owner kept";
                }
                if let Some(node) = mp_node {
                    label += &format!(", MP-node {}", name(node));
                }
                let msg = CoherenceMsg::Unblock {
                    addr,
                    requester: R,
                    success,
                    nackers,
                    owner_kept,
                    mp_node,
                    tx: None,
                };
                (bank.handle(400, msg, p), label)
            }
        }
    }

    /// One row of the UNBLOCK table, rendered from what the bank does.
    fn unblock_row(
        line: &str,
        request_label: Option<&str>,
        before: &[Event],
        event: &Event,
    ) -> String {
        let mut bank = bank_at(line);
        let mut p = FixedPredictor::new(NOBODY);
        let mut request_actions = Vec::new();
        if let Some(label) = request_label {
            let (msg, target) = request(label);
            p.target = target;
            request_actions = bank.handle(300, msg, &mut p);
        }
        for event in before {
            apply(&mut bank, &mut p, event);
        }
        let (line, busy) = (render_line(&bank), render_busy(&bank));
        let (actions, label) = apply(&mut bank, &mut p, event);
        let mut then = render_line(&bank);
        if bank.is_busy(LineAddr(LINE)) {
            then += &format!(", busy {}", render_busy(&bank));
        }
        if !actions.is_empty() {
            then += &format!("; {}", render_sends(&actions));
        }
        for node in &p.dropped {
            then += &format!("; predictor drops {}'s priority", name(*node));
        }
        let puno = match (p.dropped.is_empty(), unicast(&request_actions)) {
            (false, _) => "**MP feedback**",
            (true, true) => "**U-bit**",
            (true, false) => "",
        };
        format!("| {busy} | {line} | {label} | {then} | {puno} |")
    }

    /// The rows of DESIGN.md's table whose header line is `header`.
    fn design_rows(design: &str, header: &str) -> Vec<String> {
        let mut lines = design.lines().skip_while(|l| *l != header);
        assert_eq!(lines.next(), Some(header), "DESIGN.md lacks {header}");
        lines
            .skip(1)
            .take_while(|l| l.starts_with('|'))
            .map(str::to_string)
            .collect()
    }

    /// DESIGN §3 states the directory's transitions as two tables. Walk
    /// every row through `handle` and require the tables to be exactly
    /// the rows the bank produces, so the doc cannot drift.
    #[test]
    fn design_tables_match_the_directory() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let design = std::fs::read_to_string(path).unwrap();
        let mut requests = Vec::new();
        for (line, label, variants) in REQUEST_ROWS {
            let rows: Vec<_> = variants
                .iter()
                .map(|variant| request_row(line, label, variant))
                .collect();
            assert!(
                rows.iter().all(|row| *row == rows[0]),
                "{variants:?} act differently on {line}:\n{}",
                rows.join("\n")
            );
            requests.push(rows[0].clone());
        }
        let unblocks: Vec<_> = UNBLOCK_ROWS
            .iter()
            .map(|(line, request, before, event)| unblock_row(line, *request, before, event))
            .collect();
        for (header, rows) in [
            (
                "| line | request | sends | busy until UNBLOCK | PUNO |",
                requests,
            ),
            ("| busy | line | event | then | PUNO |", unblocks),
        ] {
            assert_eq!(
                design_rows(&design, header),
                rows,
                "DESIGN.md's table under {header} differs from the directory; it does:\n{}",
                rows.join("\n")
            );
        }
    }
}
