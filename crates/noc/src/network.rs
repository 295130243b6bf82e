//! The network: routers wired into a mesh, injection interfaces, the per-cycle
//! step function, and delivery of ejected packets.

use crate::packet::{Packet, VirtualNetwork};
use crate::router::{slot, Router, SLOTS};
use crate::topology::{Mesh, Port};
use crate::traffic::TrafficStats;
use puno_sim::{Cycle, Cycles, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Network timing/sizing knobs (Table II: 4-stage routers, VC flow control).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Router pipeline depth in cycles; the last stage is link traversal.
    pub pipeline_depth: u32,
    /// Input buffer capacity per (port, vnet), in flits.
    pub buffer_flits: u32,
}

impl Default for NocConfig {
    fn default() -> Self {
        Self {
            pipeline_depth: 4,
            buffer_flits: 8,
        }
    }
}

#[derive(Clone)]
struct PendingDelivery<P> {
    due: Cycle,
    node: NodeId,
    packet: Packet<P>,
}

/// The on-chip network. Payload type `P` is opaque freight.
#[derive(Clone)]
pub struct Network<P> {
    mesh: Mesh,
    config: NocConfig,
    routers: Vec<Router<P>>,
    /// Per-node, per-vnet unbounded injection queues (the NI). Packets wait
    /// here until the local input buffer has space — injection backpressure
    /// without loss.
    inject_queues: Vec<Vec<VecDeque<Packet<P>>>>,
    /// Ejections in flight (tail flit still crossing into the NI).
    deliveries: Vec<PendingDelivery<P>>,
    stats: TrafficStats,
    link_stats: crate::linkstats::LinkStats,
    next_packet_id: u64,
    in_network: usize,
    /// Occupancy: packets waiting in each router's NI injection queues.
    inject_pending: Vec<u32>,
    /// Packets waiting in any NI injection queue.
    queued: usize,
    /// Occupancy: packets resident in each router's input buffers.
    resident: Vec<u32>,
    /// Routers with any buffered or injection-pending packet, as a bitmask
    /// (bit `r % 64` of word `r / 64`) — per-cycle work visits only these,
    /// and iterating set bits in ascending index order makes the active-set
    /// walk bit-identical to the full 0..n scan it replaces (see
    /// `step_into`'s determinism note).
    active: Vec<u64>,
    /// Reused snapshot of `active` for the per-cycle walks.
    scratch_active: Vec<u64>,
    /// Host-side observability: routers actually visited by arbitration vs
    /// the `routers * steps` a full scan would have touched.
    scan_visits: u64,
    scan_steps: u64,
    /// Lower bound on the next cycle a step can change anything (see
    /// [`Network::next_activity`]); steps before it return at once.
    horizon: Cycle,
    /// Reference mode for tests: visit every occupied router on every step,
    /// ignoring wakes and the horizon.
    #[cfg(test)]
    full_scan: bool,
}

impl<P> Network<P> {
    pub fn new(mesh: Mesh, config: NocConfig) -> Self {
        assert!(config.pipeline_depth >= 1);
        assert!(
            config.buffer_flits >= crate::packet::DATA_FLITS,
            "buffers must fit a data packet"
        );
        let n = mesh.nodes();
        Self {
            mesh,
            config,
            routers: (0..n).map(|_| Router::new()).collect(),
            inject_queues: (0..n)
                .map(|_| {
                    (0..VirtualNetwork::COUNT)
                        .map(|_| VecDeque::new())
                        .collect()
                })
                .collect(),
            deliveries: Vec::new(),
            stats: TrafficStats::default(),
            link_stats: crate::linkstats::LinkStats::new(mesh),
            next_packet_id: 0,
            in_network: 0,
            inject_pending: vec![0; n],
            queued: 0,
            resident: vec![0; n],
            active: vec![0; n.div_ceil(64)],
            scratch_active: Vec::with_capacity(n.div_ceil(64)),
            scan_visits: 0,
            scan_steps: 0,
            horizon: Cycle::MAX,
            #[cfg(test)]
            full_scan: false,
        }
    }

    /// Re-evaluate router `r`'s membership in the active set after an
    /// occupancy change.
    #[inline]
    fn note_occupancy(&mut self, r: usize) {
        if self.inject_pending[r] == 0 && self.resident[r] == 0 {
            self.active[r / 64] &= !(1u64 << (r % 64));
        } else {
            self.active[r / 64] |= 1u64 << (r % 64);
        }
    }

    #[inline]
    fn mark_active(&mut self, r: usize) {
        self.active[r / 64] |= 1u64 << (r % 64);
    }

    /// Take the reusable walk buffer filled with a snapshot of the current
    /// active set. Walking a snapshot (not `self.active` itself) keeps each
    /// per-cycle pass bit-identical to the full `0..n` scan even as the pass
    /// mutates the live set; hand the buffer back via
    /// [`Network::put_active_snapshot`] when the walk is done.
    #[inline]
    fn take_active_snapshot(&mut self) -> Vec<u64> {
        let mut snapshot = std::mem::take(&mut self.scratch_active);
        snapshot.clear();
        snapshot.extend_from_slice(&self.active);
        snapshot
    }

    #[inline]
    fn put_active_snapshot(&mut self, snapshot: Vec<u64>) {
        self.scratch_active = snapshot;
    }

    /// Fraction of (router x step) slots arbitration actually visited; 1.0
    /// would be the old scan-everything behaviour, and an idle-dominated run
    /// sits far below it.
    pub fn active_scan_ratio(&self) -> f64 {
        let total = self.scan_steps.saturating_mul(self.routers.len() as u64);
        if total == 0 {
            0.0
        } else {
            self.scan_visits as f64 / total as f64
        }
    }

    #[inline]
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Per-directed-link flit counts (hotspot analysis).
    pub fn link_stats(&self) -> &crate::linkstats::LinkStats {
        &self.link_stats
    }

    /// True when no packet is anywhere in the network; the caller may stop
    /// scheduling step events.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.in_network == 0
    }

    /// Packets currently buffered inside routers (diagnostics).
    pub fn resident_packets(&self) -> usize {
        self.routers.iter().map(|r| r.resident_packets()).sum()
    }

    /// Routers currently in the active (occupied) set (diagnostics/tests).
    pub fn active_router_count(&self) -> usize {
        self.active.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fault-injection hook: hold every output link of `node`'s router busy
    /// until at least `now + cycles`. Flits already in flight are unaffected
    /// (their busy horizon only ever extends); queued flits wait out the
    /// stall under normal credit backpressure, so nothing is lost.
    pub fn stall_links(&mut self, now: Cycle, node: NodeId, cycles: Cycles) {
        let until = now + cycles;
        let router = &mut self.routers[node.index()];
        for port in Port::ALL {
            let slot = &mut router.link_busy_until[port.index()];
            *slot = (*slot).max(until);
        }
    }

    /// Hand a packet to the source node's network interface at cycle `now`.
    pub fn inject(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        vnet: VirtualNetwork,
        flits: u32,
        payload: P,
    ) {
        assert!(flits >= 1);
        let packet = Packet {
            id: self.next_packet_id,
            src,
            dst,
            vnet,
            flits,
            injected_at: now,
            payload,
        };
        self.next_packet_id += 1;
        self.stats.record_injection(vnet, flits);
        self.in_network += 1;
        self.inject_queues[src.index()][vnet.index()].push_back(packet);
        self.inject_pending[src.index()] += 1;
        self.queued += 1;
        self.mark_active(src.index());
        // The next step drains the NI queue.
        self.horizon = self.horizon.min(now);
    }

    /// Earliest cycle at which a step can change anything: the earliest
    /// router wake (a head-of-line packet that may win switch allocation),
    /// the earliest pending ejection, or — while an NI queue holds a packet
    /// — the next step. Stepping any cycle strictly before it delivers,
    /// traverses and drains nothing, so a caller may skip straight to it.
    /// `Cycle::MAX` when the network is idle.
    ///
    /// It is a lower bound, not a promise: a step at this cycle may still
    /// do nothing (a head can lose arbitration or lack credit).
    #[inline]
    pub fn next_activity(&self) -> Cycle {
        self.horizon
    }

    #[cfg(test)]
    fn full_scan(&self) -> bool {
        self.full_scan
    }

    #[cfg(not(test))]
    #[inline(always)]
    fn full_scan(&self) -> bool {
        false
    }

    /// Advance the network one cycle. Returns packets delivered to their
    /// destination NI this cycle, in deterministic order.
    ///
    /// Thin allocation-per-call wrapper over [`Network::step_into`]; hot
    /// loops should hold a reusable buffer and call `step_into` directly.
    pub fn step(&mut self, now: Cycle) -> Vec<(NodeId, P)> {
        let mut out = Vec::new();
        self.step_into(now, &mut out);
        out
    }

    /// Advance the network one cycle, appending this cycle's deliveries to
    /// `out` (cleared first) in deterministic order.
    ///
    /// Work is proportional to switch allocations, not to resident packets:
    /// a step before [`Network::next_activity`] returns at once, and
    /// arbitration visits only occupied routers whose wake has come, in
    /// ascending router-index order. That order makes the walk
    /// bit-identical to the full `0..n` scan it replaces: a router skipped
    /// here has no head that can win this cycle, so the full scan would
    /// touch neither its round-robin pointers, its links, nor any
    /// neighbour's credits — skipping it changes no state and no
    /// arbitration outcome.
    pub fn step_into(&mut self, now: Cycle, out: &mut Vec<(NodeId, P)>) {
        out.clear();
        if self.in_network == 0 {
            return;
        }
        self.scan_steps += 1;
        if now < self.horizon && !self.full_scan() {
            return;
        }
        let mut horizon = self.drain_injection_queues(now);
        horizon = horizon.min(self.arbitrate(now));
        horizon = horizon.min(self.collect_deliveries_into(now, out));
        self.horizon = horizon;
        // swap_remove disturbs order; restore determinism by destination
        // (at most one ejection can complete per node per cycle — the local
        // link serializes them — so the node index is a total key).
        out.sort_by_key(|(node, _)| node.0);
    }

    /// Write `packet` into router `r`'s input buffer. This is the router's
    /// route-compute stage: the XY output port is fixed here, once. Returns
    /// the router's wake after the write.
    fn buffer_packet(
        &mut self,
        r: usize,
        in_port: Port,
        ready_at: Cycle,
        packet: Packet<P>,
    ) -> Cycle {
        let out = self.mesh.route_xy(NodeId(r as u16), packet.dst);
        self.resident[r] += 1;
        self.mark_active(r);
        self.routers[r].accept(in_port, ready_at, out, packet)
    }

    /// Move packets from NI injection queues into local input buffers when
    /// space permits. Returns `now + 1` if some queue is still backed up
    /// (its buffer frees as packets leave, so retry next cycle), else
    /// `Cycle::MAX`.
    fn drain_injection_queues(&mut self, now: Cycle) -> Cycle {
        if self.queued == 0 {
            return Cycle::MAX;
        }
        let ready_delay = self.config.pipeline_depth as Cycle - 1;
        let snapshot = self.take_active_snapshot();
        for (word_idx, &word) in snapshot.iter().enumerate() {
            let mut bits = word; // ascending router index: low bits first
            while bits != 0 {
                let node = word_idx * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.inject_pending[node] == 0 {
                    continue;
                }
                for vnet_idx in 0..VirtualNetwork::COUNT {
                    while let Some(front) = self.inject_queues[node][vnet_idx].front() {
                        let flits = front.flits;
                        let vnet = front.vnet;
                        let buf = self.routers[node].buffer(Port::Local, vnet);
                        if buf.free_flits(self.config.buffer_flits) < flits {
                            break;
                        }
                        let packet = self.inject_queues[node][vnet_idx].pop_front().unwrap();
                        self.inject_pending[node] -= 1;
                        self.queued -= 1;
                        self.buffer_packet(node, Port::Local, now + ready_delay, packet);
                    }
                }
            }
        }
        self.put_active_snapshot(snapshot);
        if self.queued > 0 {
            now + 1
        } else {
            Cycle::MAX
        }
    }

    /// Switch allocation over the occupied routers whose wake has come.
    /// Returns the earliest wake left anywhere in the network.
    fn arbitrate(&mut self, now: Cycle) -> Cycle {
        let mut horizon = Cycle::MAX;
        // Snapshot after injection drain so same-cycle injections are seen,
        // exactly as the full scan saw them. Routers that only *become*
        // occupied mid-arbitration (receiving a forwarded packet) need no
        // visit: the packet's ready_at is in the future, so the full scan
        // would have found no eligible candidate there either.
        let snapshot = self.take_active_snapshot();
        for (word_idx, &word) in snapshot.iter().enumerate() {
            let mut active_bits = word; // ascending router index
            while active_bits != 0 {
                let r = word_idx * 64 + active_bits.trailing_zeros() as usize;
                active_bits &= active_bits - 1;
                if self.resident[r] == 0 {
                    continue; // injection-queue backlog only
                }
                let wake = self.routers[r].wake;
                if wake > now && !self.full_scan() {
                    horizon = horizon.min(wake);
                    continue;
                }
                self.scan_visits += 1;
                horizon = horizon.min(self.allocate(r, now));
                horizon = horizon.min(self.routers[r].recompute_wake(now));
                self.note_occupancy(r);
            }
        }
        self.put_active_snapshot(snapshot);
        horizon
    }

    /// One router's switch allocation at `now`: for every output port whose
    /// link is free, pick one eligible head-of-line packet (round-robin over
    /// the (input port, vnet) space) and traverse. Returns the earliest wake
    /// among the routers that received a forwarded packet.
    fn allocate(&mut self, r: usize, now: Cycle) -> Cycle {
        let here = NodeId(r as u16);
        let mut horizon = Cycle::MAX;
        // Candidate set per output port: buffers whose head has cleared the
        // pipeline and was routed there. Scanning a port's set in
        // round-robin order is the full scan over the occupancy mask with
        // the not-ready and wrong-port heads skipped.
        let mut cands = [0u16; 5];
        let mut bits = self.routers[r].occupancy;
        while bits != 0 {
            let idx = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let head = self.routers[r].inputs[idx]
                .queue
                .front()
                .expect("occupancy bit set on an empty buffer");
            if head.ready_at <= now {
                cands[head.out.index()] |= 1 << idx;
            }
        }
        for out_port in Port::ALL {
            let o = out_port.index();
            if cands[o] == 0 || self.routers[r].link_busy_until[o] > now {
                continue;
            }
            // Ejection always has room (the NI sinks immediately); any other
            // port needs downstream buffer space (credit).
            let downstream = (out_port != Port::Local).then(|| self.downstream(r, out_port));
            let start = self.routers[r].rr_pointer[o];
            let set = u32::from(cands[o]);
            let low = set & ((1u32 << start) - 1);
            let high = set & !((1u32 << start) - 1);
            let mut winner: Option<usize> = None;
            'scan: for part in [high, low] {
                let mut cand_bits = part;
                while cand_bits != 0 {
                    let idx = cand_bits.trailing_zeros() as usize;
                    cand_bits &= cand_bits - 1;
                    if let Some(next) = downstream {
                        let flits = self.routers[r].inputs[idx]
                            .queue
                            .front()
                            .expect("candidate buffer is empty")
                            .packet
                            .flits;
                        let credit = self.routers[next].inputs
                            [slot(opposite(out_port), idx % VirtualNetwork::COUNT)]
                        .free_flits(self.config.buffer_flits);
                        if credit < flits {
                            continue;
                        }
                    }
                    winner = Some(idx);
                    self.routers[r].rr_pointer[o] = (idx + 1) % SLOTS;
                    break 'scan;
                }
            }
            let Some(idx) = winner else {
                continue;
            };
            // Dequeue the winner and traverse.
            let packet = {
                let router = &mut self.routers[r];
                let buf = &mut router.inputs[idx];
                let bp = buf.queue.pop_front().unwrap();
                buf.occupied_flits -= bp.packet.flits;
                match buf.queue.front() {
                    None => router.occupancy &= !(1u16 << idx),
                    // The buffer's new head competes for the ports still to
                    // come this cycle, as a fresh read of the head would.
                    Some(next) if next.ready_at <= now => cands[next.out.index()] |= 1 << idx,
                    Some(_) => {}
                }
                bp.packet
            };
            let flits = packet.flits;
            // The Figure 11 metric: every flit leaving a router crossbar is
            // one router traversal.
            self.stats.record_traversal(packet.vnet, flits);
            self.link_stats.record(here, out_port, flits);
            self.routers[r].link_busy_until[o] = now + flits as Cycle;
            self.resident[r] -= 1;
            if let Some(next) = downstream {
                let ready_at = now + flits as Cycle + self.config.pipeline_depth as Cycle - 1;
                let wake = self.buffer_packet(next, opposite(out_port), ready_at, packet);
                horizon = horizon.min(wake);
            } else {
                self.deliveries.push(PendingDelivery {
                    due: now + flits as Cycle,
                    node: here,
                    packet,
                });
            }
        }
        horizon
    }

    /// The router reached from router `r` through output `port`. XY routing
    /// never picks a port that leaves the mesh, so this is index arithmetic.
    #[inline]
    fn downstream(&self, r: usize, port: Port) -> usize {
        let width = self.mesh.width as usize;
        let next = match port {
            Port::East => r + 1,
            Port::West => r - 1,
            Port::South => r + width,
            Port::North => r - width,
            Port::Local => unreachable!("ejection has no downstream router"),
        };
        debug_assert_eq!(
            self.mesh.neighbor(NodeId(r as u16), port),
            Some(NodeId(next as u16)),
            "XY routed off-mesh"
        );
        next
    }

    /// Hand over every ejection whose tail flit has arrived. Returns the
    /// earliest due cycle still pending.
    fn collect_deliveries_into(&mut self, now: Cycle, out: &mut Vec<(NodeId, P)>) -> Cycle {
        let mut next_due = Cycle::MAX;
        let mut i = 0;
        while i < self.deliveries.len() {
            let due = self.deliveries[i].due;
            if due <= now {
                let d = self.deliveries.swap_remove(i);
                self.stats.record_delivery(now - d.packet.injected_at);
                self.in_network -= 1;
                out.push((d.node, d.packet.payload));
            } else {
                next_due = next_due.min(due);
                i += 1;
            }
        }
        next_due
    }
}

#[inline]
fn opposite(port: Port) -> Port {
    match port {
        Port::East => Port::West,
        Port::West => Port::East,
        Port::North => Port::South,
        Port::South => Port::North,
        Port::Local => Port::Local,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{CONTROL_FLITS, DATA_FLITS};

    fn run_until_idle(
        net: &mut Network<u32>,
        start: Cycle,
        max: Cycle,
    ) -> Vec<(Cycle, NodeId, u32)> {
        let mut delivered = Vec::new();
        let mut now = start;
        while !net.is_idle() {
            for (node, payload) in net.step(now) {
                delivered.push((now, node, payload));
            }
            now += 1;
            assert!(now < max, "network did not drain");
        }
        delivered
    }

    #[test]
    fn delivers_single_packet_with_expected_latency() {
        let mut net = Network::new(Mesh::paper(), NocConfig::default());
        net.inject(
            0,
            NodeId(0),
            NodeId(3),
            VirtualNetwork::Request,
            CONTROL_FLITS,
            7,
        );
        let delivered = run_until_idle(&mut net, 0, 1000);
        assert_eq!(delivered.len(), 1);
        let (cycle, node, payload) = delivered[0];
        assert_eq!(node, NodeId(3));
        assert_eq!(payload, 7);
        // 3 hops + ejection = 4 router traversals; each costs pipeline-1 wait
        // (3 cycles) + 1 cycle link per flit. Zero-load: 4 * (3 + 1) = 16.
        assert_eq!(cycle, 16);
    }

    #[test]
    fn local_delivery_goes_through_one_router() {
        let mut net = Network::new(Mesh::paper(), NocConfig::default());
        net.inject(
            0,
            NodeId(5),
            NodeId(5),
            VirtualNetwork::Response,
            DATA_FLITS,
            1,
        );
        let delivered = run_until_idle(&mut net, 0, 100);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].1, NodeId(5));
        assert_eq!(net.stats().router_traversals(), DATA_FLITS as u64);
    }

    #[test]
    fn traversal_count_is_flits_times_routers() {
        let mut net = Network::new(Mesh::paper(), NocConfig::default());
        // 0 -> 15 is 6 hops; the packet crosses 7 routers (incl. ejection).
        net.inject(
            0,
            NodeId(0),
            NodeId(15),
            VirtualNetwork::Response,
            DATA_FLITS,
            9,
        );
        run_until_idle(&mut net, 0, 1000);
        assert_eq!(net.stats().router_traversals(), 7 * DATA_FLITS as u64);
        assert_eq!(net.stats().flits_injected(), DATA_FLITS as u64);
    }

    #[test]
    fn every_injected_packet_is_delivered_exactly_once() {
        let mut net = Network::new(Mesh::paper(), NocConfig::default());
        let mut expected = Vec::new();
        let mut id = 0u32;
        for src in 0..16u16 {
            for dst in 0..16u16 {
                net.inject(
                    0,
                    NodeId(src),
                    NodeId(dst),
                    VirtualNetwork::Request,
                    CONTROL_FLITS,
                    id,
                );
                expected.push(id);
                id += 1;
            }
        }
        let delivered = run_until_idle(&mut net, 0, 100_000);
        let mut got: Vec<u32> = delivered.iter().map(|&(_, _, p)| p).collect();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        // Two data packets from node 0 and node 1, both to node 3: they share
        // the (2 -> 3) link, so the second must finish >= DATA_FLITS cycles
        // after the first.
        let mut net = Network::new(Mesh::paper(), NocConfig::default());
        net.inject(
            0,
            NodeId(0),
            NodeId(3),
            VirtualNetwork::Response,
            DATA_FLITS,
            0,
        );
        net.inject(
            0,
            NodeId(1),
            NodeId(3),
            VirtualNetwork::Response,
            DATA_FLITS,
            1,
        );
        let delivered = run_until_idle(&mut net, 0, 10_000);
        assert_eq!(delivered.len(), 2);
        let t0 = delivered.iter().find(|d| d.2 == 0).unwrap().0;
        let t1 = delivered.iter().find(|d| d.2 == 1).unwrap().0;
        assert!(t0.abs_diff(t1) >= DATA_FLITS as Cycle, "t0={t0} t1={t1}");
    }

    #[test]
    fn vnets_do_not_block_each_other_at_injection() {
        let mut net = Network::new(
            Mesh::paper(),
            NocConfig {
                pipeline_depth: 4,
                buffer_flits: 5,
            },
        );
        // Saturate the request vnet's local buffer at node 0...
        for i in 0..10 {
            net.inject(
                0,
                NodeId(0),
                NodeId(1),
                VirtualNetwork::Request,
                DATA_FLITS,
                i,
            );
        }
        // ...a response packet must still make timely progress.
        net.inject(
            0,
            NodeId(0),
            NodeId(1),
            VirtualNetwork::Response,
            CONTROL_FLITS,
            99,
        );
        let delivered = run_until_idle(&mut net, 0, 100_000);
        let resp_cycle = delivered.iter().find(|d| d.2 == 99).unwrap().0;
        let last_req = delivered
            .iter()
            .filter(|d| d.2 < 10)
            .map(|d| d.0)
            .max()
            .unwrap();
        assert!(
            resp_cycle < last_req,
            "response {resp_cycle} should beat backlogged requests {last_req}"
        );
    }

    #[test]
    fn step_into_reuses_buffer_and_matches_step() {
        let drive = |use_into: bool| {
            let mut net = Network::new(Mesh::paper(), NocConfig::default());
            let mut rng = puno_sim::SimRng::new(11);
            for i in 0..64u32 {
                net.inject(
                    0,
                    NodeId(rng.gen_range(16) as u16),
                    NodeId(rng.gen_range(16) as u16),
                    VirtualNetwork::Request,
                    CONTROL_FLITS,
                    i,
                );
            }
            let mut all = Vec::new();
            let mut buf = Vec::new();
            let mut now = 0;
            while !net.is_idle() {
                if use_into {
                    net.step_into(now, &mut buf);
                    all.extend(buf.iter().map(|&(n, p)| (now, n, p)));
                } else {
                    all.extend(net.step(now).into_iter().map(|(n, p)| (now, n, p)));
                }
                now += 1;
                assert!(now < 100_000);
            }
            all
        };
        assert_eq!(drive(false), drive(true));
    }

    #[test]
    fn occupancy_set_tracks_live_work_and_empties_at_idle() {
        let mut net: Network<u32> = Network::new(Mesh::paper(), NocConfig::default());
        assert_eq!(net.active_router_count(), 0);
        net.inject(0, NodeId(2), NodeId(9), VirtualNetwork::Request, 1, 0);
        assert_eq!(net.active_router_count(), 1);
        run_until_idle(&mut net, 0, 1000);
        assert_eq!(net.active_router_count(), 0);
        // One packet crossing a 16-router mesh must touch far fewer than
        // 16 routers per cycle.
        assert!(
            net.active_scan_ratio() < 0.2,
            "scan ratio {} not work-proportional",
            net.active_scan_ratio()
        );
    }

    /// ISSUE 2 satellite: a packet injected on the very cycle the network
    /// drains idle must not strand. This emulates the system's `NetStep`
    /// arming protocol exactly: step while armed, disarm when idle is
    /// observed *before* deliveries are handled, re-arm on inject.
    #[test]
    fn same_cycle_injection_after_drain_is_delivered() {
        let mut net: Network<u32> = Network::new(Mesh::paper(), NocConfig::default());
        net.inject(
            0,
            NodeId(0),
            NodeId(1),
            VirtualNetwork::Request,
            CONTROL_FLITS,
            1,
        );
        let mut armed = true;
        let mut now: Cycle = 0;
        let mut delivered = Vec::new();
        let mut reinjected = false;
        while armed {
            let out = net.step(now);
            // The system checks idle before processing deliveries.
            if net.is_idle() {
                armed = false;
            }
            for (node, payload) in out {
                delivered.push((now, node, payload));
                if !reinjected {
                    // React to the delivery on the drain cycle itself, like
                    // a node answering a request.
                    reinjected = true;
                    net.inject(now, NodeId(1), NodeId(0), VirtualNetwork::Response, 1, 2);
                    if !armed {
                        armed = true; // inject_now re-arms NetStep
                    }
                }
            }
            now += 1;
            assert!(now < 1000, "network did not drain");
        }
        assert_eq!(delivered.len(), 2, "stranded packet: {delivered:?}");
        assert!(net.is_idle());
        assert_eq!(net.active_router_count(), 0);
    }

    /// Injections `(cycle, src, dst, vnet, flits, payload)`.
    type Plan = [(Cycle, u16, u16, VirtualNetwork, u32, u32)];
    /// Link stalls `(cycle, node, cycles)`.
    type Stalls = [(Cycle, u16, Cycles)];

    /// How a test drives the network through time.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Drive {
        /// Every cycle, visiting every occupied router (no wakes, no
        /// horizon): the reference scan.
        FullScan,
        /// Every cycle, event-driven.
        EveryCycle,
        /// Only at cycles where something is injected, a link stalls, or
        /// `next_activity()` has come — as the system's parked step token
        /// does.
        NextActivity,
    }

    /// Drive `plan` and `stalls` through `net` over `[start, end)`: at each
    /// visited cycle stalls land first, then injections, then the step.
    /// Asserts that no step strictly before `next_activity()` delivers or
    /// counts anything, and that the plan drains by `end`.
    fn drive_plan(
        net: &mut Network<u32>,
        drive: Drive,
        plan: &Plan,
        stalls: &Stalls,
        start: Cycle,
        end: Cycle,
    ) -> Vec<(Cycle, NodeId, u32)> {
        net.full_scan = drive == Drive::FullScan;
        let mut delivered = Vec::new();
        let mut buf = Vec::new();
        let mut now = start;
        while now < end {
            for &(_, node, cycles) in stalls.iter().filter(|s| s.0 == now) {
                net.stall_links(now, NodeId(node), cycles);
            }
            for &(_, src, dst, vnet, flits, payload) in plan.iter().filter(|p| p.0 == now) {
                net.inject(now, NodeId(src), NodeId(dst), vnet, flits, payload);
            }
            let due = net.next_activity();
            if drive != Drive::NextActivity || now >= due {
                let before = (
                    net.stats().router_traversals(),
                    net.stats().packets_delivered(),
                    net.link_stats().total(),
                    net.resident_packets(),
                );
                net.step_into(now, &mut buf);
                if now < due {
                    let after = (
                        net.stats().router_traversals(),
                        net.stats().packets_delivered(),
                        net.link_stats().total(),
                        net.resident_packets(),
                    );
                    assert!(
                        buf.is_empty() && after == before,
                        "{drive:?}: step at {now} before next_activity {due} did work"
                    );
                }
                delivered.extend(buf.iter().map(|&(n, p)| (now, n, p)));
            }
            now = match drive {
                Drive::NextActivity => {
                    let next_input = plan
                        .iter()
                        .map(|p| p.0)
                        .chain(stalls.iter().map(|s| s.0))
                        .filter(|&at| at > now)
                        .min()
                        .unwrap_or(Cycle::MAX);
                    next_input.min(net.next_activity().max(now + 1)).min(end)
                }
                Drive::FullScan | Drive::EveryCycle => now + 1,
            };
        }
        assert!(net.is_idle(), "{drive:?}: plan did not drain by {end}");
        delivered
    }

    /// The three drives must produce bit-identical deliveries, traffic
    /// stats, link stats, and *future behaviour* (round-robin pointers and
    /// link horizons probed by a follow-up contention burst).
    fn assert_stepping_transparent(mesh: Mesh, plan: &Plan, stalls: &Stalls, horizon: Cycle) {
        let n = mesh.nodes() as u16;
        // A follow-up burst probing the arbitration state every drive must
        // have left behind: many packets contending at every router.
        let mut burst = Vec::new();
        for i in 0..n {
            burst.push((
                horizon,
                i,
                (i * 7 + 3) % n,
                VirtualNetwork::Request,
                CONTROL_FLITS,
                10_000 + i as u32,
            ));
            burst.push((
                horizon,
                (i * 5 + 1) % n,
                (i * 11 + 2) % n,
                VirtualNetwork::Response,
                DATA_FLITS,
                20_000 + i as u32,
            ));
        }
        let run = |drive: Drive| {
            let mut net = Network::new(mesh, NocConfig::default());
            let mut all = drive_plan(&mut net, drive, plan, stalls, 0, horizon);
            all.extend(drive_plan(
                &mut net,
                drive,
                &burst,
                &[],
                horizon,
                horizon * 2,
            ));
            (
                all,
                format!("{:?}", net.stats()),
                format!("{:?}", net.link_stats()),
            )
        };
        let reference = run(Drive::FullScan);
        assert!(!reference.0.is_empty());
        for drive in [Drive::EveryCycle, Drive::NextActivity] {
            let got = run(drive);
            assert_eq!(got.0, reference.0, "{drive:?}: delivery stream diverged");
            assert_eq!(got.1, reference.1, "{drive:?}: traffic stats diverged");
            assert_eq!(got.2, reference.2, "{drive:?}: link stats diverged");
        }
    }

    fn meshes() -> [(Mesh, u64); 3] {
        [
            (Mesh::paper(), 101),
            (Mesh::new(8, 8), 202),
            (Mesh::new(16, 16), 303),
        ]
    }

    #[test]
    fn uniform_random_traffic_steps_identically() {
        for (mesh, seed) in meshes() {
            let n = mesh.nodes() as u64;
            let mut rng = puno_sim::SimRng::new(seed);
            let mut plan = Vec::new();
            for i in 0..(n as u32 * 4).min(600) {
                let at = rng.gen_range(600) as Cycle;
                let src = rng.gen_range(n) as u16;
                let dst = rng.gen_range(n) as u16;
                let (vnet, flits) = match rng.gen_range(3) {
                    0 => (VirtualNetwork::Request, CONTROL_FLITS),
                    1 => (VirtualNetwork::Response, DATA_FLITS),
                    _ => (VirtualNetwork::Forward, CONTROL_FLITS),
                };
                plan.push((at, src, dst, vnet, flits, i));
            }
            assert_stepping_transparent(mesh, &plan, &[], 5000);
        }
    }

    #[test]
    fn hotspot_traffic_steps_identically() {
        for (mesh, seed) in meshes() {
            let n = mesh.nodes() as u64;
            let mut rng = puno_sim::SimRng::new(seed ^ 0x4075);
            let mut plan = Vec::new();
            for i in 0..200u32 {
                let at = rng.gen_range(500) as Cycle;
                let src = rng.gen_range(n) as u16;
                // Everything converges on node 0: heavy shared-link
                // contention and long credit stalls.
                plan.push((at, src, 0, VirtualNetwork::Request, CONTROL_FLITS, i));
            }
            assert_stepping_transparent(mesh, &plan, &[], 8000);
        }
    }

    #[test]
    fn link_stalls_step_identically() {
        for (mesh, seed) in meshes() {
            let n = mesh.nodes() as u64;
            let mut rng = puno_sim::SimRng::new(seed ^ 0x57a1);
            let mut plan = Vec::new();
            for i in 0..80u32 {
                let at = (i as Cycle) * 40 + rng.gen_range(20) as Cycle;
                let src = rng.gen_range(n) as u16;
                let dst = rng.gen_range(n) as u16;
                plan.push((at, src, dst, VirtualNetwork::Response, DATA_FLITS, i));
            }
            // Stalls land on busy routers mid-route and on idle ones, so
            // some raise the horizon of a link a parked head waits on.
            let stalls: Vec<(Cycle, u16, Cycles)> = (0..40)
                .map(|k| (k * 80 + 7, rng.gen_range(n) as u16, 5 + rng.gen_range(30)))
                .collect();
            assert_stepping_transparent(mesh, &plan, &stalls, 6000);
        }
    }

    #[test]
    fn next_activity_follows_the_zero_load_schedule() {
        let mut net: Network<u32> = Network::new(Mesh::paper(), NocConfig::default());
        assert_eq!(net.next_activity(), Cycle::MAX);
        net.inject(
            0,
            NodeId(0),
            NodeId(3),
            VirtualNetwork::Request,
            CONTROL_FLITS,
            7,
        );
        assert_eq!(net.next_activity(), 0);
        let mut stepped = Vec::new();
        let mut delivered = Vec::new();
        let mut buf = Vec::new();
        let mut now = 0;
        while !net.is_idle() {
            now = now.max(net.next_activity());
            net.step_into(now, &mut buf);
            stepped.push(now);
            delivered.extend(buf.iter().map(|&(n, p)| (now, n, p)));
            now += 1;
        }
        // Drain at 0, then one allocation per router once its pipeline
        // clears (3 cycles) and the 1-flit link frees, then the ejection.
        assert_eq!(stepped, vec![0, 3, 7, 11, 15, 16]);
        assert_eq!(delivered, vec![(16, NodeId(3), 7)]);
        assert_eq!(net.next_activity(), Cycle::MAX);
        assert_eq!(net.stats().router_traversals(), 4 * CONTROL_FLITS as u64);
    }

    #[test]
    fn idle_network_reports_idle() {
        let mut net: Network<u32> = Network::new(Mesh::paper(), NocConfig::default());
        assert!(net.is_idle());
        net.inject(0, NodeId(0), NodeId(1), VirtualNetwork::Request, 1, 0);
        assert!(!net.is_idle());
        run_until_idle(&mut net, 0, 100);
        assert!(net.is_idle());
    }
}
