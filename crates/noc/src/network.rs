//! The network: routers wired into a mesh, injection interfaces, the per-cycle
//! step function, and delivery of ejected packets.

use crate::packet::{Header, VirtualNetwork};
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

/// The on-chip network. Payload type `P` is opaque freight.
///
/// A packet's payload is written once into the slab at [`Network::inject`]
/// and taken once at delivery; every queue in between moves a 16-byte
/// `Header` holding its slab handle.
pub struct Network<P> {
    mesh: Mesh,
    config: NocConfig,
    routers: Vec<Router>,
    /// `(x, y)` of every node, read by the route-compute stage.
    coords: Vec<(u16, u16)>,
    /// Payloads from injection to delivery, indexed by header handle; a
    /// delivered packet's slot is `None` and its handle waits in `free`.
    slab: Vec<Option<P>>,
    free: Vec<u32>,
    /// Per-node, per-vnet unbounded injection queues (the NI), at
    /// `node * VirtualNetwork::COUNT + vnet`. Packets wait here until the
    /// local input buffer has space — injection backpressure without loss.
    inject_queues: Vec<VecDeque<Header>>,
    /// Nodes with a non-empty injection queue, as a bitmask (bit `r % 64`
    /// of word `r / 64`).
    pending: Vec<u64>,
    /// Ejections in flight (tail flit still crossing into the NI): the
    /// header's `ready_at` is the cycle the tail arrives, `dst` the node.
    deliveries: Vec<Header>,
    stats: TrafficStats,
    link_stats: crate::linkstats::LinkStats,
    in_network: usize,
    /// Packets waiting in any NI injection queue.
    queued: usize,
    /// Routers with any buffered packet, as a bitmask laid out like
    /// `pending` — per-cycle work visits only these, and iterating set bits
    /// in ascending index order makes the active-set walk bit-identical to
    /// the full 0..n scan it replaces (see `step_into`'s determinism note).
    active: Vec<u64>,
    /// Each router's wake: a lower bound on the next cycle any of its
    /// head-of-line packets can win switch allocation (see
    /// [`Router::recompute_wake`]), or one past the last visit for a head
    /// that was eligible but lacked credit. `Cycle::MAX` when its buffers
    /// are empty. Arbitration skips the router until this cycle; kept here,
    /// not in the router, so the walk over active routers reads dense
    /// memory.
    wake: Vec<Cycle>,
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
        let capacity = u8::try_from(config.buffer_flits).unwrap_or_else(|_| {
            panic!(
                "buffer_flits {} exceeds the {} packets a router ring can index",
                config.buffer_flits,
                u8::MAX
            )
        });
        let n = mesh.nodes();
        Self {
            mesh,
            config,
            routers: (0..n).map(|_| Router::new(capacity)).collect(),
            coords: (0..n).map(|r| mesh.coords(NodeId(r as u16))).collect(),
            slab: Vec::new(),
            free: Vec::new(),
            inject_queues: (0..n * VirtualNetwork::COUNT)
                .map(|_| VecDeque::new())
                .collect(),
            pending: vec![0; n.div_ceil(64)],
            deliveries: Vec::new(),
            stats: TrafficStats::default(),
            link_stats: crate::linkstats::LinkStats::new(mesh),
            in_network: 0,
            queued: 0,
            active: vec![0; n.div_ceil(64)],
            wake: vec![Cycle::MAX; n],
            scan_visits: 0,
            scan_steps: 0,
            horizon: Cycle::MAX,
            #[cfg(test)]
            full_scan: false,
        }
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

    /// Routers with a buffered or injection-pending packet
    /// (diagnostics/tests).
    pub fn active_router_count(&self) -> usize {
        self.active
            .iter()
            .zip(&self.pending)
            .map(|(a, p)| (a | p).count_ones() as usize)
            .sum()
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
        assert!(
            flits <= self.config.buffer_flits,
            "a {flits}-flit packet can never enter a {}-flit input buffer",
            self.config.buffer_flits
        );
        let handle = match self.free.pop() {
            Some(handle) => {
                self.slab[handle as usize] = Some(payload);
                handle
            }
            None => {
                self.slab.push(Some(payload));
                u32::try_from(self.slab.len() - 1).expect("packet slab exceeds u32 handles")
            }
        };
        self.stats.record_injection(flits);
        self.in_network += 1;
        let node = src.index();
        self.inject_queues[node * VirtualNetwork::COUNT + vnet.index()].push_back(Header {
            handle,
            dst: dst.0,
            flits: flits as u8,
            ..Header::EMPTY
        });
        self.pending[node / 64] |= 1u64 << (node % 64);
        self.queued += 1;
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

    /// XY dimension-order routing from router `r` to `dst`, as
    /// [`Mesh::route_xy`] computes it, from the coordinate table.
    #[inline]
    fn route(&self, r: usize, dst: u16) -> Port {
        let (hx, hy) = self.coords[r];
        let (dx, dy) = self.coords[dst as usize];
        if dx > hx {
            Port::East
        } else if dx < hx {
            Port::West
        } else if dy > hy {
            Port::South
        } else if dy < hy {
            Port::North
        } else {
            Port::Local
        }
    }

    /// Write a packet into input buffer `idx` of router `r`. This is the
    /// router's route-compute stage: the XY output port is fixed here, once.
    /// Returns the router's wake after the write.
    fn buffer_packet(
        &mut self,
        r: usize,
        idx: usize,
        ready_at: Cycle,
        mut header: Header,
    ) -> Cycle {
        header.ready_at = ready_at;
        header.out = self.route(r, header.dst);
        self.active[r / 64] |= 1u64 << (r % 64);
        if let Some(at) = self.routers[r].accept(idx, header) {
            self.wake[r] = self.wake[r].min(at);
        }
        self.wake[r]
    }

    /// Move packets from NI injection queues into local input buffers when
    /// space permits, visiting nodes in ascending index order. Returns
    /// `now + 1` if some queue is still backed up (its buffer frees as
    /// packets leave, so retry next cycle), else `Cycle::MAX`.
    fn drain_injection_queues(&mut self, now: Cycle) -> Cycle {
        if self.queued == 0 {
            return Cycle::MAX;
        }
        let ready_at = now + self.config.pipeline_depth as Cycle - 1;
        for word_idx in 0..self.pending.len() {
            let mut bits = self.pending[word_idx]; // low bits first
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let node = word_idx * 64 + bit;
                let mut backed_up = false;
                for vnet_idx in 0..VirtualNetwork::COUNT {
                    let queue = node * VirtualNetwork::COUNT + vnet_idx;
                    let idx = slot(Port::Local, vnet_idx);
                    while let Some(&header) = self.inject_queues[queue].front() {
                        if self.routers[node].free_flits(idx) < header.flits {
                            backed_up = true;
                            break;
                        }
                        self.inject_queues[queue].pop_front();
                        self.queued -= 1;
                        self.buffer_packet(node, idx, ready_at, header);
                    }
                }
                if !backed_up {
                    self.pending[word_idx] &= !(1u64 << bit);
                }
            }
        }
        if self.queued > 0 {
            now + 1
        } else {
            Cycle::MAX
        }
    }

    /// Switch allocation over the occupied routers whose wake has come.
    /// Returns the earliest wake left anywhere in the network.
    ///
    /// Each 64-router word of the active set is read as the walk reaches
    /// it, after the injection drain, so same-cycle injections are seen
    /// exactly as the full scan saw them. A router that only *becomes*
    /// occupied mid-walk (receiving a forwarded packet) may or may not be
    /// reached, and it does not matter: the packet's `ready_at` is in the
    /// future, so its wake skips it and the full scan would have found no
    /// eligible candidate there either.
    ///
    /// Within a word, the due routers are picked out first, then visited
    /// in ascending order. A visit can only lower another router's wake to
    /// a future cycle, and it reports that wake, so neither which routers
    /// are due nor the earliest wake differs from a one-pass walk.
    fn arbitrate(&mut self, now: Cycle) -> Cycle {
        let mut horizon = Cycle::MAX;
        for word_idx in 0..self.active.len() {
            let base = word_idx * 64;
            let mut due = 0u64;
            let mut bits = self.active[word_idx];
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let wake = self.wake[base + bit];
                let is_due = wake <= now || self.full_scan();
                due |= u64::from(is_due) << bit;
                horizon = horizon.min(if is_due { Cycle::MAX } else { wake });
            }
            while due != 0 {
                let bit = due.trailing_zeros() as usize;
                due &= due - 1;
                let r = base + bit;
                self.scan_visits += 1;
                horizon = horizon.min(self.allocate(r, now));
                let router = &self.routers[r];
                let wake = router.recompute_wake(now);
                if router.occupancy == 0 {
                    self.active[word_idx] &= !(1u64 << bit);
                }
                self.wake[r] = wake;
                horizon = horizon.min(wake);
            }
        }
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
        // the not-ready and wrong-port heads skipped. `ports` marks the
        // output ports with a candidate, visited in ascending index order
        // like `Port::ALL`.
        let mut cands = [0u16; 5];
        let mut ports = 0u8;
        let router = &self.routers[r];
        let mut bits = router.occupancy;
        while bits != 0 {
            let idx = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if router.heads[idx].ready_at <= now {
                let o = router.heads[idx].out.index();
                cands[o] |= 1 << idx;
                ports |= 1 << o;
            }
        }
        while ports != 0 {
            let o = ports.trailing_zeros() as usize;
            ports &= ports - 1;
            let out_port = Port::ALL[o];
            if self.routers[r].link_busy_until[o] > now {
                continue;
            }
            // Ejection always has room (the NI sinks immediately); any other
            // port needs downstream buffer space (credit).
            let downstream = (out_port != Port::Local).then(|| self.downstream(r, out_port));
            // The candidates in round-robin order: bit `i` of `order` is
            // buffer `(start + i) % SLOTS`.
            let start = self.routers[r].rr_pointer[o] as usize;
            let set = u32::from(cands[o]);
            let mut order = ((set >> start) | (set << (SLOTS - start))) & ((1 << SLOTS) - 1);
            let mut winner: Option<usize> = None;
            while order != 0 {
                let idx = (start + order.trailing_zeros() as usize) % SLOTS;
                order &= order - 1;
                if let Some(next) = downstream {
                    let credit = self.routers[next]
                        .free_flits(slot(opposite(out_port), idx % VirtualNetwork::COUNT));
                    if credit < self.routers[r].heads[idx].flits {
                        continue;
                    }
                }
                winner = Some(idx);
                break;
            }
            let Some(idx) = winner else {
                continue;
            };
            // Dequeue the winner and traverse.
            let router = &mut self.routers[r];
            router.rr_pointer[o] = ((idx + 1) % SLOTS) as u8;
            let mut header = router.pop(idx);
            // The buffer's new head competes for the ports still to come
            // this cycle, as a fresh read of the head would.
            if router.occupancy & (1 << idx) != 0 && router.heads[idx].ready_at <= now {
                let next_o = router.heads[idx].out.index();
                if next_o > o {
                    cands[next_o] |= 1 << idx;
                    ports |= 1 << next_o;
                }
            }
            let flits = Cycle::from(header.flits);
            router.link_busy_until[o] = now + flits;
            // The Figure 11 metric: every flit leaving a router crossbar is
            // one router traversal.
            let vnet_idx = idx % VirtualNetwork::COUNT;
            self.stats.record_traversal(flits as u32);
            self.link_stats.record(here, out_port, flits as u32);
            if let Some(next) = downstream {
                let ready_at = now + flits + self.config.pipeline_depth as Cycle - 1;
                let in_idx = slot(opposite(out_port), vnet_idx);
                horizon = horizon.min(self.buffer_packet(next, in_idx, ready_at, header));
            } else {
                header.ready_at = now + flits;
                self.deliveries.push(header);
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

    /// Hand over every ejection whose tail flit has arrived, taking its
    /// packet out of the slab. Returns the earliest due cycle still pending.
    fn collect_deliveries_into(&mut self, now: Cycle, out: &mut Vec<(NodeId, P)>) -> Cycle {
        let mut next_due = Cycle::MAX;
        let mut i = 0;
        while i < self.deliveries.len() {
            let due = self.deliveries[i].ready_at;
            if due <= now {
                let header = self.deliveries.swap_remove(i);
                let payload = self.slab[header.handle as usize]
                    .take()
                    .expect("delivered packet missing from the slab");
                self.free.push(header.handle);
                self.stats.record_delivery();
                self.in_network -= 1;
                out.push((NodeId(header.dst), payload));
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
        assert_stepping_transparent_with(mesh, NocConfig::default(), plan, stalls, horizon);
    }

    /// [`assert_stepping_transparent`] under `config`; returns the
    /// reference delivery stream.
    fn assert_stepping_transparent_with(
        mesh: Mesh,
        config: NocConfig,
        plan: &Plan,
        stalls: &Stalls,
        horizon: Cycle,
    ) -> Vec<(Cycle, NodeId, u32)> {
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
            let mut net = Network::new(mesh, config);
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
        reference.0
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
    fn deep_buffers_and_long_packets_step_identically() {
        // Packets up to the buffer size: long link occupancies and long
        // ejections, several of which (started at different cycles, with
        // different lengths) complete on the same cycle.
        for (mesh, buffer_flits, seed) in [(Mesh::paper(), 64, 404), (Mesh::new(8, 8), 200, 505)] {
            let n = mesh.nodes() as u64;
            let mut rng = puno_sim::SimRng::new(seed);
            let vnets = [
                VirtualNetwork::Request,
                VirtualNetwork::Forward,
                VirtualNetwork::Response,
            ];
            let plan: Vec<_> = (0..n as u32 * 3)
                .map(|i| {
                    let at = rng.gen_range(3000) as Cycle;
                    let src = rng.gen_range(n) as u16;
                    let dst = rng.gen_range(n) as u16;
                    let vnet = vnets[rng.gen_range(3) as usize];
                    // Every eighth packet fills a whole buffer.
                    let flits = match i % 8 {
                        0 => buffer_flits,
                        _ => 1 + rng.gen_range(u64::from(buffer_flits)) as u32,
                    };
                    (at, src, dst, vnet, flits, i)
                })
                .collect();
            let config = NocConfig {
                pipeline_depth: 4,
                buffer_flits,
            };
            let delivered = assert_stepping_transparent_with(mesh, config, &plan, &[], 40_000);
            let shared_due = delivered.windows(2).filter(|w| w[0].0 == w[1].0).count();
            assert!(
                shared_due > 0,
                "{buffer_flits}: no two ejections shared a due cycle"
            );
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

    /// Free flits in node `node`'s local input buffer for `vnet`.
    fn local_free(net: &Network<u32>, node: usize, vnet: VirtualNetwork) -> u8 {
        net.routers[node].free_flits(slot(Port::Local, vnet.index()))
    }

    /// Packets waiting in node `node`'s NI queue for `vnet`.
    fn ni_queued(net: &Network<u32>, node: usize, vnet: VirtualNetwork) -> usize {
        net.inject_queues[node * VirtualNetwork::COUNT + vnet.index()].len()
    }

    #[test]
    fn a_new_head_competes_only_for_the_ports_still_to_come() {
        // Two one-flit packets share node 5's local request buffer and
        // leave through different ports. When the head goes East (port 1),
        // the packet behind it becomes the head and goes West (port 2) in
        // the same allocation; the other way round it waits a cycle.
        let deliveries = |dsts: [u16; 2]| {
            let mut net: Network<u32> = Network::new(Mesh::paper(), NocConfig::default());
            for (i, dst) in dsts.into_iter().enumerate() {
                let vnet = VirtualNetwork::Request;
                net.inject(0, NodeId(5), NodeId(dst), vnet, CONTROL_FLITS, i as u32);
            }
            let delivered = run_until_idle(&mut net, 0, 1000);
            assert_eq!(net.stats().router_traversals(), 4);
            delivered
        };
        // Zero-load latency over one hop: 2 routers x (3 + 1) cycles.
        assert_eq!(
            deliveries([6, 4]),
            vec![(8, NodeId(4), 1), (8, NodeId(6), 0)]
        );
        assert_eq!(
            deliveries([4, 6]),
            vec![(8, NodeId(4), 0), (9, NodeId(6), 1)]
        );
    }

    #[test]
    fn a_full_buffer_admits_a_data_packet_only_once_five_flits_are_free() {
        let vnet = VirtualNetwork::Response;
        let mut net: Network<u32> = Network::new(Mesh::paper(), NocConfig::default());
        let capacity = NocConfig::default().buffer_flits;
        for i in 0..capacity {
            net.inject(0, NodeId(5), NodeId(5), vnet, CONTROL_FLITS, i);
        }
        net.inject(0, NodeId(5), NodeId(5), vnet, DATA_FLITS, 100);
        let mut delivered = Vec::new();
        let mut entered_at = None;
        for now in 0..200 {
            let free_before = local_free(&net, 5, vnet);
            let queued_before = ni_queued(&net, 5, vnet);
            delivered.extend(net.step(now).into_iter().map(|(_, p)| p));
            if now == 0 {
                // Eight one-flit packets fill the buffer to the last flit;
                // the data packet stays in the NI.
                assert_eq!(local_free(&net, 5, vnet), 0);
                assert_eq!(net.routers[5].resident_packets(), capacity as usize);
                assert_eq!(ni_queued(&net, 5, vnet), 1);
            }
            if queued_before == 1 && ni_queued(&net, 5, vnet) == 0 {
                assert!(
                    free_before >= DATA_FLITS as u8,
                    "data packet entered at {now} with {free_before} flits free"
                );
                entered_at = Some(now);
            } else if queued_before == 1 {
                assert!(
                    free_before < DATA_FLITS as u8,
                    "data packet kept waiting at {now} with {free_before} flits free"
                );
            }
            if net.is_idle() {
                break;
            }
        }
        // The buffer holds the full eight packets until the first ejection
        // (pipeline delay 3), then frees one flit per cycle.
        assert_eq!(entered_at, Some(8));
        assert_eq!(delivered, (0..capacity).chain([100]).collect::<Vec<_>>());
    }

    #[test]
    fn buffers_wrapping_many_times_deliver_in_fifo_order() {
        // Sixty packets of mixed size down one 6-hop XY path: every ring on
        // the path (capacity 8) takes sixty packets, wrapping at least
        // three times, and a single source's packets on one virtual
        // network can only arrive in injection order.
        let mut net: Network<u32> = Network::new(Mesh::paper(), NocConfig::default());
        let packets = 60u32;
        for i in 0..packets {
            let flits = if i % 3 == 1 {
                DATA_FLITS
            } else {
                CONTROL_FLITS
            };
            net.inject(
                i as Cycle / 4,
                NodeId(0),
                NodeId(15),
                VirtualNetwork::Response,
                flits,
                i,
            );
        }
        assert!(packets > 3 * NocConfig::default().buffer_flits);
        let delivered = run_until_idle(&mut net, 0, 100_000);
        let order: Vec<u32> = delivered.iter().map(|&(_, _, p)| p).collect();
        assert_eq!(order, (0..packets).collect::<Vec<_>>());
        assert!(delivered.iter().all(|&(_, node, _)| node == NodeId(15)));
    }

    #[test]
    #[should_panic(expected = "buffer_flits 256 exceeds the 255 packets a router ring can index")]
    fn a_buffer_too_deep_for_the_ring_index_is_refused() {
        let _: Network<u32> = Network::new(
            Mesh::paper(),
            NocConfig {
                pipeline_depth: 4,
                buffer_flits: 256,
            },
        );
    }

    #[test]
    #[should_panic(expected = "a 9-flit packet can never enter a 8-flit input buffer")]
    fn a_packet_larger_than_a_buffer_is_refused_at_injection() {
        let mut net: Network<u32> = Network::new(Mesh::paper(), NocConfig::default());
        net.inject(0, NodeId(0), NodeId(1), VirtualNetwork::Response, 9, 0);
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
