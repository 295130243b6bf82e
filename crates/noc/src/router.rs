//! Per-router state: input virtual-channel buffers, output links, round-robin
//! switch arbitration pointers.
//!
//! The router is a 4-stage pipeline (buffer write / route compute, VC
//! allocation, switch allocation, switch+link traversal), modeled as a fixed
//! `pipeline_depth - 1` cycle delay between a packet's arrival at an input
//! buffer and its eligibility for switch allocation; the final stage is the
//! link traversal itself, which occupies the output link for one cycle per
//! flit (virtual cut-through).

use crate::packet::{Packet, VirtualNetwork};
use crate::topology::Port;
use puno_sim::Cycle;
use std::collections::VecDeque;

/// A packet waiting in an input buffer, annotated with the cycle at which it
/// has cleared the router pipeline and may compete for the switch, and the
/// XY output port computed once when it was written into the buffer (the
/// route-compute stage).
#[derive(Clone)]
pub(crate) struct BufferedPacket<P> {
    pub ready_at: Cycle,
    pub out: Port,
    pub packet: Packet<P>,
}

/// One input unit: a FIFO per (input port, virtual network), with occupancy
/// accounted in flits against a fixed capacity.
#[derive(Clone)]
pub(crate) struct InputBuffer<P> {
    pub queue: VecDeque<BufferedPacket<P>>,
    pub occupied_flits: u32,
}

impl<P> InputBuffer<P> {
    fn new() -> Self {
        Self {
            queue: VecDeque::new(),
            occupied_flits: 0,
        }
    }

    pub fn free_flits(&self, capacity: u32) -> u32 {
        capacity.saturating_sub(self.occupied_flits)
    }
}

/// Input buffers per router: one per (input port, vnet).
pub(crate) const SLOTS: usize = 5 * VirtualNetwork::COUNT;

/// Index of the (input port, vnet) buffer in the flattened candidate space.
#[inline]
pub(crate) fn slot(port: Port, vnet_idx: usize) -> usize {
    port.index() * VirtualNetwork::COUNT + vnet_idx
}

/// Router state. Ports: 0 = Local (injection/ejection), 1..=4 = E/W/N/S.
#[derive(Clone)]
pub(crate) struct Router<P> {
    /// Input buffers, indexed by [`slot`].
    pub inputs: [InputBuffer<P>; SLOTS],
    /// Output link busy-until cycle, per output port.
    pub link_busy_until: [Cycle; 5],
    /// Round-robin arbitration pointer per output port, over the flattened
    /// (input port, vnet) candidate space.
    pub rr_pointer: [usize; 5],
    /// Non-empty-buffer bitmask over the same flattened (input port, vnet)
    /// space: bit `port.index() * VirtualNetwork::COUNT + vnet.index()` is
    /// set iff that input FIFO holds at least one packet. Switch allocation
    /// scans only set bits — an empty buffer is exactly a skipped candidate
    /// in the full scan, so the restriction changes no arbitration outcome.
    pub occupancy: u16,
    /// Lower bound on the next cycle any head-of-line packet here can win
    /// switch allocation: `max(ready_at, link_busy_until[out])` over the
    /// heads, or one past the last visit for a head that was eligible but
    /// lacked credit. `Cycle::MAX` when the buffers are empty. Arbitration
    /// skips the router until this cycle; see `Network::arbitrate`.
    pub wake: Cycle,
}

impl<P> Router<P> {
    pub fn new() -> Self {
        Self {
            inputs: std::array::from_fn(|_| InputBuffer::new()),
            link_busy_until: [0; 5],
            rr_pointer: [0; 5],
            occupancy: 0,
            wake: Cycle::MAX,
        }
    }

    pub fn buffer(&self, port: Port, vnet: VirtualNetwork) -> &InputBuffer<P> {
        &self.inputs[slot(port, vnet.index())]
    }

    /// Enqueue a packet routed to output `out` into an input buffer, and
    /// return the router's (possibly lowered) wake. Caller must have checked
    /// space. Only a packet landing in an empty buffer becomes a head, so
    /// only then can it move the wake earlier.
    pub fn accept(&mut self, port: Port, ready_at: Cycle, out: Port, packet: Packet<P>) -> Cycle {
        let idx = slot(port, packet.vnet.index());
        self.occupancy |= 1 << idx;
        let link_free_at = self.link_busy_until[out.index()];
        let buf = &mut self.inputs[idx];
        let head = buf.queue.is_empty();
        buf.occupied_flits += packet.flits;
        buf.queue.push_back(BufferedPacket {
            ready_at,
            out,
            packet,
        });
        if head {
            self.wake = self.wake.min(ready_at.max(link_free_at));
        }
        self.wake
    }

    /// Recompute the wake from the current heads after a visit at `now`. A
    /// head still eligible at `now` (ready, link free) lost only for lack of
    /// downstream credit, which can free up by the next cycle.
    pub fn recompute_wake(&mut self, now: Cycle) -> Cycle {
        let mut wake = Cycle::MAX;
        let mut bits = self.occupancy;
        while bits != 0 {
            let idx = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let head = self.inputs[idx]
                .queue
                .front()
                .expect("occupancy bit set on an empty buffer");
            let at = head.ready_at.max(self.link_busy_until[head.out.index()]);
            wake = wake.min(if at <= now { now + 1 } else { at });
        }
        self.wake = wake;
        wake
    }

    /// Total packets resident in this router's input buffers.
    pub fn resident_packets(&self) -> usize {
        self.inputs.iter().map(|b| b.queue.len()).sum()
    }
}
