//! Per-router state: input virtual-channel buffers, output links, round-robin
//! switch arbitration pointers.
//!
//! The router is a 4-stage pipeline (buffer write / route compute, VC
//! allocation, switch allocation, switch+link traversal), modeled as a fixed
//! `pipeline_depth - 1` cycle delay between a packet's arrival at an input
//! buffer and its eligibility for switch allocation; the final stage is the
//! link traversal itself, which occupies the output link for one cycle per
//! flit (virtual cut-through).
//!
//! The buffers hold packet `Header`s, never payloads, in fixed-capacity
//! rings laid out in one block per router. A buffer of `buffer_flits` flits
//! holds at most `buffer_flits` packets (every packet is at least one flit),
//! so that is each ring's capacity and nothing ever grows.

use crate::packet::{Header, VirtualNetwork};
use crate::topology::Port;
use puno_sim::Cycle;

/// Input buffers per router: one per (input port, vnet).
pub(crate) const SLOTS: usize = 5 * VirtualNetwork::COUNT;

/// Index of the (input port, vnet) buffer in the flattened candidate space.
#[inline]
pub(crate) fn slot(port: Port, vnet_idx: usize) -> usize {
    port.index() * VirtualNetwork::COUNT + vnet_idx
}

/// Router state. Ports: 0 = Local (injection/ejection), 1..=4 = E/W/N/S.
/// Every per-buffer array is indexed by [`slot`].
pub(crate) struct Router {
    /// Non-empty-buffer bitmask over the flattened (input port, vnet)
    /// space: bit [`slot`] is set iff that input FIFO holds at least one
    /// packet. Switch allocation scans only set bits — an empty buffer is
    /// exactly a skipped candidate in the full scan, so the restriction
    /// changes no arbitration outcome.
    pub occupancy: u16,
    /// Round-robin arbitration pointer per output port, over the flattened
    /// (input port, vnet) candidate space.
    pub rr_pointer: [u8; 5],
    /// Output link busy-until cycle, per output port.
    pub link_busy_until: [Cycle; 5],
    /// The head packet of each non-empty buffer: the cycle it clears the
    /// pipeline, its routed output port and its size. Switch allocation and
    /// the wake computation read these, never the rings.
    pub head_ready: [Cycle; SLOTS],
    pub head_out: [Port; SLOTS],
    pub head_flits: [u8; SLOTS],
    /// Ring position of each buffer's head, its packet count and the flits
    /// it holds.
    first: [u8; SLOTS],
    len: [u8; SLOTS],
    occupied: [u8; SLOTS],
    /// Ring capacity in packets, which is also the buffer size in flits.
    capacity: u8,
    /// `SLOTS` rings of `capacity` headers; buffer `i` owns
    /// `ring[i * capacity..(i + 1) * capacity]`. Empty until the router's
    /// first packet, so building a network touches no ring memory.
    ring: Vec<Header>,
}

impl Router {
    pub fn new(capacity: u8) -> Self {
        Self {
            occupancy: 0,
            rr_pointer: [0; 5],
            link_busy_until: [0; 5],
            head_ready: [0; SLOTS],
            head_out: [Port::Local; SLOTS],
            head_flits: [0; SLOTS],
            first: [0; SLOTS],
            len: [0; SLOTS],
            occupied: [0; SLOTS],
            capacity,
            ring: Vec::new(),
        }
    }

    /// Flits of space left in buffer `idx` (the credit an upstream router
    /// needs before it may send a packet here).
    #[inline]
    pub fn free_flits(&self, idx: usize) -> u8 {
        self.capacity - self.occupied[idx]
    }

    /// Ring index of the `k`-th packet of buffer `idx`.
    #[inline]
    fn position(&self, idx: usize, k: usize) -> usize {
        let cap = self.capacity as usize;
        let mut at = self.first[idx] as usize + k;
        if at >= cap {
            at -= cap;
        }
        idx * cap + at
    }

    /// Enqueue a routed packet into buffer `idx`. The caller must have
    /// checked space. Returns the earliest cycle the packet can win switch
    /// allocation if it became the buffer's head, the only case in which it
    /// can move the router's wake earlier.
    #[inline]
    pub fn accept(&mut self, idx: usize, header: Header) -> Option<Cycle> {
        debug_assert!(
            header.flits <= self.free_flits(idx),
            "accepted without credit"
        );
        if self.ring.is_empty() {
            self.ring = vec![Header::EMPTY; SLOTS * self.capacity as usize];
        }
        let at = self.position(idx, self.len[idx] as usize);
        self.ring[at] = header;
        self.len[idx] += 1;
        self.occupied[idx] += header.flits;
        if self.len[idx] > 1 {
            return None;
        }
        self.occupancy |= 1 << idx;
        self.set_head(idx, &header);
        Some(
            header
                .ready_at
                .max(self.link_busy_until[header.out.index()]),
        )
    }

    /// Dequeue the head of buffer `idx`, which must be non-empty, and cache
    /// the next head (or clear the occupancy bit).
    #[inline]
    pub fn pop(&mut self, idx: usize) -> Header {
        let header = self.ring[self.position(idx, 0)];
        self.first[idx] = if self.first[idx] + 1 == self.capacity {
            0
        } else {
            self.first[idx] + 1
        };
        self.len[idx] -= 1;
        self.occupied[idx] -= header.flits;
        if self.len[idx] == 0 {
            self.occupancy &= !(1 << idx);
        } else {
            let next = self.ring[self.position(idx, 0)];
            self.set_head(idx, &next);
        }
        header
    }

    #[inline]
    fn set_head(&mut self, idx: usize, head: &Header) {
        self.head_ready[idx] = head.ready_at;
        self.head_out[idx] = head.out;
        self.head_flits[idx] = head.flits;
    }

    /// The router's wake after a visit at `now`: a lower bound on the next
    /// cycle any head-of-line packet here can win switch allocation,
    /// `max(ready_at, link_busy_until[out])` over the heads. A head still
    /// eligible at `now` (ready, link free) lost only for lack of downstream
    /// credit, which can free up by the next cycle. `Cycle::MAX` when the
    /// buffers are empty.
    pub fn recompute_wake(&self, now: Cycle) -> Cycle {
        let mut wake = Cycle::MAX;
        let mut bits = self.occupancy;
        while bits != 0 {
            let idx = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let at = self.head_ready[idx].max(self.link_busy_until[self.head_out[idx].index()]);
            wake = wake.min(if at <= now { now + 1 } else { at });
        }
        wake
    }

    /// Total packets resident in this router's input buffers.
    pub fn resident_packets(&self) -> usize {
        self.len.iter().map(|&n| n as usize).sum()
    }
}
