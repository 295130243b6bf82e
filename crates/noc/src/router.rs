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
//! The buffers hold packet `Header`s, never payloads. Each buffer's head
//! sits in `heads`, the one place arbitration reads it; the packets queued
//! behind it sit in a fixed-capacity ring, the rings of a router laid out
//! in one block. A buffer of `buffer_flits` flits holds at most
//! `buffer_flits` packets (every packet is at least one flit), so its ring
//! holds one fewer and nothing ever grows.

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
    /// The head packet of each non-empty buffer. Switch allocation and the
    /// wake computation read these, never the rings.
    pub heads: [Header; SLOTS],
    /// Ring position of the first packet queued behind each buffer's
    /// head, the number queued behind it, and the flits the whole buffer
    /// holds.
    first: [u8; SLOTS],
    queued: [u8; SLOTS],
    occupied: [u8; SLOTS],
    /// Buffer size in flits, which is also its capacity in packets.
    capacity: u8,
    /// `SLOTS` rings of `capacity - 1` headers, the packets queued behind
    /// each head; buffer `i` owns `ring[i * (capacity - 1)..]`. Empty until
    /// some buffer first queues a packet behind its head, so building a
    /// network touches no ring memory.
    ring: Vec<Header>,
}

impl Router {
    pub fn new(capacity: u8) -> Self {
        Self {
            occupancy: 0,
            rr_pointer: [0; 5],
            link_busy_until: [0; 5],
            heads: [Header::EMPTY; SLOTS],
            first: [0; SLOTS],
            queued: [0; SLOTS],
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

    /// Ring index of the `k`-th packet queued behind the head of buffer
    /// `idx`.
    #[inline]
    fn position(&self, idx: usize, k: usize) -> usize {
        let depth = self.capacity as usize - 1;
        let mut at = self.first[idx] as usize + k;
        if at >= depth {
            at -= depth;
        }
        idx * depth + at
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
        self.occupied[idx] += header.flits;
        if self.occupancy & (1 << idx) != 0 {
            if self.ring.is_empty() {
                self.ring = vec![Header::EMPTY; SLOTS * (self.capacity as usize - 1)];
            }
            let at = self.position(idx, self.queued[idx] as usize);
            self.ring[at] = header;
            self.queued[idx] += 1;
            return None;
        }
        self.occupancy |= 1 << idx;
        self.heads[idx] = header;
        Some(
            header
                .ready_at
                .max(self.link_busy_until[header.out.index()]),
        )
    }

    /// Dequeue the head of buffer `idx`, which must be non-empty, and move
    /// the next packet up to head (or clear the occupancy bit).
    #[inline]
    pub fn pop(&mut self, idx: usize) -> Header {
        let header = self.heads[idx];
        self.occupied[idx] -= header.flits;
        if self.queued[idx] == 0 {
            self.occupancy &= !(1 << idx);
            return header;
        }
        self.heads[idx] = self.ring[self.position(idx, 0)];
        let next = self.first[idx] + 1;
        self.first[idx] = if next == self.capacity - 1 { 0 } else { next };
        self.queued[idx] -= 1;
        header
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
            let head = &self.heads[idx];
            let at = head.ready_at.max(self.link_busy_until[head.out.index()]);
            wake = wake.min(if at <= now { now + 1 } else { at });
        }
        wake
    }

    /// Total packets resident in this router's input buffers.
    pub fn resident_packets(&self) -> usize {
        self.occupancy.count_ones() as usize
            + self.queued.iter().map(|&n| n as usize).sum::<usize>()
    }
}
