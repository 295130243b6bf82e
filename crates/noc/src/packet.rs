//! Packets and virtual networks.

use crate::topology::Port;
use puno_sim::Cycle;

/// Flits in a control message (requests, forwards, acks, nacks, unblocks).
///
/// The paper notes that PUNO's message extensions (U-bit, MP-bit, notification
/// field, MP-node) "fit into the existing flits, requiring no extra flits on
/// the network" — so control messages are one flit with or without PUNO.
pub const CONTROL_FLITS: u32 = 1;

/// Flits in a data message: 64-byte line over 16-byte channels plus head.
pub const DATA_FLITS: u32 = 5;

/// Virtual networks separate dependent message classes so the protocol cannot
/// deadlock in the network: a blocked request can never back-pressure the
/// response that would unblock it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VirtualNetwork {
    /// Requester -> directory (GETS/GETX/PUT).
    Request,
    /// Directory -> sharers/owner (forwards, invalidations).
    Forward,
    /// Terminal messages (data, ack, nack, unblock, wb-ack).
    Response,
}

impl VirtualNetwork {
    pub const COUNT: usize = 3;

    /// Every virtual network, in [`VirtualNetwork::index`] order.
    pub const ALL: [VirtualNetwork; 3] = [
        VirtualNetwork::Request,
        VirtualNetwork::Forward,
        VirtualNetwork::Response,
    ];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            VirtualNetwork::Request => 0,
            VirtualNetwork::Forward => 1,
            VirtualNetwork::Response => 2,
        }
    }

    /// Short lowercase name (trace output and exporter track labels).
    pub fn name(self) -> &'static str {
        match self {
            VirtualNetwork::Request => "request",
            VirtualNetwork::Forward => "forward",
            VirtualNetwork::Response => "response",
        }
    }
}

/// A packet parked in the network's slab from injection to delivery. `P` is
/// the protocol payload; the network treats it as opaque freight. Only the
/// delivery reads it: every queue in between carries a [`Header`].
#[derive(Debug)]
pub(crate) struct Packet<P> {
    pub injected_at: Cycle,
    pub payload: P,
}

/// What the NI queues, router FIFOs and pending ejections carry for a packet:
/// 16 bytes of routing state plus the slab handle of its [`Packet`]. The
/// virtual network is implied by the queue the header sits in.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Header {
    /// Cycle the packet clears the router pipeline (router FIFOs), or the
    /// cycle its tail reaches the NI (pending ejections).
    pub ready_at: Cycle,
    /// Slab index of the parked [`Packet`].
    pub handle: u32,
    pub dst: u16,
    /// At most the buffer capacity, which a ring index must hold.
    pub flits: u8,
    /// Output port fixed by the route-compute stage (`Local` until then).
    pub out: Port,
}

impl Header {
    /// Filler for ring slots not yet written and for fields set later.
    pub const EMPTY: Header = Header {
        ready_at: 0,
        handle: 0,
        dst: 0,
        flits: 0,
        out: Port::Local,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vnet_indices_are_distinct() {
        let idx: Vec<usize> = VirtualNetwork::ALL.iter().map(|v| v.index()).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn a_header_is_two_words() {
        assert_eq!(std::mem::size_of::<Header>(), 16);
    }

    #[test]
    fn data_messages_are_bigger_than_control() {
        let (data, control) = (DATA_FLITS, CONTROL_FLITS);
        assert!(data > control);
    }
}
