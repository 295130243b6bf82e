//! Coherence message formats, including the PUNO extensions of Figure 7.

use puno_noc::{VirtualNetwork, CONTROL_FLITS, DATA_FLITS};
use puno_sim::{Cycles, NodeId, StaticTxId, Timestamp, TxId};
use serde::{Deserialize, Serialize};

use crate::sharers::SharerSet;

/// Overflow stickiness of an eviction writeback (LogTM-style): how the
/// home must keep routing conflict checks after a transactional line is
/// forced out of the L1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StickyKind {
    /// Ordinary eviction: the directory releases the node.
    None,
    /// The line is in the evictor's transactional *read set*: the home
    /// keeps the node in the sharer list so writers' invalidations still
    /// reach it.
    Reader,
    /// The line is in the evictor's transactional *write set*: the home
    /// keeps the node as owner so every request is still forwarded to it
    /// (the node answers from its write set; data lives in L2/memory).
    Writer,
}

/// Transactional context attached to coherence requests issued from inside a
/// transaction. Requests carry the host node and priority of the requesting
/// transaction (paper Section III-B: the P-Buffer "is updated constantly with
/// the {host node, priority} pair retrieved from the incoming coherence
/// requests").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxInfo {
    pub tx: TxId,
    /// Priority of the transaction: smaller = older = wins conflicts.
    pub timestamp: Timestamp,
    /// Which static transaction this instance executes (indexes the TxLB).
    pub static_tx: StaticTxId,
    /// The node's running estimate of its average transaction length, in
    /// cycles. The directory's adaptive rollover counter derives its timeout
    /// period from this hint (Section III-B: "the timeout period ... is
    /// determined dynamically based on the average transaction length").
    pub avg_len_hint: Cycles,
}

/// All protocol messages. Field layout mirrors the paper's Figure 7: the
/// PUNO additions are the `unicast` flag (U-bit) on forwarded write requests,
/// the `notification`/`mispredict` fields on NACK, and the
/// `mispredict`/`mp_node` fields on UNBLOCK.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoherenceMsg {
    // ---- Request virtual network (node -> home directory) ----
    /// Request shared access.
    Gets {
        addr: puno_sim::LineAddr,
        requester: NodeId,
        tx: Option<TxInfo>,
    },
    /// Request exclusive access (a "transactional write request" when `tx`
    /// is set — the message class at the heart of false aborting).
    Getx {
        addr: puno_sim::LineAddr,
        requester: NodeId,
        tx: Option<TxInfo>,
    },
    /// Dirty writeback from an evicting owner (carries data).
    Putx {
        addr: puno_sim::LineAddr,
        owner: NodeId,
        sticky: StickyKind,
    },
    /// Clean-exclusive eviction notice (no data): an E-state owner is
    /// dropping its copy, so the directory must stop forwarding to it
    /// (unless sticky).
    Puts {
        addr: puno_sim::LineAddr,
        owner: NodeId,
        sticky: StickyKind,
    },

    // ---- Forward virtual network (home directory -> sharers/owner) ----
    /// Forwarded GETS to the current owner.
    FwdGets {
        addr: puno_sim::LineAddr,
        requester: NodeId,
        tx: Option<TxInfo>,
    },
    /// Forwarded GETX to the current owner. `unicast` is the U-bit.
    FwdGetx {
        addr: puno_sim::LineAddr,
        requester: NodeId,
        tx: Option<TxInfo>,
        unicast: bool,
    },
    /// Invalidation to a sharer on behalf of an exclusive requester.
    /// `unicast` is the U-bit (set when PUNO unicasts to the predicted
    /// highest-priority sharer instead of multicasting).
    Inv {
        addr: puno_sim::LineAddr,
        requester: NodeId,
        tx: Option<TxInfo>,
        unicast: bool,
    },

    // ---- Response virtual network ----
    /// Data to the requester. `acks_expected` tells the requester how many
    /// invalidation responses (Ack or Nack) to collect before concluding.
    /// `exclusive` grants E on a GETS with no other sharers.
    Data {
        addr: puno_sim::LineAddr,
        from: NodeId,
        acks_expected: u32,
        exclusive: bool,
        /// For owner -> requester transfers on a GETS: whether the previous
        /// owner kept a shared copy (downgrade) or invalidated (it aborted).
        /// Relayed to the home in UNBLOCK so the sharer list stays exact.
        owner_kept: bool,
    },
    /// Permission-only response for upgrades (requester already holds the
    /// line in S); control-sized.
    UpgradeAck {
        addr: puno_sim::LineAddr,
        from: NodeId,
        acks_expected: u32,
    },
    /// Invalidation acknowledgement from a sharer to the requester.
    /// `aborted` reports that complying required aborting a transaction
    /// (feeds the false-abort oracle).
    Ack {
        addr: puno_sim::LineAddr,
        from: NodeId,
        aborted: bool,
    },
    /// Negative acknowledgement: the sharer/owner refuses to give up the
    /// line. PUNO extensions: `notification` = nacker's estimated remaining
    /// running time in cycles; `mispredict` = MP-bit.
    Nack {
        addr: puno_sim::LineAddr,
        from: NodeId,
        notification: Option<Cycles>,
        mispredict: bool,
        /// Echo of the U-bit: tells the requester this NACK concludes a
        /// unicast service episode (no data or further acks will follow).
        unicast: bool,
    },
    /// Requester concludes a directory service episode. `success` = whether
    /// the request took effect; `nackers` lets the home reconcile its sharer
    /// list after a failed (nacked) GETX; `owner_kept` relays the `Data`
    /// flag of an owner transfer on a GETS; `mp_node` is PUNO's
    /// misprediction feedback (MP-bit + MP-node of Figure 7).
    Unblock {
        addr: puno_sim::LineAddr,
        requester: NodeId,
        success: bool,
        nackers: SharerSet,
        owner_kept: bool,
        mp_node: Option<NodeId>,
        /// Like requests, the unblock carries the requesting transaction's
        /// {host node, priority} pair so the home's P-Buffer stays fresh.
        tx: Option<TxInfo>,
    },
    /// Writeback acknowledgement to an evicting owner.
    WbAck { addr: puno_sim::LineAddr },
    /// EXTENSION (paper §VI future work): a nacker that finished (committed
    /// or aborted) pokes the requesters it previously nacked-with-
    /// notification, so an oversleeping backoff ends the moment the line is
    /// actually free. Control-sized; node-to-node.
    WakeupHint {
        addr: puno_sim::LineAddr,
        from: NodeId,
    },
    /// Data sent from a downgrading owner back to the home (sharing
    /// writeback), so the L2 copy is current before new sharers join.
    WbData {
        addr: puno_sim::LineAddr,
        from: NodeId,
    },
}

impl CoherenceMsg {
    pub fn addr(&self) -> puno_sim::LineAddr {
        match *self {
            CoherenceMsg::Gets { addr, .. }
            | CoherenceMsg::Getx { addr, .. }
            | CoherenceMsg::Putx { addr, .. }
            | CoherenceMsg::Puts { addr, .. }
            | CoherenceMsg::FwdGets { addr, .. }
            | CoherenceMsg::FwdGetx { addr, .. }
            | CoherenceMsg::Inv { addr, .. }
            | CoherenceMsg::Data { addr, .. }
            | CoherenceMsg::UpgradeAck { addr, .. }
            | CoherenceMsg::Ack { addr, .. }
            | CoherenceMsg::Nack { addr, .. }
            | CoherenceMsg::Unblock { addr, .. }
            | CoherenceMsg::WbAck { addr }
            | CoherenceMsg::WakeupHint { addr, .. }
            | CoherenceMsg::WbData { addr, .. } => addr,
        }
    }

    /// Virtual network assignment: requests, forwards and responses ride
    /// separate networks so the blocking protocol cannot deadlock in the
    /// fabric.
    pub fn vnet(&self) -> VirtualNetwork {
        match self {
            CoherenceMsg::Gets { .. }
            | CoherenceMsg::Getx { .. }
            | CoherenceMsg::Putx { .. }
            | CoherenceMsg::Puts { .. } => VirtualNetwork::Request,
            CoherenceMsg::FwdGets { .. }
            | CoherenceMsg::FwdGetx { .. }
            | CoherenceMsg::Inv { .. } => VirtualNetwork::Forward,
            _ => VirtualNetwork::Response,
        }
    }

    /// Message size in flits. Only messages carrying a full cache line are
    /// data-sized; everything else — including every PUNO-extended message —
    /// fits in one control flit ("the extended messages can fit into the
    /// existing flits, requiring no extra flits on the network").
    pub fn flits(&self) -> u32 {
        match self {
            CoherenceMsg::Data { .. } | CoherenceMsg::Putx { .. } | CoherenceMsg::WbData { .. } => {
                DATA_FLITS
            }
            _ => CONTROL_FLITS,
        }
    }

    /// True for transactional GETX — the request class whose multicast causes
    /// false aborting (Figure 2 denominator).
    pub fn is_tx_getx(&self) -> bool {
        matches!(self, CoherenceMsg::Getx { tx: Some(_), .. })
    }

    /// The payload-free kind mirror used by the typed trace events in
    /// `puno_sim::trace` (the sim kernel cannot depend on this crate).
    pub fn trace_kind(&self) -> puno_sim::CohMsgKind {
        use puno_sim::CohMsgKind as K;
        match self {
            CoherenceMsg::Gets { .. } => K::Gets,
            CoherenceMsg::Getx { .. } => K::Getx,
            CoherenceMsg::Putx { .. } => K::Putx,
            CoherenceMsg::Puts { .. } => K::Puts,
            CoherenceMsg::FwdGets { .. } => K::FwdGets,
            CoherenceMsg::FwdGetx { .. } => K::FwdGetx,
            CoherenceMsg::Inv { .. } => K::Inv,
            CoherenceMsg::Data { .. } => K::Data,
            CoherenceMsg::UpgradeAck { .. } => K::UpgradeAck,
            CoherenceMsg::Ack { .. } => K::Ack,
            CoherenceMsg::Nack { .. } => K::Nack,
            CoherenceMsg::Unblock { .. } => K::Unblock,
            CoherenceMsg::WbAck { .. } => K::WbAck,
            CoherenceMsg::WakeupHint { .. } => K::WakeupHint,
            CoherenceMsg::WbData { .. } => K::WbData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puno_sim::LineAddr;

    fn txinfo(ts: u64) -> TxInfo {
        TxInfo {
            tx: TxId(1),
            timestamp: Timestamp(ts),
            static_tx: StaticTxId(0),
            avg_len_hint: 100,
        }
    }

    #[test]
    fn vnet_assignment_separates_classes() {
        let gets = CoherenceMsg::Gets {
            addr: LineAddr(1),
            requester: NodeId(0),
            tx: None,
        };
        let inv = CoherenceMsg::Inv {
            addr: LineAddr(1),
            requester: NodeId(0),
            tx: Some(txinfo(5)),
            unicast: true,
        };
        let ack = CoherenceMsg::Ack {
            addr: LineAddr(1),
            from: NodeId(2),
            aborted: false,
        };
        assert_eq!(gets.vnet(), VirtualNetwork::Request);
        assert_eq!(inv.vnet(), VirtualNetwork::Forward);
        assert_eq!(ack.vnet(), VirtualNetwork::Response);
    }

    #[test]
    fn only_data_messages_are_data_sized() {
        let nack = CoherenceMsg::Nack {
            addr: LineAddr(1),
            from: NodeId(2),
            notification: Some(400),
            mispredict: true,
            unicast: true,
        };
        assert_eq!(nack.flits(), CONTROL_FLITS);
        let data = CoherenceMsg::Data {
            addr: LineAddr(1),
            from: NodeId(2),
            acks_expected: 3,
            exclusive: false,
            owner_kept: false,
        };
        assert_eq!(data.flits(), DATA_FLITS);
    }

    #[test]
    fn tx_getx_detection() {
        let tx_getx = CoherenceMsg::Getx {
            addr: LineAddr(1),
            requester: NodeId(0),
            tx: Some(txinfo(9)),
        };
        let plain_getx = CoherenceMsg::Getx {
            addr: LineAddr(1),
            requester: NodeId(0),
            tx: None,
        };
        assert!(tx_getx.is_tx_getx());
        assert!(!plain_getx.is_tx_getx());
    }

    #[test]
    fn addr_accessor_covers_all_variants() {
        let msgs = [
            CoherenceMsg::WbAck { addr: LineAddr(9) },
            CoherenceMsg::Unblock {
                addr: LineAddr(9),
                requester: NodeId(1),
                success: true,
                nackers: SharerSet::default(),
                owner_kept: false,
                mp_node: None,
                tx: None,
            },
        ];
        for m in &msgs {
            assert_eq!(m.addr(), LineAddr(9));
        }
    }
}
