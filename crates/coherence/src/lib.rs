//! # puno-coherence
//!
//! The MESI directory protocol substrate the paper's HTM piggybacks on
//! (Section II-A), including the three PUNO message extensions of Figure 7:
//!
//! * **GETX/Inv + U-bit** — marks a forwarded write request as a *unicast*
//!   so the receiver knows to answer conservatively on misprediction;
//! * **NACK + notification field + MP-bit** — carries the nacker's estimated
//!   remaining run time, and flags mispredicted unicasts;
//! * **UNBLOCK + MP-bit + MP-node** — relays misprediction feedback from the
//!   requester to the home directory.
//!
//! The directory is *blocking* (SGI-Origin / GEMS style): while a request for
//! a line is being serviced, the entry sits in a transient busy state and
//! subsequent requests for the same line queue at the home node. The time
//! entries spend blocked on transactional GETX requests is the paper's
//! Figure 12 metric and is accounted here.
//!
//! Layering: this crate owns message formats, the L1 cache structure, sharer
//! tracking, and the full home-directory state machine. The node-side
//! controller that ties L1 + HTM + MSHR together lives in `puno-harness`;
//! conflict decisions are delegated through small traits so the HTM and PUNO
//! crates can be developed and tested independently.

#![forbid(unsafe_code)]

pub mod directory;
pub mod l1;
pub mod msg;
pub mod predictor;
pub mod sharers;
pub mod stats;

pub use directory::{DirAction, DirConfig, DirectoryBank};
pub use l1::{L1Cache, L1Config, LineState, LookupOutcome};
pub use msg::{CoherenceMsg, TxInfo};
pub use predictor::{NullPredictor, PredictedTarget, UnicastPredictor};
pub use sharers::SharerSet;
pub use stats::DirStats;

/// Static home-node mapping: every line has a home L2 bank/directory slice
/// determined by its address (Table II: "static cache bank directory").
#[inline]
pub fn home_node(addr: puno_sim::LineAddr, nodes: u16) -> puno_sim::NodeId {
    puno_sim::NodeId((addr.0 % nodes as u64) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use puno_sim::LineAddr;

    #[test]
    fn home_mapping_is_static_and_total() {
        for a in 0..64 {
            let h = home_node(LineAddr(a), 16);
            assert!(h.0 < 16);
            assert_eq!(h, home_node(LineAddr(a), 16));
        }
        assert_eq!(home_node(LineAddr(17), 16).0, 1);
    }
}
