//! Read-modify-write predictor, the second comparison mechanism of the
//! paper's evaluation (Bobba et al. \[5\]).
//!
//! Transactions that load a line and later store to it within the same
//! transaction exhibit the read-modify-write pattern; the dueling upgrade
//! (GETS then GETX) is a classic conflict amplifier. The predictor tracks
//! load *instructions* (static operation sites, the analogue of PCs): once a
//! load site is observed to be followed by a store to the same line, future
//! executions of that load request exclusive permission up front.
//!
//! Each node has a predictor tracking up to 256 load instructions
//! (Section IV-A). The paper's evaluation shows the flip side we must also
//! reproduce: by converting read-read sharing into write-read conflicts, the
//! predictor *hurts* high-contention workloads (2x more aborts in Vacation).

use puno_sim::{LineKey, LineMap};
use serde::{Deserialize, Serialize};

/// A static operation site: (static transaction id, operation index) — the
/// synthetic-workload analogue of a load instruction's PC.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OpSite {
    pub static_tx: u32,
    pub op_index: u32,
}

impl LineKey for OpSite {
    #[inline]
    fn to_key(self) -> u64 {
        (self.static_tx as u64) << 32 | self.op_index as u64
    }
    #[inline]
    fn from_key(key: u64) -> Self {
        Self {
            static_tx: (key >> 32) as u32,
            op_index: key as u32,
        }
    }
}

/// Per-node RMW predictor with a bounded table and FIFO replacement.
#[derive(Clone, Debug)]
pub struct RmwPredictor {
    capacity: usize,
    /// Trained load sites, mapped to their insertion order for replacement.
    table: LineMap<OpSite, u64>,
    insert_seq: u64,
}

impl RmwPredictor {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            capacity,
            table: LineMap::with_capacity(capacity),
            insert_seq: 0,
        }
    }

    /// The paper's configuration: 256 tracked load instructions per node.
    pub fn paper() -> Self {
        Self::new(256)
    }

    /// Should the load at `site` request exclusive permission?
    pub fn predicts_rmw(&self, site: OpSite) -> bool {
        self.table.contains_key(site)
    }

    /// Train: the load at `site` was followed by a store to the same line
    /// within one transaction.
    pub fn train(&mut self, site: OpSite) {
        if self.table.contains_key(site) {
            return;
        }
        if self.table.len() >= self.capacity {
            // Evict the oldest entry (FIFO). Insertion sequence numbers are
            // unique, so the min is deterministic whatever the scan order.
            if let Some((victim, _)) = self.table.iter().min_by_key(|(_, &seq)| seq) {
                self.table.remove(victim);
            }
        }
        self.table.insert(site, self.insert_seq);
        self.insert_seq += 1;
    }

    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(tx: u32, op: u32) -> OpSite {
        OpSite {
            static_tx: tx,
            op_index: op,
        }
    }

    #[test]
    fn untrained_sites_predict_read() {
        let p = RmwPredictor::new(4);
        assert!(!p.predicts_rmw(site(0, 0)));
    }

    #[test]
    fn training_flips_the_prediction() {
        let mut p = RmwPredictor::new(4);
        p.train(site(1, 3));
        assert!(p.predicts_rmw(site(1, 3)));
        assert!(!p.predicts_rmw(site(1, 4)));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut p = RmwPredictor::new(2);
        p.train(site(0, 0));
        p.train(site(0, 1));
        p.train(site(0, 2)); // evicts (0,0)
        assert!(!p.predicts_rmw(site(0, 0)));
        assert!(p.predicts_rmw(site(0, 1)));
        assert!(p.predicts_rmw(site(0, 2)));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn retraining_is_idempotent() {
        let mut p = RmwPredictor::new(2);
        p.train(site(0, 0));
        p.train(site(0, 0));
        p.train(site(0, 1));
        // (0,0) was not re-inserted, so a third distinct site evicts it
        // first — but both trained sites are still present now.
        assert_eq!(p.len(), 2);
        assert!(p.predicts_rmw(site(0, 0)));
    }
}
