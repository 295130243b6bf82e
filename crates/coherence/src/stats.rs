//! Directory-side statistics, including the Figure 12 blocking metric.

use puno_sim::{Counter, RunningStats};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DirStats {
    pub gets_received: Counter,
    pub getx_received: Counter,
    pub putx_received: Counter,
    pub mem_fetches: Counter,
    /// Multicast invalidation fan-out (number of Inv messages sent).
    pub invalidations_sent: Counter,
    /// Transactional GETX episodes serviced by PUNO unicast.
    pub unicasts_sent: Counter,
    /// Cycles entries spent blocked while servicing *transactional GETX* —
    /// the quantity averaged in the paper's Figure 12.
    pub blocking_cycles_tx_getx: RunningStats,
    /// Requests that had to queue behind a busy entry.
    pub queued_requests: Counter,
}

impl DirStats {
    pub fn merge(&mut self, other: &DirStats) {
        self.gets_received.add(other.gets_received.get());
        self.getx_received.add(other.getx_received.get());
        self.putx_received.add(other.putx_received.get());
        self.mem_fetches.add(other.mem_fetches.get());
        self.invalidations_sent.add(other.invalidations_sent.get());
        self.unicasts_sent.add(other.unicasts_sent.get());
        self.blocking_cycles_tx_getx
            .merge(&other.blocking_cycles_tx_getx);
        self.queued_requests.add(other.queued_requests.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = DirStats::default();
        let mut b = DirStats::default();
        a.gets_received.inc();
        b.gets_received.add(2);
        b.blocking_cycles_tx_getx.record(10);
        a.merge(&b);
        assert_eq!(a.gets_received.get(), 3);
        assert_eq!(a.blocking_cycles_tx_getx.sum(), 10);
    }
}
