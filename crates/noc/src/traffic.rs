//! Network traffic accounting.
//!
//! The headline metric is `router_traversals`: the number of router crossbar
//! crossings summed over all flits — exactly the quantity plotted in the
//! paper's Figure 11 ("normalized on-chip network traffic measured in router
//! traversals by all the network flits").

use crate::packet::VirtualNetwork;
use puno_sim::{Cycles, RunningStats};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TrafficStats {
    flits_injected: u64,
    packets_injected: u64,
    router_traversals: u64,
    per_vnet_traversals: [u64; VirtualNetwork::COUNT],
    latency: RunningStats,
}

impl TrafficStats {
    pub fn record_injection(&mut self, flits: u32) {
        self.packets_injected += 1;
        self.flits_injected += flits as u64;
    }

    pub fn record_traversal(&mut self, vnet: VirtualNetwork, flits: u32) {
        self.router_traversals += flits as u64;
        self.per_vnet_traversals[vnet.index()] += flits as u64;
    }

    pub fn record_delivery(&mut self, latency: Cycles) {
        self.latency.record(latency);
    }

    /// Total flit-level router traversals (Figure 11 metric).
    pub fn router_traversals(&self) -> u64 {
        self.router_traversals
    }

    pub fn traversals_for(&self, vnet: VirtualNetwork) -> u64 {
        self.per_vnet_traversals[vnet.index()]
    }

    pub fn flits_injected(&self) -> u64 {
        self.flits_injected
    }

    pub fn packets_injected(&self) -> u64 {
        self.packets_injected
    }

    pub fn packets_delivered(&self) -> u64 {
        self.latency.count()
    }

    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    pub fn max_latency(&self) -> Option<u64> {
        self.latency.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_by_vnet() {
        let mut s = TrafficStats::default();
        s.record_injection(1);
        s.record_traversal(VirtualNetwork::Request, 1);
        s.record_traversal(VirtualNetwork::Request, 1);
        s.record_traversal(VirtualNetwork::Response, 5);
        assert_eq!(s.router_traversals(), 7);
        assert_eq!(s.traversals_for(VirtualNetwork::Request), 2);
        assert_eq!(s.traversals_for(VirtualNetwork::Response), 5);
        assert_eq!(s.flits_injected(), 1);
    }

    #[test]
    fn latency_stats() {
        let mut s = TrafficStats::default();
        s.record_delivery(10);
        s.record_delivery(30);
        assert_eq!(s.packets_delivered(), 2);
        assert!((s.mean_latency() - 20.0).abs() < 1e-12);
        assert_eq!(s.max_latency(), Some(30));
    }
}
