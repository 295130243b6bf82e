//! Network traffic accounting.
//!
//! The headline metric is `router_traversals`: the number of router crossbar
//! crossings summed over all flits — exactly the quantity plotted in the
//! paper's Figure 11 ("normalized on-chip network traffic measured in router
//! traversals by all the network flits").

#[derive(Clone, Debug, Default)]
pub struct TrafficStats {
    flits_injected: u64,
    router_traversals: u64,
    packets_delivered: u64,
}

impl TrafficStats {
    pub fn record_injection(&mut self, flits: u32) {
        self.flits_injected += flits as u64;
    }

    pub fn record_traversal(&mut self, flits: u32) {
        self.router_traversals += flits as u64;
    }

    pub fn record_delivery(&mut self) {
        self.packets_delivered += 1;
    }

    /// Total flit-level router traversals (Figure 11 metric).
    pub fn router_traversals(&self) -> u64 {
        self.router_traversals
    }

    pub fn flits_injected(&self) -> u64 {
        self.flits_injected
    }

    /// Packets handed to their destination NI; the stepping-transparency
    /// tests compare it across drives.
    pub fn packets_delivered(&self) -> u64 {
        self.packets_delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_flits_and_deliveries() {
        let mut s = TrafficStats::default();
        s.record_injection(5);
        s.record_traversal(1);
        s.record_traversal(5);
        s.record_delivery();
        assert_eq!(s.router_traversals(), 6);
        assert_eq!(s.flits_injected(), 5);
        assert_eq!(s.packets_delivered(), 1);
    }
}
