//! The directory-side PUNO predictor: P-Buffer + UD pointers + adaptive
//! rollover, implementing `puno_coherence::UnicastPredictor`.
//!
//! Operation (Figure 8):
//!
//! * every transactional request refreshes the requester's P-Buffer entry
//!   and feeds the rollover counter's average-transaction-length estimate;
//! * on a transactional GETX, the entry's UD pointer names the candidate
//!   highest-priority sharer; if that sharer's priority is valid and
//!   outranks the requester's, the request is unicast to it;
//! * after each service episode the UD pointer is recomputed from the final
//!   holder set (off the critical path);
//! * misprediction feedback (MP-bit + MP-node in UNBLOCK) invalidates the
//!   stale P-Buffer priority and recomputes the UD pointer.

use crate::config::PunoConfig;
use crate::pbuffer::PBuffer;
use crate::rollover::RolloverCounter;
use crate::stats::PunoStats;
use puno_coherence::{PredictedTarget, SharerSet, TxInfo, UnicastPredictor};
use puno_sim::{Cycle, LineAddr, LineMap, NodeId};

#[derive(Clone)]
pub struct PunoPredictor {
    config: PunoConfig,
    pbuffer: PBuffer,
    rollover: RolloverCounter,
    /// UD pointer per directory entry this bank has served.
    ud: LineMap<LineAddr, NodeId>,
    stats: PunoStats,
}

impl PunoPredictor {
    pub fn new(config: PunoConfig) -> Self {
        Self {
            pbuffer: PBuffer::with_threshold(config.pbuffer_entries, config.validity_threshold),
            rollover: RolloverCounter::with_factor(
                config.rollover_min,
                config.rollover_max,
                config.rollover_factor.max(1),
            ),
            ud: LineMap::new(),
            stats: PunoStats::default(),
            config,
        }
    }

    pub fn stats(&self) -> &PunoStats {
        &self.stats
    }

    pub fn pbuffer(&self) -> &PBuffer {
        &self.pbuffer
    }

    /// Test/diagnostic access to an entry's UD pointer.
    pub fn ud_pointer(&self, addr: LineAddr) -> Option<NodeId> {
        self.ud.get(addr).copied()
    }

    fn tick_rollover(&mut self, now: Cycle) {
        let fired = self.rollover.advance(now);
        for _ in 0..fired {
            self.pbuffer.timeout();
            self.stats.timeouts.inc();
        }
    }

    fn recompute_ud(&mut self, addr: LineAddr, holders: SharerSet) {
        match self.pbuffer.highest_priority_among(holders.iter()) {
            Some((node, _)) => {
                self.ud.insert(addr, node);
            }
            None => {
                self.ud.remove(addr);
            }
        }
    }
}

impl UnicastPredictor for PunoPredictor {
    fn observe_request(&mut self, now: Cycle, node: NodeId, info: &TxInfo) {
        self.tick_rollover(now);
        self.pbuffer.update(node, info.timestamp);
        self.stats.pbuffer_updates.inc();
        self.rollover.observe_tx_len(info.avg_len_hint);
    }

    fn predict_unicast(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        _requester: NodeId,
        req: &TxInfo,
        holders: SharerSet,
        exclusive_owner: bool,
    ) -> Option<PredictedTarget> {
        if !self.config.unicast_enabled || holders.is_empty() {
            return None;
        }
        if exclusive_owner && !self.config.predict_owner_state {
            return None;
        }
        self.tick_rollover(now);
        self.stats.opportunities.inc();

        // Follow the UD pointer; fall back to an on-the-spot computation
        // when the entry has no pointer yet (first transactional GETX to
        // this line) or the pointer went stale against the holder set.
        let candidate = self
            .ud
            .get(addr)
            .copied()
            .filter(|n| holders.contains(*n))
            .or_else(|| {
                self.pbuffer
                    .highest_priority_among(holders.iter())
                    .map(|(n, _)| n)
            });

        let Some(target) = candidate else {
            self.stats.declined.inc();
            return None;
        };
        // Confidence is proportional to what is at stake. With two or more
        // holders a correct unicast prevents false aborts (large win), so
        // the base threshold applies; with a single holder the probe only
        // buys a notification over what the baseline forward would do, and
        // a misprediction needlessly delays a winning requester — demand a
        // doubly-refreshed (actively retrying) entry.
        let threshold = if holders.len() >= 2 {
            self.config.validity_threshold
        } else {
            (self.config.validity_threshold + 1).min(3)
        };
        let Some(sharer_priority) = self.pbuffer.valid_priority_at(target, threshold) else {
            self.stats.declined.inc();
            return None;
        };
        // Age gate: the time-based policy's timestamps encode begin times
        // (priority = begin_cycle * nodes + node), so the directory can tell
        // how long the candidate transaction has been running. One that has
        // exceeded a multiple of the average transaction length has almost
        // certainly committed — probing it would mispredict.
        if self.config.age_gate_factor > 0 {
            if let Some(avg) = self.rollover.avg_tx_len() {
                let begin = sharer_priority.0 / self.config.pbuffer_entries.max(1) as u64;
                let age = now.saturating_sub(begin);
                if age > avg.saturating_mul(self.config.age_gate_factor) {
                    self.stats.declined.inc();
                    return None;
                }
            }
        }
        if sharer_priority.outranks(req.timestamp) {
            self.stats.unicasts.inc();
            Some(PredictedTarget { node: target })
        } else {
            // Requester predicted to win: multicast as normal (no unusual
            // correctness handling needed, Section III-C).
            self.stats.declined.inc();
            None
        }
    }

    fn on_mispredict_feedback(&mut self, now: Cycle, addr: LineAddr, node: NodeId) {
        self.tick_rollover(now);
        self.stats.mispredictions.inc();
        self.pbuffer.invalidate(node);
        // The UD pointer that pointed at the stale node is refreshed on the
        // next after_service; drop it eagerly so an immediate retry does not
        // re-unicast to the same stale target.
        if self.ud.get(addr) == Some(&node) {
            self.ud.remove(addr);
        }
    }

    fn after_service(&mut self, now: Cycle, addr: LineAddr, holders: SharerSet) {
        self.tick_rollover(now);
        self.recompute_ud(addr, holders);
    }

    fn decision_latency(&self) -> Cycle {
        self.config.decision_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puno_sim::{StaticTxId, Timestamp, TxId};

    fn info(ts: u64) -> TxInfo {
        TxInfo {
            tx: TxId(ts),
            timestamp: Timestamp(ts),
            static_tx: StaticTxId(0),
            avg_len_hint: 1000,
        }
    }

    fn predictor() -> PunoPredictor {
        PunoPredictor::new(PunoConfig::default())
    }

    fn holders(nodes: &[u16]) -> SharerSet {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn unicasts_to_highest_priority_sharer_when_it_outranks_requester() {
        let mut p = predictor();
        // Figure 8(a): three sharers announce priorities; node 1 is oldest.
        p.observe_request(0, NodeId(1), &info(100));
        p.observe_request(0, NodeId(3), &info(250));
        p.observe_request(0, NodeId(4), &info(400));
        // Figure 8(b): requester (ts 180) loses to node 1 (ts 100).
        let t = p.predict_unicast(
            10,
            LineAddr(7),
            NodeId(2),
            &info(180),
            holders(&[1, 3, 4]),
            false,
        );
        assert_eq!(t, Some(PredictedTarget { node: NodeId(1) }));
        assert_eq!(p.stats().unicasts.get(), 1);
    }

    #[test]
    fn multicasts_when_requester_outranks_all_sharers() {
        let mut p = predictor();
        p.observe_request(0, NodeId(1), &info(300));
        p.observe_request(0, NodeId(3), &info(400));
        let t = p.predict_unicast(
            10,
            LineAddr(7),
            NodeId(2),
            &info(50),
            holders(&[1, 3]),
            false,
        );
        assert_eq!(t, None);
        assert_eq!(p.stats().declined.get(), 1);
    }

    #[test]
    fn no_prediction_without_valid_priorities() {
        let mut p = predictor();
        let t = p.predict_unicast(
            10,
            LineAddr(7),
            NodeId(2),
            &info(180),
            holders(&[1, 3]),
            false,
        );
        assert_eq!(t, None);
    }

    #[test]
    fn mispredict_feedback_invalidates_and_stops_reunicast() {
        let mut p = predictor();
        // Single-holder probes demand a doubly-refreshed entry (validity 3).
        p.observe_request(0, NodeId(1), &info(100));
        p.observe_request(1, NodeId(1), &info(100));
        let t = p.predict_unicast(10, LineAddr(7), NodeId(2), &info(180), holders(&[1]), true);
        assert_eq!(t, Some(PredictedTarget { node: NodeId(1) }));
        // Figure 8(c2): node 1's tx finished; MP feedback arrives.
        p.on_mispredict_feedback(20, LineAddr(7), NodeId(1));
        let t = p.predict_unicast(30, LineAddr(7), NodeId(2), &info(180), holders(&[1]), true);
        assert_eq!(t, None, "stale priority must not be reused");
        assert!((p.stats().accuracy() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn ud_pointer_follows_service_episodes() {
        let mut p = predictor();
        p.observe_request(0, NodeId(1), &info(100));
        p.observe_request(0, NodeId(3), &info(50));
        p.after_service(5, LineAddr(9), holders(&[1, 3]));
        assert_eq!(p.ud_pointer(LineAddr(9)), Some(NodeId(3)));
        // Node 3 drops out of the sharer set.
        p.after_service(6, LineAddr(9), holders(&[1]));
        assert_eq!(p.ud_pointer(LineAddr(9)), Some(NodeId(1)));
        p.after_service(7, LineAddr(9), SharerSet::EMPTY);
        assert_eq!(p.ud_pointer(LineAddr(9)), None);
    }

    #[test]
    fn stale_priorities_time_out_via_rollover() {
        let cfg = PunoConfig {
            rollover_min: 100,
            rollover_max: 100,
            ..PunoConfig::default()
        };
        let mut p = PunoPredictor::new(cfg);
        p.observe_request(0, NodeId(1), &info(100));
        // Two rollover periods with no refresh: validity 2 -> 0.
        let t = p.predict_unicast(
            250,
            LineAddr(7),
            NodeId(2),
            &info(180),
            holders(&[1]),
            false,
        );
        assert_eq!(t, None, "timed-out priority must not drive prediction");
        assert!(p.stats().timeouts.get() >= 2);
    }

    #[test]
    fn disabled_unicast_never_predicts() {
        let cfg = PunoConfig {
            unicast_enabled: false,
            ..PunoConfig::default()
        };
        let mut p = PunoPredictor::new(cfg);
        p.observe_request(0, NodeId(1), &info(100));
        assert_eq!(
            p.predict_unicast(10, LineAddr(7), NodeId(2), &info(180), holders(&[1]), false),
            None
        );
    }

    #[test]
    fn owner_state_ablation_gates_owned_forwards_only() {
        let mut p = PunoPredictor::new(PunoConfig::shared_state_only());
        p.observe_request(0, NodeId(1), &info(100));
        p.observe_request(1, NodeId(1), &info(100));
        assert_eq!(
            p.predict_unicast(10, LineAddr(7), NodeId(2), &info(180), holders(&[1]), true),
            None,
            "owned-state prediction disabled"
        );
        assert!(
            p.predict_unicast(10, LineAddr(7), NodeId(2), &info(180), holders(&[1]), false)
                .is_some(),
            "shared-state prediction still active"
        );
    }

    #[test]
    fn decision_latency_is_two_cycles() {
        let p = predictor();
        assert_eq!(p.decision_latency(), 2);
    }
}
