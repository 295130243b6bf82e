//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes *which* faults to inject (per-kind rates plus an
//! explicit cycle-scheduled event list) and a [`FaultInjector`] decides *when*
//! each individual fault fires, drawing from per-kind RNG streams derived from
//! the plan's seed. Keeping one stream per fault kind means enabling one kind
//! never perturbs the draw sequence of another, and the same (plan, seed)
//! always yields the same fault schedule — fault-injected runs are as
//! reproducible as fault-free ones.
//!
//! Every fault kind is *abort-recoverable*: it perturbs timing or forces a
//! protocol-legal conservative outcome (a NACK, a transaction abort). Message
//! loss is deliberately excluded — the modeled hardware has no
//! timeout/retransmit machinery, so a dropped coherence message is an
//! unrecoverable hang, not a fault the protocol is expected to tolerate.
//!
//! The empty plan is free: [`FaultInjector::is_empty`] lets the hosting
//! simulator skip every hook, and each probe method itself returns before
//! touching its RNG when the corresponding rate is zero. A run with
//! `FaultPlan::none()` is bit-identical to a run with no injector at all.

use crate::clock::{Cycle, Cycles};
use crate::ids::NodeId;
use crate::rng::SimRng;
use crate::stats::Counter;
use serde::{Deserialize, Serialize};

/// The kinds of faults the injector can produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Extra cycles added to a coherence message's network injection.
    DelayJitter,
    /// A router output link held busy, stalling flits queued behind it.
    LinkStall,
    /// A forward answered with a NACK even though the receiver would have
    /// complied — a conservative refusal the protocol already tolerates.
    SpuriousNack,
    /// A running transaction aborted as if a conflict had been detected.
    ForcedAbort,
}

impl FaultKind {
    pub const ALL: [FaultKind; 4] = [
        FaultKind::DelayJitter,
        FaultKind::LinkStall,
        FaultKind::SpuriousNack,
        FaultKind::ForcedAbort,
    ];
}

/// One explicitly scheduled fault: `kind` fires at cycle `at` on `node`.
///
/// Scheduled events complement the rate-based streams: rates model background
/// noise, scheduled events let a test aim a specific fault at a specific
/// moment (e.g. "abort node 3 mid-transaction at cycle 10_000").
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    pub at: Cycle,
    pub kind: FaultKind,
    pub node: NodeId,
    /// Kind-specific magnitude: extra delay cycles for `DelayJitter`, stall
    /// cycles for `LinkStall`; ignored by the point-event kinds.
    pub magnitude: Cycles,
}

/// A declarative fault schedule. Rates are per-opportunity probabilities
/// (per message injection for jitter and stalls, per eligible forward for
/// spurious NACKs, per transactional begin for forced aborts).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seeds the per-kind RNG streams (independent of the workload seed, so
    /// the same fault schedule can be replayed against different runs).
    pub seed: u64,
    pub delay_jitter_rate: f64,
    /// Jitter magnitude is drawn uniformly from `1..=delay_jitter_max`.
    pub delay_jitter_max: Cycles,
    pub link_stall_rate: f64,
    /// Every rate-drawn stall holds the link for exactly this many cycles.
    pub link_stall_cycles: Cycles,
    pub spurious_nack_rate: f64,
    pub forced_abort_rate: f64,
    /// Explicit point events, in addition to the rate-based streams.
    pub events: Vec<FaultEvent>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing, perturbs nothing.
    pub fn none() -> Self {
        Self {
            seed: 0,
            delay_jitter_rate: 0.0,
            delay_jitter_max: 8,
            link_stall_rate: 0.0,
            link_stall_cycles: 16,
            spurious_nack_rate: 0.0,
            forced_abort_rate: 0.0,
            events: Vec::new(),
        }
    }

    /// A mixed-background plan scaled by `intensity` in `[0, 1]`: at 1.0,
    /// 2% of messages jittered, 1% of injections stall a link, 2% of
    /// forwards spuriously nacked, 5% of transaction begins forced to abort
    /// once. These ceilings keep even the max intensity recoverable.
    pub fn background(seed: u64, intensity: f64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        Self {
            seed,
            delay_jitter_rate: 0.02 * i,
            delay_jitter_max: 8,
            link_stall_rate: 0.01 * i,
            link_stall_cycles: 16,
            spurious_nack_rate: 0.02 * i,
            forced_abort_rate: 0.05 * i,
            events: Vec::new(),
        }
    }

    /// True when no rate is positive and no event is scheduled.
    pub fn is_empty(&self) -> bool {
        self.delay_jitter_rate <= 0.0
            && self.link_stall_rate <= 0.0
            && self.spurious_nack_rate <= 0.0
            && self.forced_abort_rate <= 0.0
            && self.events.is_empty()
    }
}

/// Per-kind counts of faults actually fired during a run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FaultStats {
    pub delay_jitters: Counter,
    /// Total extra cycles added by jitter faults.
    pub jitter_cycles: Counter,
    pub link_stalls: Counter,
    pub spurious_nacks: Counter,
    pub forced_aborts: Counter,
}

impl FaultStats {
    pub fn total(&self) -> u64 {
        self.delay_jitters.get()
            + self.link_stalls.get()
            + self.spurious_nacks.get()
            + self.forced_aborts.get()
    }

    pub fn merge(&mut self, other: &FaultStats) {
        self.delay_jitters.add(other.delay_jitters.get());
        self.jitter_cycles.add(other.jitter_cycles.get());
        self.link_stalls.add(other.link_stalls.get());
        self.spurious_nacks.add(other.spurious_nacks.get());
        self.forced_aborts.add(other.forced_aborts.get());
    }
}

/// Stateful fault source for one run. Construct from a plan; the hosting
/// simulator calls the probe methods at its hook points.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    jitter_rng: SimRng,
    stall_rng: SimRng,
    nack_rng: SimRng,
    abort_rng: SimRng,
    pub stats: FaultStats,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        let root = SimRng::new(plan.seed);
        Self {
            jitter_rng: root.derive(0xFA01),
            stall_rng: root.derive(0xFA02),
            nack_rng: root.derive(0xFA03),
            abort_rng: root.derive(0xFA04),
            stats: FaultStats::default(),
            plan,
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when the plan can never fire; hosts use this to skip all hooks.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Scheduled point events, for the host to enqueue at startup.
    pub fn scheduled_events(&self) -> &[FaultEvent] {
        &self.plan.events
    }

    /// Probe at message injection: extra delay cycles, if this message is
    /// jittered. Never touches the RNG when the rate is zero.
    pub fn message_delay(&mut self) -> Option<Cycles> {
        if self.plan.delay_jitter_rate <= 0.0 {
            return None;
        }
        if !self.jitter_rng.gen_bool(self.plan.delay_jitter_rate) {
            return None;
        }
        let extra = 1 + self.jitter_rng.gen_range(self.plan.delay_jitter_max.max(1));
        self.record_jitter(extra);
        Some(extra)
    }

    /// Probe at message injection: stall the source router's links, if this
    /// injection trips a stall fault.
    pub fn link_stall(&mut self) -> Option<Cycles> {
        if self.plan.link_stall_rate <= 0.0 {
            return None;
        }
        if !self.stall_rng.gen_bool(self.plan.link_stall_rate) {
            return None;
        }
        self.record_link_stall();
        Some(self.plan.link_stall_cycles)
    }

    /// Probe at an incoming forward: true to arm a spurious NACK for it.
    /// The host records the fault (`record_spurious_nack`) only when the
    /// downgrade actually applies — a forward that would have been nacked
    /// anyway absorbs the fault.
    pub fn spurious_nack(&mut self) -> bool {
        if self.plan.spurious_nack_rate <= 0.0 {
            return false;
        }
        self.nack_rng.gen_bool(self.plan.spurious_nack_rate)
    }

    /// Probe at transaction begin: true to force this attempt to abort.
    /// The host records the abort itself when it actually fires.
    pub fn forced_abort(&mut self) -> bool {
        if self.plan.forced_abort_rate <= 0.0 {
            return false;
        }
        self.abort_rng.gen_bool(self.plan.forced_abort_rate)
    }

    /// Delay after the transaction begin at which a rate-drawn forced abort
    /// fires, so the attempt has speculative work to discard. Drawn from the
    /// same stream as the `forced_abort` probe; call only after it fired.
    pub fn forced_abort_delay(&mut self) -> Cycles {
        1 + self.abort_rng.gen_range(256)
    }

    // Accounting entry points, also used for scheduled events (which bypass
    // the rate probes).
    pub fn record_jitter(&mut self, cycles: Cycles) {
        self.stats.delay_jitters.inc();
        self.stats.jitter_cycles.add(cycles);
    }

    pub fn record_link_stall(&mut self) {
        self.stats.link_stalls.inc();
    }

    pub fn record_spurious_nack(&mut self) {
        self.stats.spurious_nacks.inc();
    }

    pub fn record_forced_abort(&mut self) {
        self.stats.forced_aborts.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        assert!(inj.is_empty());
        for _ in 0..1000 {
            assert_eq!(inj.message_delay(), None);
            assert_eq!(inj.link_stall(), None);
            assert!(!inj.spurious_nack());
            assert!(!inj.forced_abort());
        }
        assert_eq!(inj.stats.total(), 0);
    }

    #[test]
    fn same_plan_same_seed_is_deterministic() {
        let plan = FaultPlan::background(42, 1.0);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        let mut fires = 0u64;
        for _ in 0..10_000 {
            assert_eq!(a.message_delay(), b.message_delay());
            assert_eq!(a.link_stall(), b.link_stall());
            let nack = a.spurious_nack();
            assert_eq!(nack, b.spurious_nack());
            let abort = a.forced_abort();
            assert_eq!(abort, b.forced_abort());
            fires += (nack as u64) + (abort as u64);
        }
        assert_eq!(a.stats.total(), b.stats.total());
        assert!(
            a.stats.total() + fires > 0,
            "intensity 1.0 must actually fire"
        );
    }

    #[test]
    fn kinds_draw_from_independent_streams() {
        // Enabling jitter must not change the spurious-nack decision
        // sequence: streams are derived per kind.
        let mut only_nack = FaultInjector::new(FaultPlan {
            spurious_nack_rate: 0.1,
            ..FaultPlan::none()
        });
        let mut both = FaultInjector::new(FaultPlan {
            spurious_nack_rate: 0.1,
            delay_jitter_rate: 0.5,
            ..FaultPlan::none()
        });
        for _ in 0..5_000 {
            let _ = both.message_delay();
            assert_eq!(only_nack.spurious_nack(), both.spurious_nack());
        }
    }

    #[test]
    fn intensity_scales_rates_monotonically() {
        let lo = FaultPlan::background(7, 0.1);
        let hi = FaultPlan::background(7, 1.0);
        assert!(lo.delay_jitter_rate < hi.delay_jitter_rate);
        assert!(lo.forced_abort_rate < hi.forced_abort_rate);
        assert!(!lo.is_empty());
        assert!(FaultPlan::background(7, 0.0).is_empty());
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at: 1000,
                kind: FaultKind::ForcedAbort,
                node: NodeId(3),
                magnitude: 0,
            }],
            ..FaultPlan::background(9, 0.5)
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seed, plan.seed);
        assert_eq!(back.events, plan.events);
        assert!((back.delay_jitter_rate - plan.delay_jitter_rate).abs() < 1e-12);
    }
}
