//! Fault injection end-to-end: runs perturbed by deterministic fault plans
//! must stay correct (serializable, invariant-clean, fully committed — every
//! fault kind is abort-recoverable), reproducible (same plan + seed =>
//! identical metrics), and free (empty plan => bit-identical to no plan).

use puno_repro::prelude::*;
use puno_repro::sim::{FaultEvent, LineAddr, NodeId};

fn faulted_run(
    mechanism: Mechanism,
    params: &WorkloadParams,
    seed: u64,
    plan: FaultPlan,
) -> RunMetrics {
    let mut sys = System::new(SystemConfig::paper(mechanism), params, seed);
    sys.set_fault_plan(plan);
    sys.try_run_recycled()
        .expect("fault-injected run must still complete")
}

#[test]
fn counter_stays_serializable_under_increasing_fault_intensity() {
    let params = micro::counter(4, 10);
    for &intensity in &[0.2, 0.6, 1.0] {
        let plan = FaultPlan::background(99, intensity);
        let config = SystemConfig::paper(Mechanism::Puno);
        let mut sys = System::new(config, &params, 11);
        sys.set_fault_plan(plan);
        let metrics = sys
            .try_run_recycled()
            .unwrap_or_else(|e| panic!("intensity {intensity}: {e}"));
        let memory = sys.memory();
        // Every fault is abort-recoverable: the offered load still commits.
        assert_eq!(
            metrics.committed,
            16 * 10,
            "intensity {intensity}: lost transactions"
        );
        let total: u64 = (0..4).map(|i| memory.read(LineAddr(i))).sum();
        assert_eq!(
            total,
            16 * 10,
            "intensity {intensity}: committed increments lost or duplicated"
        );
    }
}

#[test]
fn coherence_invariants_hold_under_faults() {
    let params = micro::hotspot(8);
    let lines: Vec<LineAddr> = (0..8).map(LineAddr).collect();
    let config = SystemConfig::paper(Mechanism::Puno);
    let mut sys = System::new(config, &params, 5);
    sys.set_fault_plan(FaultPlan::background(21, 1.0));
    // The armed hook scans single-writer/multi-reader + directory agreement
    // every 64 events and panics on the first violation.
    sys.check_invariants_every(&lines, 64);
    let metrics = sys.try_run_recycled().expect("faulted run completes");
    assert_eq!(metrics.committed, 16 * 8);
}

/// The invariant scan rides the production batch loop: an armed run takes
/// the same path as an unarmed one — same simulated results, same event
/// count, same parked-token cycles — with and without faults.
#[test]
fn invariant_scans_run_on_the_production_loop() {
    let params = micro::hotspot(8);
    let lines: Vec<LineAddr> = (0..8).map(LineAddr).collect();
    for plan in [FaultPlan::none(), FaultPlan::background(21, 1.0)] {
        let run = |armed: bool| {
            let mut sys = System::new(SystemConfig::paper(Mechanism::Puno), &params, 5);
            sys.set_fault_plan(plan.clone());
            if armed {
                sys.check_invariants_every(&lines, 64);
            }
            sys.try_run_recycled().expect("run completes")
        };
        let (plain, armed) = (run(false), run(true));
        assert_eq!(
            format!("{:?}", armed.deterministic()),
            format!("{:?}", plain.deterministic()),
            "an armed scan changed simulated results"
        );
        assert_eq!(armed.host.events_dispatched, plain.host.events_dispatched);
        assert_eq!(armed.host.quiesced_cycles, plain.host.quiesced_cycles);
        assert!(
            armed.host.quiesced_cycles > 0,
            "the step token never parked"
        );
    }
}

#[test]
fn background_faults_actually_fire_and_are_accounted() {
    let params = micro::hotspot(12);
    let m = faulted_run(
        Mechanism::Baseline,
        &params,
        7,
        FaultPlan::background(13, 1.0),
    );
    assert!(m.faults.total() > 0, "intensity 1.0 must inject something");
    assert!(m.faults.delay_jitters.get() > 0, "no jitter fired");
    assert!(m.faults.forced_aborts.get() > 0, "no forced abort fired");
    // Forced aborts surface under their own cause, never misattributed to
    // a protocol conflict.
    assert_eq!(
        m.htm.aborts_for(puno_repro::htm::AbortCause::Injected),
        m.faults.forced_aborts.get()
    );
}

#[test]
fn fault_injected_runs_are_deterministic() {
    let params = micro::hotspot(10);
    let run = || faulted_run(Mechanism::Puno, &params, 9, FaultPlan::background(33, 0.8));
    let a = run();
    let b = run();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.htm.aborts.get(), b.htm.aborts.get());
    assert_eq!(a.faults.total(), b.faults.total());
    assert_eq!(a.traffic_router_traversals, b.traffic_router_traversals);
}

#[test]
fn empty_plan_is_bit_identical_to_no_plan() {
    let params = micro::hotspot(10);
    let config = SystemConfig::paper(Mechanism::Puno);
    let bare = System::new(config, &params, 9).try_run_recycled().unwrap();
    let mut sys = System::new(config, &params, 9);
    sys.set_fault_plan(FaultPlan::none());
    let with_empty = sys.try_run_recycled().unwrap();
    // No RNG is consulted and no event scheduled on the no-fault path, so
    // the runs must be indistinguishable.
    assert_eq!(bare.cycles, with_empty.cycles);
    assert_eq!(bare.htm.aborts.get(), with_empty.htm.aborts.get());
    assert_eq!(
        bare.traffic_flits_injected,
        with_empty.traffic_flits_injected
    );
    assert_eq!(with_empty.faults.total(), 0);
}

#[test]
fn scheduled_events_fire_at_their_cycle() {
    let params = micro::counter(2, 10);
    let mut plan = FaultPlan::none();
    // Aim point faults at mid-run: a link stall and a jittered message on
    // node 1 (magnitude-carrying kinds are unconditionally recordable).
    plan.events = vec![
        FaultEvent {
            at: 500,
            kind: FaultKind::LinkStall,
            node: NodeId(1),
            magnitude: 32,
        },
        FaultEvent {
            at: 600,
            kind: FaultKind::DelayJitter,
            node: NodeId(1),
            magnitude: 12,
        },
    ];
    let m = faulted_run(Mechanism::Baseline, &params, 4, plan);
    assert_eq!(m.committed, 16 * 10);
    assert_eq!(m.faults.link_stalls.get(), 1);
    assert_eq!(m.faults.delay_jitters.get(), 1);
    assert_eq!(m.faults.jitter_cycles.get(), 12);
}

#[test]
fn spurious_nacks_are_recovered_from() {
    let params = micro::counter(1, 8);
    let mut plan = FaultPlan::none();
    plan.seed = 17;
    plan.spurious_nack_rate = 0.3;
    let m = faulted_run(Mechanism::Baseline, &params, 6, plan);
    assert_eq!(m.committed, 16 * 8, "refused forwards must be retried");
    assert!(
        m.faults.spurious_nacks.get() > 0,
        "a 30% nack rate on a single hot line must apply at least once"
    );
}
