//! Tests for the §VI future-work extension: finish-time wake-up hints.

use puno_repro::prelude::*;
use puno_repro::sim::LineAddr;

fn puno_config(hints: bool) -> SystemConfig {
    let mut c = SystemConfig::paper(Mechanism::Puno);
    c.puno.wakeup_hints = hints;
    c
}

#[test]
fn hints_preserve_serializability() {
    let params = micro::counter(4, 12);
    let mut sys = System::new(puno_config(true), &params, 3);
    let metrics = sys.try_run_recycled().unwrap();
    let memory = sys.memory();
    assert_eq!(metrics.committed, 16 * 12);
    let total: u64 = (0..4).map(|i| memory.read(LineAddr(i))).sum();
    assert_eq!(total, 16 * 12);
}

#[test]
fn hints_complete_the_same_offered_load() {
    let params = WorkloadId::Bayes.params().scaled(0.1);
    let with = run_with_config(puno_config(true), &params, 5);
    let without = run_with_config(puno_config(false), &params, 5);
    assert_eq!(with.committed, without.committed);
}

#[test]
fn hints_cut_oversleeping_on_high_contention() {
    // The point of the extension: a sleeping requester whose nacker
    // aborted early no longer waits out a stale T_est. Aggregate over the
    // HC group; backoff (sleep) cycles must drop, and runtime must not get
    // worse by more than noise.
    let mut sleep_with = 0u64;
    let mut sleep_without = 0u64;
    let mut cycles_with = 0u64;
    let mut cycles_without = 0u64;
    for w in WorkloadId::HIGH_CONTENTION {
        let params = w.params().scaled(0.15);
        let a = run_with_config(puno_config(true), &params, 2);
        let b = run_with_config(puno_config(false), &params, 2);
        sleep_with += a.htm.backoff_cycles.get();
        sleep_without += b.htm.backoff_cycles.get();
        cycles_with += a.cycles;
        cycles_without += b.cycles;
    }
    assert!(
        cycles_with as f64 <= cycles_without as f64 * 1.03,
        "hints must not slow the system: {cycles_with} vs {cycles_without}"
    );
    // Scheduled sleeps are cut short, so *experienced* waits shrink even
    // though the scheduled amounts are identical; we can only observe this
    // through runtime above and through more retries landing earlier —
    // sanity-check the mechanism actually fired by requiring SOME change.
    assert_ne!(
        (sleep_with, cycles_with),
        (sleep_without, cycles_without),
        "hints had no observable effect"
    );
}

#[test]
fn hints_are_deterministic() {
    let params = WorkloadId::Intruder.params().scaled(0.1);
    let a = run_with_config(puno_config(true), &params, 9);
    let b = run_with_config(puno_config(true), &params, 9);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.htm.aborts.get(), b.htm.aborts.get());
}
