//! Failure forensics and degraded sweeps.
//!
//! A deadlock/livelock error carries whatever the run's trace ring holds
//! when it fires. The simulator is deterministic, so a traced run reaches
//! the same failure as an untraced one, and its ring is the lead-up: the
//! tests here check that the dump reaches into the stalled watchdog window,
//! both on a single traced run and through the sweep's traced retry.

use puno_harness::{Mechanism, RetryPolicy, RunError, System, SystemConfig};
use puno_workloads::WorkloadId;

/// Check that `err` is a livelock whose trace comes from a 4096-event
/// ring and ends inside the final `window` cycles before the stall.
fn assert_leadup_trace(err: &RunError, window: u64) {
    assert_eq!(err.kind(), "livelock");
    let trace = err.trace();
    assert!(
        trace.contains("trace ring: capacity 4096"),
        "expected a 4096-event ring header, got:\n{trace}"
    );
    let RunError::Livelock { cycles: stall, .. } = *err else {
        panic!("expected Livelock, got {err:?}");
    };
    // Parse the `[     cycle] event` lines and check the dump reaches into
    // the final watchdog window.
    let last = trace
        .lines()
        .rev()
        .find_map(|l| {
            let inner = l.strip_prefix('[')?.split(']').next()?;
            inner.trim().parse::<u64>().ok()
        })
        .unwrap_or_else(|| panic!("trace retained no events:\n{trace}"));
    assert!(
        last >= stall.saturating_sub(window) && last <= stall,
        "trace ends at cycle {last}, outside the stalled window ending at {stall}"
    );
}

/// A forced livelock on a traced run comes back with the lead-up in its
/// trace: the ring holds the events of the stalled watchdog window.
#[test]
fn watchdog_failure_dumps_the_leadup_trace() {
    let params = puno_workloads::micro::hotspot(10);
    let mut config = SystemConfig::paper(Mechanism::Baseline);
    config.watchdog_window = 50;
    let mut sys = System::new(config, &params, 1);
    sys.enable_trace(4096);
    let err = sys
        .try_run_recycled()
        .expect_err("a 50-cycle progress window cannot be met");
    assert_leadup_trace(&err, config.watchdog_window);
}

/// The real sweep cell body, end to end: a cell that livelocks on every
/// attempt is quarantined, and the error kept is the traced retry's, with
/// the lead-up in its trace.
#[test]
fn a_quarantined_sweep_retry_ends_with_a_leadup_trace() {
    use puno_harness::sweep::{try_sweep, SweepOptions};

    const WINDOW: u64 = 50;
    fn config(mechanism: Mechanism) -> SystemConfig {
        let mut config = SystemConfig::paper(mechanism);
        config.watchdog_window = WINDOW;
        config
    }
    let mut opts = SweepOptions::new(3, 0.05);
    opts.retry = RetryPolicy::new(2);
    opts.result_cache = None;
    opts.config = config;
    let outcomes = try_sweep(&[WorkloadId::Ssca2], &[Mechanism::Puno], &opts);
    assert_eq!(outcomes.len(), 1);
    let cell = &outcomes[0];
    assert!(cell.is_quarantined(), "exhausted budget must quarantine");
    assert_eq!(cell.attempts(), Some(2));
    assert_leadup_trace(
        cell.error().expect("quarantined cell keeps its error"),
        WINDOW,
    );
}

/// End to end through the sweep driver and the report: a permanently
/// failing cell exhausts its retry budget, the sweep completes degraded,
/// and the quarantine section names exactly that cell.
#[test]
fn degraded_sweep_quarantines_the_failing_cell_and_reports_it() {
    use puno_harness::report::render_quarantine;
    use puno_harness::sweep::{try_sweep_with, SweepOptions};

    let workloads = [WorkloadId::Ssca2];
    let mechanisms = [Mechanism::Baseline, Mechanism::Puno];
    let mut opts = SweepOptions::new(11, 0.05);
    opts.retry = RetryPolicy::new(3);
    let (outcomes, _) = try_sweep_with(
        &workloads,
        &mechanisms,
        &opts,
        |m, params, seed, _traced| {
            if m == Mechanism::Puno {
                return Err(RunError::WorkerPanic {
                    payload: "permanent failure".into(),
                });
            }
            Ok(puno_harness::run::run_workload(m, params, seed))
        },
    );
    assert_eq!(outcomes.len(), 2);
    let baseline = outcomes
        .iter()
        .find(|o| o.key().mechanism == Mechanism::Baseline);
    let puno = outcomes
        .iter()
        .find(|o| o.key().mechanism == Mechanism::Puno);
    assert!(baseline.expect("baseline cell present").is_ok());
    let puno = puno.expect("puno cell present");
    assert!(puno.is_quarantined(), "exhausted budget must quarantine");
    assert_eq!(puno.attempts(), Some(3));
    let section = render_quarantine(&outcomes).expect("degraded sweep renders a section");
    assert!(section.contains("ssca2"), "{section}");
    assert!(section.contains("[quarantined]"), "{section}");
    assert!(section.contains("after 3 attempt(s)"), "{section}");
}
