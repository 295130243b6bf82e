//! Bit-identity regression guard for the simulation hot loop.
//!
//! Every STAMP-signature workload x {baseline, PUNO} at a fixed seed is run
//! end to end and its deterministic `RunMetrics` view (host-side throughput
//! counters zeroed) is serialized and compared byte-for-byte against a
//! committed golden snapshot. Any rewrite of the event queue, the NoC
//! stepping, the directory emit path, or the system loop that changes
//! simulated behaviour — even by one abort or one flit — fails here.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! PUNO_BLESS_GOLDEN=1 cargo test -p puno-harness --test golden_metrics
//! ```
//!
//! and commit the updated files with a justification in the PR description.
//!
//! Each grid cell also runs a second time the way `sweep_all --trace`
//! does: stopped in front of the first TX_BEGIN, then resumed. That run
//! must equal the straight one in every simulated field and in the host's
//! dispatched-event and quiesced-cycle counts.
//!
//! Beyond the 16-cell paper grid, a few extra cells cover the NoC paths the
//! grid does not reach: the 8x8 mesh (long XY routes, many routers idle at
//! once) and a 4x4 run under link-stall and message-jitter faults. Their
//! snapshots hold the simulated fields only (the `host` block is dropped),
//! so a change to the host-side counters never forces a re-bless.

use puno_harness::run::{run_with_config, run_workload};
use puno_harness::{Mechanism, RunMetrics, System, SystemConfig};
use puno_sim::{FaultEvent, FaultKind, FaultPlan, NodeId};
use puno_workloads::WorkloadId;
use std::path::PathBuf;

const GOLDEN_SEED: u64 = 42;
const GOLDEN_SCALE: f64 = 0.05;

fn golden_path(workload: WorkloadId, mechanism: Mechanism) -> PathBuf {
    golden_file(&format!("{}_{}", workload.name(), mechanism.name()))
}

fn golden_file(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{stem}.json"))
}

/// The deterministic view serialized without its `host` block.
fn simulated_json(metrics: &RunMetrics) -> String {
    let serde_json::Value::Object(fields) =
        serde_json::to_value(&metrics.deterministic()).expect("RunMetrics must serialize")
    else {
        panic!("RunMetrics must serialize to an object");
    };
    let fields = fields.into_iter().filter(|(k, _)| k != "host").collect();
    serde_json::to_string(&serde_json::Value::Object(fields)).expect("value must serialize")
}

/// Link stalls (rate-drawn and scheduled mid-run) plus message jitter, with
/// no spurious NACKs or forced aborts: every fault here acts on the NoC.
fn noc_fault_plan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        delay_jitter_rate: 0.02,
        link_stall_rate: 0.01,
        events: (0..8)
            .map(|i| FaultEvent {
                at: 300 + i * 700,
                kind: FaultKind::LinkStall,
                node: NodeId((i * 5 % 16) as u16),
                magnitude: 24,
            })
            .collect(),
        ..FaultPlan::none()
    }
}

#[test]
fn extended_cells_match_golden_snapshots() {
    let bless = std::env::var("PUNO_BLESS_GOLDEN").is_ok();
    let mesh8 = |workload: WorkloadId, mechanism: Mechanism| {
        let params = workload.params().scaled(GOLDEN_SCALE);
        run_with_config(SystemConfig::mesh8(mechanism), &params, GOLDEN_SEED)
    };
    let faulted = || {
        let params = WorkloadId::Ssca2.params().scaled(GOLDEN_SCALE);
        let mut sys = System::new(SystemConfig::paper(Mechanism::Puno), &params, GOLDEN_SEED);
        sys.set_fault_plan(noc_fault_plan());
        sys.try_run_recycled()
            .expect("faulted golden cell completes")
    };
    let cells: [(&str, &dyn Fn() -> RunMetrics); 3] = [
        ("mesh8_ssca2_baseline", &|| {
            mesh8(WorkloadId::Ssca2, Mechanism::Baseline)
        }),
        ("mesh8_genome_puno", &|| {
            mesh8(WorkloadId::Genome, Mechanism::Puno)
        }),
        ("faults_ssca2_puno", &faulted),
    ];
    let mut mismatches = Vec::new();
    for (stem, run) in cells {
        let metrics = run();
        if stem.starts_with("faults") {
            assert!(
                metrics.faults.link_stalls.get() > 0 && metrics.faults.delay_jitters.get() > 0,
                "{stem}: the fault plan must fire both link stalls and jitter"
            );
        }
        let got = simulated_json(&metrics);
        let path = golden_file(stem);
        if bless {
            std::fs::write(&path, format!("{got}\n")).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden snapshot {path:?} ({e}); regenerate with PUNO_BLESS_GOLDEN=1")
        });
        if want.trim_end() != got {
            mismatches.push(format!("{stem}: metrics diverged from {path:?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "bit-identity broken for {} extended cell(s):\n  {}",
        mismatches.len(),
        mismatches.join("\n  ")
    );
}

#[test]
fn run_metrics_match_golden_snapshots() {
    let bless = std::env::var("PUNO_BLESS_GOLDEN").is_ok();
    let mut mismatches = Vec::new();
    let mut fast_forwarded = 0usize;
    for &workload in &WorkloadId::ALL {
        let params = workload.params().scaled(GOLDEN_SCALE);
        for mechanism in [Mechanism::Baseline, Mechanism::Puno] {
            let metrics = run_workload(mechanism, &params, GOLDEN_SEED);
            let got =
                serde_json::to_string(&metrics.deterministic()).expect("RunMetrics must serialize");
            let path = golden_path(workload, mechanism);
            if bless {
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, format!("{got}\n")).unwrap();
                continue;
            }
            let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden snapshot {path:?} ({e}); \
                     regenerate with PUNO_BLESS_GOLDEN=1"
                )
            });
            if want.trim_end() != got {
                mismatches.push(format!(
                    "{}/{}: metrics diverged from {path:?}",
                    workload.name(),
                    mechanism.name()
                ));
            }
            // The `sweep_all --trace` path: stop in front of the first
            // TX_BEGIN, then resume. It must be the same run, down to the
            // host's dispatched-event and quiesced-cycle counts.
            let mut sys = System::new(SystemConfig::paper(mechanism), &params, GOLDEN_SEED);
            let stop = sys.run_to_first_begin().expect("fast-forward completes");
            fast_forwarded += usize::from(stop.is_some_and(|cycle| cycle > 0));
            let resumed = sys.try_run_recycled().expect("resumed run completes");
            let resumed_json =
                serde_json::to_string(&resumed.deterministic()).expect("RunMetrics must serialize");
            let host = |m: &RunMetrics| (m.host.events_dispatched, m.host.quiesced_cycles);
            if resumed_json != got || host(&resumed) != host(&metrics) {
                mismatches.push(format!(
                    "{}/{}: fast-forwarded run diverged from the straight run \
                     (events, quiesced) {:?} vs {:?}",
                    workload.name(),
                    mechanism.name(),
                    host(&resumed),
                    host(&metrics)
                ));
            }
        }
    }
    if !bless {
        assert!(
            fast_forwarded > 0,
            "no golden cell fast-forwarded past cycle 0"
        );
    }
    assert!(
        mismatches.is_empty(),
        "bit-identity broken for {} cell(s):\n  {}\n\
         If the behaviour change is intentional, re-bless with \
         PUNO_BLESS_GOLDEN=1 and explain why in the PR.",
        mismatches.len(),
        mismatches.join("\n  ")
    );
}

/// The snapshots themselves must not depend on which host ran them: the
/// deterministic view zeroes every host-side counter.
#[test]
fn deterministic_view_zeroes_host_perf() {
    let params = WorkloadId::Ssca2.params().scaled(GOLDEN_SCALE);
    let metrics = run_workload(Mechanism::Baseline, &params, GOLDEN_SEED);
    let det = metrics.deterministic();
    assert_eq!(det.host, puno_harness::HostPerf::default());
    assert_eq!(det.cycles, metrics.cycles);
    assert_eq!(det.committed, metrics.committed);
}
