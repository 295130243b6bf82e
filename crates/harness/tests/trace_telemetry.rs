//! Observability guarantees: tracing must never change simulated behaviour,
//! the JSONL/Chrome-trace formats must stay valid and self-consistent, and
//! the telemetry aggregates must reconcile with the independently counted
//! `HtmStats` and `FalseAbortOracle`.

use puno_harness::run::run_workload;
use puno_harness::tracefmt;
use puno_harness::{Mechanism, System, SystemConfig, TelemetryConfig};
use puno_htm::AbortCause;
use puno_sim::{ChannelMask, TraceChannel, Tracer};
use puno_workloads::{micro, WorkloadId};
use std::path::PathBuf;

const GOLDEN_SEED: u64 = 42;
const GOLDEN_SCALE: f64 = 0.05;

fn golden_path(workload: WorkloadId, mechanism: Mechanism) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}_{}.json", workload.name(), mechanism.name()))
}

/// The full 16-cell golden grid re-run with every trace channel enabled and
/// a JSONL sink attached: `RunMetrics` must stay bit-identical to the
/// committed (tracing-off) snapshots, and every emitted stream must
/// validate. The ONLY test in this binary allowed to touch the environment:
/// integration tests in one binary share the process, so the env-var
/// surface is exercised exactly once.
#[test]
fn traced_goldens_are_bit_identical_and_streams_validate() {
    let dir = std::env::temp_dir().join(format!("puno_trace_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("PUNO_TRACE", "all");
    std::env::set_var("PUNO_TRACE_OUT", &dir);
    for &workload in &WorkloadId::ALL {
        let params = workload.params().scaled(GOLDEN_SCALE);
        for mechanism in [Mechanism::Baseline, Mechanism::Puno] {
            let metrics = run_workload(mechanism, &params, GOLDEN_SEED);
            let got = serde_json::to_string(&metrics.deterministic()).unwrap();
            let want = std::fs::read_to_string(golden_path(workload, mechanism)).unwrap();
            assert_eq!(
                want.trim_end(),
                got,
                "{}/{}: tracing changed simulated behaviour",
                workload.name(),
                mechanism.name()
            );
            let jsonl = dir.join(format!(
                "trace_{}_{}_s{GOLDEN_SEED}.jsonl",
                workload.name(),
                mechanism.name()
            ));
            let text = std::fs::read_to_string(&jsonl)
                .unwrap_or_else(|e| panic!("missing trace stream {jsonl:?}: {e}"));
            let summary = tracefmt::validate_jsonl(&text, ChannelMask::ALL)
                .unwrap_or_else(|e| panic!("{jsonl:?}: {e}"));
            assert!(summary.lines > 0, "{jsonl:?} is empty");
            assert!(
                summary.count(TraceChannel::Coh) > 0 && summary.count(TraceChannel::Htm) > 0,
                "{jsonl:?} missing expected channels"
            );
        }
    }
    std::env::remove_var("PUNO_TRACE");
    std::env::remove_var("PUNO_TRACE_OUT");
    std::fs::remove_dir_all(&dir).ok();
}

/// Tracing through the System API (no env): a fully instrumented run —
/// all-channel ring tracer AND telemetry — produces the same deterministic
/// metrics as a bare run, except for the attached telemetry report.
#[test]
fn instrumented_run_matches_bare_run() {
    let params = micro::hotspot(20);
    let config = SystemConfig::paper(Mechanism::Puno);
    let bare = System::new(config, &params, 7).try_run_recycled().unwrap();

    let mut sys = System::new(config, &params, 7);
    sys.enable_trace(256);
    sys.enable_telemetry(TelemetryConfig::default());
    let traced = sys.try_run_recycled().unwrap();
    assert!(traced.telemetry.is_some(), "telemetry must be attached");
    assert!(
        !sys.trace_dump().is_empty(),
        "ring must retain events on a traced run"
    );

    let mut stripped = traced.deterministic();
    stripped.telemetry = None;
    assert_eq!(
        serde_json::to_string(&stripped).unwrap(),
        serde_json::to_string(&bare.deterministic()).unwrap(),
        "instrumentation must not perturb the simulation"
    );
}

/// A channel-filtered JSONL sink only receives the subscribed channels, and
/// the stream round-trips record-for-record through serde.
#[test]
fn filtered_jsonl_stream_round_trips() {
    let dir = std::env::temp_dir().join(format!("puno_trace_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("htm_coh.jsonl");
    let mask = ChannelMask::NONE
        .with(TraceChannel::Htm)
        .with(TraceChannel::Coh);
    let mut tracer = Tracer::ring(mask, 64);
    tracer.set_jsonl_path(&path).unwrap();

    let params = micro::hotspot(10);
    let mut sys = System::new(SystemConfig::paper(Mechanism::Baseline), &params, 5);
    sys.install_tracer(tracer);
    sys.try_run_recycled().unwrap();
    sys.tracer_mut().flush();

    let text = std::fs::read_to_string(&path).unwrap();
    let summary = tracefmt::validate_jsonl(&text, mask).expect("off-mask channel leaked");
    assert!(
        summary.count(TraceChannel::Htm) > 0,
        "hotspot must trace HTM"
    );
    assert!(summary.count(TraceChannel::Coh) > 0);

    let records = tracefmt::parse_jsonl(&text).unwrap();
    assert_eq!(records.len(), summary.lines);
    for (line, rec) in text.lines().zip(&records) {
        assert_eq!(
            serde_json::to_string(rec).unwrap(),
            line,
            "record serialization must round-trip byte-for-byte"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The Chrome-trace exporter emits valid JSON whose timestamps never go
/// backwards, with transaction lifecycles folded into complete slices.
#[test]
fn chrome_export_is_valid_and_monotone() {
    let dir = std::env::temp_dir().join(format!("puno_trace_chrome_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("all.jsonl");
    let mut tracer = Tracer::ring(ChannelMask::ALL, 64);
    tracer.set_jsonl_path(&path).unwrap();
    let params = micro::hotspot(10);
    let mut sys = System::new(SystemConfig::paper(Mechanism::Puno), &params, 5);
    sys.install_tracer(tracer);
    let metrics = sys.try_run_recycled().unwrap();
    sys.tracer_mut().flush();

    let records = tracefmt::parse_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let json = tracefmt::chrome_trace(&records);
    let doc: serde::Value = serde_json::from_str(&json).expect("exporter must emit valid JSON");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    let mut prev = 0u64;
    let mut slices = 0u64;
    for ev in events {
        let ts = match ev.get("ts").unwrap() {
            serde::Value::U64(n) => *n,
            other => panic!("non-integer ts {other:?}"),
        };
        assert!(ts >= prev, "ts must be monotonically non-decreasing");
        prev = ts;
        if matches!(ev.get("ph"), Some(serde::Value::Str(ph)) if ph == "X") {
            slices += 1;
        }
    }
    assert!(slices > 0, "committed transactions must render as slices");
    assert!(
        slices <= metrics.committed + metrics.htm.aborts.get(),
        "more slices than transaction attempts"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The abort-blame matrix must reconcile with the independently counted
/// `HtmStats` causes and the `FalseAbortOracle`, and the time series must
/// sum to the run totals.
#[test]
fn telemetry_reconciles_with_stats_and_oracle() {
    let params = micro::hotspot(20);
    let mut sys = System::new(SystemConfig::paper(Mechanism::Baseline), &params, 5);
    sys.enable_telemetry(TelemetryConfig::default());
    let metrics = sys.try_run_recycled().unwrap();
    let report = metrics.telemetry.as_ref().expect("telemetry enabled");

    let conflict_aborts = metrics.htm.aborts_for(AbortCause::TxWriteInvalidation)
        + metrics.htm.aborts_for(AbortCause::TxReadConflict)
        + metrics.htm.aborts_for(AbortCause::NonTxConflict);
    assert!(conflict_aborts > 0, "hotspot must conflict");
    assert_eq!(
        report.blame_total(),
        conflict_aborts,
        "every conflict abort must carry an aborter attribution"
    );
    assert!(
        report.blame_total() >= metrics.oracle.false_aborted_transactions,
        "false aborts are a subset of blamed aborts"
    );
    assert_eq!(report.commits_total(), metrics.committed);
    assert_eq!(report.aborts_total(), metrics.htm.aborts.get());
    let node_commits: u64 = report.nodes.iter().map(|n| n.commits).sum();
    assert_eq!(node_commits, metrics.committed);
    assert!(!report.heat.is_empty(), "contended lines must chart");
    assert!(
        report.heat[0].nacks + report.heat[0].aborts
            >= report.heat.last().unwrap().nacks + report.heat.last().unwrap().aborts,
        "heat table must be hottest-first"
    );
}

/// The windowed sampler stays size-bounded by doubling its epoch width.
#[test]
fn time_series_respects_the_epoch_bound() {
    let params = micro::hotspot(20);
    let mut sys = System::new(SystemConfig::paper(Mechanism::Baseline), &params, 5);
    sys.enable_telemetry(TelemetryConfig {
        epoch_cycles: 64,
        max_epochs: 8,
        heat_top_n: 4,
    });
    let metrics = sys.try_run_recycled().unwrap();
    let report = metrics.telemetry.as_ref().unwrap();
    assert!(report.epochs.len() <= 8, "{} epochs", report.epochs.len());
    assert!(report.epoch_cycles >= 64);
    assert!(report.heat.len() <= 4);
    assert_eq!(report.commits_total(), metrics.committed);
}

/// Failure dumps surface the ring's capacity and drop count (satellite:
/// `TraceRing::dropped` visible in `RunError`).
#[test]
fn failure_dump_reports_ring_capacity_and_drops() {
    let params = micro::hotspot(10);
    let mut config = SystemConfig::paper(Mechanism::Baseline);
    config.watchdog_window = 5;
    let mut sys = System::new(config, &params, 1);
    sys.enable_trace(16);
    let err = sys
        .try_run_recycled()
        .expect_err("a 5-cycle watchdog window must trip");
    let rendered = err.to_string();
    assert!(
        rendered.contains("trace ring: capacity 16"),
        "dump must be self-describing: {rendered}"
    );
    assert!(
        rendered.contains("dropped"),
        "dump must surface the drop count: {rendered}"
    );
}
