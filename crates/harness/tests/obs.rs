//! Integration tests for the live observability layer (`harness::obs` +
//! `harness::warehouse`).
//!
//! Enabling the global registry is process-wide and sticky, so every test
//! that needs it lives in this one binary: the golden comparisons here
//! prove obs-ON bit-identity, while `golden_metrics.rs` / `sweep_engine.rs`
//! (separate test binaries that never call `obs::enable`) pin the obs-OFF
//! side of the same snapshots.

use puno_harness::obs;
use puno_harness::sweep::{try_sweep_rows, SweepOptions};
use puno_harness::warehouse::{abort_rate_deltas, throughput_trend, Warehouse, WarehouseRow};
use puno_harness::{Mechanism, System, SystemConfig};
use puno_workloads::WorkloadId;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

const GOLDEN_SEED: u64 = 42;
const GOLDEN_SCALE: f64 = 0.05;

fn golden_json(workload: WorkloadId, mechanism: Mechanism) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}_{}.json", workload.name(), mechanism.name()));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {path:?} ({e})"))
        .trim_end()
        .to_string()
}

/// With the registry enabled and the sampler forced to a tight cadence,
/// the deterministic metrics view still matches the committed golden
/// snapshots byte-for-byte: sampling reads host counters only and can
/// never perturb simulated behaviour.
#[test]
fn forced_sampling_is_bit_identical_to_golden() {
    obs::enable();
    for mechanism in [Mechanism::Baseline, Mechanism::Puno] {
        let workload = WorkloadId::Ssca2;
        let params = workload.params().scaled(GOLDEN_SCALE);
        let mut sys = System::new(SystemConfig::paper(mechanism), &params, GOLDEN_SEED);
        sys.set_obs_sample_every(64);
        let metrics = sys.try_run_recycled().expect("golden cell must run");
        let got =
            serde_json::to_string(&metrics.deterministic()).expect("RunMetrics must serialize");
        assert_eq!(
            got,
            golden_json(workload, mechanism),
            "{:?}/{mechanism:?} diverged from golden with live sampling forced on",
            workload,
        );
    }
}

fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
        .expect("send scrape request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read scrape response");
    response
}

/// Sum every series of a counter family in rendered exposition text.
fn family_total(body: &str, name: &str) -> f64 {
    body.lines()
        .filter(|l| {
            l.starts_with(name)
                && l.as_bytes()
                    .get(name.len())
                    .is_some_and(|&b| b == b'{' || b == b' ')
        })
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum()
}

/// Scrape the exporter concurrently with an active sweep: every mid-flight
/// response is valid exposition text, and the final scrape shows the
/// sweep's work (cells started/completed, sim-cycle series from the run
/// sampler).
#[test]
fn live_scrape_serves_changing_metrics_during_sweep() {
    let registry = obs::enable();
    let addr = obs::serve(registry, "127.0.0.1:0").expect("bind exporter");

    let first = scrape(addr);
    assert!(first.starts_with("HTTP/1.0 200 OK"), "got: {first}");
    assert!(first.contains("text/plain; version=0.0.4"));

    let workloads = [WorkloadId::Ssca2, WorkloadId::Genome];
    let mechanisms = [Mechanism::Baseline, Mechanism::Puno];
    // Golden-scale cells run ~20k simulated cycles, several multiples of
    // the default 5000-cycle sample cadence — and the sampler always
    // publishes its residual totals at run end regardless.
    let opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
    let done = AtomicBool::new(false);
    let outcomes = std::thread::scope(|s| {
        let sweep = s.spawn(|| {
            let r = try_sweep_rows(&workloads, &mechanisms, &opts);
            done.store(true, Ordering::Release);
            r
        });
        while !done.load(Ordering::Acquire) {
            let body = scrape(addr);
            assert!(
                body.starts_with("HTTP/1.0 200 OK"),
                "mid-sweep scrape failed: {body}"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        sweep.join().expect("sweep thread").0
    });
    assert_eq!(outcomes.len(), 4);

    let body = scrape(addr);
    assert!(body.contains("# TYPE puno_sweep_cells_started_total counter"));
    assert!(body.contains("# TYPE puno_sweep_cells_completed_total counter"));
    assert!(body.contains("# TYPE puno_sim_cycles_total counter"));
    assert!(body.contains("# TYPE puno_sim_cycles_per_sec gauge"));
    assert!(body.contains("puno_sweep_cells_completed_total{outcome=\"ok\"}"));
    // Counters are cumulative across the whole test binary, so >= this
    // sweep's contribution.
    assert!(family_total(&body, "puno_sweep_cells_started_total") >= 4.0);
    assert!(family_total(&body, "puno_sim_cycles_total") > 0.0);
    assert!(family_total(&body, "puno_sweep_cell_wall_seconds_count") >= 4.0);
}

/// Record two sweeps of the same cells under different run ids, then
/// reproduce the cross-run aggregates (throughput trend, PUNO-vs-baseline
/// abort delta) from the persisted warehouse alone.
#[test]
fn warehouse_reproduces_cross_run_aggregates() {
    let dir = std::env::temp_dir().join(format!("puno-obs-warehouse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wh = Warehouse::open(&dir).expect("open warehouse");

    for (run_id, recorded_unix) in [("run-a", 1_000u64), ("run-b", 2_000u64)] {
        for (digest, mechanism) in [(1u64, Mechanism::Baseline), (2, Mechanism::Puno)] {
            let params = WorkloadId::Ssca2.params().scaled(GOLDEN_SCALE);
            let metrics = System::new(SystemConfig::paper(mechanism), &params, GOLDEN_SEED)
                .try_run_recycled()
                .expect("cell must run");
            let row =
                WarehouseRow::from_metrics(run_id, recorded_unix, digest, "ok", false, &metrics);
            wh.append(&[row]).expect("append row");
        }
    }

    let (rows, stats) = wh.load();
    assert_eq!(stats.kept, 4);
    assert_eq!(
        stats.corrupt_skipped + stats.stale_skipped + stats.duplicate_collapsed,
        0
    );

    let trend = throughput_trend(&rows);
    assert_eq!(trend.len(), 1, "one workload recorded");
    let (workload, points) = &trend[0];
    assert_eq!(workload, "ssca2");
    assert_eq!(
        points.iter().map(|p| p.run_id.as_str()).collect::<Vec<_>>(),
        ["run-a", "run-b"],
        "runs ordered by recording time"
    );
    for p in points {
        assert_eq!(p.cells, 2);
        assert!(
            p.mean_mcycles_per_sec.is_finite() && p.mean_mcycles_per_sec > 0.0,
            "throughput must come from the recorded host counters"
        );
    }

    let deltas = abort_rate_deltas(&rows);
    assert_eq!(deltas.len(), 2, "one delta per recorded run");
    for d in &deltas {
        assert_eq!(d.workload, "ssca2");
        assert!(d.baseline_rate.is_finite() && d.puno_rate.is_finite());
        assert!(
            (d.delta_pp - (d.puno_rate - d.baseline_rate) * 100.0).abs() < 1e-9,
            "delta is derived from the recorded rates"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
