//! The cross-run result warehouse.
//!
//! The result cache ([`crate::cache`]) answers "have I simulated this exact
//! cell already?" — it keys on the content digest and keeps only the latest
//! metrics. The warehouse answers the *longitudinal* questions the cache
//! deliberately forgets: how did throughput trend across the last N sweeps,
//! what is the PUNO-vs-baseline abort-rate delta per recorded run, did the
//! newest sweep regress against the persisted bench baseline. It is an
//! append-only, checksummed JSONL file kept by the record store
//! ([`crate::store`]; torn lines, stale versions, and duplicates are
//! skipped and counted, never served, and a bad byte costs only its row)
//! holding one compact row per completed sweep cell, grouped by the
//! recording process's `run_id`.
//!
//! `PUNO_WAREHOUSE=<dir>` points the sweep driver at a warehouse; the
//! `warehouse` binary answers the aggregation queries offline.

use crate::cache::{decimal, split_fields, ENGINE_VERSION};
use crate::metrics::RunMetrics;
use crate::store::{self, Appender, Class, SkipStats};
use puno_workloads::{fnv1a_64_fold, FNV1A_64_OFFSET};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Version of the row schema itself; bump on any field change so old rows
/// classify as stale instead of deserializing into garbage.
pub const WAREHOUSE_SCHEMA_VERSION: u32 = 1;

/// Abort-blame summary entry: aborts attributed to one cause.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BlameCauseEntry {
    pub cause: String,
    pub count: u64,
}

/// One completed sweep cell, flattened to what cross-run queries need.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WarehouseRow {
    pub schema_version: u32,
    /// Engine version that produced the metrics; rows from another engine
    /// never mix into aggregates (simulated behaviour differs by design).
    pub engine_version: u32,
    /// Identifier of the process that recorded this row (`PUNO_RUN_ID` or
    /// a `<unix-secs>-<pid>` default); all of its sweeps share it.
    pub run_id: String,
    /// Unix seconds when the recording sweep started (shared by all of its
    /// rows, so a run orders as one point in a trend).
    pub recorded_unix: u64,
    /// The cell's [`crate::cache::cell_digest`] — joins a row back to the
    /// result cache and dedups re-recorded cells within a run.
    pub digest: u64,
    pub workload: String,
    pub mechanism: String,
    pub seed: u64,
    /// `ok`, `err`, or `quarantined`.
    pub outcome: String,
    /// Whether the cell replayed from the result cache (its host-side
    /// throughput then describes the *original* run, so cache-hit rows are
    /// excluded from host-perf aggregates).
    pub cache_hit: bool,
    pub cycles: u64,
    pub committed: u64,
    pub aborts: u64,
    pub abort_rate: f64,
    pub false_abort_fraction: f64,
    pub wall_secs: f64,
    pub sim_cycles_per_sec: f64,
    pub events_per_sec: f64,
    /// Aborts by cause (zero-count causes omitted), the blame summary the
    /// paper's false-abort analysis compares on.
    pub abort_blame: Vec<BlameCauseEntry>,
    /// FNV-1a over `warehouse|` and the row's JSON line with this field
    /// written as `0` (see `line_checksum`); verified in place on load.
    pub checksum: u64,
}

/// FNV-1a over `warehouse|` and `pieces`, which together are a row's JSON
/// line with its checksum value written as `0`.
fn line_checksum(pieces: &[&str]) -> u64 {
    pieces
        .iter()
        .fold(fnv1a_64_fold(FNV1A_64_OFFSET, b"warehouse|"), |h, piece| {
            fnv1a_64_fold(h, piece.as_bytes())
        })
}

impl WarehouseRow {
    /// Flatten one finished cell. `outcome` is `ok`/`err`/`quarantined`;
    /// failed cells carry an empty metrics payload from the caller's point
    /// of view, so they pass what they have.
    pub fn from_metrics(
        run_id: &str,
        recorded_unix: u64,
        digest: u64,
        outcome: &str,
        cache_hit: bool,
        metrics: &RunMetrics,
    ) -> Self {
        let abort_blame = metrics
            .abort_blame()
            .into_iter()
            .map(|(cause, count)| BlameCauseEntry {
                cause: format!("{cause:?}"),
                count,
            })
            .collect();
        Self {
            schema_version: WAREHOUSE_SCHEMA_VERSION,
            engine_version: ENGINE_VERSION,
            run_id: run_id.to_string(),
            recorded_unix,
            digest,
            workload: metrics.workload.clone(),
            mechanism: metrics.mechanism.clone(),
            seed: metrics.seed,
            outcome: outcome.to_string(),
            cache_hit,
            cycles: metrics.cycles,
            committed: metrics.committed,
            aborts: metrics.htm.aborts.get(),
            abort_rate: metrics.htm.abort_rate(),
            false_abort_fraction: metrics.oracle.false_abort_fraction(),
            wall_secs: metrics.host.wall_secs,
            sim_cycles_per_sec: metrics.host.sim_cycles_per_sec,
            events_per_sec: metrics.host.events_per_sec,
            abort_blame,
            checksum: 0,
        }
        .sealed()
    }

    /// Row for a cell that produced no metrics (failed or quarantined):
    /// identity fields only, measurements zeroed.
    #[allow(clippy::too_many_arguments)]
    pub fn placeholder(
        run_id: &str,
        recorded_unix: u64,
        digest: u64,
        workload: &str,
        mechanism: &str,
        seed: u64,
        outcome: &str,
    ) -> Self {
        Self {
            schema_version: WAREHOUSE_SCHEMA_VERSION,
            engine_version: ENGINE_VERSION,
            run_id: run_id.to_string(),
            recorded_unix,
            digest,
            workload: workload.to_string(),
            mechanism: mechanism.to_string(),
            seed,
            outcome: outcome.to_string(),
            ..Self::default()
        }
        .sealed()
    }

    /// The row with its checksum set: over its serialization with the
    /// field still `0` (the serde shim emits fields in declaration order,
    /// so the line the row is written as differs only in that value).
    fn sealed(mut self) -> Self {
        self.checksum = 0;
        let zeroed = serde_json::to_string(&self).expect("warehouse row must serialize");
        self.checksum = line_checksum(&[&zeroed]);
        self
    }
}

/// A row is valid only if its line splits in the writer's compact shape
/// and the stored checksum verifies over the line exactly as written, with
/// the checksum's own span read as `0` — so a row carrying a column this
/// build dropped still verifies. Only verified rows are decoded.
fn classify_row_line(line: &str) -> Class<(String, u64), WarehouseRow> {
    let verified = split_fields(line).and_then(|fields| {
        let (_, span) = fields.into_iter().find(|(key, _)| *key == "checksum")?;
        let stored = decimal::<u64>(line.get(span.clone())?)?;
        Some(line_checksum(&[&line[..span.start], "0", &line[span.end..]]) == stored)
    });
    if verified != Some(true) {
        return Class::Corrupt;
    }
    match serde_json::from_str::<WarehouseRow>(line) {
        Ok(row)
            if row.engine_version != ENGINE_VERSION
                || row.schema_version != WAREHOUSE_SCHEMA_VERSION =>
        {
            Class::Stale
        }
        Ok(row) => Class::Valid((row.run_id.clone(), row.digest), row),
        Err(_) => Class::Corrupt,
    }
}

/// Append-only JSONL warehouse rooted at a directory (`warehouse.jsonl`
/// inside it). Open is cheap (no read); [`Warehouse::load`] reads and
/// classifies the whole file.
#[derive(Clone, Debug)]
pub struct Warehouse {
    dir: PathBuf,
}

impl Warehouse {
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    pub fn rows_path(&self) -> PathBuf {
        self.dir.join("warehouse.jsonl")
    }

    /// Append rows (one JSONL line each) in one write.
    pub fn append(&self, rows: &[WarehouseRow]) -> std::io::Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        Appender::open(&self.rows_path())?.append(&store::to_jsonl(rows))
    }

    /// Read every persisted row: corrupt (torn/tampered) lines and
    /// stale-version rows are skipped and counted; duplicates of one
    /// `(run_id, digest)` collapse last-wins (first-seen order preserved).
    pub fn load(&self) -> (Vec<WarehouseRow>, SkipStats) {
        let text = store::read(&self.rows_path());
        let (rows, stats) = store::load(&text, |_, line| classify_row_line(line));
        (rows.into_values().collect(), stats)
    }
}

/// Unix seconds right now (0 if the clock is before the epoch — only the
/// relative order of runs matters to the aggregates).
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Aggregation queries.

/// Recorded runs in chronological order: `(run_id, start_unix, rows)`.
pub fn runs_in_order(rows: &[WarehouseRow]) -> Vec<(String, u64)> {
    let mut start: BTreeMap<&str, u64> = BTreeMap::new();
    for row in rows {
        let e = start.entry(&row.run_id).or_insert(row.recorded_unix);
        *e = (*e).min(row.recorded_unix);
    }
    let mut runs: Vec<(String, u64)> = start
        .into_iter()
        .map(|(id, t)| (id.to_string(), t))
        .collect();
    runs.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    runs
}

/// One run's point in a per-workload throughput trend.
#[derive(Clone, Debug, PartialEq)]
pub struct TrendPoint {
    pub run_id: String,
    /// Simulated (non-cache-hit, successful) cells contributing.
    pub cells: u64,
    /// Mean simulated Mcycles per wall second over those cells.
    pub mean_mcycles_per_sec: f64,
}

/// Per-workload host-throughput trend across recorded runs. Cache-hit rows
/// are excluded: their `HostPerf` replays the original run's host, not the
/// run that recorded them.
pub fn throughput_trend(rows: &[WarehouseRow]) -> Vec<(String, Vec<TrendPoint>)> {
    let runs = runs_in_order(rows);
    let mut workloads: Vec<&str> = rows.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = Vec::new();
    for wl in workloads {
        let mut points = Vec::new();
        for (run_id, _) in &runs {
            let contributing: Vec<&WarehouseRow> = rows
                .iter()
                .filter(|r| {
                    r.workload == wl
                        && &r.run_id == run_id
                        && r.outcome == "ok"
                        && !r.cache_hit
                        && r.sim_cycles_per_sec > 0.0
                })
                .collect();
            if contributing.is_empty() {
                continue;
            }
            let mean = contributing
                .iter()
                .map(|r| r.sim_cycles_per_sec)
                .sum::<f64>()
                / contributing.len() as f64;
            points.push(TrendPoint {
                run_id: run_id.clone(),
                cells: contributing.len() as u64,
                mean_mcycles_per_sec: mean / 1e6,
            });
        }
        if !points.is_empty() {
            out.push((wl.to_string(), points));
        }
    }
    out
}

/// PUNO-vs-baseline abort-rate comparison for one (run, workload) group.
#[derive(Clone, Debug, PartialEq)]
pub struct AbortDelta {
    pub run_id: String,
    pub workload: String,
    /// Mean abort rate over the run's `baseline` cells of this workload.
    pub baseline_rate: f64,
    /// Mean abort rate over the run's `puno` cells of this workload.
    pub puno_rate: f64,
    /// `(puno - baseline) * 100`: percentage points the PUNO mechanism
    /// moved the abort rate (negative = fewer aborts, the paper's claim).
    pub delta_pp: f64,
}

/// Abort-rate deltas for every (run, workload) that recorded both a
/// `baseline` and a `puno` cell. Cache hits count here — abort rate is
/// simulated behaviour, identical however the row was produced.
pub fn abort_rate_deltas(rows: &[WarehouseRow]) -> Vec<AbortDelta> {
    let runs = runs_in_order(rows);
    let mut workloads: Vec<&str> = rows.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mean_rate = |run_id: &str, wl: &str, mech: &str| -> Option<f64> {
        let rates: Vec<f64> = rows
            .iter()
            .filter(|r| {
                r.run_id == run_id && r.workload == wl && r.mechanism == mech && r.outcome == "ok"
            })
            .map(|r| r.abort_rate)
            .collect();
        (!rates.is_empty()).then(|| rates.iter().sum::<f64>() / rates.len() as f64)
    };
    let mut out = Vec::new();
    for (run_id, _) in &runs {
        for wl in &workloads {
            let (Some(base), Some(puno)) = (
                mean_rate(run_id, wl, "baseline"),
                mean_rate(run_id, wl, "puno"),
            ) else {
                continue;
            };
            out.push(AbortDelta {
                run_id: run_id.clone(),
                workload: wl.to_string(),
                baseline_rate: base,
                puno_rate: puno,
                delta_pp: (puno - base) * 100.0,
            });
        }
    }
    out
}

/// Latest-run host-throughput check against the persisted bench baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchComparison {
    pub workload: String,
    pub run_id: String,
    /// Mean wall microseconds per simulated cell in the latest run.
    pub mean_wall_us: f64,
    /// The `system/throughput/<workload>` entry of the bench baseline, in
    /// microseconds per iteration.
    pub baseline_us: f64,
    /// `mean_wall_us / baseline_us`. Only comparable when the recorded
    /// sweep ran at the bench smoke scale; the ratio is reported either
    /// way, flagged by the caller's threshold.
    pub ratio: f64,
}

/// Compare the latest recorded run's per-workload mean cell wall-clock
/// against `results/BENCH_substrate_baseline.json`-style content (a flat
/// `{"name": us_per_iter}` map with `system/throughput/<workload>` keys).
pub fn compare_vs_bench_baseline(
    rows: &[WarehouseRow],
    baseline_json: &str,
) -> Vec<BenchComparison> {
    // The bench baseline is a plain JSON object (`{"name": us_per_iter}`).
    // The vendored serde shim's map Deserialize expects its own
    // array-of-pairs encoding, so go through `Value::Object` directly.
    let Ok(value) = serde_json::from_str::<serde::Value>(baseline_json) else {
        return Vec::new();
    };
    let serde::Value::Object(entries) = value else {
        return Vec::new();
    };
    let mut baseline: Vec<(String, f64)> = entries
        .into_iter()
        .filter_map(|(k, v)| v.as_f64().map(|x| (k, x)))
        .collect();
    baseline.sort_by(|a, b| a.0.cmp(&b.0));
    let runs = runs_in_order(rows);
    let Some((latest, _)) = runs.last() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for &(ref key, baseline_us) in baseline.iter() {
        let Some(wl) = key.strip_prefix("system/throughput/") else {
            continue;
        };
        if baseline_us <= 0.0 {
            continue;
        }
        let walls: Vec<f64> = rows
            .iter()
            .filter(|r| {
                &r.run_id == latest
                    && r.workload == wl
                    && r.outcome == "ok"
                    && !r.cache_hit
                    && r.wall_secs > 0.0
            })
            .map(|r| r.wall_secs * 1e6)
            .collect();
        if walls.is_empty() {
            continue;
        }
        let mean_wall_us = walls.iter().sum::<f64>() / walls.len() as f64;
        out.push(BenchComparison {
            workload: wl.to_string(),
            run_id: latest.clone(),
            mean_wall_us,
            baseline_us,
            ratio: mean_wall_us / baseline_us,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::Mechanism;
    use crate::run::run_workload;
    use crate::{System, SystemConfig};
    use puno_workloads::WorkloadId;

    const GOLDEN_SEED: u64 = 42;
    const GOLDEN_SCALE: f64 = 0.05;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("puno-wh-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_row(run_id: &str, t: u64, digest: u64, mech: Mechanism, seed: u64) -> WarehouseRow {
        // Intruder is the contended workload: it reliably records aborts at
        // golden scale, so the blame summary is nonempty.
        let params = WorkloadId::Intruder.params().scaled(0.05);
        let metrics = run_workload(mech, &params, seed);
        WarehouseRow::from_metrics(run_id, t, digest, "ok", false, &metrics)
    }

    #[test]
    fn rows_roundtrip_with_checksums() {
        let dir = temp_dir("roundtrip");
        let wh = Warehouse::open(&dir).unwrap();
        let row = sample_row("r1", 100, 1, Mechanism::Baseline, 9);
        assert_eq!(row.clone().sealed(), row);
        assert!(
            !row.abort_blame.is_empty(),
            "intruder must record some aborts"
        );
        wh.append(std::slice::from_ref(&row)).unwrap();
        let (rows, stats) = wh.load();
        assert_eq!(rows, vec![row]);
        assert_eq!(
            stats,
            SkipStats {
                kept: 1,
                ..Default::default()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_stale_and_duplicate_rows_are_tolerated() {
        let dir = temp_dir("tolerance");
        let wh = Warehouse::open(&dir).unwrap();
        let good = sample_row("r1", 100, 1, Mechanism::Baseline, 9);
        let stale = WarehouseRow {
            engine_version: ENGINE_VERSION + 1,
            ..good.clone()
        }
        .sealed();
        let dup = sample_row("r1", 100, 1, Mechanism::Baseline, 10);
        let mut tampered = sample_row("r1", 100, 2, Mechanism::Puno, 9);
        tampered.seed = 77; // breaks the checksum
        wh.append(&[good.clone(), stale, dup.clone(), tampered])
            .unwrap();
        // Torn trailing line on top.
        let mut text = std::fs::read_to_string(wh.rows_path()).unwrap();
        text.push_str("{\"schema_version\":1,\"ru");
        std::fs::write(wh.rows_path(), text).unwrap();

        let (rows, stats) = wh.load();
        assert_eq!(stats.corrupt, 2, "tampered + torn");
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.duplicate, 1);
        assert_eq!(stats.kept, 1);
        assert_eq!(rows, vec![dup], "same (run_id, digest): last wins");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A byte with its high bit set is invalid UTF-8: it costs only the
    /// row it sits in, not the whole file.
    #[test]
    fn a_bad_byte_costs_only_its_row() {
        let dir = temp_dir("badbyte");
        let wh = Warehouse::open(&dir).unwrap();
        let rows: Vec<WarehouseRow> = (0..4)
            .map(|i| WarehouseRow::placeholder("r1", 100, i, "ssca2", "puno", 1, "err"))
            .collect();
        wh.append(&rows).unwrap();
        let text = std::fs::read_to_string(wh.rows_path()).unwrap();
        // The first byte of the second row's `run_id` value.
        let tag = "\"run_id\":\"";
        let (at, _) = text.match_indices(tag).nth(1).unwrap();
        let mut bytes = text.into_bytes();
        bytes[at + tag.len()] |= 0x80;
        std::fs::write(wh.rows_path(), bytes).unwrap();
        let (kept, stats) = wh.load();
        assert_eq!((stats.kept, stats.corrupt), (3, 1));
        assert_eq!(kept, [&rows[0], &rows[2], &rows[3]].map(Clone::clone));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trend_and_delta_aggregates() {
        let mk = |run: &str, t: u64, wl: &str, mech: &str, digest: u64, rate: f64, cps: f64| {
            WarehouseRow {
                schema_version: WAREHOUSE_SCHEMA_VERSION,
                engine_version: ENGINE_VERSION,
                run_id: run.to_string(),
                recorded_unix: t,
                digest,
                workload: wl.to_string(),
                mechanism: mech.to_string(),
                seed: 1,
                outcome: "ok".to_string(),
                cache_hit: false,
                cycles: 1000,
                committed: 100,
                aborts: 10,
                abort_rate: rate,
                false_abort_fraction: 0.0,
                wall_secs: 0.5,
                sim_cycles_per_sec: cps,
                events_per_sec: 0.0,
                abort_blame: Vec::new(),
                checksum: 0,
            }
            .sealed()
        };
        let rows = vec![
            mk("b", 200, "ssca2", "baseline", 1, 0.30, 2e6),
            mk("b", 200, "ssca2", "puno", 2, 0.10, 4e6),
            mk("a", 100, "ssca2", "baseline", 1, 0.30, 1e6),
            mk("a", 100, "ssca2", "puno", 2, 0.20, 3e6),
        ];
        assert_eq!(
            runs_in_order(&rows),
            vec![("a".to_string(), 100), ("b".to_string(), 200)]
        );
        let trend = throughput_trend(&rows);
        assert_eq!(trend.len(), 1);
        let (wl, points) = &trend[0];
        assert_eq!(wl, "ssca2");
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].run_id, "a");
        assert!((points[0].mean_mcycles_per_sec - 2.0).abs() < 1e-9);
        assert!((points[1].mean_mcycles_per_sec - 3.0).abs() < 1e-9);

        let deltas = abort_rate_deltas(&rows);
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].run_id, "a");
        assert!((deltas[0].delta_pp - -10.0).abs() < 1e-9);
        assert!((deltas[1].delta_pp - -20.0).abs() < 1e-9);

        let cmp = compare_vs_bench_baseline(
            &rows,
            "{\"system/throughput/ssca2\": 1000.0, \"other/key\": 5.0}",
        );
        assert_eq!(cmp.len(), 1);
        assert_eq!(cmp[0].run_id, "b");
        assert!((cmp[0].mean_wall_us - 500000.0).abs() < 1e-6);
        assert!((cmp[0].ratio - 500.0).abs() < 1e-9);
    }

    /// Record two sweeps of the same cells under different run ids, then
    /// reproduce the cross-run aggregates (throughput trend, PUNO-vs-baseline
    /// abort delta) from the persisted warehouse alone.
    #[test]
    fn warehouse_reproduces_cross_run_aggregates() {
        let dir = temp_dir("cross-run");
        let wh = Warehouse::open(&dir).expect("open warehouse");

        for (run_id, recorded_unix) in [("run-a", 1_000u64), ("run-b", 2_000u64)] {
            for (digest, mechanism) in [(1u64, Mechanism::Baseline), (2, Mechanism::Puno)] {
                let params = WorkloadId::Ssca2.params().scaled(GOLDEN_SCALE);
                let metrics = System::new(SystemConfig::paper(mechanism), &params, GOLDEN_SEED)
                    .try_run_recycled()
                    .expect("cell must run");
                let row = WarehouseRow::from_metrics(
                    run_id,
                    recorded_unix,
                    digest,
                    "ok",
                    false,
                    &metrics,
                );
                wh.append(&[row]).expect("append row");
            }
        }

        let (rows, stats) = wh.load();
        assert_eq!(stats.kept, 4);
        assert_eq!(stats.corrupt + stats.stale + stats.duplicate, 0);

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
}
