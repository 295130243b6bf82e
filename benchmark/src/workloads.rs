//! The four workloads, their timed reps, and the per-cell correctness gate.
//!
//! Every workload is a closed-loop batch of simulation cells: a rep starts
//! only after the previous one finished. End-to-end numbers come from
//! untraced reps; the traced pass (see [`crate::traced`]) runs afterwards.

use crate::metrics;
use crate::traced;
use puno_harness::sweep::{try_sweep, CellOutcome, SweepOptions, SweepResult};
use puno_harness::{cell_digest, Mechanism, ResultCache, RunMetrics, System, SystemConfig};
use puno_workloads::{fnv1a_64, ProgramSet, WorkloadId, WorkloadParams};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed reps per workload before `--seconds` may end the loop.
pub const MIN_REPS: usize = 5;

/// Cache replays per `grid_warm` rep.
const WARM_REPLAYS: usize = 50;

/// `--smoke` shrinks every workload's transaction count by this factor.
pub const SMOKE_SCALE_DIVISOR: f64 = 20.0;

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// One `try_sweep` per seed over `workloads × mechanisms`, with a fresh,
    /// empty result cache attached to every rep, as `regen_all.sh` does.
    Sweep,
    /// Cells back to back on this thread, each in a fresh `System`.
    Serial,
    /// Sweeps served entirely from a result cache filled during set-up,
    /// reopened from disk for every replay.
    Warm,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub workloads: &'static [WorkloadId],
    pub mechanisms: &'static [Mechanism],
    pub config: fn(Mechanism) -> SystemConfig,
    pub scale: f64,
    /// Seeds `seed .. seed + seeds` are run (for `Warm`: filled).
    pub seeds: u64,
    pub kind: Kind,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "paper_grid",
        why: "the job behind every figure: 8 STAMP workloads x 4 mechanisms on the 4x4 mesh with a fresh result cache; the only workload where sweep scheduling, prefix fork and cache writes work",
        workloads: &WorkloadId::ALL,
        mechanisms: &Mechanism::ALL,
        config: SystemConfig::paper,
        scale: 0.25,
        seeds: 1,
        kind: Kind::Sweep,
    },
    Spec {
        name: "mesh16_sparse",
        why: "ssca2 and genome under baseline on the 16x16 mesh, serial fresh Systems: NoC stepping dominates host time while aborts are rare and the predictor is bypassed",
        workloads: &[WorkloadId::Ssca2, WorkloadId::Genome],
        mechanisms: &[Mechanism::Baseline],
        config: SystemConfig::mesh16,
        scale: 0.05,
        seeds: 1,
        // Two long cells on two sweep workers would time the slower core,
        // not the code: run them back to back on one.
        kind: Kind::Serial,
    },
    Spec {
        name: "hc_puno",
        why: "the four high-contention workloads under PUNO, two seeds, serial fresh Systems: heaviest conflict detection, NACK/notification, directory blocking and predictor work",
        workloads: &WorkloadId::HIGH_CONTENTION,
        mechanisms: &[Mechanism::Puno],
        config: SystemConfig::paper,
        scale: 0.25,
        seeds: 2,
        kind: Kind::Serial,
    },
    Spec {
        name: "grid_warm",
        why: "the paper grid at scale 0.05 replayed from a 256-record result cache reopened per replay: cache read path only, no NoC, HTM or directory work",
        workloads: &WorkloadId::ALL,
        mechanisms: &Mechanism::ALL,
        config: SystemConfig::paper,
        scale: 0.05,
        seeds: 8,
        kind: Kind::Warm,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One (workload, mechanism, seed) simulation.
#[derive(Clone, Copy, Debug)]
struct Cell {
    workload: WorkloadId,
    mechanism: Mechanism,
    seed: u64,
}

impl Cell {
    fn label(&self) -> String {
        format!(
            "{}/{}/seed{}",
            self.workload.name(),
            self.mechanism.name(),
            self.seed
        )
    }
}

type CellResult = (Cell, Result<RunMetrics, String>);

/// How one workload is run: which seeds, at what scale, for how long.
pub struct Plan<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub scale: f64,
    pub min_reps: usize,
    pub seconds: Duration,
    pub traced: bool,
    /// Scratch directory for result caches; removed by the caller.
    pub tmp: &'a Path,
}

impl Plan<'_> {
    fn seeds(&self) -> std::ops::Range<u64> {
        self.seed..self.seed + self.spec.seeds
    }

    fn params(&self, w: WorkloadId) -> WorkloadParams {
        w.params().scaled(self.scale)
    }

    fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for seed in self.seeds() {
            for &workload in self.spec.workloads {
                for &mechanism in self.spec.mechanisms {
                    cells.push(Cell {
                        workload,
                        mechanism,
                        seed,
                    });
                }
            }
        }
        cells
    }

    fn sweep_options(&self, seed: u64, cache: Option<Arc<ResultCache>>) -> SweepOptions {
        let mut opts = SweepOptions::new(seed, self.scale);
        opts.config = self.spec.config;
        opts.result_cache = cache;
        opts
    }
}

/// Samples, attempts and failures gathered while running one workload.
#[derive(Default)]
pub struct Outcome {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub reps: usize,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// First digest of `RunMetrics::deterministic()` seen per cell.
    digests: BTreeMap<String, u64>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(metrics::lookup(name).is_some(), "unknown metric {name}");
        self.samples.entry(name).or_default().push(value);
    }

    fn fail(&mut self, what: String) {
        eprintln!("FAIL {what}");
        self.failures.push(what);
    }

    /// The correctness gate for one attempted cell: no run error, every
    /// node committed its whole program, and the simulated result is
    /// bit-identical to every other time this cell ran.
    fn check<'m>(
        &mut self,
        plan: &Plan,
        stage: &str,
        cell: &Cell,
        result: Result<&'m RunMetrics, &str>,
    ) -> Option<&'m RunMetrics> {
        self.attempted += 1;
        let label = cell.label();
        let m = match result {
            Ok(m) => m,
            Err(e) => {
                self.fail(format!("{label} ({stage}): {e}"));
                return None;
            }
        };
        let nodes = (plan.spec.config)(cell.mechanism).nodes() as u64;
        let expected = nodes * plan.params(cell.workload).tx_per_node as u64;
        if m.committed != expected {
            self.fail(format!(
                "{label} ({stage}): committed {} transactions, expected {expected}",
                m.committed
            ));
            return None;
        }
        let digest = digest(m);
        let first = *self.digests.entry(label.clone()).or_insert(digest);
        if first != digest {
            self.fail(format!(
                "{label} ({stage}): simulated result differs from an earlier run of the same cell"
            ));
            return None;
        }
        Some(m)
    }
}

fn as_ref(r: &Result<RunMetrics, String>) -> Result<&RunMetrics, &str> {
    r.as_ref().map_err(String::as_str)
}

fn digest(m: &RunMetrics) -> u64 {
    let text = serde_json::to_string(&m.deterministic()).expect("RunMetrics serializes");
    fnv1a_64(text.as_bytes())
}

/// A host-side counter read by field name, so that deleting the counter
/// from `HostPerf` leaves this benchmark building (it then reads 0).
fn host_counter(m: &RunMetrics, field: &str) -> f64 {
    serde_json::to_value(&m.host)
        .ok()
        .and_then(|v| v.get(field).and_then(|x| x.as_f64()))
        .unwrap_or(0.0)
}

fn outcome_result(outcome: CellOutcome) -> CellResult {
    let key = outcome.key();
    let cell = Cell {
        workload: key.workload,
        mechanism: key.mechanism,
        seed: key.seed,
    };
    let result = match outcome {
        CellOutcome::Ok { metrics, .. } => Ok(metrics),
        CellOutcome::Err { error, .. } => Err(format!("run error: {}", error.kind())),
        CellOutcome::Quarantined { error, .. } => {
            Err(format!("quarantined after {}", error.kind()))
        }
    };
    (cell, result)
}

fn open_cache(dir: &Path) -> Result<(Arc<ResultCache>, f64), String> {
    let t0 = Instant::now();
    let cache = ResultCache::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    Ok((Arc::new(cache), t0.elapsed().as_secs_f64()))
}

fn dir_bytes(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|md| md.len())
                .sum::<u64>() as f64
        })
        .unwrap_or(0.0)
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let target = to.join(path.file_name().expect("directory entries have names"));
        std::fs::copy(&path, &target).map_err(|e| format!("copy {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Mean microseconds per `lookup` of `digests` in `cache`.
fn time_lookups(cache: &ResultCache, digests: &[u64]) -> f64 {
    let t0 = Instant::now();
    for &d in digests {
        std::hint::black_box(cache.lookup(d));
    }
    t0.elapsed().as_secs_f64() * 1e6 / digests.len().max(1) as f64
}

/// Set-ups timed per rep. Each is one `setup_s` sample; a few milliseconds
/// of work is easily skewed by other load on the machine, so several per
/// rep spread the samples over the whole run.
const SETUPS_PER_REP: usize = 3;

/// Time `ProgramSet::generate` per (workload, seed) and `System::new_shared`
/// per cell — the set-up every simulating job pays, whether the sweep does
/// it internally or the serial runner does it up front. Returns the systems
/// of the last set-up when `keep` is set.
fn set_up(plan: &Plan, out: &mut Outcome, keep: bool) -> Vec<(Cell, System)> {
    let mut systems = Vec::new();
    for _ in 0..SETUPS_PER_REP {
        systems.clear();
        set_up_once(plan, out, keep, &mut systems);
    }
    systems
}

fn set_up_once(plan: &Plan, out: &mut Outcome, keep: bool, systems: &mut Vec<(Cell, System)>) {
    let (mut gen_s, mut build_s) = (0.0, 0.0);
    for seed in plan.seeds() {
        for &w in plan.spec.workloads {
            let params = plan.params(w);
            let nodes = (plan.spec.config)(plan.spec.mechanisms[0]).nodes();
            let t0 = Instant::now();
            let programs = ProgramSet::generate(&params, nodes, seed);
            gen_s += t0.elapsed().as_secs_f64();
            for &mechanism in plan.spec.mechanisms {
                let t0 = Instant::now();
                let sys =
                    System::new_shared((plan.spec.config)(mechanism), &params, seed, &programs);
                build_s += t0.elapsed().as_secs_f64();
                if keep {
                    let cell = Cell {
                        workload: w,
                        mechanism,
                        seed,
                    };
                    systems.push((cell, sys));
                } else {
                    drop(std::hint::black_box(sys));
                }
            }
        }
    }
    out.push("workloads.gen_s", gen_s);
    out.push("system.build_s", build_s);
    out.push("setup_s", gen_s + build_s);
}

/// What a simulating rep measured besides the per-cell metrics.
struct Job {
    results: Vec<CellResult>,
    wall_s: f64,
    workers: f64,
}

fn sweep_rep(plan: &Plan, out: &mut Outcome) -> Result<Job, String> {
    set_up(plan, out, false);
    let cache_dir = plan.tmp.join(format!("{}-cache", plan.spec.name));
    fresh_dir(&cache_dir)?;
    let (cache, open_s) = open_cache(&cache_dir)?;
    out.push("cache.open_s", open_s);
    let t0 = Instant::now();
    let mut results = Vec::new();
    for seed in plan.seeds() {
        let opts = plan.sweep_options(seed, Some(cache.clone()));
        results.extend(
            try_sweep(plan.spec.workloads, plan.spec.mechanisms, &opts)
                .into_iter()
                .map(outcome_result),
        );
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let workers = results
        .iter()
        .find_map(|(_, r)| r.as_ref().ok())
        .map_or(0.0, |m| m.host.sweep_workers as f64);

    let digests: Vec<u64> = results
        .iter()
        .map(|(c, _)| {
            let config = (plan.spec.config)(c.mechanism);
            cell_digest(&config, &plan.params(c.workload), c.seed)
        })
        .collect();
    let stats = cache.stats();
    out.push("cache.records", stats.entries as f64);
    out.push("cache.hits", stats.hits as f64);
    out.push("cache.bytes", dir_bytes(&cache_dir));
    out.push("cache.lookup_us", time_lookups(&cache, &digests));
    // Writes happen inside the sweep; time the same stores into a second
    // empty cache to see their cost.
    let store_dir = plan.tmp.join(format!("{}-store", plan.spec.name));
    fresh_dir(&store_dir)?;
    let (scratch, _) = open_cache(&store_dir)?;
    let ok: Vec<(u64, &Cell, &RunMetrics)> = digests
        .iter()
        .zip(&results)
        .filter_map(|(&d, (c, r))| Some((d, c, r.as_ref().ok()?)))
        .collect();
    let t0 = Instant::now();
    for &(d, c, m) in &ok {
        scratch.store(d, d, c.seed, m);
    }
    out.push(
        "cache.store_us",
        t0.elapsed().as_secs_f64() * 1e6 / ok.len().max(1) as f64,
    );
    Ok(Job {
        results,
        wall_s,
        workers,
    })
}

fn serial_rep(plan: &Plan, out: &mut Outcome) -> Job {
    let mut systems = set_up(plan, out, true);
    let t0 = Instant::now();
    let results = systems
        .iter_mut()
        .map(|(cell, sys)| {
            let r = sys
                .try_run_recycled()
                .map_err(|e| format!("run error: {}", e.kind()));
            (*cell, r)
        })
        .collect();
    Job {
        results,
        wall_s: t0.elapsed().as_secs_f64(),
        workers: 1.0,
    }
}

/// Check every cell of a simulating rep and record the end-to-end numbers
/// and the per-layer counters `RunMetrics` publishes.
fn record_job(plan: &Plan, stage: &str, job: &Job, out: &mut Outcome) {
    let ok: Vec<&RunMetrics> = job
        .results
        .iter()
        .filter_map(|(cell, r)| out.check(plan, stage, cell, as_ref(r)))
        .collect();
    if ok.is_empty() {
        return;
    }
    let sum = |f: &dyn Fn(&RunMetrics) -> f64| ok.iter().map(|m| f(m)).sum::<f64>();
    let committed = sum(&|m| m.committed as f64);
    out.push("wall_s", job.wall_s);
    out.push("ktx_per_s", committed / job.wall_s / 1e3);

    let cycles = sum(&|m| m.cycles as f64);
    let events = sum(&|m| m.host.events_dispatched as f64);
    let run_s = sum(&|m| m.host.wall_secs);
    out.push("sim.cycles", cycles);
    out.push("sim.events", events);
    out.push("sim.ns_per_event", run_s * 1e9 / events.max(1.0));
    out.push("sim.mcycles_per_s", cycles / run_s / 1e6);
    let peak = ok
        .iter()
        .map(|m| m.host.peak_queue_depth)
        .max()
        .unwrap_or(0);
    out.push("sim.peak_queue_depth", peak as f64);

    out.push("noc.flits", sum(&|m| m.traffic_flits_injected as f64));
    out.push(
        "noc.router_traversals",
        sum(&|m| m.traffic_router_traversals as f64),
    );
    out.push(
        "noc.active_scan_ratio",
        sum(&|m| m.host.noc_active_scan_ratio * m.cycles as f64) / cycles,
    );
    out.push(
        "noc.quiesced_frac",
        sum(&|m| host_counter(m, "quiesced_cycles")) / cycles,
    );

    out.push(
        "dir.requests",
        sum(&|m| {
            (m.dir.gets_received.get() + m.dir.getx_received.get() + m.dir.putx_received.get())
                as f64
        }),
    );
    out.push("dir.mem_fetches", sum(&|m| m.dir.mem_fetches.get() as f64));
    out.push(
        "dir.invalidations",
        sum(&|m| m.dir.invalidations_sent.get() as f64),
    );
    out.push("dir.unicasts", sum(&|m| m.dir.unicasts_sent.get() as f64));
    out.push("dir.queued", sum(&|m| m.dir.queued_requests.get() as f64));
    let blocked = sum(&|m| m.dir.blocking_cycles_tx_getx.sum() as f64);
    let tx_getx = sum(&|m| m.dir.blocking_cycles_tx_getx.count() as f64);
    out.push("dir.blocking_per_txgetx", blocked / tx_getx.max(1.0));

    let commits = sum(&|m| m.htm.commits.get() as f64);
    let aborts = sum(&|m| m.htm.aborts.get() as f64);
    out.push("htm.attempts", commits + aborts);
    out.push("htm.commits", commits);
    out.push("htm.aborts", aborts);
    out.push("htm.commit_frac", commits / (commits + aborts).max(1.0));
    out.push("htm.nacks", sum(&|m| m.htm.nacks_received.get() as f64));
    out.push(
        "htm.backoff_cycles",
        sum(&|m| m.htm.backoff_cycles.get() as f64),
    );
    let good = sum(&|m| m.htm.good_cycles.get() as f64);
    let discarded = sum(&|m| m.htm.discarded_cycles.get() as f64);
    out.push("htm.good_frac", good / (good + discarded).max(1.0));

    let unicasts = sum(&|m| m.puno.unicasts.get() as f64);
    let mispredicted = sum(&|m| m.puno.mispredictions.get() as f64);
    out.push(
        "pred.opportunities",
        sum(&|m| m.puno.opportunities.get() as f64),
    );
    out.push("pred.unicasts", unicasts);
    out.push(
        "pred.accuracy",
        if unicasts == 0.0 {
            1.0
        } else {
            1.0 - mispredicted / unicasts
        },
    );
    out.push(
        "pred.notifications",
        sum(&|m| m.puno.notifications.get() as f64),
    );

    let mut cell_s: Vec<f64> = ok.iter().map(|m| m.host.wall_secs).collect();
    cell_s.sort_by(f64::total_cmp);
    let workers = job.workers.max(1.0);
    out.push("sweep.workers", job.workers);
    out.push("sweep.worker_util", run_s / (workers * job.wall_s));
    out.push("sweep.lpt_slack_s", job.wall_s - run_s / workers);
    out.push(
        "sweep.prefix_cycles_frac",
        sum(&|m| host_counter(m, "prefix_cycles_shared")) / cycles,
    );
    out.push("sweep.cell_s_p50", nearest_rank(&cell_s, 0.5));
    out.push("sweep.cell_s_p90", nearest_rank(&cell_s, 0.9));
}

fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn simulating_rep(plan: &Plan, out: &mut Outcome) -> Result<Job, String> {
    match plan.spec.kind {
        Kind::Sweep => sweep_rep(plan, out),
        Kind::Serial => Ok(serial_rep(plan, out)),
        Kind::Warm => unreachable!("the warm workload does not simulate"),
    }
}

/// Run a simulating workload: one untimed warm-up rep, timed reps until
/// both `min_reps` and `seconds` are reached, then the traced pass.
fn run_simulating(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let warmup = simulating_rep(plan, out)?;
    record_job(plan, "warm-up", &warmup, out);
    // The warm-up's digests and failures count; its timings do not.
    out.samples.clear();
    // The fidelity gaps need the whole grid of one seed.
    if plan.spec.workloads == WorkloadId::ALL
        && plan.spec.mechanisms == Mechanism::ALL
        && warmup.results.iter().all(|(_, r)| r.is_ok())
    {
        let grid: Vec<SweepResult> = warmup
            .results
            .into_iter()
            .filter(|(c, _)| c.seed == plan.seed)
            .map(|(c, r)| SweepResult {
                workload: c.workload,
                mechanism: c.mechanism,
                metrics: r.expect("checked ok above"),
            })
            .collect();
        let f = metrics::fidelity(&grid);
        out.push("fidelity.fig2_gap_pp", f.fig2_gap_pp);
        out.push("fidelity.fig10_gap", f.fig10_gap);
        out.push("fidelity.fig11_gap", f.fig11_gap);
        out.push("fidelity.fig13_gap", f.fig13_gap);
    }
    let t0 = Instant::now();
    while out.reps < plan.min_reps || t0.elapsed() < plan.seconds {
        out.reps += 1;
        reset_peak_rss();
        let job = simulating_rep(plan, out)?;
        out.push("peak_rss_mb", peak_rss_mb());
        record_job(plan, &format!("rep {}", out.reps), &job, out);
    }
    if plan.traced {
        traced_pass(plan, out);
    }
    Ok(())
}

/// Every cell once more, serially: untraced, traced, and NoC-replayed.
fn traced_pass(plan: &Plan, out: &mut Outcome) {
    let (mut untraced_s, mut traced_s, mut replay_s) = (0.0, 0.0, 0.0);
    let (mut steps, mut packets, mut express, mut traversals) = (0.0, 0.0, 0.0, 0.0);
    let mut programs: BTreeMap<(WorkloadId, u64), ProgramSet> = BTreeMap::new();
    for cell in plan.cells() {
        let params = plan.params(cell.workload);
        let config = (plan.spec.config)(cell.mechanism);
        let ps = programs
            .entry((cell.workload, cell.seed))
            .or_insert_with(|| ProgramSet::generate(&params, config.nodes(), cell.seed));
        let traced = traced::trace_cell(config, &params, cell.seed, ps);
        let traced = match traced {
            Ok(t) => t,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("{} (traced pass): {e}", cell.label()));
                continue;
            }
        };
        if out
            .check(plan, "traced pass", &cell, Ok(&traced.run))
            .is_none()
            || out
                .check(plan, "traced pass, traced", &cell, Ok(&traced.traced))
                .is_none()
        {
            continue;
        }
        untraced_s += traced.untraced_s;
        traced_s += traced.traced_s;
        replay_s += traced.replay.secs;
        steps += traced.replay.steps as f64;
        packets += traced.packets as f64;
        traversals += traced.run.traffic_router_traversals as f64;
        express += host_counter(&traced.run, "express_packets");
    }
    if untraced_s == 0.0 {
        return;
    }
    out.push("noc.packets", packets);
    out.push("noc.replay_s", replay_s);
    out.push("noc.share", replay_s / untraced_s);
    out.push("noc.ns_per_traversal", replay_s * 1e9 / traversals.max(1.0));
    out.push("noc.replay_steps", steps);
    out.push("noc.express_frac", express / packets.max(1.0));
    out.push("system.residual_s", untraced_s - replay_s);
    out.push("system.residual_share", 1.0 - replay_s / untraced_s);
    out.push("trace.overhead_frac", traced_s / untraced_s - 1.0);
}

/// Fill the grid cache for seeds `seed .. seed + 8` (set-up), then replay
/// sweeps from a fresh copy of it: one untimed rep, then timed reps.
fn run_warm(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let pristine = plan.tmp.join(format!("{}-filled", plan.spec.name));
    fresh_dir(&pristine)?;
    let mut digests = Vec::new();
    {
        let (cache, _) = open_cache(&pristine)?;
        for seed in plan.seeds() {
            let opts = plan.sweep_options(seed, Some(cache.clone()));
            for outcome in try_sweep(plan.spec.workloads, plan.spec.mechanisms, &opts) {
                let (cell, result) = outcome_result(outcome);
                out.check(plan, "cache fill", &cell, as_ref(&result));
                let config = (plan.spec.config)(cell.mechanism);
                digests.push(cell_digest(&config, &plan.params(cell.workload), cell.seed));
            }
        }
    }
    let work = plan.tmp.join(format!("{}-replay", plan.spec.name));
    let seeds: Vec<u64> = plan.seeds().collect();
    let rep = |out: &mut Outcome, stage: &str, timed: bool| -> Result<(), String> {
        copy_dir(&pristine, &work)?;
        let mut last = None;
        for r in 0..WARM_REPLAYS {
            let seed = seeds[r % seeds.len()];
            let t0 = Instant::now();
            let (cache, open_s) = open_cache(&work)?;
            let outcomes = try_sweep(
                plan.spec.workloads,
                plan.spec.mechanisms,
                &plan.sweep_options(seed, Some(cache.clone())),
            );
            let wall_s = t0.elapsed().as_secs_f64();
            let stats = cache.stats();
            if stats.misses > 0 {
                out.fail(format!(
                    "{} seed {seed} ({stage}): {} warm replay misses",
                    plan.spec.name, stats.misses
                ));
            }
            let mut committed = 0.0;
            for outcome in outcomes {
                let (cell, result) = outcome_result(outcome);
                if let Some(m) = out.check(plan, stage, &cell, as_ref(&result)) {
                    committed += m.committed as f64;
                }
            }
            if timed {
                out.push("wall_s", wall_s);
                out.push("ktx_per_s", committed / wall_s / 1e3);
                out.push("setup_s", open_s);
                out.push("cache.open_s", open_s);
                out.push("cache.hits", stats.hits as f64);
            }
            last = Some(cache);
        }
        if timed {
            let cache = last.expect("at least one replay");
            out.push("cache.records", cache.stats().entries as f64);
            out.push("cache.bytes", dir_bytes(&work));
            out.push("cache.lookup_us", time_lookups(&cache, &digests));
        }
        Ok(())
    };
    rep(out, "warm-up replay", false)?;
    let t0 = Instant::now();
    while out.reps < plan.min_reps || t0.elapsed() < plan.seconds {
        out.reps += 1;
        reset_peak_rss();
        rep(out, &format!("replay rep {}", out.reps), true)?;
        out.push("peak_rss_mb", peak_rss_mb());
    }
    Ok(())
}

/// Run one workload under `plan`. An `Err` is an environment problem (a
/// cache directory that cannot be written), not a simulation failure.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match plan.spec.kind {
        Kind::Warm => run_warm(plan, &mut out)?,
        _ => run_simulating(plan, &mut out)?,
    }
    Ok(out)
}

/// Restart the kernel's peak-RSS watermark (writing 5 to clear_refs resets
/// VmHWM, see proc(5)) so each rep reports its own peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Remove a scratch directory when dropped, whatever path the run took.
pub struct TmpDir(pub PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
