//! Full 8-workload x 4-mechanism sweep with the figure-shaped summaries.
//! Usage: `sweep_all [scale] [seed] [--filter <workload|mechanism|workload:mechanism>]
//! [--trace <workload>:<mechanism>] [--mesh <4|8|16>]
//! [--compact-cache] [--json <path|->]`
//!
//! `--filter` restricts the grid: an argument matching a workload name
//! (substring, case-insensitive) keeps only those workloads; one matching a
//! mechanism name keeps only those mechanisms. A `workload:mechanism` pair
//! (exact names) selects individual cells instead — repeatable, and the
//! sweep then prints the raw per-cell summary and host-perf section only
//! (the tables and baseline-normalized figures need the full grid). With
//! `PUNO_RESULT_CACHE` set, unchanged cells replay from the persistent
//! cache (stats go to stderr; stdout stays byte-identical between a cold
//! and a warm run).
//!
//! `--compact-cache` compacts the `PUNO_RESULT_CACHE` directory in place —
//! rewriting `results.jsonl` without corrupt, stale-engine-version, or
//! duplicate records — reports what was dropped, and exits without
//! sweeping.
//!
//! `--mesh 8` / `--mesh 16` runs the sweep on the Table II configuration
//! scaled to an 8x8 (64-node) or 16x16 (256-node) mesh. The paper's
//! Table I / figure expectations are calibrated against the 4x4 machine,
//! so big-mesh runs print the raw per-cell summary and host-perf section
//! only.
//!
//! `--json <path>` additionally writes one machine-readable JSON row per
//! swept cell (the warehouse row schema — see
//! `puno_harness::warehouse::WarehouseRow`) as JSONL; `--json -` prints the
//! rows to stdout *instead of* the human report. Live observability (the
//! Prometheus endpoint, progress heartbeat, and warehouse sink) is armed
//! from the environment: see `PUNO_METRICS_ADDR`, `PUNO_PROGRESS`, and
//! `PUNO_WAREHOUSE` in README.md.
//!
//! `--trace` re-runs exactly one cell with full tracing and telemetry
//! instead of sweeping: the JSONL event stream goes to `PUNO_TRACE_OUT`
//! (default: `trace_<workload>_<mechanism>_s<seed>.jsonl` in the current
//! directory), the channel filter honours `PUNO_TRACE` (default: all
//! channels), and the abort-blame / contention-heat / time-series summary
//! prints to stdout. The result cache is bypassed — a cache hit replays no
//! events, so it could never produce a trace. The traced run
//! fast-forwards through everything before the first transaction with the
//! sinks detached and attaches them there: metrics are unchanged, but
//! pre-transaction NoC/memory records are absent from the stream.

use puno_harness::report::{render_host_perf, render_quarantine, FigureMetric, NormalizedFigure};
use puno_harness::sweep::{try_sweep_rows, CellOutcome, SweepOptions};
use puno_harness::{Mechanism, SweepResult, System, SystemConfig, TelemetryConfig, WarehouseRow};
use puno_workloads::{table1_rows, WorkloadId};
use std::path::PathBuf;

struct Args {
    scale: f64,
    seed: u64,
    workloads: Vec<WorkloadId>,
    mechanisms: Vec<Mechanism>,
    /// Individual cells selected by `--filter workload:mechanism` pairs;
    /// non-empty takes precedence over the axis filters above.
    pairs: Vec<(WorkloadId, Mechanism)>,
    trace: Option<(WorkloadId, Mechanism)>,
    /// Mesh edge length: 4 (the paper machine), 8, or 16.
    mesh: u32,
    /// Compact the result cache and exit instead of sweeping.
    compact_cache: bool,
    /// `--json` destination: a path, or `-` for stdout (which then replaces
    /// the human report).
    json: Option<String>,
}

impl Args {
    fn config_fn(&self) -> fn(Mechanism) -> SystemConfig {
        match self.mesh {
            8 => SystemConfig::mesh8,
            16 => SystemConfig::mesh16,
            _ => SystemConfig::paper,
        }
    }
}

fn lookup_cell(spec: &str) -> Option<(WorkloadId, Mechanism)> {
    let (wl_name, mech_name) = spec.split_once(':')?;
    let wl = WorkloadId::ALL
        .iter()
        .copied()
        .find(|w| w.name().eq_ignore_ascii_case(wl_name))?;
    let mech = Mechanism::ALL
        .iter()
        .copied()
        .find(|m| m.name().eq_ignore_ascii_case(mech_name))?;
    Some((wl, mech))
}

fn parse_args() -> Args {
    let mut positional: Vec<String> = Vec::new();
    let mut filters: Vec<String> = Vec::new();
    let mut pairs: Vec<(WorkloadId, Mechanism)> = Vec::new();
    let mut trace = None;
    let mut mesh = 4u32;
    let mut compact_cache = false;
    let mut json = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--compact-cache" {
            compact_cache = true;
        } else if arg == "--json" {
            let Some(value) = argv.next() else {
                eprintln!("--json requires a destination path (or - for stdout)");
                std::process::exit(2);
            };
            json = Some(value);
        } else if arg == "--mesh" {
            let parsed = argv.next().and_then(|v| v.trim().parse::<u32>().ok());
            match parsed {
                Some(n @ (4 | 8 | 16)) => mesh = n,
                _ => {
                    eprintln!("--mesh requires 4, 8, or 16");
                    std::process::exit(2);
                }
            }
        } else if arg == "--filter" {
            let Some(value) = argv.next() else {
                eprintln!(
                    "--filter requires a value (a workload or mechanism name, \
                     or a workload:mechanism pair)"
                );
                std::process::exit(2);
            };
            if value.contains(':') {
                let Some(cell) = lookup_cell(&value) else {
                    let w_names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
                    let m_names: Vec<&str> = Mechanism::ALL.iter().map(|m| m.name()).collect();
                    eprintln!(
                        "--filter {value:?} is not <workload>:<mechanism> with workload in \
                         {w_names:?} and mechanism in {m_names:?}"
                    );
                    std::process::exit(2);
                };
                if !pairs.contains(&cell) {
                    pairs.push(cell);
                }
            } else {
                filters.push(value.to_ascii_lowercase());
            }
        } else if arg == "--trace" {
            let Some(value) = argv.next() else {
                eprintln!("--trace requires <workload>:<mechanism>");
                std::process::exit(2);
            };
            let Some(cell) = lookup_cell(&value) else {
                let w_names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
                let m_names: Vec<&str> = Mechanism::ALL.iter().map(|m| m.name()).collect();
                eprintln!(
                    "--trace {value:?} is not <workload>:<mechanism> with workload in {w_names:?} \
                     and mechanism in {m_names:?}"
                );
                std::process::exit(2);
            };
            trace = Some(cell);
        } else {
            positional.push(arg);
        }
    }
    let mut workloads: Vec<WorkloadId> = WorkloadId::ALL.to_vec();
    let mut mechanisms: Vec<Mechanism> = Mechanism::ALL.to_vec();
    for f in &filters {
        let wl: Vec<WorkloadId> = WorkloadId::ALL
            .iter()
            .copied()
            .filter(|w| w.name().to_ascii_lowercase().contains(f))
            .collect();
        let mech: Vec<Mechanism> = Mechanism::ALL
            .iter()
            .copied()
            .filter(|m| m.name().to_ascii_lowercase().contains(f))
            .collect();
        if !wl.is_empty() {
            workloads.retain(|w| wl.contains(w));
        } else if !mech.is_empty() {
            mechanisms.retain(|m| mech.contains(m));
        } else {
            let w_names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
            let m_names: Vec<&str> = Mechanism::ALL.iter().map(|m| m.name()).collect();
            eprintln!(
                "--filter {f:?} matches no workload {w_names:?} and no mechanism {m_names:?}"
            );
            std::process::exit(2);
        }
    }
    Args {
        scale: positional
            .first()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.5),
        seed: positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(1),
        workloads,
        mechanisms,
        pairs,
        trace,
        mesh,
        compact_cache,
        json,
    }
}

/// `--json` mode: dump one warehouse-schema row per swept cell as JSONL to
/// `dest` (`-` = stdout).
fn write_json_rows(dest: &str, rows: &[WarehouseRow]) {
    let mut out = String::with_capacity(rows.len() * 256);
    for row in rows {
        out.push_str(&serde_json::to_string(row).expect("warehouse row must serialize"));
        out.push('\n');
    }
    if dest == "-" {
        print!("{out}");
    } else if let Err(e) = std::fs::write(dest, &out) {
        eprintln!("cannot write --json output {dest}: {e}");
        std::process::exit(2);
    } else {
        eprintln!("wrote {} cell row(s) to {dest}", rows.len());
    }
}

/// `--trace` mode: simulate one cell with every sink attached and print
/// the telemetry summary. Never consults the result cache.
fn run_traced_cell(args: &Args, wl: WorkloadId, mech: Mechanism) {
    let params = wl.params().scaled(args.scale);
    let mut sys = System::new(args.config_fn()(mech), &params, args.seed);
    // Fast-forward through the pre-transaction warm-up with the sinks
    // still detached. Metrics are bit-identical either way (the run loop
    // just stops early and resumes); only pre-begin NoC/memory records are
    // absent from the stream.
    let fast_forwarded = match sys.run_to_first_begin() {
        Ok(cycle) => cycle,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let mask = match puno_sim::TraceConfig::from_env() {
        Ok(Some(cfg)) => cfg.mask,
        Ok(None) => puno_sim::ChannelMask::ALL,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut tracer = puno_sim::Tracer::ring(mask, puno_sim::trace::DEFAULT_RING_CAPACITY);
    let out = std::env::var_os("PUNO_TRACE_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let path = puno_harness::run::resolve_trace_out(&out, wl.name(), mech.name(), args.seed);
    if let Err(e) = tracer.set_jsonl_path(&path) {
        eprintln!("cannot open trace output {}: {e}", path.display());
        std::process::exit(2);
    }
    sys.install_tracer(tracer);
    sys.enable_telemetry(TelemetryConfig::default());
    let result = sys.try_run_recycled();
    sys.tracer_mut().flush();
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    println!(
        "== traced cell {}:{} (seed {}, scale {}) ==",
        wl.name(),
        mech.name(),
        args.seed,
        args.scale
    );
    println!(
        "cycles {}, committed {}, aborts {}",
        metrics.cycles,
        metrics.committed,
        metrics.htm.aborts.get()
    );
    if let Some(report) = &metrics.telemetry {
        println!("{}", report.render());
    }
    eprintln!(
        "trace: {} JSONL records ({} channels) -> {}",
        sys.tracer().jsonl_lines(),
        mask.spec(),
        path.display()
    );
    if let Some(cycle) = fast_forwarded {
        eprintln!(
            "trace fast-forward: pre-transaction prefix (cycles 0..{cycle}) replayed with \
             sinks detached"
        );
    }
}

/// Report the process-wide result cache's hit/miss/recovery counters on
/// stderr (stdout stays reserved for the deterministic report).
fn print_cache_stats() {
    if let Some(cache) = puno_harness::global_cache() {
        let s = cache.stats();
        eprintln!(
            "result cache: {} hits, {} misses, {} stored ({} entries)",
            s.hits, s.misses, s.stores, s.entries
        );
        if s.corrupt_skipped > 0 || s.stale_skipped > 0 {
            eprintln!(
                "result cache recovered: {} corrupt, {} stale record(s) skipped",
                s.corrupt_skipped, s.stale_skipped
            );
        }
        // Surface the silent open-time maintenance: when recovery found
        // skippable records, the cache compacts the persisted file in
        // place — report what that dropped instead of hiding it.
        if let Some(c) = cache.last_compact() {
            eprintln!(
                "result cache maintenance: compacted to {} record(s); dropped {} corrupt, \
                 {} stale, {} duplicate",
                c.kept, c.dropped_corrupt, c.dropped_stale, c.dropped_duplicate
            );
        }
    }
}

/// `--compact-cache` mode: rewrite the persistent cache without corrupt,
/// stale, or duplicate records, report what was dropped, and exit.
fn run_compact_cache() -> ! {
    let Some(cache) = puno_harness::global_cache() else {
        eprintln!("--compact-cache requires PUNO_RESULT_CACHE to point at a cache directory");
        std::process::exit(2);
    };
    match cache.compact() {
        Ok(s) => {
            println!(
                "result cache compacted: {} record(s) kept; dropped {} corrupt, {} stale, \
                 {} duplicate",
                s.kept, s.dropped_corrupt, s.dropped_stale, s.dropped_duplicate
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("result cache compaction failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `--filter workload:mechanism` mode: run exactly the selected cells —
/// grouped per workload, one sweep each — and print the raw per-cell
/// summary plus host perf (the tables and baseline-normalized figures need
/// the full grid).
fn run_pair_cells(args: &Args) {
    let t0 = std::time::Instant::now();
    let mut opts = SweepOptions::new(args.seed, args.scale);
    opts.config = args.config_fn();
    let mut outcomes: Vec<CellOutcome> = Vec::new();
    let mut rows: Vec<WarehouseRow> = Vec::new();
    let mut seen: Vec<WorkloadId> = Vec::new();
    for &(wl, _) in &args.pairs {
        if seen.contains(&wl) {
            continue;
        }
        seen.push(wl);
        let mechs: Vec<Mechanism> = args
            .pairs
            .iter()
            .filter(|&&(w, _)| w == wl)
            .map(|&(_, m)| m)
            .collect();
        let (group_outcomes, group_rows) = try_sweep_rows(&[wl], &mechs, &opts);
        outcomes.extend(group_outcomes);
        rows.extend(group_rows);
    }
    eprintln!("sweep took {:.1}s", t0.elapsed().as_secs_f64());
    let results: Vec<SweepResult> = outcomes
        .iter()
        .filter_map(|o| match o {
            CellOutcome::Ok { key, metrics } => Some(SweepResult {
                workload: key.workload,
                mechanism: key.mechanism,
                metrics: metrics.clone(),
            }),
            _ => None,
        })
        .collect();
    print_cache_stats();
    if let Some(dest) = &args.json {
        write_json_rows(dest, &rows);
        if dest == "-" {
            if render_quarantine(&outcomes).is_some() {
                std::process::exit(1);
            }
            return;
        }
    }
    println!(
        "== cell sweep ({} selected cell(s), seed {}, scale {}) ==",
        args.pairs.len(),
        args.seed,
        args.scale
    );
    for r in &results {
        println!(
            "{:<10} {:<9} cycles {:>9}  commits {:>7}  aborts {:>7}",
            r.workload.name(),
            r.mechanism.name(),
            r.metrics.cycles,
            r.metrics.committed,
            r.metrics.htm.aborts.get()
        );
    }
    println!("{}", render_host_perf(&results));
    if let Some(section) = render_quarantine(&outcomes) {
        print!("\n{section}");
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    // Arm the observability layer (metrics endpoint, heartbeat, warehouse)
    // before any simulation starts so a scraper sees the sweep from cell 0.
    puno_harness::obs::init_from_env();
    if args.compact_cache {
        run_compact_cache();
    }
    if let Some((wl, mech)) = args.trace {
        run_traced_cell(&args, wl, mech);
        return;
    }
    if !args.pairs.is_empty() {
        run_pair_cells(&args);
        return;
    }
    let t0 = std::time::Instant::now();
    let mut opts = SweepOptions::new(args.seed, args.scale);
    opts.config = args.config_fn();
    let (outcomes, rows) = try_sweep_rows(&args.workloads, &args.mechanisms, &opts);
    eprintln!("sweep took {:.1}s", t0.elapsed().as_secs_f64());
    let results: Vec<SweepResult> = outcomes
        .iter()
        .filter_map(|o| match o {
            CellOutcome::Ok { key, metrics } => Some(SweepResult {
                workload: key.workload,
                mechanism: key.mechanism,
                metrics: metrics.clone(),
            }),
            _ => None,
        })
        .collect();
    let quarantine = render_quarantine(&outcomes);
    // A degraded sweep leaves holes in the grid: keep the figures (which
    // index cells by workload x mechanism) to fully-populated workloads and
    // name the missing cells in a final section instead of aborting.
    let mut workloads = args.workloads.clone();
    if quarantine.is_some() {
        workloads.retain(|&w| {
            args.mechanisms
                .iter()
                .all(|&m| puno_harness::sweep::find(&results, w, m).is_some())
        });
    }
    print_cache_stats();
    if let Some(dest) = &args.json {
        write_json_rows(dest, &rows);
        if dest == "-" {
            if quarantine.is_some() {
                std::process::exit(1);
            }
            return;
        }
    }

    // Table I bands and the baseline-normalized figures are calibrated
    // against the 4x4 paper machine; big-mesh sweeps print a raw per-cell
    // summary instead.
    if args.mesh != 4 {
        println!(
            "== {0}x{0} mesh sweep ({1} nodes, seed {2}, scale {3}) ==",
            args.mesh,
            args.mesh * args.mesh,
            args.seed,
            args.scale
        );
        for r in &results {
            println!(
                "{:<10} {:<9} cycles {:>9}  commits {:>7}  aborts {:>7}",
                r.workload.name(),
                r.mechanism.name(),
                r.metrics.cycles,
                r.metrics.committed,
                r.metrics.htm.aborts.get()
            );
        }
    }
    if args.mesh == 4 && args.mechanisms.contains(&Mechanism::Baseline) {
        println!("== Table I check (baseline abort rates) ==");
        for row in table1_rows() {
            if !workloads.contains(&row.workload) {
                continue;
            }
            let m = puno_harness::sweep::find_expect(&results, row.workload, Mechanism::Baseline);
            let rate = m.htm.abort_rate() * 100.0;
            let (lo, hi) = row.expected_abort_band;
            let ok = rate >= lo && rate <= hi;
            println!(
                "{:<10} paper {:>5.1}%  ours {:>5.1}%  band [{:>4.1}, {:>5.1}] {}",
                row.workload.name(),
                row.paper_abort_pct,
                rate,
                lo,
                hi,
                if ok { "ok" } else { "OUT OF BAND" }
            );
        }
        println!("\n== Figure 2: false-aborting fraction of TxGETX (baseline) ==");
        for &w in &workloads {
            let m = puno_harness::sweep::find_expect(&results, w, Mechanism::Baseline);
            println!(
                "{:<10} {:>5.1}%  (victims/episode mean {:.2})",
                w.name(),
                m.oracle.false_abort_fraction() * 100.0,
                m.oracle.victims_per_episode.mean()
            );
        }
    }
    // The figures are baseline-normalized; a mechanism filter that drops
    // the baseline leaves nothing to normalize against.
    if args.mesh == 4 && args.mechanisms.contains(&Mechanism::Baseline) {
        for metric in [
            FigureMetric::Aborts,
            FigureMetric::NetworkTraffic,
            FigureMetric::DirectoryBlocking,
            FigureMetric::ExecutionTime,
            FigureMetric::GdRatio,
        ] {
            let fig = NormalizedFigure::build(metric, &results, &workloads, &args.mechanisms);
            println!("\n{}", fig.render());
        }
    }
    println!("{}", render_host_perf(&results));
    if let Some(section) = quarantine {
        print!("\n{section}");
        std::process::exit(1);
    }
}
