//! Benchmark of record for the PUNO simulator.
//!
//! ```text
//! benchmark [--seed N] [--workload W]... [--seconds S] [--trace 0|1]
//!           [--smoke] [--out FILE]
//! benchmark compare A.json... -- B.json...
//! ```
//!
//! Runs each workload (default: all four) in this one process: an untimed
//! warm-up rep, then timed reps until at least five ran and `--seconds`
//! passed, then — with `--trace 1`, the default — the traced pass. Every
//! metric is printed by name and unit with its median, quartiles and sample
//! count, the whole run is written as JSON (default
//! `target/benchmark/<workload|all>-seed<N>-trace<T>.json`), and the last
//! line of each workload's output is a one-line JSON summary:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`
//! holding the end-to-end metrics with `--trace 0` and the per-layer
//! metrics with `--trace 1`. The exit code is 1 when any cell failed a
//! check, 2 on a usage or environment error.

mod compare;
mod metrics;
mod traced;
mod workloads;

use metrics::{MetricDef, Summary, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::path::PathBuf;
use std::process::{exit, Command};
use std::time::Duration;
use workloads::{Outcome, Plan, Spec, TmpDir, SPECS};

const USAGE: &str = "usage: benchmark [--seed N] [--workload W]... [--seconds S] [--trace 0|1] \
                     [--smoke] [--out FILE]\n       benchmark compare A.json... -- B.json...";

struct Options {
    seed: u64,
    specs: Vec<&'static Spec>,
    seconds: u64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            seed: 1,
            specs: Vec::new(),
            seconds: 15,
            traced: true,
            smoke: false,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                o.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
            };
            match flag.as_str() {
                "--seed" => o.seed = number()?,
                "--seconds" => o.seconds = number()?,
                "--trace" => {
                    o.traced = match number()? {
                        0 => false,
                        1 => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--workload" => o.specs.push(
                    workloads::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                ),
                "--out" => o.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if o.specs.is_empty() {
            o.specs = SPECS.iter().collect();
        }
        Ok(o)
    }
}

/// First line of a command's stdout, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    // Keep git from searching above the working directory for a repository.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn summaries(out: &Outcome) -> Vec<(&'static MetricDef, Summary)> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|def| {
            // A layer the workload does no work in reports 0 with n = 0.
            let s = out.samples.get(def.name).map_or(
                Summary {
                    median: 0.0,
                    p25: 0.0,
                    p75: 0.0,
                    min: 0.0,
                    max: 0.0,
                    n: 0,
                },
                |v| Summary::of(v),
            );
            (def, s)
        })
        .collect()
}

fn report(plan: &Plan, out: &Outcome) -> Value {
    let summaries = summaries(out);
    println!(
        "== {} (scale {}, seeds {}..{}, {} timed reps, {} cells attempted, {} failed) ==\n   {}",
        plan.spec.name,
        plan.scale,
        plan.seed,
        plan.seed + plan.spec.seeds - 1,
        out.reps,
        out.attempted,
        out.failures.len(),
        plan.spec.why
    );
    println!(
        "  {:<26} {:>16} {:<10} {:>14} {:>14} {:>14} {:>14}    n",
        "metric", "value", "unit", "median", "p25", "p75", "min"
    );
    for (def, s) in &summaries {
        println!(
            "  {:<26} {:>16.6} {:<10} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4}",
            def.name,
            s.value(def),
            def.unit,
            s.median,
            s.p25,
            s.p75,
            s.min,
            s.n
        );
    }
    let reported: Vec<(String, Value)> = summaries
        .iter()
        .filter(|(def, _)| def.bound.is_some() != plan.traced)
        .map(|(def, s)| {
            let v = obj(vec![
                ("value", Value::F64(s.value(def))),
                ("unit", Value::Str(def.unit.into())),
            ]);
            (def.name.to_string(), v)
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(out.failures.is_empty())),
        ("attempted", Value::U64(out.attempted)),
        ("failed", Value::U64(out.failures.len() as u64)),
        ("metrics", Value::Object(reported)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("summary serializes")
    );

    let metrics: Vec<(String, Value)> = summaries
        .iter()
        .map(|(def, s)| {
            let v = obj(vec![
                ("value", Value::F64(s.value(def))),
                ("median", Value::F64(s.median)),
                ("p25", Value::F64(s.p25)),
                ("p75", Value::F64(s.p75)),
                ("min", Value::F64(s.min)),
                ("max", Value::F64(s.max)),
                ("n", Value::U64(s.n as u64)),
                ("unit", Value::Str(def.unit.into())),
                ("better", Value::Str(def.better.name().into())),
            ]);
            (def.name.to_string(), v)
        })
        .collect();
    obj(vec![
        ("name", Value::Str(plan.spec.name.into())),
        ("scale", Value::F64(plan.scale)),
        ("seeds", Value::U64(plan.spec.seeds)),
        ("reps", Value::U64(out.reps as u64)),
        ("correct", Value::Bool(out.failures.is_empty())),
        ("attempted", Value::U64(out.attempted)),
        ("failed", Value::U64(out.failures.len() as u64)),
        (
            "failures",
            Value::Array(out.failures.iter().cloned().map(Value::Str).collect()),
        ),
        ("metrics", Value::Object(metrics)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        if let Err(e) = compare::run(&args[1..]) {
            eprintln!("benchmark compare: {e}");
            exit(2);
        }
        return;
    }
    let opts = Options::parse(&args).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        exit(2);
    });
    // The benchmark owns every simulator knob: an inherited one would
    // silently change what is measured.
    let inherited: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("PUNO_"))
        .collect();
    if !inherited.is_empty() {
        eprintln!(
            "benchmark: refusing to run with {} set; unset every PUNO_* variable",
            inherited.join(", ")
        );
        exit(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(2);
    std::env::set_var("PUNO_SWEEP_THREADS", threads.to_string());

    let header = obj(vec![
        ("nproc", Value::U64(nproc as u64)),
        ("sweep_threads", Value::U64(threads as u64)),
        ("cpu_model", Value::Str(cpu_model())),
        (
            "git_rev",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        ("seed", Value::U64(opts.seed)),
        ("seconds", Value::U64(opts.seconds)),
        ("min_reps", Value::U64(workloads::MIN_REPS as u64)),
        ("traced", Value::Bool(opts.traced)),
        ("smoke", Value::Bool(opts.smoke)),
    ]);
    println!(
        "benchmark {}",
        serde_json::to_string(&header).expect("header serializes")
    );

    let out_dir = PathBuf::from("target").join("benchmark");
    let tmp = TmpDir(out_dir.join(format!("tmp-{}", std::process::id())));
    let mut reports = Vec::new();
    let mut failed = false;
    let mut env_error = None;
    for spec in &opts.specs {
        let plan = Plan {
            spec,
            seed: opts.seed,
            scale: if opts.smoke {
                spec.scale / workloads::SMOKE_SCALE_DIVISOR
            } else {
                spec.scale
            },
            min_reps: if opts.smoke { 1 } else { workloads::MIN_REPS },
            seconds: Duration::from_secs(if opts.smoke { 0 } else { opts.seconds }),
            traced: opts.traced,
            tmp: &tmp.0,
        };
        match workloads::run(&plan) {
            Ok(out) => {
                failed |= !out.failures.is_empty();
                reports.push(report(&plan, &out));
            }
            Err(e) => {
                env_error = Some(format!("{}: {e}", spec.name));
                break;
            }
        }
    }
    drop(tmp);
    if let Some(e) = env_error {
        eprintln!("benchmark: {e}");
        exit(2);
    }

    let path = opts.out.unwrap_or_else(|| {
        let label = match opts.specs.as_slice() {
            [one] => one.name,
            _ => "all",
        };
        let smoke = if opts.smoke { "-smoke" } else { "" };
        out_dir.join(format!(
            "{label}-seed{}-trace{}{smoke}.json",
            opts.seed,
            u8::from(opts.traced)
        ))
    });
    let doc = obj(vec![
        ("header", header),
        ("workloads", Value::Array(reports)),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("result serializes");
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, text + "\n"));
    if let Err(e) = written {
        eprintln!("benchmark: write {}: {e}", path.display());
        exit(2);
    }
    eprintln!("benchmark: wrote {}", path.display());
    if failed {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must describe exactly what
    /// this binary emits.
    #[test]
    fn benchmark_json_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<Value> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
                .to_vec()
        };
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();

        let workloads: Vec<(String, String)> = listed("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, expected, "workloads drifted");

        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String, Option<f64>)> = listed(key)
                .iter()
                .map(|m| {
                    let bound = m.get("bound").and_then(Value::as_f64);
                    (
                        field(m, "name"),
                        field(m, "unit"),
                        field(m, "better"),
                        bound,
                    )
                })
                .collect();
            let emitted: Vec<(String, String, String, Option<f64>)> = catalogue
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.name().to_string(),
                        m.bound,
                    )
                })
                .collect();
            assert_eq!(listed, emitted, "{key} drifted from the binary's catalogue");
        }
    }
}
