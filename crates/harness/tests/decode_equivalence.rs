//! Typed JSON decoding gives the same verdict and the same value for every
//! input in a fixed corpus, pinned by `decode_equivalence.expected`.
//!
//! The corpus is built from real lines of every persisted format, kept in
//! `fixtures/decode_corpus.jsonl` — the 8 × 4 paper grid's cache records at
//! scale 0.05 for seeds 1 and 42 and their `metrics` spans, warehouse rows
//! and cost lines of those cells, the `engine4_express` fixture lines,
//! trace records and one record with telemetry — plus seeded mutations of
//! them: bit flips, truncations,
//! whitespace, escaped, duplicate, reordered and unknown keys, floats,
//! negatives and out-of-range numbers in integer fields, `null`s, array
//! lengths, enum shapes and nesting at depths 127, 128 and 129, and a set
//! of hand-written edge cases of the grammar.
//!
//! Each input is decoded as `RunMetrics`, `CacheRecord`, `WarehouseRow`,
//! `CostRecord`, `TraceRecord` and `Value`; an outcome is `-` for an error
//! or FNV-1a of the decoded value's `to_string` text. Error wording is not
//! pinned. The expectations were recorded once, by the ignored
//! `record_expectations`, while `serde_json::from_str` still built a
//! `Value` tree and walked it; they are not meant to be re-recorded. The
//! one exception is a field removed from `RunMetrics`: it changes the
//! `RunMetrics` and `CacheRecord` columns only, and each new outcome must
//! equal the old decoded text with the removed keys deleted (see
//! EXPERIMENTS.md for each such re-derivation).

use puno_harness::cache::{split_fields, CacheRecord};
use puno_harness::{RunMetrics, WarehouseRow};
use puno_sim::rng::SimRng;
use puno_sim::TraceRecord;
use puno_workloads::fnv1a_64;
use serde_json::Value;
use std::path::PathBuf;

/// The shape of a line of the retired sweep cost log: its corpus lines and
/// its column of outcomes stay, so derived decoding of a struct of strings,
/// a `u32` and an `f64` stays pinned.
#[derive(serde::Serialize, serde::Deserialize)]
struct CostRecord {
    workload: String,
    mechanism: String,
    tx_per_node: u32,
    wall_secs: f64,
}

/// Base lines that come from the 8 × 4 grid, four per cell (the metrics
/// span, the cache line, the warehouse row and the cost line); they lead
/// the corpus fixture.
const GRID_LINES: usize = 2 * 8 * 4 * 4;

fn expected_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/decode_equivalence.expected")
}

fn fixture(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(file);
    std::fs::read_to_string(path)
        .unwrap()
        .trim_end()
        .to_string()
}

fn metrics_span(line: &str) -> Option<String> {
    let fields = split_fields(line)?;
    let (_, span) = fields.into_iter().find(|(k, _)| *k == "metrics")?;
    Some(line[span].to_string())
}

/// Every unmutated line of the corpus, read from `decode_corpus.jsonl`.
///
/// The lines were written once from live runs, so that a change to what a
/// run emits leaves the corpus as it is and shows only in the decoded
/// columns. In order: for seeds 1 and 42 and every cell of the 8 × 4 grid
/// at scale 0.05 (host counters replaced by values derived from a running
/// salt), the cell's `metrics` span, its cache line, its warehouse row and
/// its cost line; then two ssca2 cells at seed 3 with the same four lines
/// less the cost line, a placeholder warehouse row for a failed cell, the
/// `engine4_express` fixture lines, a PUNO hotspot record carrying
/// telemetry, and one trace line per event kind of a traced hotspot run.
fn base_lines() -> Vec<String> {
    fixture("decode_corpus.jsonl")
        .lines()
        .map(str::to_string)
        .collect()
}

/// Hand-written inputs at the edges of the grammar and of number
/// classification.
const EDGE_CASES: &[&str] = &[
    "",
    " ",
    "null",
    " null ",
    "nul",
    "nulll",
    "true",
    "tru",
    "false",
    "0",
    "-0",
    "-",
    "01",
    "1.",
    "1e",
    "1e5",
    "1E5",
    "1.5e+3",
    "1.5e-3",
    "1+2",
    "1-2",
    "-1",
    "-0.0",
    "1e400",
    "-1e400",
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775807",
    "-9223372036854775808",
    "-9223372036854775809",
    "0.30000000000000004",
    "[]",
    "{}",
    "[1,]",
    "[,1]",
    "[1 2]",
    "{,}",
    "{\"a\" 1}",
    "{\"a\":}",
    "{\"a\":1,}",
    "{\"a\":1}{}",
    "[1] 2",
    "  {}  ",
    "\t[\r\n]\n",
    "\"abc",
    "\"\\x\"",
    "\"\\u12\"",
    "\"\\u0041\"",
    "\"\\u+041\"",
    "\"\\u00e9\"",
    "\"\\ud83d\\ude00\"",
    "\"\\ud800\"",
    "\"\\udc00\"",
    "\"\\ud800x\"",
    "\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"",
    "\"é😀\"",
    "\"a\tb\"",
    "[\"Htm\"]",
    "\"Htm\"",
    "\"Nope\"",
    "{\"Htm\":null}",
    "[[1,2],[3,4]]",
    "[[1,2,3]]",
    "[[1]]",
    "{\"a\":[1,{\"b\":null}]}",
];

/// A JSON object line rebuilt from `(key, raw value)` pairs.
fn object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn nested(open: &str, close: &str, depth: usize) -> String {
    format!("{}0{}", open.repeat(depth), close.repeat(depth))
}

fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> T {
    items[rng.gen_range(items.len() as u64) as usize]
}

/// What an integer field's value is replaced with.
const INTEGER_EDITS: &[&str] = &[
    "1.0",
    "1e2",
    "-1",
    "-0",
    "0",
    "01",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775808",
    "4294967296",
    "65536",
    "256",
    "null",
    "\"7\"",
    "true",
];

/// What a float field's value is replaced with.
const FLOAT_EDITS: &[&str] = &[
    "1", "-2", "0", "-0", "1e400", "-0.0", "2.5E-3", "null", "\"x\"",
];

/// Seeded mutations of one object line, both of the line itself and of
/// the objects nested one level inside it.
fn mutants(line: &str, rng: &mut SimRng, out: &mut Vec<String>) {
    let bytes = line.as_bytes();
    for _ in 0..4 {
        let mut b = bytes.to_vec();
        let at = rng.gen_range(b.len() as u64) as usize;
        b[at] ^= 1 << rng.gen_range(8);
        out.push(String::from_utf8_lossy(&b).into_owned());
    }
    for _ in 0..3 {
        let cut = rng.gen_range(bytes.len() as u64) as usize;
        out.push(String::from_utf8_lossy(&bytes[..cut]).into_owned());
    }
    for _ in 0..2 {
        let ws = pick(rng, &[" ", "\n", "\t ", "\r\n  "]);
        let mut text = String::with_capacity(line.len() + 16);
        for c in line.chars() {
            text.push(c);
            if matches!(c, ',' | ':' | '{' | '[') && rng.gen_range(4) == 0 {
                text.push_str(ws);
            }
        }
        out.push(format!("{ws}{text}{ws}"));
    }
    let Some(spans) = split_fields(line) else {
        return;
    };
    let fields: Vec<(String, String)> = spans
        .iter()
        .map(|(k, span)| (k.to_string(), line[span.clone()].to_string()))
        .collect();
    if fields.is_empty() {
        return;
    }
    let with = |i: usize, value: &str| {
        let mut f = fields.clone();
        f[i].1 = value.to_string();
        object(&f)
    };
    let n = fields.len();
    // Escaped key: its first character as a `\u` escape.
    let i = rng.gen_range(n as u64) as usize;
    let mut f = fields.clone();
    let first = f[i].0.chars().next().unwrap();
    f[i].0 = format!("\\u{:04x}{}", first as u32, &f[i].0[first.len_utf8()..]);
    out.push(object(&f));
    // Duplicate keys, ahead of and behind the original.
    let i = rng.gen_range(n as u64) as usize;
    let mut f = fields.clone();
    f.insert(0, (fields[i].0.clone(), "7".to_string()));
    out.push(object(&f));
    let mut f = fields.clone();
    f.push((fields[i].0.clone(), "\"late\"".to_string()));
    out.push(object(&f));
    // Reordered keys.
    let mut f = fields.clone();
    f.reverse();
    out.push(object(&f));
    let mut f = fields.clone();
    f.rotate_left(rng.gen_range(n as u64) as usize);
    out.push(object(&f));
    // Unknown keys, holding well- and ill-formed values.
    for value in [
        "{\"a\":[1,2.5,\"x\",null,true]}",
        "[1,2",
        "\"\\q\"",
        "1.2.3",
    ] {
        let mut f = fields.clone();
        let at = rng.gen_range(n as u64 + 1) as usize;
        f.insert(at, ("zz_unknown".to_string(), value.to_string()));
        out.push(object(&f));
    }
    // Nesting at and around the recursion limit, counting this object.
    for depth in [127, 128, 129] {
        let mut f = fields.clone();
        f.push(("deep".to_string(), nested("[", "]", depth - 1)));
        out.push(object(&f));
        let mut f = fields.clone();
        f.insert(0, ("deep".to_string(), nested("{\"a\":", "}", depth - 1)));
        out.push(object(&f));
    }
    // A null for a field.
    out.push(with(rng.gen_range(n as u64) as usize, "null"));
    // Per-field edits by the shape of the value.
    for (i, (_, value)) in fields.iter().enumerate() {
        let v = value.as_str();
        if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) {
            out.push(with(i, pick(rng, INTEGER_EDITS)));
        } else if v.parse::<f64>().is_ok() {
            out.push(with(i, pick(rng, FLOAT_EDITS)));
        } else if v.starts_with('[') {
            if v == "[]" {
                out.push(with(i, "[0]"));
            } else {
                out.push(with(i, &format!("{},0]", &v[..v.len() - 1])));
                let shorter = match v.rfind(',') {
                    Some(at) => format!("{}]", &v[..at]),
                    None => "[]".to_string(),
                };
                out.push(with(i, &shorter));
            }
            out.push(with(i, &nested("[", "]", 129)));
        } else if v.starts_with('"') {
            out.push(with(
                i,
                pick(rng, &["\"Htm\"", "\"Coh\"", "\"\"", "\"a\\u0062c\"", "{}"]),
            ));
        } else if v.starts_with('{') && v.len() > 2 {
            // One level down: mutate the nested object in place.
            let mut inner = Vec::new();
            mutants(v, rng, &mut inner);
            let step = inner.len() / 6 + 1;
            for nested_mutant in inner.iter().step_by(step) {
                out.push(with(i, nested_mutant));
            }
            out.push(with(i, &format!("{{\"Zz\":{v}}}")));
            out.push(with(i, &format!("{{\"A\":1,{}", &v[1..])));
            out.push(with(i, "{}"));
        }
    }
}

/// The whole corpus, in a fixed order.
fn corpus() -> Vec<String> {
    let base = base_lines();
    let mut rng = SimRng::new(0xDEC0DE);
    let mut inputs: Vec<String> = EDGE_CASES.iter().map(|s| s.to_string()).collect();
    for depth in [127, 128, 129] {
        inputs.push(nested("[", "]", depth));
        inputs.push(nested("{\"a\":", "}", depth));
    }
    inputs.extend(base.iter().cloned());
    // Mutate a spread of the base lines: the four lines of every eighth grid cell plus
    // everything after the grid (the corpus, fixtures and traces).
    for (i, line) in base.iter().enumerate() {
        if i >= GRID_LINES || i % 32 < 4 {
            mutants(line, &mut rng, &mut inputs);
        }
    }
    inputs
}

fn outcome<T: serde::Serialize + serde::Deserialize>(input: &str) -> String {
    match serde_json::from_str::<T>(input) {
        Ok(value) => format!(
            "{:08x}",
            fnv1a_64(serde_json::to_string(&value).unwrap().as_bytes()) as u32
        ),
        Err(_) => "-".to_string(),
    }
}

/// One expectations line: the input's FNV-1a, then one outcome per type.
fn outcomes(input: &str) -> String {
    [
        format!("{:08x}", fnv1a_64(input.as_bytes()) as u32),
        outcome::<RunMetrics>(input),
        outcome::<CacheRecord>(input),
        outcome::<WarehouseRow>(input),
        outcome::<CostRecord>(input),
        outcome::<TraceRecord>(input),
        outcome::<Value>(input),
    ]
    .join(" ")
}

#[test]
fn every_input_decodes_as_it_did_under_the_tree_decoder() {
    let want = std::fs::read_to_string(expected_path()).expect("expectations file");
    let want: Vec<&str> = want.lines().collect();
    let inputs = corpus();
    assert_eq!(want.len(), inputs.len(), "the corpus changed size");
    let mut mismatches = Vec::new();
    for (input, want) in inputs.iter().zip(&want) {
        let got = outcomes(input);
        assert_eq!(
            got[..8],
            want[..8],
            "the corpus itself changed (input {input:?})"
        );
        if got != *want {
            mismatches.push(format!("want {want}\n got {got}\n  on {input:?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} inputs decode differently:\n{}",
        mismatches.len(),
        inputs.len(),
        mismatches[..mismatches.len().min(8)].join("\n")
    );
    // The corpus reaches both verdicts for every type.
    for column in 1..=6 {
        let column_of = |line: &&str| line.split(' ').nth(column).unwrap().to_string();
        assert!(want.iter().any(|l| column_of(l) == "-"), "column {column}");
        assert!(want.iter().any(|l| column_of(l) != "-"), "column {column}");
    }
}

#[test]
#[ignore = "writes the expectations file; recorded once against the tree decoder"]
fn record_expectations() {
    let lines: Vec<String> = corpus().iter().map(|input| outcomes(input)).collect();
    std::fs::write(expected_path(), lines.join("\n") + "\n").unwrap();
}

#[test]
fn a_megabyte_of_brackets_in_a_run_metrics_record_is_an_error_not_a_crash() {
    let metrics = metrics_span(&fixture("engine4_express/results.jsonl")).unwrap();
    assert!(serde_json::from_str::<RunMetrics>(&metrics).is_ok());
    let brackets = "[".repeat(1 << 20);
    for mutant in [
        metrics.replacen('{', &format!("{{\"zz\":{brackets},"), 1),
        metrics.replacen("[1,0,0,0,0]", &brackets, 1),
    ] {
        assert_ne!(mutant, metrics);
        assert!(serde_json::from_str::<RunMetrics>(&mutant).is_err());
    }
}
