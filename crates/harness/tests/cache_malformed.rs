//! Malformed input against the result cache's record reader.
//!
//! A seeded corpus is built from real records: two freshly stored cells
//! and the legacy `prefix_digest` fixture. Each is truncated at every k-th
//! byte, bit-flipped, given reordered keys, extra whitespace, an unknown
//! key, an escaped `workload`, or a stale `engine_version`. For every
//! mutant the field splitter and `ResultCache::open` must not panic, and a
//! record may be served only if an independent reference accepts the line:
//! a full `Value` parse, the current engine version, the checksum
//! recomputed over the line's own `metrics` JSON, and a typed decode. Lines
//! the reference accepts but the writer would never produce — anything
//! outside its compact shape — classify as corrupt.

use puno_harness::cache::{cell_digest, split_fields, ResultCache, ENGINE_VERSION};
use puno_harness::run::run_with_config;
use puno_harness::{Mechanism, RunMetrics, SystemConfig};
use puno_sim::rng::SimRng;
use puno_workloads::{fnv1a_64, WorkloadId};
use serde_json::Value;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("puno-malformed-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The reference reader: what a record line means, decided the slow way.
fn reference_accepts(line: &str) -> Option<(u64, RunMetrics)> {
    let v: Value = serde_json::from_str(line).ok()?;
    let num = |key: &str| v.get(key)?.as_u64();
    let (digest, version, seed) = (num("digest")?, num("engine_version")?, num("seed")?);
    let prefix = match v.get("prefix_digest") {
        Some(p) => format!("p{}|", p.as_u64()?),
        None => String::new(),
    };
    let (workload, mechanism) = (v.get("workload")?.as_str()?, v.get("mechanism")?.as_str()?);
    let metrics = v.get("metrics")?;
    let metrics_json = serde_json::to_string(metrics).ok()?;
    let text =
        format!("cache|{digest}|{prefix}v{version}|{workload}|{mechanism}|{seed}|{metrics_json}");
    let verified =
        version == u64::from(ENGINE_VERSION) && fnv1a_64(text.as_bytes()) == num("checksum")?;
    verified.then_some(())?;
    Some((digest, serde_json::from_value(metrics).ok()?))
}

fn json(m: &RunMetrics) -> String {
    serde_json::to_string(m).unwrap()
}

/// What opening a file holding `bytes` did.
#[derive(Debug, PartialEq)]
struct Opened {
    served: usize,
    corrupt: u64,
    stale: u64,
}

/// Write `bytes` as the whole results file, open it, and look up every
/// digest any of its lines names. Asserts the invariants that hold for
/// every input and returns the counts.
fn open_and_check(dir: &Path, bytes: &[u8]) -> Opened {
    std::fs::write(dir.join("results.jsonl"), bytes).unwrap();
    let cache = ResultCache::open(dir).unwrap();
    let text = String::from_utf8_lossy(bytes);
    let lines: Vec<&str> = text.split('\n').filter(|l| !l.trim().is_empty()).collect();
    let opened = cache.stats();
    assert_eq!(
        opened.entries + opened.corrupt_skipped + opened.stale_skipped,
        lines.len() as u64,
        "every non-blank line classifies exactly once: {text}"
    );
    let mut served = std::collections::BTreeSet::new();
    for line in &lines {
        // The cache keys a record by the digest its own splitter reads, so
        // looking up every such digest reaches every live entry.
        let Some(digest) = split_fields(line).and_then(|fields| {
            let (_, span) = fields.into_iter().find(|(k, _)| *k == "digest")?;
            line.get(span)?.parse::<u64>().ok()
        }) else {
            continue;
        };
        if let Some(metrics) = cache.lookup(digest) {
            let (ref_digest, expected) = lines
                .iter()
                .rev()
                .filter_map(|l| reference_accepts(l))
                .find(|(d, _)| *d == digest)
                .unwrap_or_else(|| panic!("served a record the reference rejects: {line}"));
            assert_eq!(ref_digest, digest);
            assert_eq!(json(&metrics), json(&expected), "served metrics differ");
            served.insert(digest);
        }
    }
    let stats = cache.stats();
    assert_eq!(
        stats.entries,
        served.len() as u64,
        "an entry nobody could serve"
    );
    Opened {
        served: served.len(),
        corrupt: stats.corrupt_skipped,
        stale: stats.stale_skipped,
    }
}

/// Two fresh records (one per mechanism) plus the legacy fixture line,
/// stored through a scratch cache named after `tag`.
fn real_lines(tag: &str) -> Vec<String> {
    let dir = scratch(&format!("{tag}-source"));
    let cache = ResultCache::open(&dir).unwrap();
    let params = WorkloadId::Ssca2.params().scaled(0.05);
    for mechanism in [Mechanism::Baseline, Mechanism::Puno] {
        let config = SystemConfig::paper(mechanism);
        let metrics = run_with_config(config, &params, 3);
        cache.store(cell_digest(&config, &params, 3), 0, 3, &metrics);
    }
    let mut lines: Vec<String> = std::fs::read_to_string(dir.join("results.jsonl"))
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/engine4_express/results.jsonl");
    lines.push(
        std::fs::read_to_string(fixture)
            .unwrap()
            .trim_end()
            .to_string(),
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(lines.len(), 3);
    lines
}

const ONE_SERVED: Opened = Opened {
    served: 1,
    corrupt: 0,
    stale: 0,
};
const ONE_CORRUPT: Opened = Opened {
    served: 0,
    corrupt: 1,
    stale: 0,
};

#[test]
fn real_records_serve_and_truncations_never_do() {
    let dir = scratch("truncate");
    for line in real_lines("truncate") {
        let mut with_newline = line.clone().into_bytes();
        with_newline.push(b'\n');
        assert_eq!(open_and_check(&dir, &with_newline), ONE_SERVED, "{line}");
        for cut in (1..line.len()).step_by(7) {
            let opened = open_and_check(&dir, &line.as_bytes()[..cut]);
            assert_eq!(opened, ONE_CORRUPT, "truncated at {cut}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flips_never_serve_unverified_records() {
    let dir = scratch("flip");
    let mut rng = SimRng::new(0xF11F);
    let mut served = 0;
    for line in real_lines("flip") {
        let healthy = line.as_bytes();
        for _ in 0..300 {
            let mut bytes = healthy.to_vec();
            let at = rng.gen_range(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.gen_range(8);
            served += open_and_check(&dir, &bytes).served;
        }
    }
    assert_eq!(served, 0, "a one-bit change went undetected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lines_outside_the_writers_shape_are_corrupt() {
    let dir = scratch("shape");
    for line in real_lines("shape") {
        let v: Value = serde_json::from_str(&line).unwrap();
        let mechanism = v.get("mechanism").unwrap().as_str().unwrap();
        let in_order = format!("\"workload\":\"ssca2\",\"mechanism\":\"{mechanism}\"");
        let swapped = format!("\"mechanism\":\"{mechanism}\",\"workload\":\"ssca2\"");
        let variants = [
            ("reordered keys", line.replacen(&in_order, &swapped, 1)),
            (
                "space after a colon",
                line.replacen("\"seed\":", "\"seed\": ", 1),
            ),
            (
                "space after a comma",
                line.replacen(",\"seed\"", ", \"seed\"", 1),
            ),
            (
                "space inside metrics",
                line.replacen("\"metrics\":{", "\"metrics\":{ ", 1),
            ),
            ("trailing space", format!("{line} ")),
            ("unknown key", line.replacen('{', "{\"note\":1,", 1)),
            (
                "escaped workload",
                line.replacen("\"ssca2\"", "\"ssca\\u0032\"", 1),
            ),
        ];
        for (what, mutant) in variants {
            assert!(
                reference_accepts(&mutant).is_some(),
                "{what}: the reference must accept the variant, or the case tests nothing"
            );
            assert_eq!(
                open_and_check(&dir, mutant.as_bytes()),
                ONE_CORRUPT,
                "{what}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_verified_stale_record_is_stale_not_served() {
    let dir = scratch("stale");
    let line = &real_lines("stale")[0];
    let stale_version = ENGINE_VERSION + 1;
    let v: Value = serde_json::from_str(line).unwrap();
    let metrics_json = serde_json::to_string(v.get("metrics").unwrap()).unwrap();
    let digest = v.get("digest").unwrap().as_u64().unwrap();
    let checksum = fnv1a_64(
        format!("cache|{digest}|v{stale_version}|ssca2|baseline|3|{metrics_json}").as_bytes(),
    );
    let old_checksum = v.get("checksum").unwrap().as_u64().unwrap();
    let mutant = line
        .replacen(
            &format!("\"engine_version\":{ENGINE_VERSION}"),
            &format!("\"engine_version\":{stale_version}"),
            1,
        )
        .replacen(
            &format!("\"checksum\":{old_checksum}"),
            &format!("\"checksum\":{checksum}"),
            1,
        );
    let opened = open_and_check(&dir, mutant.as_bytes());
    assert_eq!(
        opened,
        Opened {
            served: 0,
            corrupt: 0,
            stale: 1
        }
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_splitter_survives_arbitrary_input() {
    let mut rng = SimRng::new(7);
    let alphabet = b"{}[]\":,\\ a0-.e\n";
    let real = real_lines("splitter");
    for round in 0..20_000 {
        let len = rng.gen_range(48) as usize;
        let bytes: Vec<u8> = if round % 2 == 0 {
            (0..len)
                .map(|_| alphabet[rng.gen_range(alphabet.len() as u64) as usize])
                .collect()
        } else {
            // Splice a random window of a real line into random structure.
            let src = real[round % real.len()].as_bytes();
            let at = rng.gen_range(src.len() as u64) as usize;
            let mut b = vec![b'{', b'"', b'a', b'"', b':'];
            b.extend_from_slice(&src[at..(at + len).min(src.len())]);
            b
        };
        let text = String::from_utf8_lossy(&bytes);
        if let Some(fields) = split_fields(&text) {
            for (_, span) in fields {
                assert!(text.get(span).is_some(), "span off a char boundary");
            }
        }
    }
}
