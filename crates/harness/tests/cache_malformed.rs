//! Malformed input against the record store's two readers: the result
//! cache and the warehouse.
//!
//! A seeded corpus is built from real lines of each format: two freshly
//! stored cells per file, plus the legacy `engine4_express` fixture line
//! (cache and warehouse; it verifies but is stale, since the engine
//! version moved on) and a placeholder row for a failed cell (warehouse).
//! Each is truncated at every k-th byte, bit-flipped, given reordered
//! keys, extra whitespace, an unknown key, an escaped `workload`,
//! non-canonical numbers, or a stale `engine_version`. For
//! every mutant the field splitter and the reader must not panic, and a
//! record may be served only if an independent reference accepts the line:
//! a full `Value` parse, the current versions, the checksum recomputed from
//! the parsed value, and a typed decode. Lines the reference accepts but
//! the writer would never produce — anything outside its compact shape, or
//! not byte-for-byte the text the checksum covers — classify as corrupt.
//! The field splitter itself must agree with a plain byte-by-byte walker
//! on every corpus line and on seeded mutations of them.

use puno_harness::cache::{cell_digest, split_fields, ResultCache, ENGINE_VERSION};
use puno_harness::run::run_with_config;
use puno_harness::store::SkipStats;
use puno_harness::warehouse::WAREHOUSE_SCHEMA_VERSION;
use puno_harness::{Mechanism, RunMetrics, SystemConfig, Warehouse, WarehouseRow};
use puno_sim::rng::SimRng;
use puno_workloads::{fnv1a_64, WorkloadId};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const SEED: u64 = 3;
const SCALE: f64 = 0.05;
const MECHANISMS: [Mechanism; 2] = [Mechanism::Baseline, Mechanism::Puno];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("puno-malformed-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/engine4_express")
        .join(file);
    std::fs::read_to_string(path)
        .unwrap()
        .trim_end()
        .to_string()
}

fn json(m: &RunMetrics) -> String {
    serde_json::to_string(m).unwrap()
}

fn lines_of(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// One of the store's readers, driven through its public entry point.
#[derive(Clone, Copy, Debug)]
enum Format {
    Cache,
    Warehouse,
}

const FORMATS: [Format; 2] = [Format::Cache, Format::Warehouse];

/// What a reader served from one file — `(key, value as JSON)` pairs —
/// and what it skipped at open.
struct Served {
    records: BTreeMap<String, String>,
    stats: SkipStats,
}

impl Format {
    fn file(self) -> &'static str {
        match self {
            Format::Cache => "results.jsonl",
            Format::Warehouse => "warehouse.jsonl",
        }
    }

    /// The reference reader: the key and value a line means, decided the
    /// slow way.
    fn reference_accepts(self, line: &str) -> Option<(String, String)> {
        let v = self.reference_verifies(line)?;
        match self {
            Format::Cache => {
                let current = v.get("engine_version")?.as_u64()? == u64::from(ENGINE_VERSION);
                current.then_some(())?;
                let metrics: RunMetrics = serde_json::from_value(v.get("metrics")?).ok()?;
                Some((v.get("digest")?.as_u64()?.to_string(), json(&metrics)))
            }
            Format::Warehouse => {
                let version = |key: &str| v.get(key).and_then(Value::as_u64);
                let current = version("engine_version") == Some(u64::from(ENGINE_VERSION))
                    && version("schema_version") == Some(u64::from(WAREHOUSE_SCHEMA_VERSION));
                current.then_some(())?;
                let row: WarehouseRow = serde_json::from_value(&v).ok()?;
                Some(row_entry(&row))
            }
        }
    }

    /// The line parsed, if its checksum is the one its content calls for.
    fn reference_verifies(self, line: &str) -> Option<Value> {
        let v: Value = serde_json::from_str(line).ok()?;
        (self.checksum_of(&v)? == v.get("checksum")?.as_u64()?).then_some(v)
    }

    /// Whether `line` is the earlier engine's fixture line.
    fn is_legacy(self, line: &str) -> bool {
        line == fixture(self.file())
    }

    /// The checksum the parsed line's content calls for.
    fn checksum_of(self, v: &Value) -> Option<u64> {
        match self {
            Format::Cache => {
                let num = |key: &str| v.get(key)?.as_u64();
                let prefix = match v.get("prefix_digest") {
                    Some(p) => format!("p{}|", p.as_u64()?),
                    None => String::new(),
                };
                let (workload, mechanism) =
                    (v.get("workload")?.as_str()?, v.get("mechanism")?.as_str()?);
                let metrics = serde_json::to_string(v.get("metrics")?).ok()?;
                let text = format!(
                    "cache|{}|{prefix}v{}|{workload}|{mechanism}|{}|{metrics}",
                    num("digest")?,
                    num("engine_version")?,
                    num("seed")?
                );
                Some(fnv1a_64(text.as_bytes()))
            }
            Format::Warehouse => {
                let Value::Object(mut fields) = v.clone() else {
                    return None;
                };
                for (key, value) in &mut fields {
                    if key == "checksum" {
                        *value = Value::U64(0);
                    }
                }
                let zeroed = serde_json::to_string(&Value::Object(fields)).ok()?;
                Some(fnv1a_64(format!("warehouse|{zeroed}").as_bytes()))
            }
        }
    }

    /// Two fresh records (one per mechanism) as this format's writer puts
    /// them on disk, plus the format's extra lines.
    fn real_lines(self, tag: &str) -> Vec<String> {
        let dir = scratch(&format!("{tag}-{self:?}-source"));
        let params = WorkloadId::Ssca2.params().scaled(SCALE);
        let run = |m: Mechanism| run_with_config(SystemConfig::paper(m), &params, SEED);
        let lines = match self {
            Format::Cache => {
                let cache = ResultCache::open(&dir).unwrap();
                for m in MECHANISMS {
                    let digest = cell_digest(&SystemConfig::paper(m), &params, SEED);
                    cache.store(digest, 0, SEED, &run(m));
                }
                let mut lines = lines_of(&dir.join(self.file()));
                lines.push(fixture("results.jsonl"));
                lines
            }
            Format::Warehouse => {
                let mut rows: Vec<WarehouseRow> = MECHANISMS
                    .iter()
                    .enumerate()
                    .map(|(i, &m)| {
                        WarehouseRow::from_metrics("corpus", 1, i as u64, "ok", false, &run(m))
                    })
                    .collect();
                rows.push(WarehouseRow::placeholder(
                    "corpus", 1, 9, "ssca2", "puno", SEED, "err",
                ));
                Warehouse::open(&dir).unwrap().append(&rows).unwrap();
                let mut lines = lines_of(&dir.join(self.file()));
                lines.push(fixture("warehouse.jsonl"));
                lines
            }
        };
        let _ = std::fs::remove_dir_all(&dir);
        assert!(lines.len() >= 2, "{self:?}: {lines:?}");
        lines
    }

    /// Open the file in `dir` the way its owner does and collect what it
    /// serves.
    fn serve(self, dir: &Path) -> Served {
        match self {
            Format::Cache => {
                let cache = ResultCache::open(dir).unwrap();
                let stats = cache.stats().skips;
                // The cache keys a record by the digest its own splitter
                // reads, so looking up every such digest reaches every
                // live entry.
                let text = String::from_utf8_lossy(&std::fs::read(dir.join(self.file())).unwrap())
                    .into_owned();
                let mut records = BTreeMap::new();
                for line in text.split('\n') {
                    let Some(digest) = split_fields(line).and_then(|fields| {
                        let (_, span) = fields.into_iter().find(|(k, _)| *k == "digest")?;
                        line.get(span)?.parse::<u64>().ok()
                    }) else {
                        continue;
                    };
                    if let Some(metrics) = cache.lookup(digest) {
                        records.insert(digest.to_string(), json(&metrics));
                    }
                }
                assert_eq!(
                    cache.stats().entries,
                    records.len() as u64,
                    "an entry nobody could serve"
                );
                Served { records, stats }
            }
            Format::Warehouse => {
                let (rows, stats) = Warehouse::open(dir).unwrap().load();
                assert_eq!(stats.kept, rows.len() as u64);
                let records = rows.iter().map(row_entry).collect();
                Served { records, stats }
            }
        }
    }
}

fn row_entry(row: &WarehouseRow) -> (String, String) {
    (
        format!("{}|{}", row.run_id, row.digest),
        serde_json::to_string(row).unwrap(),
    )
}

/// What opening a file holding `bytes` did.
#[derive(Debug, PartialEq)]
struct Opened {
    served: usize,
    corrupt: u64,
    stale: u64,
}

/// Write `bytes` as the whole file of `format`, open it through its
/// reader, and check every served record against the reference. Asserts
/// the invariants that hold for every input and returns the counts.
fn open_and_check(format: Format, dir: &Path, bytes: &[u8]) -> Opened {
    std::fs::write(dir.join(format.file()), bytes).unwrap();
    let served = format.serve(dir);
    let text = String::from_utf8_lossy(bytes);
    let lines: Vec<&str> = text.split('\n').filter(|l| !l.trim().is_empty()).collect();
    let s = served.stats;
    assert_eq!(
        s.kept + s.corrupt + s.stale + s.duplicate,
        lines.len() as u64,
        "{format:?}: every non-blank line classifies exactly once: {text}"
    );
    for (key, value) in &served.records {
        let (_, expected) = lines
            .iter()
            .rev()
            .filter_map(|l| format.reference_accepts(l))
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("{format:?}: served a record the reference rejects: {text}"));
        assert_eq!(value, &expected, "{format:?}: served value differs");
    }
    Opened {
        served: served.records.len(),
        corrupt: s.corrupt,
        stale: s.stale,
    }
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
const ONE_STALE: Opened = Opened {
    served: 0,
    corrupt: 0,
    stale: 1,
};

#[test]
fn real_records_serve_and_truncations_never_do() {
    for format in FORMATS {
        let dir = scratch(&format!("truncate-{format:?}"));
        for line in format.real_lines("truncate") {
            // The earlier engine's line still parses and verifies, but it
            // is stale: never served.
            let legacy = format.is_legacy(&line);
            assert!(format.reference_verifies(&line).is_some(), "{line}");
            assert_eq!(format.reference_accepts(&line).is_some(), !legacy, "{line}");
            let mut with_newline = line.clone().into_bytes();
            with_newline.push(b'\n');
            let whole = open_and_check(format, &dir, &with_newline);
            let class = if legacy { ONE_STALE } else { ONE_SERVED };
            assert_eq!(whole, class, "{format:?}: {line}");
            for cut in (1..line.len()).step_by(7) {
                let opened = open_and_check(format, &dir, &line.as_bytes()[..cut]);
                assert_eq!(opened, ONE_CORRUPT, "{format:?}: truncated at {cut}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn bit_flips_never_serve_unverified_records() {
    let mut rng = SimRng::new(0xF11F);
    for format in FORMATS {
        let dir = scratch(&format!("flip-{format:?}"));
        let mut served = 0;
        for line in format.real_lines("flip") {
            let healthy = line.as_bytes();
            for _ in 0..300 {
                let mut bytes = healthy.to_vec();
                let at = rng.gen_range(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.gen_range(8);
                served += open_and_check(format, &dir, &bytes).served;
            }
        }
        assert_eq!(served, 0, "{format:?}: a one-bit change went undetected");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The first number following `"key":` in `line`, with `edit` applied to
/// its text.
fn edit_number(line: &str, key: &str, edit: impl Fn(&str) -> String) -> String {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag).expect("key present") + tag.len();
    let len = line[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(line.len() - start);
    format!(
        "{}{}{}",
        &line[..start],
        edit(&line[start..start + len]),
        &line[start + len..]
    )
}

#[test]
fn lines_outside_the_writers_shape_are_corrupt() {
    for format in FORMATS {
        let dir = scratch(&format!("shape-{format:?}"));
        let warehouse = matches!(format, Format::Warehouse);
        for line in format.real_lines("shape") {
            let legacy = format.is_legacy(&line);
            let v: Value = serde_json::from_str(&line).unwrap();
            let mechanism = v.get("mechanism").unwrap().as_str().unwrap();
            let in_order = format!("\"workload\":\"ssca2\",\"mechanism\":\"{mechanism}\"");
            let swapped = format!("\"mechanism\":\"{mechanism}\",\"workload\":\"ssca2\"");
            let nested = if warehouse {
                "\"abort_blame\":["
            } else {
                "\"metrics\":{"
            };
            // (what, mutant, whether the reference accepts it). The
            // warehouse reference re-serializes the parsed row, so it
            // rejects a change of key order or key set.
            let variants = [
                (
                    "reordered keys",
                    line.replacen(&in_order, &swapped, 1),
                    !warehouse,
                ),
                (
                    "space after a colon",
                    line.replacen("\"seed\":", "\"seed\": ", 1),
                    true,
                ),
                (
                    "space after a comma",
                    line.replacen(",\"seed\"", ", \"seed\"", 1),
                    true,
                ),
                (
                    "space inside a nested value",
                    line.replacen(nested, &format!("{nested} "), 1),
                    true,
                ),
                ("trailing space", format!("{line} "), true),
                (
                    "unknown key",
                    line.replacen('{', "{\"note\":1,", 1),
                    !warehouse,
                ),
                (
                    "escaped workload",
                    line.replacen("\"ssca2\"", "\"ssca\\u0032\"", 1),
                    true,
                ),
                (
                    "leading zero",
                    edit_number(&line, "seed", |n| format!("0{n}")),
                    true,
                ),
                (
                    "leading zero in cycles",
                    edit_number(&line, "cycles", |n| format!("0{n}")),
                    true,
                ),
            ];
            for (what, mutant, accepted) in variants {
                assert_ne!(mutant, line, "{what}: the mutation site must exist");
                assert_eq!(
                    format.reference_accepts(&mutant).is_some(),
                    accepted && !legacy,
                    "{format:?} {what}: the reference's verdict is pinned"
                );
                assert_eq!(
                    open_and_check(format, &dir, mutant.as_bytes()),
                    ONE_CORRUPT,
                    "{format:?} {what}"
                );
            }
            if warehouse {
                let trailing_zero = edit_number(&line, "abort_rate", |n| format!("{n}0"));
                assert_eq!(format.reference_accepts(&trailing_zero).is_some(), !legacy);
                let opened = open_and_check(format, &dir, trailing_zero.as_bytes());
                assert_eq!(opened, ONE_CORRUPT, "trailing zero");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_verified_stale_record_is_stale_not_served() {
    for format in FORMATS {
        let dir = scratch(&format!("stale-{format:?}"));
        let line = &format.real_lines("stale")[0];
        let stale_version = ENGINE_VERSION + 1;
        let bumped = line.replacen(
            &format!("\"engine_version\":{ENGINE_VERSION}"),
            &format!("\"engine_version\":{stale_version}"),
            1,
        );
        let v: Value = serde_json::from_str(&bumped).unwrap();
        let old_checksum = v.get("checksum").unwrap().as_u64().unwrap();
        let checksum = format.checksum_of(&v).unwrap();
        let mutant = bumped.replacen(
            &format!("\"checksum\":{old_checksum}"),
            &format!("\"checksum\":{checksum}"),
            1,
        );
        let opened = open_and_check(format, &dir, mutant.as_bytes());
        assert_eq!(
            opened,
            Opened {
                served: 0,
                corrupt: 0,
                stale: 1
            },
            "{format:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_splitter_survives_arbitrary_input() {
    let mut rng = SimRng::new(7);
    let alphabet = b"{}[]\":,\\ a0-.e\n";
    let real: Vec<String> = FORMATS
        .iter()
        .flat_map(|format| format.real_lines("splitter"))
        .collect();
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

/// [`split_fields`] the plain way: one `match` per byte. The splitter
/// skips ordinary bytes through a table instead; the two must agree on
/// every input.
fn reference_split_fields(line: &str) -> Option<Vec<(&str, std::ops::Range<usize>)>> {
    fn string_end(bytes: &[u8], start: usize) -> Option<usize> {
        if bytes.get(start) != Some(&b'"') {
            return None;
        }
        let mut i = start + 1;
        loop {
            match *bytes.get(i)? {
                b'"' => return Some(i + 1),
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
    }
    fn value_end(bytes: &[u8], start: usize) -> Option<usize> {
        match *bytes.get(start)? {
            b'"' => string_end(bytes, start),
            b'{' | b'[' => {
                let mut depth = 0usize;
                let mut i = start;
                loop {
                    match *bytes.get(i)? {
                        b'"' => {
                            i = string_end(bytes, i)?;
                            continue;
                        }
                        b'{' | b'[' => depth += 1,
                        b' ' | b'\t' | b'\n' | b'\r' => return None,
                        b'}' | b']' => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(i + 1);
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            _ => {
                let len = bytes
                    .get(start..)?
                    .iter()
                    .take_while(|&&b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'+' | b'.'))
                    .count();
                (len > 0).then_some(start + len)
            }
        }
    }
    let bytes = line.as_bytes();
    if bytes.first() != Some(&b'{') {
        return None;
    }
    let mut fields = Vec::new();
    if bytes.get(1) == Some(&b'}') {
        return (bytes.len() == 2).then_some(fields);
    }
    let mut pos = 1;
    loop {
        let key_end = string_end(bytes, pos)?;
        let key = line.get(pos + 1..key_end - 1)?;
        if key.contains('\\') || bytes.get(key_end) != Some(&b':') {
            return None;
        }
        let start = key_end + 1;
        let end = value_end(bytes, start)?;
        fields.push((key, start..end));
        match bytes.get(end) {
            Some(b',') => pos = end + 1,
            Some(b'}') if end + 1 == bytes.len() => return Some(fields),
            _ => return None,
        }
    }
}

#[test]
fn the_splitter_agrees_with_a_byte_walker() {
    let mut rng = SimRng::new(0x5911);
    let real: Vec<String> = FORMATS
        .iter()
        .flat_map(|format| format.real_lines("walker"))
        .collect();
    let agree = |bytes: &[u8]| {
        let text = String::from_utf8_lossy(bytes);
        assert_eq!(
            split_fields(&text),
            reference_split_fields(&text),
            "splitter and byte walker disagree on {text}"
        );
    };
    // What a mutation inserts: whitespace, escapes, brackets and quotes.
    let inserts: [&[u8]; 12] = [
        b" ", b"\t", b"\n", b"\r", b"\\", b"\\\"", b"\"", b"{", b"}", b"[", b"]", b"\\u0041",
    ];
    for line in &real {
        let healthy = line.as_bytes();
        agree(healthy);
        assert!(split_fields(line).is_some(), "a real line splits: {line}");
        for cut in 0..healthy.len() {
            agree(&healthy[..cut]);
        }
        for _ in 0..400 {
            let mut bytes = healthy.to_vec();
            let at = rng.gen_range(bytes.len() as u64) as usize;
            match rng.gen_range(3) {
                0 => bytes[at] ^= 1 << rng.gen_range(8),
                1 => {
                    let insert = inserts[rng.gen_range(inserts.len() as u64) as usize];
                    bytes.splice(at..at, insert.iter().copied());
                }
                _ => {
                    bytes.remove(at);
                }
            }
            agree(&bytes);
        }
    }
}
