//! Persistent result cache.
//!
//! Every simulated cell is a pure function of `(SystemConfig, WorkloadParams,
//! seed)` — so once a cell has run, re-running it (a second `regen_all.sh`
//! at unchanged inputs, a sweep resumed after a kill, a `sweep_all` over
//! the grid `figures` already swept) is pure waste. The [`ResultCache`]
//! memoizes fault-free successful runs in an append-only JSONL file keyed
//! by a content digest of the full cell identity plus [`ENGINE_VERSION`];
//! bumping the version invalidates every cached cell at once, which is the
//! required response to *any* change in simulated behaviour (the golden
//! snapshots catch those).
//! It is the only state a sweep keeps on disk.

use crate::config::SystemConfig;
use crate::knobs::HostOptions;
use crate::metrics::RunMetrics;
use crate::store::{self, Appender, Class, Records, SkipStats};
use puno_workloads::{fnv1a_64_fold, fnv1a_64_fold_x4, WorkloadParams, FNV1A_64_OFFSET};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Version of the simulation engine for cache-key purposes. Bump on ANY
/// change that can alter a `RunMetrics` field for some cell — the digest
/// covers the configuration and workload inputs, but only this constant
/// covers the code. (The golden snapshot suite is the detector: if it needs
/// a re-bless, this needs a bump.)
pub const ENGINE_VERSION: u32 = 5;

/// Content digest identifying one simulation cell: the full system
/// configuration, the workload parameters, the seed, and the engine
/// version, hashed FNV-1a over
/// `engine-v{ENGINE_VERSION}|{config:?}|{params:?}|seed={seed}` (every
/// field of both structs appears in `Debug`, so any perturbation —
/// including ones that cannot change behaviour, which merely over-
/// invalidates — changes the digest).
pub fn cell_digest(config: &SystemConfig, params: &WorkloadParams, seed: u64) -> u64 {
    finish_cell_digest(config_digest_state(config), &format!("{params:?}"), seed)
}

/// The FNV-1a state of [`cell_digest`] once it has folded the engine
/// version and `config`: what every cell on one configuration shares, so
/// a sweep formats and folds each mechanism's configuration once.
pub(crate) fn config_digest_state(config: &SystemConfig) -> u64 {
    let head = format!("engine-v{ENGINE_VERSION}|{config:?}|");
    fnv1a_64_fold(FNV1A_64_OFFSET, head.as_bytes())
}

/// [`cell_digest`] finished from a [`config_digest_state`] and the
/// parameters' `Debug` text. FNV-1a of pieces folded in order is FNV-1a of
/// their concatenation, so this is the digest of the joined string.
pub(crate) fn finish_cell_digest(config_state: u64, params_debug: &str, seed: u64) -> u64 {
    let h = fnv1a_64_fold(config_state, params_debug.as_bytes());
    fnv1a_64_fold(h, format!("|seed={seed}").as_bytes())
}

/// One persisted cache entry (one JSONL line): the on-disk schema. The
/// cache writes and verifies lines of exactly this type's compact JSON
/// shape, field by field and in this order, without building the struct
/// (see `record_line` and `RawRecord`); a format test pins that the two
/// stay byte-identical.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CacheRecord {
    pub digest: u64,
    /// Engine version the record was produced under; records from another
    /// version never serve lookups (their digests differ anyway) and are
    /// dropped by [`ResultCache::compact`].
    pub engine_version: u32,
    pub workload: String,
    pub mechanism: String,
    pub seed: u64,
    pub metrics: RunMetrics,
    /// FNV-1a checksum over the record content (see `record_checksum`),
    /// verified on load: a record corrupted anywhere in the file — not just
    /// a torn trailing line — is skipped and counted instead of replayed.
    pub checksum: u64,
}

/// The checksummed fields of one record as JSON text: numbers in decimal,
/// strings unquoted, `metrics` as its compact JSON object.
struct RecordText<'a> {
    digest: &'a str,
    /// Only present on records written while the cache still had a
    /// `prefix_digest` column; their checksum covers its value.
    prefix_digest: Option<&'a str>,
    engine_version: &'a str,
    workload: &'a str,
    mechanism: &'a str,
    seed: &'a str,
    metrics: &'a str,
}

/// Content checksum of one cache record: FNV-1a over
/// `cache|{digest}|{p{prefix_digest}|}v{engine_version}|{workload}|{mechanism}|{seed}|{metrics}`,
/// folded piece by piece so neither the writer nor the verifier builds
/// that string.
fn record_checksum(t: &RecordText) -> u64 {
    fnv1a_64_fold(checksum_head(t), t.metrics.as_bytes())
}

/// [`record_checksum`]'s state before `metrics`, the one long piece: open
/// folds the short head of each record on its own and the `metrics` of
/// four records side by side.
fn checksum_head(t: &RecordText) -> u64 {
    let (p, prefix, bar) = match t.prefix_digest {
        Some(prefix) => ("p", prefix, "|"),
        None => ("", "", ""),
    };
    [
        "cache|",
        t.digest,
        "|",
        p,
        prefix,
        bar,
        "v",
        t.engine_version,
        "|",
        t.workload,
        "|",
        t.mechanism,
        "|",
        t.seed,
        "|",
    ]
    .iter()
    .fold(FNV1A_64_OFFSET, |h, piece| {
        fnv1a_64_fold(h, piece.as_bytes())
    })
}

/// The persisted line for one cell, newline-terminated, and the byte range
/// of its `metrics` object: [`CacheRecord`]'s compact JSON, built around
/// the single serialization of `metrics` that its checksum covers, so the
/// `metrics` span as written is the checksummed text.
fn record_line(digest: u64, seed: u64, metrics: &RunMetrics) -> (String, Range<usize>) {
    let metrics_json = serde_json::to_string(metrics).expect("cache record metrics must serialize");
    let checksum = record_checksum(&RecordText {
        digest: &digest.to_string(),
        prefix_digest: None,
        engine_version: &ENGINE_VERSION.to_string(),
        workload: &metrics.workload,
        mechanism: &metrics.mechanism,
        seed: &seed.to_string(),
        metrics: &metrics_json,
    });
    let quoted = |s: &String| serde_json::to_string(s).expect("strings serialize");
    let head = format!(
        "{{\"digest\":{digest},\"engine_version\":{ENGINE_VERSION},\"workload\":{},\
         \"mechanism\":{},\"seed\":{seed},\"metrics\":",
        quoted(&metrics.workload),
        quoted(&metrics.mechanism),
    );
    let span = head.len()..head.len() + metrics_json.len();
    let tail = format!(",\"checksum\":{checksum}}}\n");
    ([head.as_str(), &metrics_json, &tail].concat(), span)
}

/// Split a JSON line holding one object into `(key, value span)` pairs,
/// each span the byte range of the value's raw JSON text in `line`.
///
/// Only the compact shape the cache writes is accepted: no whitespace
/// outside strings, top-level keys without escapes, nothing after the
/// closing brace. Anything else — including a truncated line — returns
/// `None`. Scalars and strings are read directly; nested objects and
/// arrays are skipped by bracket matching that steps over strings and
/// their escapes, without checking the grammar inside (a record's checksum
/// covers those bytes, and decoding them checks the full grammar).
/// Never panics.
pub fn split_fields(line: &str) -> Option<Vec<(&str, Range<usize>)>> {
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

/// A byte-indexed membership table: the bytes a scan stops at.
const fn byte_set(members: &[u8]) -> [bool; 256] {
    let mut table = [false; 256];
    let mut i = 0;
    while i < members.len() {
        table[members[i] as usize] = true;
        i += 1;
    }
    table
}

/// Inside a string: its closing quote and the escape introducer.
const STRING_STOPS: [bool; 256] = byte_set(b"\"\\");

/// Inside a nested object or array: whatever opens a string, opens or
/// closes a level, or is whitespace the compact shape never holds.
const NESTED_STOPS: [bool; 256] = byte_set(b"\"{[]} \t\n\r");

/// Index of the first byte at or after `from` that `stops` holds.
fn next_stop(bytes: &[u8], from: usize, stops: &[bool; 256]) -> Option<usize> {
    let skipped = bytes
        .get(from..)?
        .iter()
        .position(|&b| stops[usize::from(b)])?;
    Some(from + skipped)
}

/// Index just past the JSON string opening at `bytes[start]`.
fn string_end(bytes: &[u8], start: usize) -> Option<usize> {
    if bytes.get(start) != Some(&b'"') {
        return None;
    }
    let mut i = start + 1;
    loop {
        i = next_stop(bytes, i, &STRING_STOPS)?;
        if bytes[i] == b'"' {
            return Some(i + 1);
        }
        i += 2;
    }
}

/// Index just past the JSON value starting at `bytes[start]`.
fn value_end(bytes: &[u8], start: usize) -> Option<usize> {
    match *bytes.get(start)? {
        b'"' => string_end(bytes, start),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut i = start;
            loop {
                i = next_stop(bytes, i, &NESTED_STOPS)?;
                match bytes[i] {
                    b'"' => {
                        i = string_end(bytes, i)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(i + 1);
                        }
                    }
                    _ => return None,
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

/// A canonical decimal: digits only, no sign, no leading zero.
pub(crate) fn decimal<T: std::str::FromStr>(text: &str) -> Option<T> {
    let canonical = text.bytes().all(|b| b.is_ascii_digit())
        && !text.is_empty()
        && (text == "0" || !text.starts_with('0'));
    canonical.then(|| text.parse().ok()).flatten()
}

/// A JSON string with no escapes, unquoted.
fn plain_str(text: &str) -> Option<&str> {
    let inner = text.strip_prefix('"')?.strip_suffix('"')?;
    (!inner.contains('\\')).then_some(inner)
}

/// One record line split into its fields, `metrics` left undecoded.
struct RawRecord<'a> {
    digest: u64,
    engine_version: u32,
    seed: u64,
    checksum: u64,
    /// Byte range of the `metrics` object in the line.
    metrics: Range<usize>,
    text: RecordText<'a>,
}

impl<'a> RawRecord<'a> {
    /// Split `line` if it has the writer's exact shape: [`CacheRecord`]'s
    /// fields in order (a legacy `prefix_digest` allowed after `digest`),
    /// canonical decimals, and `workload`/`mechanism` without escapes.
    fn parse(line: &'a str) -> Option<Self> {
        let fields = split_fields(line)?;
        let (digest, prefix_digest, rest) = match fields.as_slice() {
            [("digest", d), ("prefix_digest", p), rest @ ..] => (d, Some(p), rest),
            [("digest", d), rest @ ..] => (d, None, rest),
            _ => return None,
        };
        let [("engine_version", version), ("workload", workload), ("mechanism", mechanism), ("seed", seed), ("metrics", metrics), ("checksum", checksum)] =
            rest
        else {
            return None;
        };
        let span = |range: &Range<usize>| line.get(range.clone());
        let text = RecordText {
            digest: span(digest)?,
            prefix_digest: match prefix_digest {
                Some(p) => Some(span(p).filter(|p| decimal::<u64>(p).is_some())?),
                None => None,
            },
            engine_version: span(version)?,
            workload: plain_str(span(workload)?)?,
            mechanism: plain_str(span(mechanism)?)?,
            seed: span(seed)?,
            metrics: span(metrics).filter(|m| m.starts_with('{'))?,
        };
        Some(Self {
            digest: decimal(text.digest)?,
            engine_version: decimal(text.engine_version)?,
            seed: decimal(text.seed)?,
            checksum: decimal(span(checksum)?)?,
            metrics: metrics.clone(),
            text,
        })
    }
}

/// Lines whose checksums one pass of [`fnv1a_64_fold_x4`] folds side by
/// side.
const WINDOW: usize = 4;

/// The one classifier `open` and `compact` share: every non-blank line of
/// `text`, in file order, with its byte offset and class. A line is valid
/// only if it has the writer's shape and its checksum verifies against the
/// bytes as they sit in the line; nothing is decoded here. Lines are taken
/// [`WINDOW`] at a time and the checksums of a window are folded side by
/// side, so one window of records is all that is held at once.
fn classify_lines(text: &str) -> impl Iterator<Item = (usize, Class<u64, RawRecord<'_>>)> {
    let mut lines = store::lines(text).fuse();
    std::iter::from_fn(move || {
        let window: [Option<(usize, &str)>; WINDOW] = std::array::from_fn(|_| lines.next());
        window[0].is_some().then(|| classify_window(window))
    })
    .flatten()
}

/// [`classify_lines`] of one window; `None` slots are past the end.
fn classify_window<'a>(
    window: [Option<(usize, &'a str)>; WINDOW],
) -> impl Iterator<Item = (usize, Class<u64, RawRecord<'a>>)> {
    let records = window.map(|line| RawRecord::parse(line?.1));
    let heads = records.each_ref().map(|rec| {
        rec.as_ref()
            .map_or(FNV1A_64_OFFSET, |r| checksum_head(&r.text))
    });
    let metrics = records
        .each_ref()
        .map(|rec| rec.as_ref().map_or(&[][..], |r| r.text.metrics.as_bytes()));
    let sums = fnv1a_64_fold_x4(heads, metrics);
    window
        .into_iter()
        .zip(records)
        .zip(sums)
        .filter_map(|((line, rec), sum)| {
            let class = match rec {
                Some(rec) if rec.checksum != sum => Class::Corrupt,
                Some(rec) if rec.engine_version != ENGINE_VERSION => Class::Stale,
                Some(rec) => Class::Valid(rec.digest, rec),
                None => Class::Corrupt,
            };
            Some((line?.0, class))
        })
}

/// Cache hit/miss/store counters (host-side observability only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub stores: u64,
    pub entries: u64,
    /// What `results.jsonl` skipped: what open skipped, plus the verified
    /// records that later failed to decode (as corrupt).
    pub skips: SkipStats,
}

/// One live cell in memory: its checksum-verified `metrics` JSON text, a
/// span of `text`. Records kept at open share the file text read at open;
/// a record stored since holds the line written for it.
#[derive(Clone, Debug)]
struct Entry {
    text: Arc<String>,
    metrics: Range<usize>,
}

/// Persistent store of fault-free run results, keyed by [`cell_digest`],
/// in `results.jsonl`: every line is checked in place at open (last record
/// wins; torn, tampered and stale lines skipped and counted), every lookup
/// decodes the record's verified text, and new records are appended as
/// they come. Thread-safe: a sweep's worker threads share one instance.
#[derive(Debug)]
pub struct ResultCache {
    entries: Mutex<Records<u64, Entry>>,
    log: Appender,
    /// What open kept and skipped.
    opened: SkipStats,
    /// Verified records whose metrics failed to decode, counted at the
    /// lookup that tried; [`ResultCache::stats`] reports them as corrupt.
    decode_failures: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl ResultCache {
    fn results_path(dir: &Path) -> PathBuf {
        dir.join("results.jsonl")
    }

    /// Open (creating if needed) the cache rooted at `dir`. Every line is
    /// checksum-verified here; lines outside the writer's shape or failing
    /// their checksum anywhere in the file — torn trailing appends, bit
    /// flips mid-file — are skipped and counted, never served, and records
    /// from another `ENGINE_VERSION` likewise. [`ResultCache::compact`]
    /// rewrites the file without them.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = Self::results_path(dir);
        let text = Arc::new(store::read(&path));
        let (entries, opened) = store::tally(classify_lines(&text).map(|(at, class)| {
            class.map(|rec| Entry {
                text: Arc::clone(&text),
                metrics: at + rec.metrics.start..at + rec.metrics.end,
            })
        }));
        Ok(Self {
            entries: Mutex::new(entries),
            log: Appender::open(&path)?,
            opened,
            decode_failures: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        })
    }

    /// Look a cell up by digest; counts a hit or a miss.
    pub fn lookup(&self, digest: u64) -> Option<RunMetrics> {
        let found = self.decode(digest);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// The metrics stored under `digest`, decoded from the entry's text
    /// outside the map lock. A record that verified but does not decode is
    /// dropped (if it is still the entry that was read) and counted as
    /// corrupt, and the lookup misses.
    fn decode(&self, digest: u64) -> Option<RunMetrics> {
        let entry = store::lock(&self.entries).get(&digest)?.clone();
        let decoded = serde_json::from_str::<RunMetrics>(&entry.text[entry.metrics.clone()]).ok();
        if decoded.is_none() {
            let mut entries = store::lock(&self.entries);
            let still = |e: &Entry| Arc::ptr_eq(&e.text, &entry.text) && e.metrics == entry.metrics;
            if entries.get(&digest).is_some_and(still) {
                entries.remove(&digest);
                self.decode_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        decoded
    }

    /// Persist one finished cell under its cell digest. Idempotent per
    /// digest: a digest already live is not re-appended, which keeps warm
    /// re-runs from growing the file.
    ///
    /// `_group` is ignored. It carried the retired prefix-fork group key and
    /// stays only so the separately versioned `benchmark/` crate keeps
    /// building; drop it together with that caller's argument.
    pub fn store(&self, digest: u64, _group: u64, seed: u64, metrics: &RunMetrics) {
        let (line, span) = record_line(digest, seed, metrics);
        let entry = Entry {
            text: Arc::new(line),
            metrics: span,
        };
        {
            let mut entries = store::lock(&self.entries);
            if entries.get(&digest).is_some() {
                return;
            }
            entries.insert(digest, entry.clone());
        }
        let _ = self.log.append(&entry.text);
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    pub fn stats(&self) -> CacheStats {
        let entries = store::lock(&self.entries).len() as u64;
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            entries,
            skips: SkipStats {
                kept: entries,
                corrupt: self.opened.corrupt + self.decode_failures.load(Ordering::Relaxed),
                ..self.opened
            },
        }
    }

    /// Rewrite `results.jsonl` keeping only current-engine, checksum-valid
    /// records (last-wins deduped) that decode, dropping corrupt and stale
    /// lines for good. Only the kept records are decoded, and each is
    /// rebuilt in this build's shape. The in-memory map is refreshed from
    /// the rewritten text; its lock, and the append handle's, are held
    /// across the read and the rewrite.
    pub fn compact(&self) -> std::io::Result<SkipStats> {
        let mut entries = store::lock(&self.entries);
        let mut stats = SkipStats::default();
        let mut spans = Vec::new();
        let text = self.log.rewrite(|text| {
            let (kept, loaded) = store::tally(classify_lines(text).map(|(_, class)| class));
            stats = loaded;
            let mut out = String::new();
            for rec in kept.into_values() {
                let Ok(metrics) = serde_json::from_str::<RunMetrics>(rec.text.metrics) else {
                    stats.corrupt += 1;
                    continue;
                };
                let (line, span) = record_line(rec.digest, rec.seed, &metrics);
                spans.push((rec.digest, out.len() + span.start..out.len() + span.end));
                out += &line;
            }
            out
        })?;
        let text = Arc::new(text);
        let mut live = Records::default();
        for (digest, metrics) in spans {
            let text = Arc::clone(&text);
            live.insert(digest, Entry { text, metrics });
        }
        stats.kept = live.len() as u64;
        *entries = live;
        Ok(stats)
    }
}

/// The process-wide cache in the directory `PUNO_RESULT_CACHE` names (see
/// [`HostOptions`]), opened once per process; `None` when the knob is off
/// or the directory is unusable.
pub fn global_cache() -> Option<Arc<ResultCache>> {
    static CACHE: OnceLock<Option<Arc<ResultCache>>> = OnceLock::new();
    CACHE
        .get_or_init(|| {
            let dir = HostOptions::get().result_cache.as_ref()?;
            let cache = ResultCache::open(dir)
                .map_err(|e| {
                    eprintln!(
                        "warning: PUNO_RESULT_CACHE={} unusable ({e}); caching disabled",
                        dir.display()
                    )
                })
                .ok()?;
            Some(Arc::new(cache))
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::Mechanism;
    use crate::run::run_workload;
    use puno_workloads::{fnv1a_64, WorkloadId};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("puno-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A record as the schema type, its checksum computed the long way:
    /// FNV-1a over the joined string, which the folded `record_checksum`
    /// must reproduce.
    fn record(digest: u64, engine_version: u32, seed: u64, metrics: &RunMetrics) -> CacheRecord {
        let metrics_json = serde_json::to_string(metrics).unwrap();
        let (w, m) = (&metrics.workload, &metrics.mechanism);
        CacheRecord {
            digest,
            engine_version,
            workload: w.clone(),
            mechanism: m.clone(),
            seed,
            metrics: metrics.clone(),
            checksum: fnv1a_64(
                format!("cache|{digest}|v{engine_version}|{w}|{m}|{seed}|{metrics_json}")
                    .as_bytes(),
            ),
        }
    }

    #[test]
    fn stored_line_is_the_schema_types_json() {
        let dir = temp_dir("format");
        let params = WorkloadId::Ssca2.params().scaled(0.05);
        let config = SystemConfig::paper(Mechanism::Puno);
        let metrics = run_workload(Mechanism::Puno, &params, 9);
        let digest = cell_digest(&config, &params, 9);
        ResultCache::open(&dir)
            .unwrap()
            .store(digest, 0, 9, &metrics);
        let written = std::fs::read_to_string(ResultCache::results_path(&dir)).unwrap();
        let expected = serde_json::to_string(&record(digest, ENGINE_VERSION, 9, &metrics)).unwrap();
        assert_eq!(written, format!("{expected}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn split_fields_reads_only_the_compact_shape() {
        let line = r#"{"a":1,"b":"x\"y","c":{"d":[1,{"e":"}]"}],"f":null},"g":-2.5e3}"#;
        let fields = split_fields(line).expect("compact line splits");
        let text: Vec<(&str, &str)> = fields.iter().map(|(k, r)| (*k, &line[r.clone()])).collect();
        assert_eq!(
            text,
            [
                ("a", "1"),
                ("b", r#""x\"y""#),
                ("c", r#"{"d":[1,{"e":"}]"}],"f":null}"#),
                ("g", "-2.5e3"),
            ]
        );
        assert_eq!(split_fields("{}"), Some(Vec::new()));
        for outside in [
            r#"{"a": 1}"#,
            r#"{ "a":1}"#,
            r#"{"a":1} "#,
            r#"{"a":1}}"#,
            r#"{"a\u0062":1}"#,
            r#"{"a":{"b":1}"#,
            r#"{"a":{"b": 1}}"#,
            r#"{"a":}"#,
            r#"["a",1]"#,
            "",
        ] {
            assert_eq!(split_fields(outside), None, "{outside}");
        }
    }

    #[test]
    fn a_verified_record_that_fails_to_decode_is_dropped_at_lookup() {
        let dir = temp_dir("undecodable");
        std::fs::create_dir_all(&dir).unwrap();
        // Checksum-valid, current engine, but the metrics object is not a
        // `RunMetrics`: open cannot tell, the first lookup can.
        let metrics_json = r#"{"workload":"ssca2"}"#;
        let sum = fnv1a_64(
            format!("cache|7|v{ENGINE_VERSION}|ssca2|baseline|1|{metrics_json}").as_bytes(),
        );
        let line = format!(
            "{{\"digest\":7,\"engine_version\":{ENGINE_VERSION},\"workload\":\"ssca2\",\
             \"mechanism\":\"baseline\",\"seed\":1,\"metrics\":{metrics_json},\"checksum\":{sum}}}\n"
        );
        std::fs::write(ResultCache::results_path(&dir), line).unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!((cache.stats().entries, cache.stats().skips.corrupt), (1, 0));
        assert!(
            cache.lookup(7).is_none(),
            "an undecodable record never serves"
        );
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.skips.corrupt, stats.misses),
            (0, 1, 1)
        );
        assert!(cache.lookup(7).is_none());
        assert_eq!(cache.stats().skips.corrupt, 1, "counted once");
        let c = ResultCache::open(&dir).unwrap().compact().unwrap();
        assert_eq!((c.kept, c.corrupt), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let params = WorkloadId::Ssca2.params().scaled(0.05);
        let config = SystemConfig::paper(Mechanism::Baseline);
        let d = cell_digest(&config, &params, 42);
        assert_eq!(d, cell_digest(&config, &params, 42), "digest must be pure");

        // Every component of the cell identity must perturb the digest.
        let mut seen = vec![d];
        seen.push(cell_digest(&config, &params, 43));
        seen.push(cell_digest(
            &SystemConfig::paper(Mechanism::Puno),
            &params,
            42,
        ));
        seen.push(cell_digest(
            &config,
            &WorkloadId::Ssca2.params().scaled(0.1),
            42,
        ));
        seen.push(cell_digest(
            &config,
            &WorkloadId::Kmeans.params().scaled(0.05),
            42,
        ));
        let mut cfg2 = config;
        cfg2.commit_latency += 1;
        seen.push(cell_digest(&cfg2, &params, 42));
        let mut dedup = seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len(), "digest collision: {seen:?}");
    }

    #[test]
    fn store_then_lookup_roundtrips_bit_identically() {
        let dir = temp_dir("roundtrip");
        let params = WorkloadId::Ssca2.params().scaled(0.05);
        let config = SystemConfig::paper(Mechanism::Baseline);
        let metrics = run_workload(Mechanism::Baseline, &params, 9);
        let digest = cell_digest(&config, &params, 9);

        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.lookup(digest).is_none());
        cache.store(digest, 0, 9, &metrics);
        // Same process, memory-served.
        let replay = cache.lookup(digest).expect("stored cell must hit");
        assert_eq!(
            serde_json::to_string(&replay).unwrap(),
            serde_json::to_string(&metrics).unwrap(),
        );
        // Fresh open: disk-served (a new process would see this).
        let reopened = ResultCache::open(&dir).unwrap();
        let replay = reopened.lookup(digest).expect("persisted cell must hit");
        assert_eq!(
            serde_json::to_string(&replay).unwrap(),
            serde_json::to_string(&metrics).unwrap(),
        );
        assert_eq!(reopened.stats().entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_is_idempotent_per_digest() {
        let dir = temp_dir("idempotent");
        let params = WorkloadId::Ssca2.params().scaled(0.05);
        let config = SystemConfig::paper(Mechanism::Baseline);
        let metrics = run_workload(Mechanism::Baseline, &params, 9);
        let digest = cell_digest(&config, &params, 9);
        let cache = ResultCache::open(&dir).unwrap();
        cache.store(digest, 0, 9, &metrics);
        cache.store(digest, 0, 9, &metrics);
        cache.store(digest, 0, 9, &metrics);
        assert_eq!(cache.stats().stores, 1);
        let lines = std::fs::read_to_string(ResultCache::results_path(&dir))
            .unwrap()
            .lines()
            .count();
        assert_eq!(lines, 1, "duplicate digests must not grow the file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_is_skipped_on_load() {
        let dir = temp_dir("torn");
        let params = WorkloadId::Ssca2.params().scaled(0.05);
        let config = SystemConfig::paper(Mechanism::Baseline);
        let metrics = run_workload(Mechanism::Baseline, &params, 9);
        let digest = cell_digest(&config, &params, 9);
        {
            let cache = ResultCache::open(&dir).unwrap();
            cache.store(digest, 0, 9, &metrics);
        }
        // Simulate a crash mid-append.
        let path = ResultCache::results_path(&dir);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"digest\": 123, \"workl");
        std::fs::write(&path, text).unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.stats().entries, 1);
        assert!(cache.lookup(digest).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_is_skipped_counted_and_compacted_away() {
        let dir = temp_dir("midfile");
        let params = WorkloadId::Ssca2.params().scaled(0.05);
        let config = SystemConfig::paper(Mechanism::Baseline);
        let m1 = run_workload(Mechanism::Baseline, &params, 9);
        let m2 = run_workload(Mechanism::Baseline, &params, 10);
        let d1 = cell_digest(&config, &params, 9);
        let d2 = cell_digest(&config, &params, 10);
        {
            let cache = ResultCache::open(&dir).unwrap();
            cache.store(d1, 0, 9, &m1);
            cache.store(d2, 0, 10, &m2);
        }
        // Corrupt the FIRST record in place: the tampered line still parses
        // as JSON, so only the content checksum can catch it.
        let path = ResultCache::results_path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 2);
        let tampered = lines[0].replace("\"seed\":9", "\"seed\":8");
        assert_ne!(tampered, lines[0], "tamper site must exist");
        lines[0] = tampered;
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

        let cache = ResultCache::open(&dir).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.skips.corrupt, 1, "mid-file corruption must count");
        assert_eq!(stats.entries, 1);
        assert!(
            cache.lookup(d1).is_none(),
            "a checksum-failed record must never be served"
        );
        assert!(cache.lookup(d2).is_some(), "the healthy record survives");

        // Compaction drops the corrupt line for good.
        let c = cache.compact().unwrap();
        assert_eq!(c.kept, 1);
        assert_eq!(c.corrupt, 1);
        let reopened = ResultCache::open(&dir).unwrap();
        assert_eq!(reopened.stats().skips.corrupt, 0);
        assert_eq!(reopened.stats().entries, 1);
        assert!(reopened.lookup(d2).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_engine_version_records_are_skipped_and_compacted_away() {
        let dir = temp_dir("stale");
        let params = WorkloadId::Ssca2.params().scaled(0.05);
        let config = SystemConfig::paper(Mechanism::Baseline);
        let metrics = run_workload(Mechanism::Baseline, &params, 9);
        let digest = cell_digest(&config, &params, 9);
        {
            let cache = ResultCache::open(&dir).unwrap();
            cache.store(digest, 0, 9, &metrics);
        }
        // Craft a record from a future engine version with a checksum that
        // verifies for its own content: it must be skipped as stale, not
        // corrupt (and never served).
        let rec = record(0xDEAD, ENGINE_VERSION + 1, 9, &metrics);
        let path = ResultCache::results_path(&dir);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&serde_json::to_string(&rec).unwrap());
        text.push('\n');
        std::fs::write(&path, text).unwrap();

        let cache = ResultCache::open(&dir).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.skips.stale, 1);
        assert_eq!(stats.skips.corrupt, 0);
        assert!(cache.lookup(0xDEAD).is_none());
        let c = cache.compact().unwrap();
        assert_eq!(c.stale, 1);
        assert_eq!(c.kept, 1);
        assert_eq!(ResultCache::open(&dir).unwrap().stats().skips.stale, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_is_idempotent_and_preserves_hits() {
        let dir = temp_dir("compact-idem");
        let params = WorkloadId::Ssca2.params().scaled(0.05);
        let config = SystemConfig::paper(Mechanism::Baseline);
        let metrics = run_workload(Mechanism::Baseline, &params, 9);
        let digest = cell_digest(&config, &params, 9);
        let cache = ResultCache::open(&dir).unwrap();
        cache.store(digest, 0, 9, &metrics);
        let first = cache.compact().unwrap();
        assert_eq!(first.kept, 1);
        let again = cache.compact().unwrap();
        assert_eq!(again, first, "re-compacting a clean file changes nothing");
        // The same handle still serves (in-memory map refreshed) and the
        // re-pointed append handle still stores.
        assert!(cache.lookup(digest).is_some());
        let m2 = run_workload(Mechanism::Baseline, &params, 11);
        cache.store(cell_digest(&config, &params, 11), 0, 11, &m2);
        let reopened = ResultCache::open(&dir).unwrap();
        assert_eq!(reopened.stats().entries, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_locks_recover_instead_of_cascading() {
        let dir = temp_dir("poison");
        let params = WorkloadId::Ssca2.params().scaled(0.05);
        let config = SystemConfig::paper(Mechanism::Baseline);
        let metrics = run_workload(Mechanism::Baseline, &params, 9);
        let digest = cell_digest(&config, &params, 9);
        let cache = ResultCache::open(&dir).unwrap();
        cache.store(digest, 0, 9, &metrics);
        // Poison both mutexes the way a panicking worker would: the entry
        // map and the append handle's file lock.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _entries = cache.entries.lock().unwrap();
            let _file = cache.log.file_lock().lock();
            panic!("worker died holding the cache locks");
        }));
        assert!(cache.entries.is_poisoned(), "test must actually poison");
        assert!(cache.log.file_lock().is_poisoned());
        // Lookups, stores, stats, and compaction all still function.
        assert!(cache.lookup(digest).is_some());
        let m2 = run_workload(Mechanism::Baseline, &params, 12);
        let d2 = cell_digest(&config, &params, 12);
        cache.store(d2, 0, 12, &m2);
        assert!(cache.lookup(d2).is_some());
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.compact().unwrap().kept, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn four_chain_kernel_is_four_serial_folds() {
        let text: Vec<u8> = (0..300u32).map(|i| (i * 37 % 251) as u8).collect();
        let states = [FNV1A_64_OFFSET, 1, 0xDEAD_BEEF, u64::MAX];
        for lens in [
            [0, 0, 0, 0],
            [0, 5, 9, 300],
            [7, 7, 7, 7],
            [300, 299, 1, 0],
            [64, 200, 128, 3],
        ] {
            let chains =
                [0, 1, 2, 3].map(|k| &text[k * 3..k * 3 + lens[k].min(text.len() - k * 3)]);
            let serial = [0, 1, 2, 3].map(|k| fnv1a_64_fold(states[k], chains[k]));
            assert_eq!(fnv1a_64_fold_x4(states, chains), serial, "{lens:?}");
        }
    }

    /// Open the old way, one line at a time: every line split and its
    /// checksum folded serially, last record per key kept.
    fn serial_reference(text: &str) -> (Records<u64, String>, SkipStats) {
        store::load(text, |_, line| match RawRecord::parse(line) {
            Some(rec) if record_checksum(&rec.text) != rec.checksum => Class::Corrupt,
            Some(rec) if rec.engine_version != ENGINE_VERSION => Class::Stale,
            Some(rec) => Class::Valid(rec.digest, rec.text.metrics.to_string()),
            None => Class::Corrupt,
        })
    }

    /// Files of 1 to 9 records with one corrupt, stale or duplicate record
    /// at each position (so at every offset within, and across, the
    /// windows of four that open checks together): what open kept and
    /// skipped, and every lookup, match the serial reference.
    #[test]
    fn windowed_open_matches_a_serial_reference() {
        let dir = temp_dir("windowed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = ResultCache::results_path(&dir);
        let base = run_workload(
            Mechanism::Baseline,
            &WorkloadId::Ssca2.params().scaled(0.05),
            9,
        );
        let metrics = |k: u64| RunMetrics {
            cycles: base.cycles + k,
            ..base.clone()
        };
        let line = |digest: u64, k: u64| {
            let (line, _) = record_line(digest, 9, &metrics(k));
            line.trim_end().to_string()
        };
        for n in 1..=9u64 {
            for at in 0..n {
                for odd in ["corrupt", "torn", "stale", "duplicate"] {
                    let mut lines: Vec<String> = (0..n).map(|d| line(d, d)).collect();
                    lines[at as usize] = match odd {
                        "corrupt" => line(at, at).replacen("\"cycles\":", "\"cycles\":1", 1),
                        "torn" => line(at, at)[..40].to_string(),
                        "stale" => {
                            serde_json::to_string(&record(at, ENGINE_VERSION + 1, 9, &metrics(at)))
                                .unwrap()
                        }
                        _ => line((at + 1) % n, 100 + at),
                    };
                    let text = lines.join("\n") + "\n";
                    std::fs::write(&path, &text).unwrap();
                    let cache = ResultCache::open(&dir).unwrap();
                    let (reference, stats) = serial_reference(&text);
                    assert_eq!(cache.stats().skips, stats, "{n} records, {odd} at {at}");
                    for digest in 0..=n {
                        let got = cache
                            .lookup(digest)
                            .map(|m| serde_json::to_string(&m).unwrap());
                        assert_eq!(got.as_ref(), reference.get(&digest), "{n}, {odd} at {at}");
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
