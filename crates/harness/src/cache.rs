//! Persistent result cache and sweep cost model.
//!
//! Every simulated cell is a pure function of `(SystemConfig, WorkloadParams,
//! seed)` — so once a cell has run, re-running it (another `regen_all.sh`
//! figure binary, a resumed sweep, a sensitivity point sharing a
//! configuration) is pure waste. The [`ResultCache`] memoizes fault-free
//! successful runs in an append-only JSONL file keyed by a content digest of
//! the full cell identity plus [`ENGINE_VERSION`]; bumping the version
//! invalidates every cached cell at once, which is the required response to
//! *any* change in simulated behaviour (the golden snapshots catch those).
//!
//! Alongside the results, the cache directory accumulates per-cell host
//! wall-clocks (`costs.jsonl`). The [`CostModel`] folds them into
//! per-(workload, mechanism) per-transaction cost estimates used by the
//! sweep driver to order its job queue longest-first (LPT), so the most
//! expensive cells start first and stragglers do not serialize the tail.

use crate::config::SystemConfig;
use crate::knobs::env_setting;
use crate::metrics::RunMetrics;
use puno_workloads::{fnv1a_64, fnv1a_64_fold, WorkloadParams, FNV1A_64_OFFSET};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Version of the simulation engine for cache-key purposes. Bump on ANY
/// change that can alter a `RunMetrics` field for some cell — the digest
/// covers the configuration and workload inputs, but only this constant
/// covers the code. (The golden snapshot suite is the detector: if it needs
/// a re-bless, this needs a bump.)
pub const ENGINE_VERSION: u32 = 4;

/// Content digest identifying one simulation cell: the full system
/// configuration, the workload parameters, the seed, and the engine
/// version, hashed FNV-1a over their canonical `Debug` representations
/// (every field of both structs appears in `Debug`, so any perturbation —
/// including ones that cannot change behaviour, which merely over-
/// invalidates — changes the digest).
pub fn cell_digest(config: &SystemConfig, params: &WorkloadParams, seed: u64) -> u64 {
    let repr = format!("engine-v{ENGINE_VERSION}|{config:?}|{params:?}|seed={seed}");
    fnv1a_64(repr.as_bytes())
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
        t.metrics,
    ]
    .iter()
    .fold(FNV1A_64_OFFSET, |h, piece| {
        fnv1a_64_fold(h, piece.as_bytes())
    })
}

/// The persisted line for one cell: [`CacheRecord`]'s compact JSON, built
/// around the single serialization of `metrics` that its checksum covers,
/// so the `metrics` span as written is the checksummed text.
fn record_line(digest: u64, seed: u64, metrics: &RunMetrics) -> String {
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
    format!(
        "{{\"digest\":{digest},\"engine_version\":{ENGINE_VERSION},\"workload\":{},\
         \"mechanism\":{},\"seed\":{seed},\"metrics\":{metrics_json},\"checksum\":{checksum}}}",
        quoted(&metrics.workload),
        quoted(&metrics.mechanism),
    )
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
/// covers those bytes, and decoding them goes through the strict parser).
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

/// Index just past the JSON string opening at `bytes[start]`.
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

/// Index just past the JSON value starting at `bytes[start]`.
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

/// A canonical decimal: digits only, no sign, no leading zero.
fn decimal<T: std::str::FromStr>(text: &str) -> Option<T> {
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

    fn checksum_valid(&self) -> bool {
        record_checksum(&self.text) == self.checksum
    }
}

/// How one persisted line classified on load.
enum LineClass<'a> {
    Valid(RawRecord<'a>),
    Stale,
    Corrupt,
}

/// The one classifier `open` and `compact` share: a line is valid only if
/// it has the writer's shape and its checksum verifies against the bytes
/// as they sit in the line. Nothing is decoded here.
fn classify_line(line: &str) -> LineClass<'_> {
    match RawRecord::parse(line) {
        Some(rec) if !rec.checksum_valid() => LineClass::Corrupt,
        Some(rec) if rec.engine_version != ENGINE_VERSION => LineClass::Stale,
        Some(rec) => LineClass::Valid(rec),
        None => LineClass::Corrupt,
    }
}

/// `results.jsonl` as text, empty when absent. Invalid UTF-8 is replaced
/// instead of failing the whole read, so a flipped byte costs only the
/// line it is on (whose checksum then fails).
fn read_text(path: &Path) -> String {
    match std::fs::read(path) {
        Ok(bytes) => String::from_utf8(bytes)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
        Err(_) => String::new(),
    }
}

/// The non-blank lines of `text`, each with its byte offset.
fn record_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.split('\n')
        .scan(0, |offset, line| {
            let at = *offset;
            *offset += line.len() + 1;
            Some((at, line.strip_suffix('\r').unwrap_or(line)))
        })
        .filter(|(_, line)| !line.trim().is_empty())
}

/// One persisted cost observation (one JSONL line in `costs.jsonl`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CostRecord {
    pub workload: String,
    pub mechanism: String,
    /// Transactions per node of the observed run — wall-clock is stored
    /// alongside it so the model learns a *per-transaction* cost and stays
    /// scale-invariant across sweeps at different `--scale` values.
    pub tx_per_node: u32,
    pub wall_secs: f64,
}

/// Cache hit/miss/store counters (host-side observability only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub stores: u64,
    pub entries: u64,
    /// Records skipped because they were not in the writer's shape or their
    /// content checksum did not verify (anywhere in the file), counted at
    /// open, plus verified records whose metrics failed to decode, counted
    /// at the lookup that tried.
    pub corrupt_skipped: u64,
    /// Records skipped at open because they were written by another
    /// `ENGINE_VERSION`.
    pub stale_skipped: u64,
}

/// What [`ResultCache::compact`] did to the persisted file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Live records written back.
    pub kept: u64,
    /// Lines dropped because they failed to verify or decode.
    pub dropped_corrupt: u64,
    /// Records dropped because of an `ENGINE_VERSION` mismatch.
    pub dropped_stale: u64,
    /// Superseded duplicates collapsed by last-wins dedup.
    pub dropped_duplicate: u64,
}

/// One live cell in memory.
#[derive(Debug)]
enum Entry {
    /// A checksum-verified `metrics` object, as a byte range of the text
    /// read at open; decoded by the first lookup that wants it.
    Raw(Range<usize>),
    Decoded(Box<RunMetrics>),
}

/// Append-only persistent store of fault-free run results, keyed by
/// [`cell_digest`]. Verifies the whole JSONL file at open (last record
/// wins; torn, tampered and stale lines skipped) but decodes a record only
/// when it is first looked up, then serves it from memory; new results are
/// appended as they complete. Thread-safe: the sweep's worker threads share
/// one instance.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    /// `results.jsonl` as read at open: the one copy every `Entry::Raw`
    /// range points into.
    text: String,
    entries: Mutex<HashMap<u64, Entry>>,
    file: Mutex<std::fs::File>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt_skipped: AtomicU64,
    stale_skipped: u64,
    /// What the most recent [`ResultCache::compact`] on this handle did —
    /// kept so the sweep report and the metrics registry can surface
    /// maintenance that previously only flashed by on stderr.
    last_compact: Mutex<Option<CompactStats>>,
}

impl ResultCache {
    fn results_path(dir: &Path) -> PathBuf {
        dir.join("results.jsonl")
    }

    fn costs_path(&self) -> PathBuf {
        self.dir.join("costs.jsonl")
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
        let text = read_text(&path);
        let mut entries = HashMap::new();
        let mut corrupt_skipped = 0u64;
        let mut stale_skipped = 0u64;
        for (at, line) in record_lines(&text) {
            match classify_line(line) {
                LineClass::Valid(rec) => {
                    let span = at + rec.metrics.start..at + rec.metrics.end;
                    entries.insert(rec.digest, Entry::Raw(span));
                }
                LineClass::Stale => stale_skipped += 1,
                LineClass::Corrupt => corrupt_skipped += 1,
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            text,
            entries: Mutex::new(entries),
            file: Mutex::new(file),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            corrupt_skipped: AtomicU64::new(corrupt_skipped),
            stale_skipped,
            last_compact: Mutex::new(None),
        })
    }

    /// Poisoning-tolerant lock access: a worker that panicked mid-`store`
    /// cannot corrupt the map (every mutation is a single `insert` or
    /// `remove`), so the poison flag is noise — recover the guard instead
    /// of cascading the panic into every later caller.
    fn lock_entries(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_file(&self) -> std::sync::MutexGuard<'_, std::fs::File> {
        self.file.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look a cell up by digest; counts a hit or a miss.
    pub fn lookup(&self, digest: u64) -> Option<RunMetrics> {
        let found = self.get(digest);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// The metrics stored under `digest`, decoding a raw entry on its first
    /// lookup. Decoding runs outside the map lock; its result is memoized
    /// only if the entry is still the raw span that was decoded. A record
    /// that verified at open but does not decode is dropped and counted as
    /// corrupt, and the lookup misses.
    fn get(&self, digest: u64) -> Option<RunMetrics> {
        let span = match self.lock_entries().get(&digest)? {
            Entry::Decoded(metrics) => return Some(RunMetrics::clone(metrics)),
            Entry::Raw(span) => span.clone(),
        };
        let decoded = serde_json::from_str::<RunMetrics>(&self.text[span.clone()]);
        let mut entries = self.lock_entries();
        let still_raw = matches!(entries.get(&digest), Some(Entry::Raw(s)) if *s == span);
        match decoded {
            Ok(metrics) => {
                if still_raw {
                    entries.insert(digest, Entry::Decoded(Box::new(metrics.clone())));
                }
                Some(metrics)
            }
            Err(_) => {
                if still_raw {
                    entries.remove(&digest);
                    self.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Persist one finished cell under its cell digest. Idempotent per
    /// digest: a digest already in memory is not re-appended (keeps warm
    /// re-runs from growing the file).
    ///
    /// `_group` is ignored. It carried the retired prefix-fork group key and
    /// stays only so the separately versioned `benchmark/` crate keeps
    /// building; drop it together with that caller's argument.
    pub fn store(&self, digest: u64, _group: u64, seed: u64, metrics: &RunMetrics) {
        {
            let mut entries = self.lock_entries();
            if entries.contains_key(&digest) {
                return;
            }
            entries.insert(digest, Entry::Decoded(Box::new(metrics.clone())));
        }
        let line = record_line(digest, seed, metrics);
        let mut f = self.lock_file();
        let _ = writeln!(f, "{line}");
        let _ = f.flush();
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            entries: self.lock_entries().len() as u64,
            corrupt_skipped: self.corrupt_skipped.load(Ordering::Relaxed),
            stale_skipped: self.stale_skipped,
        }
    }

    /// Rewrite `results.jsonl` keeping only current-engine, checksum-valid
    /// records (last-wins deduped) that decode, dropping corrupt and stale
    /// lines for good. Only the kept records are decoded, and each is
    /// rebuilt in this build's shape. The rewrite goes through a temp file
    /// and an atomic rename, the append handle is re-pointed at the new
    /// file, and the in-memory map is refreshed from what was kept — so a
    /// compact mid-process never loses a record another thread just stored
    /// (both locks are held across the swap).
    pub fn compact(&self) -> std::io::Result<CompactStats> {
        let mut entries = self.lock_entries();
        let mut file = self.lock_file();
        let path = Self::results_path(&self.dir);
        let mut stats = CompactStats::default();
        // Last-wins over the persisted lines, preserving first-seen order
        // so a compacted file is deterministic for a given input.
        let text = read_text(&path);
        let mut kept: Vec<RawRecord> = Vec::new();
        let mut index_of: HashMap<u64, usize> = HashMap::new();
        for (_, line) in record_lines(&text) {
            match classify_line(line) {
                LineClass::Valid(rec) => match index_of.get(&rec.digest) {
                    Some(&i) => {
                        stats.dropped_duplicate += 1;
                        kept[i] = rec;
                    }
                    None => {
                        index_of.insert(rec.digest, kept.len());
                        kept.push(rec);
                    }
                },
                LineClass::Stale => stats.dropped_stale += 1,
                LineClass::Corrupt => stats.dropped_corrupt += 1,
            }
        }
        let mut live = HashMap::new();
        let tmp = self.dir.join("results.jsonl.tmp");
        {
            let mut out = std::fs::File::create(&tmp)?;
            for rec in &kept {
                let Ok(metrics) = serde_json::from_str::<RunMetrics>(rec.text.metrics) else {
                    stats.dropped_corrupt += 1;
                    continue;
                };
                writeln!(out, "{}", record_line(rec.digest, rec.seed, &metrics))?;
                live.insert(rec.digest, Entry::Decoded(Box::new(metrics)));
            }
            out.flush()?;
        }
        stats.kept = live.len() as u64;
        std::fs::rename(&tmp, &path)?;
        *file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        *entries = live;
        *self.last_compact.lock().unwrap_or_else(|e| e.into_inner()) = Some(stats);
        Ok(stats)
    }

    /// What the most recent [`ResultCache::compact`] on this handle did
    /// (`None` if it never ran). The compaction performed at open by
    /// `PUNO_RESULT_CACHE_COMPACT` lands here too, so a sweep can report
    /// maintenance it did not itself trigger.
    pub fn last_compact(&self) -> Option<CompactStats> {
        *self.last_compact.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fold the persisted cost observations into a [`CostModel`].
    pub fn load_costs(&self) -> CostModel {
        let mut model = CostModel::default();
        if let Ok(text) = std::fs::read_to_string(self.costs_path()) {
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                if let Ok(rec) = serde_json::from_str::<CostRecord>(line) {
                    model.observe(
                        &rec.workload,
                        &rec.mechanism,
                        rec.tx_per_node,
                        rec.wall_secs,
                    );
                }
            }
        }
        model
    }

    /// Append cost observations from a finished sweep.
    pub fn append_costs(&self, records: &[CostRecord]) {
        if records.is_empty() {
            return;
        }
        let mut out = String::new();
        for rec in records {
            let line = serde_json::to_string(rec).expect("cost record must serialize");
            out.push_str(&line);
            out.push('\n');
        }
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.costs_path())
        {
            let _ = f.write_all(out.as_bytes());
        }
    }
}

/// The process-wide cache configured by the `PUNO_RESULT_CACHE` environment
/// variable (a directory path; an off value, see
/// [`crate::knobs::parse_setting`], disables it). Resolved once per
/// process: scripts set the variable before launch. With
/// `PUNO_RESULT_CACHE_COMPACT` additionally set to an on value, the
/// persisted file is compacted at open — corrupt, stale-version, and
/// superseded records are rewritten away (summary on stderr).
pub fn global_cache() -> Option<Arc<ResultCache>> {
    static CACHE: OnceLock<Option<Arc<ResultCache>>> = OnceLock::new();
    CACHE
        .get_or_init(|| {
            let dir = env_setting("PUNO_RESULT_CACHE")?;
            match ResultCache::open(Path::new(&dir)) {
                Ok(cache) => {
                    if env_setting("PUNO_RESULT_CACHE_COMPACT").is_some() {
                        match cache.compact() {
                            Ok(c) => eprintln!(
                                "result cache compacted: {} kept, {} corrupt, {} stale, \
                                 {} duplicate dropped",
                                c.kept, c.dropped_corrupt, c.dropped_stale, c.dropped_duplicate
                            ),
                            Err(e) => {
                                eprintln!("warning: result cache compaction failed: {e}")
                            }
                        }
                    }
                    Some(Arc::new(cache))
                }
                Err(e) => {
                    eprintln!("warning: PUNO_RESULT_CACHE={dir} unusable ({e}); caching disabled");
                    None
                }
            }
        })
        .clone()
}

/// Per-(workload, mechanism) cost estimator for sweep job ordering. Learned
/// observations dominate; cells never seen before fall back to a
/// parameter-derived heuristic (expected transactional operations per run),
/// scaled into pseudo-seconds so mixed observed/heuristic queues still
/// order sensibly. Only *relative* order matters to the scheduler.
#[derive(Clone, Debug, Default)]
pub struct CostModel {
    /// (workload, mechanism) -> (sum of per-transaction wall secs, count).
    per_tx: HashMap<(String, String), (f64, u64)>,
}

/// Rough host seconds per simulated transactional operation (heuristic
/// fallback scale; commensurate with observed costs only to first order).
const HEURISTIC_SECS_PER_OP: f64 = 2e-6;

impl CostModel {
    /// Record one observed cell wall-clock.
    pub fn observe(&mut self, workload: &str, mechanism: &str, tx_per_node: u32, wall_secs: f64) {
        if tx_per_node == 0 || !wall_secs.is_finite() || wall_secs <= 0.0 {
            return;
        }
        let entry = self
            .per_tx
            .entry((workload.to_string(), mechanism.to_string()))
            .or_insert((0.0, 0));
        entry.0 += wall_secs / tx_per_node as f64;
        entry.1 += 1;
    }

    /// Estimated wall-clock for one cell, in (pseudo-)seconds.
    pub fn estimate(&self, workload: &str, mechanism: &str, params: &WorkloadParams) -> f64 {
        let key = (workload.to_string(), mechanism.to_string());
        if let Some(&(sum, n)) = self.per_tx.get(&key) {
            if n > 0 {
                return (sum / n as f64) * params.tx_per_node as f64;
            }
        }
        Self::heuristic(params)
    }

    /// Parameter-derived fallback: expected transactional + non-transactional
    /// operations per node-run, scaled to pseudo-seconds.
    fn heuristic(params: &WorkloadParams) -> f64 {
        let weight_sum: f64 = params
            .static_txs
            .iter()
            .map(|t| t.weight)
            .sum::<f64>()
            .max(1e-9);
        let ops_per_tx: f64 = params
            .static_txs
            .iter()
            .map(|t| {
                let reads = (t.reads.0 + t.reads.1) as f64 / 2.0;
                let writes = (t.writes.0 + t.writes.1) as f64 / 2.0;
                t.weight * (reads + writes)
            })
            .sum::<f64>()
            / weight_sum;
        let ops = params.tx_per_node as f64 * (ops_per_tx + params.non_tx_accesses as f64);
        ops * HEURISTIC_SECS_PER_OP
    }

    pub fn observation_count(&self) -> u64 {
        self.per_tx.values().map(|&(_, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::Mechanism;
    use crate::run::run_workload;
    use puno_workloads::WorkloadId;

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
        assert_eq!(
            (cache.stats().entries, cache.stats().corrupt_skipped),
            (1, 0)
        );
        assert!(
            cache.lookup(7).is_none(),
            "an undecodable record never serves"
        );
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.corrupt_skipped, stats.misses),
            (0, 1, 1)
        );
        assert!(cache.lookup(7).is_none());
        assert_eq!(cache.stats().corrupt_skipped, 1, "counted once");
        let c = ResultCache::open(&dir).unwrap().compact().unwrap();
        assert_eq!((c.kept, c.dropped_corrupt), (0, 1));
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
        assert_eq!(stats.corrupt_skipped, 1, "mid-file corruption must count");
        assert_eq!(stats.entries, 1);
        assert!(
            cache.lookup(d1).is_none(),
            "a checksum-failed record must never be served"
        );
        assert!(cache.lookup(d2).is_some(), "the healthy record survives");

        // Compaction drops the corrupt line for good.
        let c = cache.compact().unwrap();
        assert_eq!(c.kept, 1);
        assert_eq!(c.dropped_corrupt, 1);
        let reopened = ResultCache::open(&dir).unwrap();
        assert_eq!(reopened.stats().corrupt_skipped, 0);
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
        assert_eq!(stats.stale_skipped, 1);
        assert_eq!(stats.corrupt_skipped, 0);
        assert!(cache.lookup(0xDEAD).is_none());
        let c = cache.compact().unwrap();
        assert_eq!(c.dropped_stale, 1);
        assert_eq!(c.kept, 1);
        assert_eq!(ResultCache::open(&dir).unwrap().stats().stale_skipped, 0);
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
        // Poison both mutexes the way a panicking worker would.
        for _ in 0..2 {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _entries = cache.entries.lock().unwrap();
                let _file = cache.file.lock();
                panic!("worker died holding the cache locks");
            }));
        }
        assert!(cache.entries.is_poisoned(), "test must actually poison");
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
    fn cost_model_learns_per_transaction_costs() {
        let mut model = CostModel::default();
        let params_small = WorkloadId::Genome.params().scaled(0.05);
        let params_large = WorkloadId::Genome.params().scaled(0.5);
        // Heuristic fallback scales with tx_per_node.
        let h_small = model.estimate("genome", "baseline", &params_small);
        let h_large = model.estimate("genome", "baseline", &params_large);
        assert!(h_large > h_small);

        // An observation at one scale predicts proportionally at another.
        model.observe("genome", "baseline", params_small.tx_per_node, 2.0);
        let per_tx = 2.0 / params_small.tx_per_node as f64;
        let predicted = model.estimate("genome", "baseline", &params_large);
        let expected = per_tx * params_large.tx_per_node as f64;
        assert!((predicted - expected).abs() < 1e-9);
        assert_eq!(model.observation_count(), 1);
    }

    #[test]
    fn costs_persist_through_the_cache_dir() {
        let dir = temp_dir("costs");
        let cache = ResultCache::open(&dir).unwrap();
        cache.append_costs(&[CostRecord {
            workload: "genome".into(),
            mechanism: "puno".into(),
            tx_per_node: 100,
            wall_secs: 3.0,
        }]);
        let model = ResultCache::open(&dir).unwrap().load_costs();
        assert_eq!(model.observation_count(), 1);
        let params = WorkloadId::Genome.params();
        let est = model.estimate("genome", "puno", &params);
        assert!((est - 0.03 * params.tx_per_node as f64).abs() < 1e-9);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
