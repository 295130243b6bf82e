//! The record store: the file mechanics of both append-only JSONL files
//! the harness keeps — the result cache (`results.jsonl`, see
//! [`crate::cache`]) and the warehouse (`warehouse.jsonl`, see
//! [`crate::warehouse`]). What a line means — its shape, checksum and key —
//! stays with its format, which supplies the classifier.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::Hash;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// What a load or a rewrite kept and skipped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Live records.
    pub kept: u64,
    /// Lines outside the format's shape, failing their checksum, or
    /// failing to decode.
    pub corrupt: u64,
    /// Verified records written by another engine or schema version.
    pub stale: u64,
    /// Records superseded by a later line with the same key.
    pub duplicate: u64,
}

/// How a format classified one line.
pub enum Class<K, V> {
    Valid(K, V),
    Stale,
    Corrupt,
}

impl<K, V> Class<K, V> {
    /// The same class, holding `keep` of a valid record's value.
    pub fn map<W>(self, keep: impl FnOnce(V) -> W) -> Class<K, W> {
        match self {
            Class::Valid(key, value) => Class::Valid(key, keep(value)),
            Class::Stale => Class::Stale,
            Class::Corrupt => Class::Corrupt,
        }
    }
}

/// Poison-tolerant lock, for data that every critical section leaves valid
/// (a single insert, remove, push or write): a worker that panicked holding
/// the lock left nothing half-done, so recover the guard instead of
/// cascading the panic into every later caller.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A record file as text, empty when absent. Invalid UTF-8 is replaced
/// instead of failing the whole read, so a flipped byte costs only the
/// line it is on.
pub fn read(path: &Path) -> String {
    let bytes = std::fs::read(path).unwrap_or_default();
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// `records` as JSONL: one compact JSON line each, newline-terminated.
pub fn to_jsonl<T: serde::Serialize>(records: &[T]) -> String {
    records
        .iter()
        .map(|rec| serde_json::to_string(rec).expect("records serialize") + "\n")
        .collect()
}

/// The non-blank lines of `text`, each with its byte offset.
pub fn lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.split('\n')
        .scan(0, |offset, line| {
            let at = *offset;
            *offset += line.len() + 1;
            Some((at, line.strip_suffix('\r').unwrap_or(line)))
        })
        .filter(|(_, line)| !line.trim().is_empty())
}

/// Classify every line of `text` (`classify` gets each line with its byte
/// offset) and keep the valid records, last-wins per key.
pub fn load<'t, K: Eq + Hash, V>(
    text: &'t str,
    mut classify: impl FnMut(usize, &'t str) -> Class<K, V>,
) -> (Records<K, V>, SkipStats) {
    tally(lines(text).map(|(at, line)| classify(at, line)))
}

/// Keep the valid records of `classes`, one class per line in file order,
/// last-wins per key, and count what was skipped: [`load`] for a format
/// that classifies its lines itself.
pub fn tally<K: Eq + Hash, V>(
    classes: impl IntoIterator<Item = Class<K, V>>,
) -> (Records<K, V>, SkipStats) {
    let mut records = Records::default();
    let mut stats = SkipStats::default();
    for class in classes {
        match class {
            Class::Valid(key, value) => stats.duplicate += u64::from(records.insert(key, value)),
            Class::Stale => stats.stale += 1,
            Class::Corrupt => stats.corrupt += 1,
        }
    }
    stats.kept = records.len() as u64;
    (records, stats)
}

/// Live records, one per key, in the order each key was first seen.
#[derive(Debug)]
pub struct Records<K, V> {
    slots: Vec<Option<V>>,
    index: HashMap<K, usize>,
}

impl<K, V> Default for Records<K, V> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl<K: Eq + Hash, V> Records<K, V> {
    /// Insert or replace in place; true when a live record was replaced.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        match self.index.entry(key) {
            Entry::Occupied(at) => {
                self.slots[*at.get()] = Some(value);
                true
            }
            Entry::Vacant(at) => {
                at.insert(self.slots.len());
                self.slots.push(Some(value));
                false
            }
        }
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        self.slots[*self.index.get(key)?].as_ref()
    }

    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.slots[self.index.remove(key)?].take()
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The live records in first-seen order.
    pub fn into_values(self) -> impl Iterator<Item = V> {
        self.slots.into_iter().flatten()
    }
}

/// The append handle of one record file.
#[derive(Debug)]
pub struct Appender {
    path: PathBuf,
    file: Mutex<File>,
}

fn open_append(path: &Path) -> std::io::Result<File> {
    OpenOptions::new().create(true).append(true).open(path)
}

impl Appender {
    /// Open `path` for appending, creating it if needed.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            path: path.to_path_buf(),
            file: Mutex::new(open_append(path)?),
        })
    }

    /// Append `text` (whole lines, newline-terminated) in one write and
    /// flush.
    pub fn append(&self, text: &str) -> std::io::Result<()> {
        let mut file = lock(&self.file);
        file.write_all(text.as_bytes())?;
        file.flush()
    }

    /// Replace the whole file with `edit` of its current text through a
    /// temp file and an atomic rename, then re-point the append handle at
    /// the new file, and return the new text. The handle's lock is held
    /// from the read to the swap, so no append can land in the old file
    /// after it was read.
    pub fn rewrite(&self, edit: impl FnOnce(&str) -> String) -> std::io::Result<String> {
        let mut file = lock(&self.file);
        let tmp = self.path.with_extension("jsonl.tmp");
        let text = edit(&read(&self.path));
        std::fs::write(&tmp, &text)?;
        std::fs::rename(&tmp, &self.path)?;
        *file = open_append(&self.path)?;
        Ok(text)
    }
}

#[cfg(test)]
impl Appender {
    /// The handle's file lock, for tests that poison it.
    pub(crate) fn file_lock(&self) -> &Mutex<File> {
        &self.file
    }
}
