//! The record store's file mechanics, independent of any record format:
//! line iteration, classification and last-wins dedup, and the append
//! handle's atomic rewrite.

use puno_harness::store::{self, Appender, Class, Records, SkipStats};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("puno-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A toy format: `k=v` with a one-letter key is valid, `old=…` is stale,
/// anything else is corrupt.
fn parse(_: usize, line: &str) -> Class<char, String> {
    match line.split_once('=') {
        Some(("old", _)) => Class::Stale,
        Some((k, v)) if k.len() == 1 => Class::Valid(k.chars().next().unwrap(), v.into()),
        _ => Class::Corrupt,
    }
}

#[test]
fn load_dedups_last_wins_in_first_seen_order() {
    let text = "a=1\nb=2\r\n\n  \nold=x\na=3\nbroken\nc=4";
    let (records, stats) = store::load(text, parse);
    assert_eq!(
        stats,
        SkipStats {
            kept: 3,
            corrupt: 1,
            stale: 1,
            duplicate: 1
        }
    );
    assert_eq!(records.into_values().collect::<Vec<_>>(), ["3", "2", "4"]);
}

#[test]
fn lines_carry_byte_offsets() {
    let text = "ab\n\ncd\r\nef";
    let got: Vec<(usize, &str)> = store::lines(text).collect();
    assert_eq!(got, [(0, "ab"), (4, "cd"), (8, "ef")]);
}

#[test]
fn removed_records_leave_the_order_of_the_rest() {
    let mut records = Records::default();
    for (k, v) in [(1, "a"), (2, "b"), (3, "c")] {
        records.insert(k, v);
    }
    assert_eq!(records.remove(&2), Some("b"));
    assert_eq!(records.remove(&2), None);
    assert!(records.get(&2).is_none() && records.get(&3) == Some(&"c"));
    assert!(!records.insert(2, "d"), "a removed key is new again");
    assert_eq!(records.len(), 3);
    assert_eq!(records.into_values().collect::<Vec<_>>(), ["a", "c", "d"]);
}

#[test]
fn rewrite_swaps_the_file_and_repoints_appends() {
    let dir = scratch("rewrite");
    let path = dir.join("x.jsonl");
    let log = Appender::open(&path).unwrap();
    log.append("a=1\nb=2\n").unwrap();
    log.rewrite(|text| text.replace("a=1\n", "")).unwrap();
    log.append("c=3\n").unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "b=2\nc=3\n");
    assert!(!dir.join("x.jsonl.tmp").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
