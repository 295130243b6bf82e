//! DESIGN.md §9's metric catalog names every number the program emits, and
//! nothing else.
//!
//! The emitted names are derived from the emitting types themselves: a
//! serialized `RunMetrics` flattened two levels deep (`run.htm.commits`),
//! its host block (`host.*`) and telemetry sections (`telemetry.*`), a
//! `WarehouseRow`'s columns (`warehouse.*`) and `TraceChannel::ALL`
//! (`trace.*`). A field added to any of them fails this test until the
//! catalog names it and a reader, and each named reader file must mention
//! the name's last segment as a word, in any case (the check
//! `scripts/ci.sh` also makes with grep).

use puno_harness::{Mechanism, System, SystemConfig, TelemetryConfig, WarehouseRow};
use puno_sim::TraceChannel;
use puno_workloads::micro;
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;

/// The catalog rows of DESIGN.md §9: `(name, readers)` from each row's
/// first and last cells.
fn catalog() -> Vec<(String, String)> {
    let design = include_str!("../../../DESIGN.md");
    let section = design
        .split("\n### Metric catalog")
        .nth(1)
        .and_then(|s| s.split("\n#").next())
        .expect("DESIGN.md §9 has a metric catalog");
    section
        .lines()
        .filter(|line| line.starts_with("| `"))
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            let name = cells[0].trim_matches('`').to_string();
            (name, cells[cells.len() - 1].to_string())
        })
        .collect()
}

/// The names the catalog marks `unread`: emitted, but read by nothing that
/// counts as a reader (DESIGN.md §9 says why they stay). The list may only
/// shrink.
const UNREAD: [&str; 5] = [
    "run.seed",
    "warehouse.abort_blame",
    "warehouse.events_per_sec",
    "warehouse.false_abort_fraction",
    "warehouse.seed",
];

/// An object's fields, or nothing for any other value.
fn fields(value: &Value) -> &[(String, Value)] {
    match value {
        Value::Object(fields) => fields,
        _ => &[],
    }
}

/// Every name the program emits.
fn emitted() -> BTreeSet<String> {
    let mut sys = System::new(SystemConfig::paper(Mechanism::Puno), &micro::hotspot(2), 1);
    sys.enable_telemetry(TelemetryConfig::default());
    let run = sys.try_run_recycled().unwrap();
    let metrics = serde_json::to_value(&run).unwrap();
    let mut names = BTreeSet::new();
    for (key, value) in fields(&metrics) {
        let subs = fields(value);
        match key.as_str() {
            "host" | "telemetry" => {
                names.extend(subs.iter().map(|(sub, _)| format!("{key}.{sub}")))
            }
            _ if subs.is_empty() => {
                names.insert(format!("run.{key}"));
            }
            _ => names.extend(subs.iter().map(|(sub, _)| format!("run.{key}.{sub}"))),
        }
    }
    let row =
        serde_json::to_value(&WarehouseRow::from_metrics("run", 0, 0, "ok", false, &run)).unwrap();
    names.extend(
        fields(&row)
            .iter()
            .map(|(column, _)| format!("warehouse.{column}")),
    );
    names.extend(
        TraceChannel::ALL
            .iter()
            .map(|c| format!("trace.{}", c.name())),
    );
    names
}

#[test]
fn the_catalog_names_exactly_what_the_program_emits() {
    let rows = catalog();
    let catalogued: BTreeSet<String> = rows.iter().map(|(name, _)| name.clone()).collect();
    assert_eq!(catalogued.len(), rows.len(), "a name has two catalog rows");
    let emitted = emitted();
    let uncatalogued: Vec<&String> = emitted.difference(&catalogued).collect();
    let stale: Vec<&String> = catalogued.difference(&emitted).collect();
    assert!(
        uncatalogued.is_empty() && stale.is_empty(),
        "emitted but not in DESIGN.md §9's catalog: {uncatalogued:?}; \
         catalogued but no longer emitted: {stale:?}"
    );
    let unread: BTreeSet<&str> = rows
        .iter()
        .filter(|(_, readers)| readers == "unread")
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(
        unread,
        BTreeSet::from(UNREAD),
        "a catalogued name without a reader"
    );
    for (name, readers) in &rows {
        assert!(
            readers == "unread" || readers.starts_with('`'),
            "{name}: the last cell must list reader files or say unread, not {readers:?}"
        );
    }
}

/// Whether `text` holds `word` with no letter, digit or `_` on either side,
/// ignoring ASCII case.
fn mentions(text: &str, word: &str) -> bool {
    let (text, word) = (text.to_ascii_lowercase(), word.to_ascii_lowercase());
    let is_word = |c: Option<char>| c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    text.match_indices(&word).any(|(at, _)| {
        !is_word(text[..at].chars().next_back()) && !is_word(text[at + word.len()..].chars().next())
    })
}

#[test]
fn every_reader_file_mentions_the_name_it_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (name, readers) in catalog() {
        if readers == "unread" {
            continue;
        }
        let last = name.rsplit('.').next().unwrap();
        for file in readers.split('`').skip(1).step_by(2) {
            let text = std::fs::read_to_string(root.join(file))
                .unwrap_or_else(|e| panic!("{name}: reader {file}: {e}"));
            assert!(
                mentions(&text, last),
                "{name}: {file} does not mention {last}"
            );
        }
    }
}
