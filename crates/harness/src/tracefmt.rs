//! Trace stream formats: JSONL parsing/validation and the Chrome-trace
//! (Perfetto-loadable) exporter behind the `trace_export` binary.
//!
//! The simulator's JSONL sink writes one [`TraceRecord`] object per line.
//! This module turns such a stream back into records ([`parse_jsonl`]),
//! checks it against a channel filter ([`validate_jsonl`] — the CI traced
//! smoke), and converts it into the Chrome `traceEvents` JSON that
//! `chrome://tracing` and Perfetto load directly ([`chrome_trace`]):
//! transaction lifecycles become complete ("X") slices from `tx_begin` to
//! `tx_commit`/`tx_abort`, everything else becomes an instant event, and
//! the output is sorted so timestamps are monotonically non-decreasing.

use puno_sim::{ChannelMask, TraceChannel, TraceEvent, TraceRecord};
use serde::Value;
use std::collections::BTreeMap;

/// What [`validate_jsonl`] learned about a stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Parsed (non-empty) lines.
    pub lines: usize,
    /// Records per channel, indexed by [`TraceChannel::index`].
    pub per_channel: [u64; TraceChannel::ALL.len()],
    /// Cycle range covered by the stream (0..=0 when empty).
    pub first_cycle: u64,
    pub last_cycle: u64,
}

impl JsonlSummary {
    pub fn count(&self, ch: TraceChannel) -> u64 {
        self.per_channel[ch.index()]
    }
}

/// Parse a JSONL trace stream (one record per line; blank lines ignored).
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: TraceRecord = serde_json::from_str(line)
            .map_err(|e| format!("line {}: unparseable trace record: {e:?}", i + 1))?;
        records.push(rec);
    }
    Ok(records)
}

/// Validate a JSONL trace stream: every line must parse, every record's
/// tagged channel must match its event's channel, every channel must be in
/// `allowed`, and cycles must be non-decreasing (the writer appends in
/// event-loop order). Returns per-channel counts on success.
pub fn validate_jsonl(text: &str, allowed: ChannelMask) -> Result<JsonlSummary, String> {
    let records = parse_jsonl(text)?;
    let mut summary = JsonlSummary {
        lines: records.len(),
        ..JsonlSummary::default()
    };
    let mut prev = 0u64;
    for (i, rec) in records.iter().enumerate() {
        let ch = rec.event.channel();
        if rec.channel != ch {
            return Err(format!(
                "record {}: tagged channel {:?} but event {} is on {:?}",
                i + 1,
                rec.channel,
                rec.event.name(),
                ch
            ));
        }
        if !allowed.contains(ch) {
            return Err(format!(
                "record {}: channel {:?} not in filter {}",
                i + 1,
                ch,
                allowed.spec()
            ));
        }
        if rec.cycle < prev {
            return Err(format!(
                "record {}: cycle {} goes backwards (previous {prev})",
                i + 1,
                rec.cycle
            ));
        }
        prev = rec.cycle;
        summary.per_channel[ch.index()] += 1;
        if summary.lines > 0 && i == 0 {
            summary.first_cycle = rec.cycle;
        }
        summary.last_cycle = rec.cycle;
    }
    Ok(summary)
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn chrome_event(
    name: String,
    ph: &str,
    ts: u64,
    pid: u64,
    tid: u64,
    extra: Vec<(&str, Value)>,
) -> Value {
    let mut pairs = vec![
        ("name", Value::Str(name)),
        ("ph", Value::Str(ph.to_string())),
        ("ts", Value::U64(ts)),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(tid)),
    ];
    pairs.extend(extra);
    obj(pairs)
}

/// Convert trace records into Chrome-trace JSON (the object form with a
/// `traceEvents` array). One "process" per node; one "thread" per trace
/// channel (htm, coh, dir, noc, pred, fault). Transaction lifecycles are
/// rendered as complete slices; every other record becomes an instant with
/// the full event as `args`.
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    // (ts, seq) keyed so the output is sorted and stable.
    let mut events: Vec<(u64, Value)> = Vec::new();
    // node -> cycle the currently running transaction began at.
    let mut open: BTreeMap<u16, u64> = BTreeMap::new();
    for rec in records {
        let node = rec.event.node();
        let tid = rec.channel.index() as u64;
        match rec.event {
            TraceEvent::HtmBegin { .. } => {
                open.insert(node.0, rec.cycle);
            }
            TraceEvent::HtmCommit { .. } | TraceEvent::HtmAbort { .. } => {
                let args = serde::Serialize::to_json_value(&rec.event);
                if let Some(start) = open.remove(&node.0) {
                    events.push((
                        start,
                        chrome_event(
                            rec.event.name().to_string(),
                            "X",
                            start,
                            node.0 as u64,
                            tid,
                            vec![
                                ("dur", Value::U64(rec.cycle.saturating_sub(start))),
                                ("args", args),
                            ],
                        ),
                    ));
                } else {
                    // Terminal without a begin in the stream (ring wrapped
                    // or filtered): keep it visible as an instant.
                    events.push((
                        rec.cycle,
                        chrome_event(
                            rec.event.name().to_string(),
                            "i",
                            rec.cycle,
                            node.0 as u64,
                            tid,
                            vec![("s", Value::Str("t".to_string())), ("args", args)],
                        ),
                    ));
                }
            }
            _ => {
                let args = serde::Serialize::to_json_value(&rec.event);
                events.push((
                    rec.cycle,
                    chrome_event(
                        rec.event.name().to_string(),
                        "i",
                        rec.cycle,
                        node.0 as u64,
                        tid,
                        vec![("s", Value::Str("t".to_string())), ("args", args)],
                    ),
                ));
            }
        }
    }
    // A transaction still open at the end of the stream has no terminal
    // record; render its begin as an instant so nothing is dropped.
    for (&node, &start) in &open {
        events.push((
            start,
            chrome_event(
                "tx_begin".to_string(),
                "i",
                start,
                node as u64,
                TraceChannel::Htm.index() as u64,
                vec![("s", Value::Str("t".to_string()))],
            ),
        ));
    }
    events.sort_by_key(|(ts, _)| *ts);
    let doc = obj(vec![
        (
            "traceEvents",
            Value::Array(events.into_iter().map(|(_, v)| v).collect()),
        ),
        ("displayTimeUnit", Value::Str("ns".to_string())),
    ]);
    serde::to_json_string(&doc, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use puno_sim::{LineAddr, NodeId, TxId};

    fn rec(cycle: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            cycle,
            channel: event.channel(),
            event,
        }
    }

    fn sample() -> Vec<TraceRecord> {
        vec![
            rec(
                1,
                TraceEvent::HtmBegin {
                    node: NodeId(3),
                    tx: TxId(7),
                    static_tx: puno_sim::StaticTxId(0),
                    timestamp: puno_sim::Timestamp(48),
                    attempt: 0,
                },
            ),
            rec(
                2,
                TraceEvent::NocInject {
                    src: NodeId(3),
                    dst: NodeId(0),
                    vnet: 0,
                    flits: 1,
                },
            ),
            rec(
                9,
                TraceEvent::HtmCommit {
                    node: NodeId(3),
                    tx: TxId(7),
                    length: 8,
                },
            ),
        ]
    }

    fn to_jsonl(records: &[TraceRecord]) -> String {
        records
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect()
    }

    #[test]
    fn jsonl_round_trips() {
        let records = sample();
        let parsed = parse_jsonl(&to_jsonl(&records)).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn validation_checks_filter_and_order() {
        let text = to_jsonl(&sample());
        let summary = validate_jsonl(&text, ChannelMask::ALL).unwrap();
        assert_eq!(summary.lines, 3);
        assert_eq!(summary.count(TraceChannel::Htm), 2);
        assert_eq!(summary.count(TraceChannel::Noc), 1);
        assert_eq!((summary.first_cycle, summary.last_cycle), (1, 9));

        let htm_only = ChannelMask::NONE.with(TraceChannel::Htm);
        let err = validate_jsonl(&text, htm_only).unwrap_err();
        assert!(err.contains("not in filter"), "{err}");

        let mut backwards = sample();
        backwards[2].cycle = 0;
        let err = validate_jsonl(&to_jsonl(&backwards), ChannelMask::ALL).unwrap_err();
        assert!(err.contains("goes backwards"), "{err}");
    }

    #[test]
    fn chrome_trace_is_sorted_and_renders_slices() {
        let json = chrome_trace(&sample());
        let doc: Value = serde_json::from_str(&json).expect("exporter must emit valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2, "begin+commit fold into one slice");
        let mut prev = 0u64;
        let mut slices = 0;
        for ev in events {
            let ts = match ev.get("ts").unwrap() {
                Value::U64(n) => *n,
                other => panic!("ts must be unsigned, got {other:?}"),
            };
            assert!(ts >= prev, "timestamps must be non-decreasing");
            prev = ts;
            if matches!(ev.get("ph"), Some(Value::Str(ph)) if ph == "X") {
                slices += 1;
                assert_eq!(ev.get("dur"), Some(&Value::U64(8)));
            }
        }
        assert_eq!(slices, 1);
    }

    #[test]
    fn unmatched_terminal_degrades_to_instant() {
        let lone = vec![rec(
            4,
            TraceEvent::HtmAbort {
                node: NodeId(1),
                tx: TxId(2),
                cause: puno_sim::AbortCauseCode::TxReadConflict,
                by: Some(NodeId(0)),
                addr: Some(LineAddr(0x10)),
                discarded: 3,
            },
        )];
        let json = chrome_trace(&lone);
        let doc: Value = serde_json::from_str(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph"), Some(&Value::Str("i".to_string())));
    }
}
