//! Typed, channel-filtered event tracing.
//!
//! Every observable protocol action is a [`TraceEvent`] tagged with a
//! [`TraceChannel`]. A [`Tracer`] filters events through a [`ChannelMask`]
//! (selectable at runtime via `PUNO_TRACE=htm,coh,...`) and fans the
//! survivors out to two sinks:
//!
//! * a bounded [`TraceRing`] keeping the last N events (what you want when
//!   a protocol assertion fires two hundred million cycles into a run —
//!   the ring still feeds `RunError` deadlock/livelock dumps), and
//! * an optional streaming JSONL writer, one [`TraceRecord`] per line,
//!   which the `trace_export` tool turns into a Chrome-trace timeline.
//!
//! Tracing is off by default and must stay zero-cost when off: emission
//! sites check the mask *before* constructing an event, so a disabled
//! tracer costs one branch per site.

use crate::clock::{Cycle, Cycles};
use crate::fault::FaultKind;
use crate::ids::{LineAddr, NodeId, StaticTxId, Timestamp, TxId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Default ring capacity for environment-enabled tracing.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// Event channels, selectable independently via [`ChannelMask`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceChannel {
    /// Transaction lifecycle: begin/commit/abort/stall/nack-sent.
    Htm,
    /// Coherence messages entering and leaving nodes.
    Coh,
    /// Directory-side activity: transitions, delayed sends, memory fetches.
    Dir,
    /// Network fabric: injections and deliveries with vnet/flit detail.
    Noc,
    /// Unicast predictor decisions and misprediction feedback.
    Pred,
    /// Fault injections actually firing.
    Fault,
}

impl TraceChannel {
    pub const ALL: [TraceChannel; 6] = [
        TraceChannel::Htm,
        TraceChannel::Coh,
        TraceChannel::Dir,
        TraceChannel::Noc,
        TraceChannel::Pred,
        TraceChannel::Fault,
    ];

    pub fn name(self) -> &'static str {
        match self {
            TraceChannel::Htm => "htm",
            TraceChannel::Coh => "coh",
            TraceChannel::Dir => "dir",
            TraceChannel::Noc => "noc",
            TraceChannel::Pred => "pred",
            TraceChannel::Fault => "fault",
        }
    }

    #[inline]
    pub fn index(self) -> usize {
        match self {
            TraceChannel::Htm => 0,
            TraceChannel::Coh => 1,
            TraceChannel::Dir => 2,
            TraceChannel::Noc => 3,
            TraceChannel::Pred => 4,
            TraceChannel::Fault => 5,
        }
    }

    #[inline]
    fn bit(self) -> u32 {
        1 << self.index()
    }
}

/// A set of [`TraceChannel`]s, encoded as a bitmask.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ChannelMask(u32);

impl ChannelMask {
    pub const NONE: ChannelMask = ChannelMask(0);
    pub const ALL: ChannelMask = ChannelMask((1 << TraceChannel::ALL.len()) - 1);

    #[inline]
    pub fn contains(self, ch: TraceChannel) -> bool {
        self.0 & ch.bit() != 0
    }

    #[must_use]
    pub fn with(self, ch: TraceChannel) -> Self {
        ChannelMask(self.0 | ch.bit())
    }

    #[must_use]
    pub fn union(self, other: ChannelMask) -> Self {
        ChannelMask(self.0 | other.0)
    }

    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Channels in the mask, in canonical order.
    pub fn channels(self) -> impl Iterator<Item = TraceChannel> {
        TraceChannel::ALL
            .into_iter()
            .filter(move |c| self.contains(*c))
    }

    /// Canonical comma-separated spec (`"htm,coh"`); `"off"` when empty.
    pub fn spec(self) -> String {
        if self.is_empty() {
            return "off".to_string();
        }
        let names: Vec<&str> = self.channels().map(|c| c.name()).collect();
        names.join(",")
    }

    /// Parse a `PUNO_TRACE`-style spec: a comma-separated channel list
    /// (`"htm,coh"`), `"all"`/`"1"`/`"on"` for everything, or any spelling
    /// of off ([`is_off`]) for nothing.
    pub fn parse(spec: &str) -> Result<ChannelMask, String> {
        if is_off(spec) {
            return Ok(ChannelMask::NONE);
        }
        let spec = spec.trim();
        if matches!(spec.to_ascii_lowercase().as_str(), "1" | "on" | "all") {
            return Ok(ChannelMask::ALL);
        }
        let mut mask = ChannelMask::NONE;
        for token in spec.split(',') {
            let token = token.trim().to_ascii_lowercase();
            if token.is_empty() {
                continue;
            }
            let ch = TraceChannel::ALL
                .into_iter()
                .find(|c| c.name() == token)
                .ok_or_else(|| {
                    let valid: Vec<&str> = TraceChannel::ALL.iter().map(|c| c.name()).collect();
                    format!(
                        "unknown trace channel {token:?} (valid: {}, all, off)",
                        valid.join(", ")
                    )
                })?;
            mask = mask.with(ch);
        }
        Ok(mask)
    }
}

/// The one rule for saying "off", shared by every `PUNO_*` knob and every
/// channel spec: empty, `0`, `off`, `false`, `no` or `none`
/// (case-insensitive, surrounding whitespace ignored).
pub fn is_off(value: &str) -> bool {
    matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "" | "0" | "off" | "false" | "no" | "none"
    )
}

/// Coherence message kinds, mirrored here so [`TraceEvent`] can name them
/// without a dependency on the coherence crate (which depends on this one).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CohMsgKind {
    Gets,
    Getx,
    Putx,
    Puts,
    FwdGets,
    FwdGetx,
    Inv,
    Data,
    UpgradeAck,
    Ack,
    Nack,
    Unblock,
    WbAck,
    WakeupHint,
    WbData,
}

/// Abort causes, mirrored from `puno_htm::AbortCause` for the same
/// layering reason as [`CohMsgKind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortCauseCode {
    TxWriteInvalidation,
    TxReadConflict,
    NonTxConflict,
    Capacity,
    Injected,
}

/// Coarse directory line state, mirrored from the directory's (private)
/// stable states for the `DirState` transition event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirLineState {
    Uncached,
    Shared,
    Owned,
}

/// One traced protocol action. Everything is `Copy` so the ring can retain
/// events without allocation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A coherence message leaves `src` for `dst` (logical send time,
    /// before any fault jitter).
    CohSend {
        src: NodeId,
        dst: NodeId,
        kind: CohMsgKind,
        addr: LineAddr,
    },
    /// A coherence message is delivered to `dst`.
    CohRecv {
        dst: NodeId,
        kind: CohMsgKind,
        addr: LineAddr,
    },
    /// Directory state after handling `kind` for `addr` at `home`
    /// (`busy` marks an in-flight service episode).
    DirState {
        home: NodeId,
        kind: CohMsgKind,
        addr: LineAddr,
        state: DirLineState,
        busy: bool,
    },
    /// The directory scheduled a send `delay` cycles out (L2/dir access,
    /// P-Buffer decision latency).
    DirSend {
        home: NodeId,
        dst: NodeId,
        kind: CohMsgKind,
        addr: LineAddr,
        delay: Cycles,
    },
    /// Off-chip fetch started at `home` for `addr`.
    DirFetchMem {
        home: NodeId,
        addr: LineAddr,
        delay: Cycles,
    },
    /// TX_BEGIN (attempt = prior consecutive aborts of this instance).
    HtmBegin {
        node: NodeId,
        tx: TxId,
        static_tx: StaticTxId,
        timestamp: Timestamp,
        attempt: u32,
    },
    /// TX_END: the attempt committed after `length` wall cycles.
    HtmCommit {
        node: NodeId,
        tx: TxId,
        length: Cycles,
    },
    /// A nacked episode concluded; the node backs off for `backoff` cycles
    /// before retrying `addr`.
    HtmStall {
        node: NodeId,
        addr: LineAddr,
        backoff: Cycles,
    },
    /// This node refused a forwarded request from `requester`.
    HtmNackSent {
        node: NodeId,
        requester: NodeId,
        addr: LineAddr,
        notified: bool,
        mispredict: bool,
    },
    /// The running transaction aborted. `by`/`addr` name the requesting
    /// aborter node and conflicting line for conflict aborts (`None` for
    /// injected faults); `discarded` is the execution effort thrown away.
    HtmAbort {
        node: NodeId,
        tx: TxId,
        cause: AbortCauseCode,
        by: Option<NodeId>,
        addr: Option<LineAddr>,
        discarded: Cycles,
    },
    /// PUNO predicted a single target: the home unicasts instead of
    /// multicasting.
    PredUnicast {
        home: NodeId,
        addr: LineAddr,
        target: NodeId,
    },
    /// Misprediction feedback (MP-bit) arrived at the home.
    PredMispredict {
        home: NodeId,
        addr: LineAddr,
        node: NodeId,
    },
    /// A message entered the fabric.
    NocInject {
        src: NodeId,
        dst: NodeId,
        vnet: u8,
        flits: u32,
    },
    /// A message left the fabric at `dst`.
    NocDeliver { dst: NodeId, vnet: u8, flits: u32 },
    /// A fault fired at its hook point.
    FaultFired {
        kind: FaultKind,
        node: NodeId,
        magnitude: Cycles,
    },
}

impl TraceEvent {
    /// The channel this event belongs to.
    pub fn channel(&self) -> TraceChannel {
        match self {
            TraceEvent::CohSend { .. } | TraceEvent::CohRecv { .. } => TraceChannel::Coh,
            TraceEvent::DirState { .. }
            | TraceEvent::DirSend { .. }
            | TraceEvent::DirFetchMem { .. } => TraceChannel::Dir,
            TraceEvent::HtmBegin { .. }
            | TraceEvent::HtmCommit { .. }
            | TraceEvent::HtmStall { .. }
            | TraceEvent::HtmNackSent { .. }
            | TraceEvent::HtmAbort { .. } => TraceChannel::Htm,
            TraceEvent::PredUnicast { .. } | TraceEvent::PredMispredict { .. } => {
                TraceChannel::Pred
            }
            TraceEvent::NocInject { .. } | TraceEvent::NocDeliver { .. } => TraceChannel::Noc,
            TraceEvent::FaultFired { .. } => TraceChannel::Fault,
        }
    }

    /// Short event name (Chrome-trace `name` field).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::CohSend { .. } => "coh_send",
            TraceEvent::CohRecv { .. } => "coh_recv",
            TraceEvent::DirState { .. } => "dir_state",
            TraceEvent::DirSend { .. } => "dir_send",
            TraceEvent::DirFetchMem { .. } => "dir_fetch_mem",
            TraceEvent::HtmBegin { .. } => "tx_begin",
            TraceEvent::HtmCommit { .. } => "tx_commit",
            TraceEvent::HtmStall { .. } => "tx_stall",
            TraceEvent::HtmNackSent { .. } => "nack_sent",
            TraceEvent::HtmAbort { .. } => "tx_abort",
            TraceEvent::PredUnicast { .. } => "pred_unicast",
            TraceEvent::PredMispredict { .. } => "pred_mispredict",
            TraceEvent::NocInject { .. } => "noc_inject",
            TraceEvent::NocDeliver { .. } => "noc_deliver",
            TraceEvent::FaultFired { .. } => "fault",
        }
    }

    /// The node this event is primarily *about* (Chrome-trace `pid`).
    pub fn node(&self) -> NodeId {
        match *self {
            TraceEvent::CohSend { src, .. } => src,
            TraceEvent::CohRecv { dst, .. } => dst,
            TraceEvent::DirState { home, .. }
            | TraceEvent::DirSend { home, .. }
            | TraceEvent::DirFetchMem { home, .. } => home,
            TraceEvent::HtmBegin { node, .. }
            | TraceEvent::HtmCommit { node, .. }
            | TraceEvent::HtmStall { node, .. }
            | TraceEvent::HtmNackSent { node, .. }
            | TraceEvent::HtmAbort { node, .. } => node,
            TraceEvent::PredUnicast { home, .. } | TraceEvent::PredMispredict { home, .. } => home,
            TraceEvent::NocInject { src, .. } => src,
            TraceEvent::NocDeliver { dst, .. } => dst,
            TraceEvent::FaultFired { node, .. } => node,
        }
    }

    /// The memory line involved, when the event concerns one.
    pub fn addr(&self) -> Option<LineAddr> {
        match *self {
            TraceEvent::CohSend { addr, .. }
            | TraceEvent::CohRecv { addr, .. }
            | TraceEvent::DirState { addr, .. }
            | TraceEvent::DirSend { addr, .. }
            | TraceEvent::DirFetchMem { addr, .. }
            | TraceEvent::HtmStall { addr, .. }
            | TraceEvent::HtmNackSent { addr, .. }
            | TraceEvent::PredUnicast { addr, .. }
            | TraceEvent::PredMispredict { addr, .. } => Some(addr),
            TraceEvent::HtmAbort { addr, .. } => addr,
            _ => None,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::CohSend {
                src,
                dst,
                kind,
                addr,
            } => {
                write!(f, "{src:?} -> {dst:?} {kind:?} {addr:?}")
            }
            TraceEvent::CohRecv { dst, kind, addr } => {
                write!(f, "-> {dst:?}: {kind:?} {addr:?}")
            }
            TraceEvent::DirState {
                home,
                kind,
                addr,
                state,
                busy,
            } => {
                write!(
                    f,
                    "dir {home:?} {addr:?} after {kind:?}: {state:?}{}",
                    if busy { " (busy)" } else { "" }
                )
            }
            TraceEvent::DirSend {
                home,
                dst,
                kind,
                addr,
                delay,
            } => {
                write!(f, "dir {home:?} -> {dst:?} {kind:?} {addr:?} (+{delay})")
            }
            TraceEvent::DirFetchMem { home, addr, delay } => {
                write!(f, "dir {home:?} fetch {addr:?} (+{delay})")
            }
            TraceEvent::HtmBegin {
                node,
                tx,
                static_tx,
                timestamp,
                attempt,
            } => {
                write!(
                    f,
                    "{node:?} begin {tx:?} {static_tx:?} {timestamp:?} attempt {attempt}"
                )
            }
            TraceEvent::HtmCommit { node, tx, length } => {
                write!(f, "{node:?} commit {tx:?} after {length} cycles")
            }
            TraceEvent::HtmStall {
                node,
                addr,
                backoff,
            } => {
                write!(f, "{node:?} stall on {addr:?} for {backoff} cycles")
            }
            TraceEvent::HtmNackSent {
                node,
                requester,
                addr,
                notified,
                mispredict,
            } => {
                write!(
                    f,
                    "{node:?} nacks {requester:?} on {addr:?}{}{}",
                    if notified { " (notified)" } else { "" },
                    if mispredict { " (mp)" } else { "" }
                )
            }
            TraceEvent::HtmAbort {
                node,
                tx,
                cause,
                by,
                addr,
                discarded,
            } => {
                write!(f, "{node:?} abort {tx:?} cause {cause:?}")?;
                if let (Some(by), Some(addr)) = (by, addr) {
                    write!(f, " by {by:?} on {addr:?}")?;
                }
                write!(f, " discarding {discarded} cycles")
            }
            TraceEvent::PredUnicast { home, addr, target } => {
                write!(f, "pred {home:?} unicasts {addr:?} to {target:?}")
            }
            TraceEvent::PredMispredict { home, addr, node } => {
                write!(f, "pred {home:?} mispredicted {node:?} on {addr:?}")
            }
            TraceEvent::NocInject {
                src,
                dst,
                vnet,
                flits,
            } => {
                write!(f, "noc {src:?} -> {dst:?} vnet {vnet} ({flits} flits)")
            }
            TraceEvent::NocDeliver { dst, vnet, flits } => {
                write!(f, "noc deliver -> {dst:?} vnet {vnet} ({flits} flits)")
            }
            TraceEvent::FaultFired {
                kind,
                node,
                magnitude,
            } => {
                write!(f, "fault {kind:?} at {node:?} magnitude {magnitude}")
            }
        }
    }
}

/// One line of a JSONL trace stream.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    pub cycle: Cycle,
    pub channel: TraceChannel,
    pub event: TraceEvent,
}

/// Bounded ring of typed trace records.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    enabled: bool,
    records: VecDeque<(Cycle, TraceEvent)>,
    dropped: u64,
}

impl TraceRing {
    /// A disabled ring (records are discarded).
    pub fn disabled() -> Self {
        Self {
            capacity: 0,
            enabled: false,
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// An enabled ring keeping the last `capacity` records.
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            capacity,
            enabled: true,
            records: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Record an event, evicting the oldest when full.
    #[inline]
    pub fn record(&mut self, now: Cycle, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back((now, event));
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The ring's capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &(Cycle, TraceEvent)> {
        self.records.iter()
    }

    /// Render the retained window, oldest first. The header makes a
    /// truncated trace self-describing: ring capacity, records retained,
    /// and how many earlier records were dropped.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        if !self.enabled {
            return out;
        }
        let _ = writeln!(
            out,
            "trace ring: capacity {}, retained {}, dropped {}",
            self.capacity,
            self.records.len(),
            self.dropped
        );
        for (cycle, event) in &self.records {
            let _ = writeln!(out, "[{cycle:>10}] {event}");
        }
        out
    }
}

/// Streaming JSONL sink. Write errors are reported once and disable the
/// sink; they never fail the simulation.
#[derive(Debug)]
struct JsonlSink {
    out: std::io::BufWriter<std::fs::File>,
    path: PathBuf,
    lines: u64,
    failed: bool,
}

impl JsonlSink {
    fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self {
            out: std::io::BufWriter::new(file),
            path: path.to_path_buf(),
            lines: 0,
            failed: false,
        })
    }

    fn write(&mut self, record: &TraceRecord) {
        if self.failed {
            return;
        }
        let json = serde::to_json_string(&serde::Serialize::to_json_value(record), false);
        if let Err(e) = writeln!(self.out, "{json}") {
            self.failed = true;
            eprintln!(
                "trace: write to {} failed: {e}; sink disabled",
                self.path.display()
            );
            return;
        }
        self.lines += 1;
    }

    fn flush(&mut self) {
        if !self.failed {
            let _ = self.out.flush();
        }
    }
}

/// The front door of the tracing subsystem: filters events by channel and
/// feeds the ring and the optional JSONL stream.
#[derive(Debug)]
pub struct Tracer {
    mask: ChannelMask,
    ring: TraceRing,
    jsonl: Option<JsonlSink>,
}

impl Tracer {
    /// A disabled tracer: empty mask, disabled ring, no stream.
    pub fn off() -> Self {
        Self {
            mask: ChannelMask::NONE,
            ring: TraceRing::disabled(),
            jsonl: None,
        }
    }

    /// Ring-only tracer keeping the last `capacity` events on `mask`.
    pub fn ring(mask: ChannelMask, capacity: usize) -> Self {
        Self {
            mask,
            ring: if mask.is_empty() {
                TraceRing::disabled()
            } else {
                TraceRing::enabled(capacity)
            },
            jsonl: None,
        }
    }

    /// Attach a streaming JSONL sink writing one [`TraceRecord`] per line.
    pub fn set_jsonl_path(&mut self, path: &Path) -> std::io::Result<()> {
        self.jsonl = Some(JsonlSink::create(path)?);
        Ok(())
    }

    /// The active channel mask.
    pub fn mask(&self) -> ChannelMask {
        self.mask
    }

    /// Whether events on `ch` would be retained. Emission sites must check
    /// this (or an effective mask that includes it) *before* constructing
    /// an event, to keep tracing-off runs zero-cost.
    #[inline]
    pub fn wants(&self, ch: TraceChannel) -> bool {
        self.mask.contains(ch)
    }

    /// Record one event (filtered by the mask).
    #[inline]
    pub fn record(&mut self, now: Cycle, event: &TraceEvent) {
        let channel = event.channel();
        if !self.mask.contains(channel) {
            return;
        }
        self.ring.record(now, *event);
        if let Some(sink) = self.jsonl.as_mut() {
            sink.write(&TraceRecord {
                cycle: now,
                channel,
                event: *event,
            });
        }
    }

    /// The bounded ring sink.
    pub fn ring_ref(&self) -> &TraceRing {
        &self.ring
    }

    /// JSONL lines written so far (0 without a sink).
    pub fn jsonl_lines(&self) -> u64 {
        self.jsonl.as_ref().map_or(0, |s| s.lines)
    }

    /// Flush the JSONL stream (also happens on drop).
    pub fn flush(&mut self) {
        if let Some(sink) = self.jsonl.as_mut() {
            sink.flush();
        }
    }

    /// Render the ring's retained window.
    pub fn dump(&self) -> String {
        self.ring.dump()
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(node: u16) -> TraceEvent {
        TraceEvent::HtmCommit {
            node: NodeId(node),
            tx: TxId(7),
            length: 100,
        }
    }

    #[test]
    fn mask_parse_accepts_lists_aliases_and_rejects_junk() {
        assert_eq!(ChannelMask::parse("").unwrap(), ChannelMask::NONE);
        assert_eq!(ChannelMask::parse("off").unwrap(), ChannelMask::NONE);
        assert_eq!(ChannelMask::parse("0").unwrap(), ChannelMask::NONE);
        assert_eq!(ChannelMask::parse("all").unwrap(), ChannelMask::ALL);
        assert_eq!(ChannelMask::parse("1").unwrap(), ChannelMask::ALL);
        let m = ChannelMask::parse("htm, coh").unwrap();
        assert!(m.contains(TraceChannel::Htm));
        assert!(m.contains(TraceChannel::Coh));
        assert!(!m.contains(TraceChannel::Noc));
        assert_eq!(m.spec(), "htm,coh");
        assert!(ChannelMask::parse("bogus").is_err());
        assert!(ChannelMask::parse("htm,bogus")
            .unwrap_err()
            .contains("bogus"));
    }

    #[test]
    fn every_channel_round_trips_through_its_name() {
        for ch in TraceChannel::ALL {
            let m = ChannelMask::parse(ch.name()).unwrap();
            assert!(m.contains(ch));
            assert_eq!(m.channels().count(), 1);
        }
    }

    #[test]
    fn disabled_ring_discards_and_dumps_empty() {
        let mut ring = TraceRing::disabled();
        ring.record(5, commit(1));
        assert!(ring.is_empty());
        assert_eq!(ring.dump(), "");
    }

    #[test]
    fn ring_keeps_only_the_last_n_and_header_is_self_describing() {
        let mut ring = TraceRing::enabled(3);
        for i in 0..10u64 {
            ring.record(
                i,
                TraceEvent::HtmCommit {
                    node: NodeId(i as u16),
                    tx: TxId(i),
                    length: i,
                },
            );
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 7);
        let dump = ring.dump();
        assert!(dump.contains("capacity 3, retained 3, dropped 7"), "{dump}");
        assert!(dump.contains("Tx9"));
        assert!(dump.contains("Tx7"));
        assert!(!dump.contains("Tx6"));
    }

    #[test]
    fn tracer_filters_by_channel() {
        let mut t = Tracer::ring(ChannelMask::NONE.with(TraceChannel::Noc), 8);
        t.record(1, &commit(0));
        assert!(
            t.ring_ref().is_empty(),
            "htm event filtered by noc-only mask"
        );
        t.record(
            2,
            &TraceEvent::NocInject {
                src: NodeId(0),
                dst: NodeId(1),
                vnet: 0,
                flits: 1,
            },
        );
        assert_eq!(t.ring_ref().len(), 1);
        assert!(!t.wants(TraceChannel::Htm));
        assert!(t.wants(TraceChannel::Noc));
    }

    #[test]
    fn records_round_trip_through_serde() {
        let events = [
            TraceEvent::CohSend {
                src: NodeId(1),
                dst: NodeId(2),
                kind: CohMsgKind::Getx,
                addr: LineAddr(0x40),
            },
            TraceEvent::HtmAbort {
                node: NodeId(3),
                tx: TxId(9),
                cause: AbortCauseCode::TxWriteInvalidation,
                by: Some(NodeId(1)),
                addr: Some(LineAddr(0x40)),
                discarded: 250,
            },
            TraceEvent::HtmAbort {
                node: NodeId(3),
                tx: TxId(9),
                cause: AbortCauseCode::Injected,
                by: None,
                addr: None,
                discarded: 0,
            },
            TraceEvent::DirState {
                home: NodeId(0),
                kind: CohMsgKind::Unblock,
                addr: LineAddr(8),
                state: DirLineState::Owned,
                busy: false,
            },
            TraceEvent::FaultFired {
                kind: FaultKind::LinkStall,
                node: NodeId(5),
                magnitude: 12,
            },
        ];
        for (i, event) in events.into_iter().enumerate() {
            let record = TraceRecord {
                cycle: 1000 + i as u64,
                channel: event.channel(),
                event,
            };
            let json = serde_json::to_string(&record).unwrap();
            let back: TraceRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(back, record, "round-trip mismatch for {json}");
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }

    #[test]
    fn trace_config_parses_the_env_shape() {
        // Exercise the parser directly (env vars are process-global; the
        // harness integration tests own the env-driven path).
        let mask = ChannelMask::parse("htm,noc").unwrap();
        assert_eq!(mask.channels().count(), 2);
        assert!(ChannelMask::parse("htm;noc").is_err());
    }
}
