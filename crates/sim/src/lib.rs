//! # puno-sim
//!
//! Deterministic discrete-event simulation kernel used by every other crate in
//! the PUNO reproduction.
//!
//! The kernel is intentionally minimal: a cycle-resolution clock, an event
//! queue with a *total* deterministic ordering (ties broken by insertion
//! sequence number), a seedable pseudo-random number generator with a stable
//! algorithm (`SplitMix64` seeding a `xoshiro256**` core), and the statistics
//! containers (counters, histograms, running means, EWMAs) shared by the
//! coherence, HTM, NoC and harness crates.
//!
//! Architecture simulators live and die by reproducibility: the same seed and
//! configuration must produce bit-identical metrics on every run and every
//! machine. Everything in this crate is therefore free of `HashMap` iteration
//! order, wall-clock time, and platform-dependent floating point (statistics
//! accumulate in integers wherever the experiment pipeline compares values).

#![forbid(unsafe_code)]

pub mod clock;
pub mod event;
pub mod fault;
pub mod ids;
pub mod linemap;
pub mod rng;
pub mod stats;
pub mod trace;

pub use clock::{Cycle, Cycles};
pub use event::EventQueue;
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultStats};
pub use ids::{LineAddr, NodeId, StaticTxId, Timestamp, TxId};
pub use linemap::{LineKey, LineMap, LineSet};
pub use rng::{SimRng, ZipfSampler};
pub use stats::{Counter, Ewma, Histogram, RunningStats};
pub use trace::{
    is_off, AbortCauseCode, ChannelMask, CohMsgKind, DirLineState, TraceChannel, TraceEvent,
    TraceRecord, TraceRing, Tracer,
};
