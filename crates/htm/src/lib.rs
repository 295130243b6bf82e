//! # puno-htm
//!
//! The eager, log-based hardware transactional memory the paper uses as its
//! baseline (Section IV-A): pre-transaction state goes to an undo log while
//! speculative stores propagate to memory eagerly; conflicts are detected
//! eagerly by checking forwarded coherence requests against per-transaction
//! read/write sets; conflicts are resolved with the time-based policy of
//! Rajwar & Goodman \[11\] — older transactions win, younger transactions
//! abort, and nacked requesters retry. Performance is comparable to FASTM-
//! style designs (fast abort recovery from a hardware buffer, modeled as a
//! small fixed penalty plus a per-log-entry unroll cost).
//!
//! Also here: the two comparison mechanisms of Section IV-A — randomized
//! linear backoff \[17\] and the read-modify-write predictor of Bobba et al.
//! \[5\] — and the abort/effort accounting behind Figures 2, 3, 10 and 14.

#![forbid(unsafe_code)]

pub mod backoff;
pub mod conflict;
pub mod log;
pub mod rmw;
pub mod rwset;
pub mod signature;
pub mod stats;
pub mod unit;

pub use backoff::{BackoffEngine, BackoffKind};
pub use conflict::{decide_forward, ForwardDecision, IncomingKind};
pub use log::UndoLog;
pub use rmw::RmwPredictor;
pub use rwset::ReadWriteSets;
pub use signature::{Signature, SignatureConfig};
pub use stats::{AbortCause, HtmStats};
pub use unit::{HtmUnit, TxContext, TxStatus};
