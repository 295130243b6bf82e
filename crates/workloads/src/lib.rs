//! # puno-workloads
//!
//! Synthetic transactional workload generators standing in for STAMP.
//!
//! The paper evaluates PUNO on the eight STAMP benchmarks (Table I). The
//! original binaries are SPARC full-system images we cannot run; what the
//! evaluation actually depends on is each benchmark's **contention
//! signature** — transaction length distribution, read/write-set sizes, how
//! skewed the shared-data access pattern is, and how much read-read sharing
//! exists for transactional writers to trample on. Those signatures are well
//! documented (the STAMP paper's Table 4, the paper's own Table I abort
//! rates) and are what these generators reproduce:
//!
//! | workload  | signature reproduced |
//! |-----------|----------------------|
//! | bayes     | few, long txs; large rd/wr sets on a small hot region; ~97% abort |
//! | intruder  | short txs; queue-like RMW on a very hot region; ~78% abort |
//! | labyrinth | giant read set (whole-grid scan) + small writes; ~99% abort |
//! | yada      | medium txs, mixed sharing; ~48% abort |
//! | genome    | read-mostly hash inserts, sparse writes; ~1% abort |
//! | kmeans    | tiny RMW txs on many independent centers; ~7% abort |
//! | ssca2     | tiny txs on a huge array; ~0.3% abort |
//! | vacation  | tree lookups, read-heavy with scattered updates; ~38% abort |
//!
//! Every generator is deterministic given a seed, and every mechanism under
//! comparison replays the *same* per-node programs, so measured differences
//! come from the mechanism, not the offered load.

#![forbid(unsafe_code)]

pub mod addresses;
pub mod genprog;
pub mod micro;
pub mod op;
pub mod params;
pub mod progcache;
pub mod stamp;
pub mod stats;

pub use addresses::AddressMap;
pub use genprog::generate_program;
pub use op::{DynTxSpec, NodeProgram, TxOp, WorkItem};
pub use params::{StaticTxParams, WorkloadParams};
pub use progcache::{fnv1a_64, fnv1a_64_fold, params_digest, ProgramSet, FNV1A_64_OFFSET};
pub use stamp::{table1_rows, Table1Row, WorkloadId};
pub use stats::{characterize, ProgramStats};
