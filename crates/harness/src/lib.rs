//! # puno-harness
//!
//! Full-system assembly: cores executing synthetic transactional programs,
//! private L1s with HTM units, a banked L2 + blocking MESI directory, the
//! PUNO predictor at each bank, and the 4x4 mesh NoC — all driven by one
//! deterministic event loop. On top: the experiment runner (one `RunMetrics`
//! per (workload, mechanism, seed)), a thread-parallel sweep driver, and the
//! report formatting that regenerates the paper's tables and figures.

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod error;
pub mod invariants;
pub mod knobs;
pub mod mechanism;
pub mod memory;
pub mod metrics;
pub mod node;
pub mod obs;
pub mod oracle;
pub mod report;
pub mod run;
pub mod sensitivity;
pub mod sweep;
pub mod system;
pub mod telemetry;
pub mod tracefmt;
pub mod warehouse;

pub use cache::{cell_digest, global_cache, CostModel, ResultCache, ENGINE_VERSION};
pub use config::SystemConfig;
pub use error::RunError;
pub use mechanism::Mechanism;
pub use memory::MemoryImage;
pub use metrics::{HostPerf, RunMetrics};
pub use obs::MetricsRegistry;
pub use oracle::FalseAbortOracle;
pub use run::{run_with_config, run_workload};
pub use sweep::{sweep, RetryPolicy, SweepResult};
pub use system::{System, SystemSnapshot};
pub use telemetry::{TelemetryCollector, TelemetryConfig, TelemetryReport};
pub use warehouse::{Warehouse, WarehouseRow};
