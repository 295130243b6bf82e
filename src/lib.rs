//! # puno-repro
//!
//! Facade crate for the PUNO reproduction: re-exports the public API of the
//! workspace crates so examples, integration tests, and downstream users can
//! depend on a single crate.
//!
//! The paper: *Mitigating the Mismatch between the Coherence Protocol and
//! Conflict Detection in Hardware Transactional Memory* (IPDPS 2014) —
//! Predictive Unicast and Notification (PUNO) against *false aborting* in
//! eager HTM.
//!
//! ```
//! use puno_repro::prelude::*;
//!
//! // Run a small high-contention workload under baseline and PUNO.
//! let params = WorkloadId::Intruder.params().scaled(0.02);
//! let base = run_workload(Mechanism::Baseline, &params, 42);
//! let puno = run_workload(Mechanism::Puno, &params, 42);
//! assert_eq!(base.committed, puno.committed); // same offered work
//! ```

#![forbid(unsafe_code)]

pub use puno_coherence as coherence;
pub use puno_core as puno;
pub use puno_harness as harness;
pub use puno_htm as htm;
pub use puno_noc as noc;
pub use puno_sim as sim;
pub use puno_vlsi as vlsi;
pub use puno_workloads as workloads;

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use puno_harness::report::{FigureMetric, NormalizedFigure};
    pub use puno_harness::sweep::{find, find_expect, sweep, try_sweep, CellOutcome, SweepOptions};
    pub use puno_harness::{
        run_with_config, run_workload, Mechanism, RunError, RunMetrics, System, SystemConfig,
    };
    pub use puno_sim::{FaultKind, FaultPlan};
    pub use puno_workloads::{micro, table1_rows, WorkloadId, WorkloadParams};
}
