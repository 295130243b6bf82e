//! Structured run failures.
//!
//! The event loop used to panic on a drained queue or an exceeded cycle
//! budget, taking the whole process (and every other sweep cell on sibling
//! threads) down with it. [`RunError`] turns those guards into values: a
//! failing run reports *what* stalled, *who* was waiting on whom, and the
//! message trace leading up to the failure, and the sweep driver carries on
//! with the remaining cells.

use std::fmt;

/// Why a run failed to complete.
#[derive(Clone, Debug)]
pub enum RunError {
    /// The event queue drained with nodes still unfinished: some node is
    /// waiting for a message that will never arrive.
    Deadlock {
        workload: String,
        seed: u64,
        /// Cycle of the last dispatched event.
        cycle: u64,
        /// Nodes that had not retired their programs.
        unfinished_nodes: Vec<u16>,
        /// Rendered NACK wait-for graph at the time of failure.
        wait_for: String,
        /// Message trace (empty unless tracing was enabled).
        trace: String,
    },
    /// The run kept processing events without global forward progress:
    /// either the watchdog saw a full window with no commit and no node
    /// retiring, or the hard `max_cycles` budget was exceeded.
    Livelock {
        workload: String,
        seed: u64,
        /// Cycle at which the run was declared stuck.
        cycles: u64,
        /// Commits observed inside the stalled watchdog window (0 when the
        /// watchdog fired; the window size when `max_cycles` tripped first).
        commit_window: u64,
        /// Rendered NACK wait-for graph at the time of failure.
        wait_for: String,
        /// Message trace (empty unless tracing was enabled).
        trace: String,
    },
    /// A sweep worker thread panicked while running this cell.
    WorkerPanic { payload: String },
}

impl RunError {
    /// Short machine-readable tag (used in reports).
    pub fn kind(&self) -> &'static str {
        match self {
            RunError::Deadlock { .. } => "deadlock",
            RunError::Livelock { .. } => "livelock",
            RunError::WorkerPanic { .. } => "worker_panic",
        }
    }

    /// The retained message trace, if any.
    pub fn trace(&self) -> &str {
        match self {
            RunError::Deadlock { trace, .. } | RunError::Livelock { trace, .. } => trace,
            RunError::WorkerPanic { .. } => "",
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Deadlock {
                workload,
                seed,
                cycle,
                unfinished_nodes,
                wait_for,
                trace,
            } => {
                write!(
                    f,
                    "protocol deadlock: event queue drained at cycle {cycle} with {} unfinished node(s) {unfinished_nodes:?} ({workload} @ seed {seed})\nwait-for graph:\n{wait_for}",
                    unfinished_nodes.len()
                )?;
                if !trace.is_empty() {
                    write!(f, "\ntrace:\n{trace}")?;
                }
                Ok(())
            }
            RunError::Livelock {
                workload,
                seed,
                cycles,
                commit_window,
                wait_for,
                trace,
            } => {
                write!(
                    f,
                    "livelock: no forward progress by cycle {cycles} ({commit_window} commit(s) in the last watchdog window) ({workload} @ seed {seed})\nwait-for graph:\n{wait_for}"
                )?;
                if !trace.is_empty() {
                    write!(f, "\ntrace:\n{trace}")?;
                }
                Ok(())
            }
            RunError::WorkerPanic { payload } => {
                write!(f, "sweep worker panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_diagnostics() {
        let e = RunError::Deadlock {
            workload: "hotspot".into(),
            seed: 7,
            cycle: 1234,
            unfinished_nodes: vec![3, 9],
            wait_for: "node 3 waits on line 0x5".into(),
            trace: String::new(),
        };
        let s = e.to_string();
        assert!(s.contains("deadlock"));
        assert!(s.contains("seed 7"));
        assert!(s.contains("[3, 9]"));
        assert!(s.contains("waits on line 0x5"));
        assert_eq!(e.kind(), "deadlock");
    }
}
