//! # puno-noc
//!
//! Cycle-level model of the on-chip network from the paper's Table II:
//! a 2D mesh with dimension-order (XY) routing, virtual-channel flow control
//! and 4-stage routers, standing in for the Garnet model the authors used.
//!
//! ## Fidelity choices
//!
//! * **Virtual cut-through at packet granularity.** A packet of `k` flits
//!   occupies each traversed link for `k` cycles and consumes `k` flits of
//!   downstream buffer space (credits). Wormhole-level flit interleaving is
//!   not modeled; for the short control messages (1 flit) and data messages
//!   (5 flits) of a coherence protocol the bandwidth/contention behaviour is
//!   equivalent and the *router traversal count* — the exact metric of the
//!   paper's Figure 11 — is identical.
//! * **Three virtual networks** (request / forward / response) with separate
//!   buffers per the standard protocol-deadlock-avoidance discipline of
//!   directory protocols (GEMS uses the same split).
//! * **Deterministic arbitration.** Round-robin per output port, ties broken
//!   by port index, so whole-system runs are bit-reproducible.

#![forbid(unsafe_code)]

pub mod latency;
pub mod linkstats;
pub mod network;
pub mod packet;
pub mod router;
pub mod topology;
pub mod traffic;

pub use latency::LatencyModel;
pub use linkstats::{LinkId, LinkStats};
pub use network::{Network, NocConfig};
pub use packet::{VirtualNetwork, CONTROL_FLITS, DATA_FLITS};
pub use topology::Mesh;
pub use traffic::TrafficStats;
