//! # ftscp-core — hierarchical fault-tolerant detection of `Definitely(Φ)`
//!
//! This crate is the paper's contribution: the first decentralized,
//! hierarchical algorithm that **repeatedly** detects all occurrences of
//! `Definitely(Φ)` for a conjunctive predicate `Φ` over an asynchronous
//! distributed execution, resilient to node failures (Shen &
//! Kshemkalyani, IPDPSW 2013, Algorithm 1).
//!
//! ## Layers
//!
//! * [`NodeEngine`] — one tree node's state machine: the local queue `Q_0`
//!   plus one queue per child, the pairwise sweep, solution emission,
//!   `⊓`-aggregation of solutions, and the Eq. (10) prune. Pure (no I/O):
//!   inputs are intervals, outputs are [`EngineOutput`]s.
//! * [`HierarchicalDetector`] — a whole tree of engines driven in memory,
//!   with synchronous parent forwarding and §III-F failure handling. This
//!   is the simplest way to use the library: feed intervals (in any order
//!   consistent with per-process order), read off detections per node.
//! * [`monitor`] / [`deploy`] — the distributed deployment on
//!   `ftscp-simnet`: every node runs a [`monitor::MonitorApp`] that reports
//!   aggregated intervals to its parent over the (non-FIFO, multi-hop)
//!   network, exchanges heartbeats, and survives crash-stop failures via
//!   spanning-tree repair.
//!
//! ## Guarantees (tested, not just stated)
//!
//! * **Safety**: every emitted solution satisfies `overlap` (Eq. 2) over
//!   its member intervals, and — via interval coverage tracking — over the
//!   original *local* intervals it represents (Theorem 1/Lemma 1).
//! * **Liveness**: after each solution at least one queue head is removed
//!   (Theorem 4), so detection always makes progress.
//! * **Equivalence**: the root of the hierarchy detects exactly the same
//!   satisfactions as the centralized repeated-detection baseline
//!   \[Kshemkalyani 2011\] fed the same execution (`ftscp-baselines`).
//! * **Fault tolerance**: after a node failure, detection of the partial
//!   predicate over the survivors continues (§III-F).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod engine;
pub mod faultcheck;
pub mod hier;
pub mod membership;
pub mod monitor;
pub mod protocol;
pub mod registry;
pub mod report;
pub mod transport;

pub use engine::{EngineOutput, NodeEngine};
pub use hier::HierarchicalDetector;
pub use protocol::{ConnCodec, DetectMsg};
pub use registry::{PredicateId, PredicateRegistry, RegistryStats, TenantSlot, TenantSpec};
pub use report::GlobalDetection;
pub use transport::{MonitorCore, Transport};

use ftscp_simnet::NodeId;
use ftscp_vclock::ProcessId;

/// Nodes and processes are the same entities; the simulator names them
/// [`NodeId`], the logical-clock layer [`ProcessId`].
pub fn pid(node: NodeId) -> ProcessId {
    ProcessId(node.0)
}

/// Inverse of [`pid`].
pub fn nid(process: ProcessId) -> NodeId {
    NodeId(process.0)
}
