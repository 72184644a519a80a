//! `edm-topo` — multi-switch fabric topologies for EDM.
//!
//! The paper evaluates EDM behind a single switch (144 nodes, §4.3); this
//! crate grows the simulator to datacenter shape, where remote-memory
//! traffic crosses multiple switch hops and competes with regular IP
//! traffic — the regime in-network memory management (MIND, SOSP '21) and
//! CXL-over-Ethernet target:
//!
//! * [`topology`] — the fabric graph: single-switch, leaf–spine with
//!   configurable oversubscription ([`Topology::leaf_spine`]), or
//!   arbitrary adjacency ([`Topology::from_adjacency`]); per-link
//!   bandwidth/latency, deterministic salted ECMP over equal-cost paths,
//!   and mutable element state (links/switches down, degraded links).
//! * [`world`] — the multi-switch event-driven world: one demand-sparse
//!   EDM scheduler (`edm_core::sim::SwitchDomain`, the PR 2 sparse PIM
//!   core) per switch, with inter-switch grant coordination by chunk
//!   arrival, failure injection with deterministic reroute-or-fail
//!   semantics (and sender-side demand revocation on reroute), and a
//!   mixed-traffic mode where background IP flows share egress ports
//!   with memory traffic ([`ip`]).
//! * [`shard`] — partitioning one streamed simulation across cores:
//!   [`TopoEdm::simulate_sharded_streamed`] runs the same world as
//!   several conservative logical processes (`edm_sim::sharded`),
//!   bit-identical to [`TopoEdm::simulate_streamed`] at any shard count;
//!   [`ShardPlan`] derives the switch partition and the trunk-latency
//!   lookahead. Slice and closed-loop runs are sequential.
//! * [`app`] — the closed-loop application tier on top of all of it:
//!   [`TopoEdm::simulate_app`] runs N tenants issuing YCSB-mix
//!   read/update/RMW operations with think times and bounded MLP
//!   windows against remote memory nodes (DDR4 service via
//!   `edm_memory::MemoryService`), over EDM's in-PHY transport or a
//!   store-and-forward CXL-over-Ethernet baseline on the identical
//!   fabric.
//!
//! A 1-switch [`Topology`] is the *degenerate* case: [`TopoEdm`] on
//! [`cluster_topology`] is bit-identical to the legacy single-switch
//! `EdmProtocol`, pinned by proptest.
//!
//! # Example
//!
//! ```
//! use edm_topo::{LeafSpine, Topology, TopoEdm};
//! use edm_core::sim::{Flow, FlowKind};
//! use edm_sim::Time;
//!
//! // 4 racks × 4 hosts, 2 spines, non-blocking.
//! let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 4, 2));
//! let flow = Flow {
//!     id: 0, src: 0, dst: 12, size: 256,
//!     arrival: Time::ZERO, kind: FlowKind::Write,
//! };
//! let result = TopoEdm::default().simulate(&topo, &[flow]);
//! assert_eq!(result.stats.delivered, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod ip;
pub mod shard;
pub mod topology;
pub mod world;

pub use app::{AppConfig, AppReport, AppTransport};
pub use shard::ShardPlan;
pub use topology::{Endpoint, Hop, LeafSpine, Link, LinkParams, Route, SwitchRole, Topology};
pub use world::{
    admission_route, FaultEvent, FaultKind, FlowStatus, TopoEdm, TopoEdmConfig, TopoOutcome,
    TopoResult, TopoStreamStats, TRUNK_MAX_ACTIVE_PER_PAIR,
};

use edm_core::sim::{ClusterConfig, PROP_DELAY};

/// The 1-switch [`Topology`] equivalent to a legacy [`ClusterConfig`]:
/// `nodes` hosts on `cluster.link` access links with [`PROP_DELAY`]
/// propagation. `TopoEdm` on this topology (with
/// [`TopoEdmConfig::matching`]) reproduces `EdmProtocol` bit-for-bit.
pub fn cluster_topology(cluster: &ClusterConfig) -> Topology {
    Topology::single_switch(
        cluster.nodes,
        LinkParams {
            bandwidth: cluster.link,
            propagation: PROP_DELAY,
        },
    )
}
