//! `edm` — facade crate for the EDM reproduction workspace.
//!
//! Re-exports every workspace crate under one roof so downstream users can
//! depend on a single crate:
//!
//! ```
//! use edm::fabric::{Fabric, TestbedConfig};
//! use edm::sim::Time;
//!
//! let mut fabric = Fabric::new(TestbedConfig::default());
//! fabric.seed_memory(1, 0, b"hello, remote memory");
//! let op = fabric.read(Time::ZERO, 0, 1, 0, 20);
//! fabric.run();
//! assert_eq!(fabric.completion(op).unwrap().data, b"hello, remote memory");
//! ```
//!
//! See the crate-level docs of each member for the full story:
//! [`edm_core`] (the paper's contribution), [`edm_phy`], [`edm_sched`],
//! [`edm_memory`], [`edm_baselines`], [`edm_workloads`], [`edm_topo`]
//! (multi-switch fabrics), [`edm_approx`] (fast what-if estimation),
//! [`edm_sim`].

#![forbid(unsafe_code)]

pub use edm_approx as approx;
pub use edm_baselines as baselines;
pub use edm_core::testbed as fabric;
pub use edm_core::{latency, message, stack, throughput};
pub use edm_memory as memory;
pub use edm_phy as phy;
pub use edm_sched as sched;
pub use edm_sim as sim;
pub use edm_topo as topo;
pub use edm_workloads as workloads;
