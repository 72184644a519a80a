//! `edm-core` — the paper's primary contribution: the EDM remote-memory
//! fabric (host network stack, switch network stack, and their composition
//! with the in-network scheduler), plus the latency/throughput models and
//! the at-scale simulator agents that the evaluation section is built on.
//!
//! ## Layout
//!
//! * [`message`] — RREQ / WREQ / RMWREQ / RRES message types (§2.3) and
//!   their `/M*/`-payload serialization;
//! * [`stack`] — the cycle-exact cost model of the host and switch EDM
//!   pipelines (§3.2.1–§3.2.2; every constant of Figure 5);
//! * [`latency`] — Table 1's latency composition; the EDM rows are derived
//!   from [`stack`], totaling ~300 ns unloaded;
//! * [`testbed`] — a *functional* fabric (data really moves, RMWs are
//!   atomic) mirroring the paper's three-FPGA testbed;
//! * [`sim`] — the 144-node message-level simulator framework (§4.3)
//!   shared with `edm-baselines`, plus EDM's protocol implementation;
//! * [`throughput`] — the Figure 6 request-rate model.
//!
//! ## Quick start
//!
//! ```
//! use edm_core::testbed::{Fabric, TestbedConfig};
//! use edm_sim::Time;
//!
//! let mut fabric = Fabric::new(TestbedConfig::default());
//! fabric.seed_memory(1, 0x1000, b"disaggregated!!!");
//! let op = fabric.read(Time::ZERO, 0, 1, 0x1000, 16);
//! fabric.run();
//! let done = fabric.completion(op).unwrap();
//! assert_eq!(done.data, b"disaggregated!!!");
//! assert!(done.latency().as_ns_f64() < 500.0); // ~300 ns unloaded
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;
pub mod message;
pub mod sim;
pub mod stack;
pub mod testbed;
pub mod throughput;

pub use message::MemOp;
pub use testbed::{Fabric, TestbedConfig};
