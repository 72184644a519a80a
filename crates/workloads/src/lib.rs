//! `edm-workloads` — workload and trace generators for the evaluation.
//!
//! Three families, matching §4's experiments:
//!
//! * [`synthetic`] — Poisson all-to-all memory traffic at a target offered
//!   load, with configurable read/write mix and message size (the Figure
//!   8a microbenchmark: 64 B messages, loads 0.2–0.9);
//! * [`traces`] — heavy-tailed message-size CDF profiles for the five
//!   disaggregated applications of Figure 8b (Hadoop, Spark, Spark SQL,
//!   GraphLab, Memcached), used to synthesize traces the way the paper's
//!   artifact does (from pre-existing CDF profiles, §A.5.2);
//! * [`ycsb`] — the YCSB key-value workloads A/B/F (update fraction,
//!   object and update sizes, Zipf key skew; Figures 6 and 7), sampled
//!   by [`closed_loop`]'s [`OpMix`];
//! * [`closed_loop`] — closed-loop tenant specifications (bounded MLP
//!   window, think times, local:remote split) consumed by `edm-topo`'s
//!   end-to-end application tier, where arrival times are outputs of the
//!   simulation rather than inputs.
//!
//! The synthetic generators have one implementation, a stream
//! ([`source`] — a pull-based [`MergeSource`] emitting time-ordered
//! arrivals one at a time in O(compute nodes) memory, for million-flow
//! runs where a materialized list would dominate RSS). `generate` is
//! that stream collected into a `Vec<Flow>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closed_loop;
pub mod source;
pub mod synthetic;
pub mod traces;
pub mod ycsb;

pub use closed_loop::{OpKind, OpMix, TenantOp, TenantSpec};
pub use source::{DrawDest, MergeSource};
pub use synthetic::{RackAwareWorkload, SyntheticWorkload};
pub use traces::AppTrace;
pub use ycsb::YcsbWorkload;
