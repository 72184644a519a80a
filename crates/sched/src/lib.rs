//! `edm-sched` — EDM's centralized in-network memory-traffic scheduler
//! (§3.1 of the paper).
//!
//! The scheduler lives in the PHY of the Ethernet switch. Senders announce
//! demand (explicitly with `/N/` blocks for writes, implicitly via the read
//! request itself for reads), and the scheduler runs a **priority-augmented
//! Parallel Iterative Matching (PIM)** over the demand to issue grants that
//! create contention-free virtual circuits: at most one sender transmits to
//! any receiver at a time, so the switch needs no queues and no layer-2
//! processing on the memory path.
//!
//! The crate models both the *algorithm* and the *hardware pipeline* that
//! makes it run at line rate:
//!
//! * [`ordered_list`] — the constant-time hardware ordered-list structure
//!   (2-cycle pipelined insert/delete, 1-cycle peek) used for the demand
//!   notification queues, which PIM reads in place;
//! * [`pim`] — priority PIM: each iteration completes in exactly 3 clock
//!   cycles (queue head lookup, per-source priority resolve, mark busy),
//!   and a maximal matching takes ~log2(N) iterations on average;
//! * [`scheduler`] — the full grant engine: per-destination notification
//!   queues bounded to X·N entries, chunked grants, and the timed busy
//!   release (a port is re-eligible `chunk/B` after its grant, §3.1.1
//!   step 7) that keeps links saturated despite propagation delay.
//!
//! # Example
//!
//! ```
//! use edm_sched::scheduler::{Scheduler, SchedulerConfig, Notification};
//! use edm_sim::Time;
//!
//! let mut s = Scheduler::new(SchedulerConfig::default_for_ports(4));
//! s.notify(Time::ZERO, Notification::new(0, 1, 0, 256)).unwrap();
//! let grants = s.poll(Time::ZERO).grants;
//! assert_eq!(grants.len(), 1);
//! assert_eq!(grants[0].chunk_bytes, 256); // fits in one chunk
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ordered_list;
pub mod pim;
pub mod scheduler;

pub use ordered_list::OrderedList;
pub use pim::{Matching, PimRunner};
pub use scheduler::{
    CancelOutcome, Grant, Notification, NotifyError, Policy, PollResult, Scheduler, SchedulerConfig,
};

/// The scheduler pipeline's clock period on the projected ASIC: 3 GHz
/// (§4.1), i.e. one cycle every 1/3 ns. We round to exact picoseconds.
pub const ASIC_CLOCK: edm_sim::Duration = edm_sim::Duration::from_ps(333);
