//! `edm-sim` — deterministic discrete-event simulation engine.
//!
//! This crate is the substrate underneath every simulation in the EDM
//! reproduction. It provides:
//!
//! * [`Time`] / [`Duration`] — integer-picosecond simulated time, exact for
//!   every constant in the paper (a 2.56 ns PHY clock cycle is 2 560 ps).
//! * [`Bandwidth`] — link speeds with exact transmission-delay arithmetic.
//! * [`EventQueue`] and [`Engine`] — a classic calendar-queue DES driver
//!   (O(1) expected schedule/pop, self-resizing day buckets plus a
//!   far-future overflow heap) with deterministic keyed tie-breaking
//!   (`(time, ord, seq)`), pinned bit-identical to the dense
//!   [`BinaryHeapEventQueue`] reference by property tests.
//! * [`sharded`] — a conservative (Chandy–Misra–Bryant-style) parallel
//!   driver that runs one simulation as several logical processes with
//!   lookahead-bounded windows and deterministic cross-shard merges
//!   ([`run_sharded`]); worlds built on content-derived order keys are
//!   bit-identical to their sequential runs at any shard count.
//! * [`rng`] — a self-contained, seedable xoshiro256++ generator plus the
//!   distributions the workloads need (uniform, exponential, empirical CDF).
//! * [`stats`] — streaming summaries (mean/percentiles/histograms) used by
//!   every experiment harness.
//!
//! # Example
//!
//! ```
//! use edm_sim::{Engine, Time, Duration};
//!
//! // A world that counts ticks and reschedules itself three times.
//! struct Ticker { ticks: u32 }
//! impl edm_sim::World for Ticker {
//!     type Event = ();
//!     fn handle(&mut self, now: Time, _ev: (), q: &mut edm_sim::EventQueue<()>) {
//!         self.ticks += 1;
//!         if self.ticks < 3 {
//!             q.schedule(now + Duration::from_ns(10), ());
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Ticker { ticks: 0 });
//! engine.queue_mut().schedule(Time::ZERO, ());
//! engine.run();
//! assert_eq!(engine.world().ticks, 3);
//! assert_eq!(engine.now(), Time::from_ns(20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod rng;
pub mod sharded;
pub mod stats;
pub mod time;

pub use engine::{BinaryHeapEventQueue, Engine, EventQueue, QueueStats, World};
pub use rng::Rng;
pub use sharded::{run_sharded, Envelope, Recipient, ShardWorld, ShardedConfig};
pub use stats::{LogHistogram, Summary, WindowSeries};
pub use time::{Bandwidth, Duration, Time};
