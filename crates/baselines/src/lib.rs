//! `edm-baselines` — every comparator system the paper evaluates EDM
//! against.
//!
//! Two families:
//!
//! * **Latency-model stacks** ([`stacks`]): the TCP/IP, RoCEv2, and raw
//!   Ethernet columns of Table 1 and the CXL constants of Figure 7,
//!   expressed in the same [`edm_core::latency::FabricLatency`]
//!   decomposition as EDM.
//! * **Flow/congestion-control simulators** (for Figure 8), all
//!   implementing [`edm_core::sim::FabricProtocol`]:
//!   * [`queueing`] — the reactive family: DCTCP (sender-driven ECN),
//!     pFabric (in-network SRPT on top of small buffers), and PFC+DCQCN
//!     (lossless PAUSE with head-of-line blocking);
//!   * [`cxl`] — credit-based link-level flow control with HOL blocking;
//!   * [`ird`] — an idealized receiver-driven proactive transport
//!     (Homa/pHost/NDP/ExpressPass composite, per the paper);
//!   * [`fastpass`] — a centralized server-based scheduler whose control
//!     NIC is the bottleneck.
//!
//! ```
//! use edm_baselines::prelude::*;
//! use edm_core::sim::{ClusterConfig, FabricProtocol};
//!
//! let protocols: Vec<Box<dyn FabricProtocol>> = all_protocols();
//! assert_eq!(protocols.len(), 7); // EDM + 6 baselines
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cxl;
pub mod fastpass;
pub mod ird;
pub mod queueing;
pub mod stacks;

pub use cxl::CxlProtocol;
pub use fastpass::FastpassProtocol;
pub use ird::IrdProtocol;
pub use queueing::{QueueConfig, QueueFabric};

/// Convenience re-exports for experiment harnesses.
pub mod prelude {
    pub use crate::cxl::CxlProtocol;
    pub use crate::fastpass::FastpassProtocol;
    pub use crate::ird::IrdProtocol;
    pub use crate::queueing::{QueueConfig, QueueFabric};
    use edm_core::sim::FabricProtocol;

    /// The full Figure 8 lineup: EDM plus the six baselines, in the
    /// paper's legend order.
    pub fn all_protocols() -> Vec<Box<dyn FabricProtocol>> {
        vec![
            Box::new(edm_core::sim::EdmProtocol::default()),
            Box::new(IrdProtocol),
            Box::new(QueueFabric::new(QueueConfig::pfabric())),
            Box::new(QueueFabric::new(QueueConfig::pfc_dcqcn())),
            Box::new(QueueFabric::new(QueueConfig::dctcp())),
            Box::new(CxlProtocol),
            Box::new(FastpassProtocol),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::all_protocols;
    use edm_core::sim::{ClusterConfig, Flow, FlowKind};
    use edm_sim::{Rng, Time};

    /// Every protocol of the Figure 8 lineup on one fixed 16-node
    /// workload — writes and reads mixed, 64 B to 8 KiB, a third of them
    /// writes into one hot node so buffers fill, pause and drop — folds
    /// each outcome's flow id and completion instant into an FNV-1a
    /// digest per protocol, recorded before the baselines' parameters
    /// became constants. The other baseline tests check orderings and
    /// bounds; this one fails when any constant (a latency, a header
    /// size, a credit count, a batch limit) moves. EDM's digest was
    /// re-recorded when offers past X began waiting in their pair's own
    /// FIFO: the hot node's pairs announce their waiters on their own
    /// completions, in offer order, no longer on any completion.
    /// Fastpass's was re-recorded for the same reason when its arbiter
    /// began matching through a `SwitchDomain`.
    #[test]
    fn all_protocols_keep_their_recorded_digests() {
        const DIGESTS: [(&str, u64); 7] = [
            ("EDM", 0xbe22_93d4_f17b_eff9),
            ("IRD", 0x585f_7d39_00a5_9bcd),
            ("pFabric", 0x49ac_445e_03b3_61bd),
            ("PFC", 0x3f2d_a7ef_7f2a_47d5),
            ("DCTCP", 0xd382_1caf_9c0a_59f5),
            ("CXL", 0xd675_a79f_9c46_92dd),
            ("Fastpass", 0xd009_cd07_79f5_cd65),
        ];
        let cluster = ClusterConfig {
            nodes: 16,
            ..ClusterConfig::default()
        };
        let mut rng = Rng::seed_from(0xed);
        let mut at = Time::ZERO;
        let flows: Vec<Flow> = (0..400)
            .map(|id| {
                at += edm_sim::Duration::from_ns(rng.below(40));
                let src = 1 + rng.below(15) as usize;
                let hot = rng.below(3) == 0;
                Flow {
                    id,
                    src,
                    dst: if hot {
                        0
                    } else {
                        (src + 1 + rng.below(14) as usize) % 16
                    },
                    size: 64 << rng.below(8),
                    arrival: at,
                    kind: if hot || rng.chance(0.5) {
                        FlowKind::Write
                    } else {
                        FlowKind::Read
                    },
                }
            })
            .collect();
        let got: Vec<(&str, u64)> = all_protocols()
            .iter_mut()
            .map(|p| {
                let r = p.simulate(&cluster, &flows);
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
                for o in &r.outcomes {
                    mix(o.flow.id as u64);
                    mix(o.completed.as_ps());
                }
                (p.name(), h)
            })
            .collect();
        assert_eq!(got, DIGESTS, "{got:#x?}");
    }
}
