//! Closed-loop tenant specifications for the end-to-end application tier.
//!
//! An open workload ([`crate::MergeSource`]) fixes arrival *times*; a
//! closed loop fixes the *population*: each tenant keeps at most `mlp`
//! operations outstanding (its memory-level-parallelism window, the knob
//! EDAN shows application slowdown is most sensitive to), issues the next
//! op only when a completion frees a slot, and inserts an exponential
//! think time between a completion and the op it triggers. Arrival times
//! are therefore *outputs* of the simulation — which is why the driver
//! lives inside `edm-topo`'s event world rather than behind a flow
//! iterator.
//!
//! This module holds the simulator-independent half: the per-tenant op
//! mix (YCSB read/update fractions plus a NIC-side RMW share, §3.2.1 —
//! workload F's read-modify-write executed as one atomic fabric op), the
//! local:remote split (the EDAN grid's second axis), and deterministic
//! per-tenant sampling from splittable [`Rng`] streams.

use crate::ycsb::YcsbWorkload;
use edm_sim::rng::Zipf;
use edm_sim::{Duration, Rng};

/// What one closed-loop operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Fetch a remote object (8 B request, `object_bytes` response).
    Read,
    /// Overwrite a remote object's payload (`update_bytes` request,
    /// control-block ack).
    Update,
    /// NIC-side atomic read-modify-write on one remote word (control
    /// blocks both ways; the memory node serializes read→modify→write).
    Rmw,
    /// An access served by the compute node's own DRAM — no fabric
    /// involved; the local side of the local:remote split.
    Local,
}

/// One sampled closed-loop operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantOp {
    /// Operation kind.
    pub kind: OpKind,
    /// Key index (within [`OpMix::ycsb`]'s key space). Local ops keep a
    /// key too — the tenant's working set spans both tiers.
    pub key: u64,
}

/// A tenant's operation mix: a YCSB read/update split, a share of updates
/// executed as NIC-side RMWs, and the fraction of accesses served from
/// local DRAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// The YCSB workload supplying key skew, object/update sizes, and the
    /// read/update split.
    pub ycsb: YcsbWorkload,
    /// Fraction of *updates* executed as atomic RMWs instead of payload
    /// writes (1.0 models workload F's read-modify-write ops natively).
    pub rmw_fraction: f64,
    /// Fraction of all ops served by local DRAM (the `local:remote`
    /// split; 0.0 = fully disaggregated, 1.0 = the all-local baseline).
    pub local_fraction: f64,
}

impl OpMix {
    /// A fully-remote mix over `ycsb` with plain-write updates.
    pub fn remote(ycsb: YcsbWorkload) -> Self {
        OpMix {
            ycsb,
            rmw_fraction: 0.0,
            local_fraction: 0.0,
        }
    }

    /// Workload F with its read-modify-writes executed as NIC-side RMWs.
    pub fn f_rmw() -> Self {
        OpMix {
            ycsb: YcsbWorkload::f(),
            rmw_fraction: 1.0,
            ..OpMix::remote(YcsbWorkload::f())
        }
    }

    /// Samples one operation. Consumes a *fixed* number of draws per call
    /// (key, tier, class, rmw) regardless of the outcome, so interleaved
    /// tenants stay on reproducible substreams.
    pub fn sample(&self, zipf: &Zipf, rng: &mut Rng) -> TenantOp {
        let key = zipf.sample(rng);
        let local = rng.chance(self.local_fraction);
        let update = rng.chance(self.ycsb.update_fraction);
        let rmw = rng.chance(self.rmw_fraction);
        let kind = if local {
            OpKind::Local
        } else if update && rmw {
            OpKind::Rmw
        } else if update {
            OpKind::Update
        } else {
            OpKind::Read
        };
        TenantOp { kind, key }
    }
}

/// One closed-loop tenant: a compute-node process with a bounded
/// outstanding-op window and think times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// The compute node this tenant runs on.
    pub node: usize,
    /// Operation mix.
    pub mix: OpMix,
    /// Outstanding-op window (memory-level parallelism); must be ≥ 1.
    pub mlp: u32,
    /// Mean exponential think time inserted between a completion and the
    /// op it triggers ([`Duration::ZERO`] = issue back-to-back).
    pub think_mean: Duration,
    /// Total operations this tenant issues before going idle.
    pub ops: u64,
}

impl TenantSpec {
    /// A saturating tenant (no think time) issuing `ops` operations of
    /// `mix` from `node` with a window of `mlp`.
    pub fn saturating(node: usize, mix: OpMix, mlp: u32, ops: u64) -> Self {
        TenantSpec {
            node,
            mix,
            mlp,
            think_mean: Duration::ZERO,
            ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_n(mix: OpMix, n: usize, seed: u64) -> Vec<TenantOp> {
        let zipf = Zipf::new(mix.ycsb.keys, mix.ycsb.zipf_theta);
        let mut rng = Rng::seed_from(seed);
        (0..n).map(|_| mix.sample(&zipf, &mut rng)).collect()
    }

    #[test]
    fn remote_mix_matches_ycsb_fractions() {
        let ops = sample_n(OpMix::remote(YcsbWorkload::a()), 20_000, 1);
        let updates = ops
            .iter()
            .filter(|o| o.kind == OpKind::Update || o.kind == OpKind::Rmw)
            .count();
        let frac = updates as f64 / ops.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "update fraction {frac}");
        assert!(ops.iter().all(|o| o.kind != OpKind::Local));
    }

    #[test]
    fn f_rmw_turns_updates_into_rmws() {
        let ops = sample_n(OpMix::f_rmw(), 20_000, 2);
        assert!(ops.iter().all(|o| o.kind != OpKind::Update));
        let rmws = ops.iter().filter(|o| o.kind == OpKind::Rmw).count();
        let frac = rmws as f64 / ops.len() as f64;
        assert!((frac - 0.33).abs() < 0.02, "rmw fraction {frac}");
    }

    #[test]
    fn local_fraction_splits_the_tiers() {
        let mix = OpMix {
            local_fraction: 0.75,
            ..OpMix::remote(YcsbWorkload::b())
        };
        let ops = sample_n(mix, 20_000, 3);
        let local = ops.iter().filter(|o| o.kind == OpKind::Local).count();
        let frac = local as f64 / ops.len() as f64;
        assert!((frac - 0.75).abs() < 0.02, "local fraction {frac}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mix = OpMix {
            rmw_fraction: 0.3,
            local_fraction: 0.25,
            ..OpMix::remote(YcsbWorkload::a())
        };
        assert_eq!(sample_n(mix, 500, 7), sample_n(mix, 500, 7));
        assert_ne!(sample_n(mix, 500, 7), sample_n(mix, 500, 8));
    }

    #[test]
    fn keys_stay_in_range_and_skewed() {
        let mix = OpMix::remote(YcsbWorkload::a());
        let ops = sample_n(mix, 50_000, 4);
        assert!(ops.iter().all(|o| o.key < mix.ycsb.keys));
        let hot = ops.iter().filter(|o| o.key < 100).count();
        assert!(hot as f64 / ops.len() as f64 > 0.05);
    }
}
