//! Priority-augmented Parallel Iterative Matching (§3.1.2).
//!
//! Classic PIM \[Anderson et al., TOCS'93\] forms a maximal bipartite
//! matching between input and output ports iteratively: unmatched outputs
//! propose, inputs resolve conflicts, matched pairs drop out. EDM extends
//! it with *priorities* — conflicts resolve in favour of the
//! highest-priority message — and implements each iteration in exactly
//! **3 clock cycles**:
//!
//! 1. each destination port picks its highest-priority eligible message
//!    (1 cycle — notification queue head lookup);
//! 2. each source port resolves the contending requests with a priority
//!    encoder over its sorted destination array (1 cycle);
//! 3. matched ports are marked busy (1 cycle).
//!
//! A maximal matching takes ~log2(N) iterations on average (§3.1.3), giving
//! a scheduling latency of `3·log2(N)/R` at clock rate `R`.

use crate::priority_encoder::PriorityEncoder;

/// Cycles per PIM iteration (fixed by the hardware pipeline design).
pub const CYCLES_PER_ITERATION: u64 = 3;

/// PIM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PimConfig {
    /// Number of switch ports (both sides of the bipartite graph).
    pub ports: usize,
    /// Iteration cap. `None` runs until no iteration adds a match, which
    /// is the maximal matching the grant loop needs.
    pub max_iterations: Option<usize>,
}

impl PimConfig {
    /// Configuration for an `n`-port switch, iterating to maximality.
    pub fn for_ports(n: usize) -> Self {
        PimConfig {
            ports: n,
            max_iterations: None,
        }
    }
}

/// The result of one PIM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// Matched `(source, destination)` port pairs.
    pub pairs: Vec<(usize, usize)>,
    /// Iterations executed.
    pub iterations: usize,
    /// Hardware cycles consumed (`3 × iterations`).
    pub cycles: u64,
}

/// Outcome of a [`PimRunner::run_sparse`] call, whose matched pairs are
/// written into a caller-owned buffer instead of a fresh allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseOutcome {
    /// Iterations executed.
    pub iterations: usize,
    /// Hardware cycles consumed (`3 × iterations`).
    pub cycles: u64,
    /// Whether [`PimConfig::max_iterations`] stopped the run while
    /// destinations were still contending — the one way a run can leave
    /// an edge between two free ports unmatched. Never set when
    /// iterating to maximality.
    pub capped: bool,
}

/// Runs priority PIM over demand snapshots.
#[derive(Debug)]
pub struct PimRunner {
    config: PimConfig,
    encoders: Vec<PriorityEncoder>,
    /// Reused per-source proposal buffers (cleared each iteration).
    proposals: Vec<Vec<(u64, usize)>>,
    /// Sources that received proposals this iteration.
    proposed_srcs: Vec<usize>,
    /// Destinations still participating (avail, demand not exhausted).
    active_dests: Vec<usize>,
    /// Double buffer for the surviving active destinations.
    next_active: Vec<usize>,
    /// Epoch stamps marking sources matched in the current run; comparing
    /// against `epoch` avoids clearing an O(ports) array per run.
    src_matched: Vec<u32>,
    /// Epoch stamps marking destinations matched in the current run.
    dst_matched: Vec<u32>,
    /// Current run's epoch (stamps from older runs never compare equal).
    epoch: u32,
}

impl PimRunner {
    /// Creates a runner for the given configuration.
    pub fn new(config: PimConfig) -> Self {
        // Encoders start at width 0 and grow on first contention: an
        // O(ports²)-bit up-front allocation would defeat the sparse model.
        let encoders = (0..config.ports).map(|_| PriorityEncoder::new(0)).collect();
        PimRunner {
            config,
            encoders,
            proposals: (0..config.ports).map(|_| Vec::new()).collect(),
            proposed_srcs: Vec::new(),
            active_dests: Vec::new(),
            next_active: Vec::new(),
            src_matched: vec![0; config.ports],
            dst_matched: vec![0; config.ports],
            epoch: 0,
        }
    }

    /// The configuration this runner was built with.
    pub fn config(&self) -> PimConfig {
        self.config
    }

    /// Forms a priority-respecting maximal matching.
    ///
    /// `demand[d]` lists `(priority_key, src)` candidates destined to port
    /// `d`, sorted ascending by key (lower key = higher priority) — the
    /// order the notification queue maintains. `src_free[s]` /
    /// `dst_free[d]` give initial eligibility (ports already busy with an
    /// in-flight chunk are excluded).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree with `config.ports` or a demand names
    /// an out-of-range source.
    pub fn run(
        &mut self,
        demand: &[Vec<(u64, usize)>],
        src_free: &[bool],
        dst_free: &[bool],
    ) -> Matching {
        let n = self.config.ports;
        assert_eq!(demand.len(), n, "demand rows must equal port count");
        assert_eq!(src_free.len(), n);
        assert_eq!(dst_free.len(), n);

        // Dense entry point: derive the active-destination list by scanning
        // all ports, then defer to the sparse core. The demand-sparse
        // scheduler skips this scan by maintaining the list incrementally.
        let active: Vec<usize> = (0..n)
            .filter(|&d| dst_free[d] && !demand[d].is_empty())
            .collect();
        let mut pairs = Vec::new();
        let outcome = self.run_sparse(&active, demand, |s| src_free[s], &mut pairs);
        Matching {
            pairs,
            iterations: outcome.iterations,
            cycles: outcome.cycles,
        }
    }

    /// Demand-sparse PIM: forms the same matching as [`PimRunner::run`]
    /// while touching only the destinations in `active_dests` — the
    /// hardware behaviour, where ports without queued notifications never
    /// participate (§3.1.2). Cost is `O(active · depth)` per iteration
    /// instead of `O(ports)`.
    ///
    /// `active_dests` must list destinations that are available this round
    /// and have a non-empty `demand` row; for bit-identical results with
    /// the dense path it must be in ascending order. `src_free(s)` reports
    /// initial source eligibility and is consulted only for sources that
    /// appear in active rows. Matched pairs are appended to `pairs`
    /// (cleared first), so steady-state runs are allocation-free.
    ///
    /// # Panics
    ///
    /// Panics (debug) if an active row names an out-of-range source.
    pub fn run_sparse<F: FnMut(usize) -> bool>(
        &mut self,
        active_dests: &[usize],
        demand: &[Vec<(u64, usize)>],
        mut src_free: F,
        pairs: &mut Vec<(usize, usize)>,
    ) -> SparseOutcome {
        pairs.clear();
        let n = self.config.ports;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: old stamps could collide; reset them.
            self.src_matched.iter_mut().for_each(|e| *e = 0);
            self.dst_matched.iter_mut().for_each(|e| *e = 0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let mut iterations = 0usize;
        let mut capped = false;

        // Only destinations that are available and have demand can ever
        // propose; once a destination fails to find an eligible source it
        // can be dropped permanently (sources only become *less* available
        // within a run).
        self.active_dests.clear();
        self.active_dests.extend_from_slice(active_dests);

        loop {
            if let Some(cap) = self.config.max_iterations {
                if iterations >= cap {
                    capped = !self.active_dests.is_empty();
                    break;
                }
            }
            // --- Cycle 1: each active destination proposes its highest-
            // priority message whose source is still available.
            // proposals[s] collects (priority, dest) requests for source s.
            for &s in &self.proposed_srcs {
                self.proposals[s].clear();
            }
            self.proposed_srcs.clear();
            self.next_active.clear();
            for &d in &self.active_dests {
                debug_assert!(self.dst_matched[d] != epoch);
                let proposal = demand[d].iter().find(|&&(_, s)| {
                    debug_assert!(s < n, "source {s} out of range");
                    self.src_matched[s] != epoch && src_free(s)
                });
                // A destination with no eligible source left is
                // permanently out.
                if let Some(&(prio, s)) = proposal {
                    if self.proposals[s].is_empty() {
                        self.proposed_srcs.push(s);
                    }
                    self.proposals[s].push((prio, d));
                    self.next_active.push(d);
                }
            }
            if self.next_active.is_empty() {
                break;
            }
            std::mem::swap(&mut self.active_dests, &mut self.next_active);
            iterations += 1;

            // --- Cycle 2: each contended source resolves by priority.
            // The hardware keeps a per-source array of destinations sorted
            // by priority and a priority encoder over it; we model that by
            // sorting the (tiny) proposal set and asserting encoder bits.
            for i in 0..self.proposed_srcs.len() {
                let s = self.proposed_srcs[i];
                let mut reqs = std::mem::take(&mut self.proposals[s]);
                reqs.sort_unstable(); // (priority, dest): ascending = best first
                let enc = &mut self.encoders[s];
                if enc.width() < reqs.len() {
                    *enc = PriorityEncoder::new(reqs.len().next_power_of_two());
                }
                enc.clear();
                for (rank, _) in reqs.iter().enumerate() {
                    enc.set(rank);
                }
                let winner = enc.resolve().expect("at least one request");
                let (_, d) = reqs[winner];
                self.proposals[s] = reqs;

                // --- Cycle 3: mark the matched pair busy.
                debug_assert!(self.src_matched[s] != epoch && self.dst_matched[d] != epoch);
                self.src_matched[s] = epoch;
                self.dst_matched[d] = epoch;
                pairs.push((s, d));
            }
            // Matched destinations drop out of the active set.
            let dst_matched = &self.dst_matched;
            self.active_dests.retain(|&d| dst_matched[d] != epoch);
        }

        SparseOutcome {
            iterations,
            cycles: iterations as u64 * CYCLES_PER_ITERATION,
            capped,
        }
    }
}

/// Average-case scheduling latency for an `n`-port switch at `clock`
/// period: `3·log2(n)` cycles (§3.1.3).
pub fn scheduling_latency(ports: usize, clock: edm_sim::Duration) -> edm_sim::Duration {
    let log = (usize::BITS - ports.next_power_of_two().leading_zeros() - 1) as u64;
    CYCLES_PER_ITERATION * log.max(1) * clock
}

/// Minimum chunk size (bytes) for line-rate scheduling: the chunk's
/// transmission time must cover the matching latency (§3.1.3).
pub fn min_chunk_for_line_rate(
    ports: usize,
    clock: edm_sim::Duration,
    link: edm_sim::Bandwidth,
) -> u64 {
    let t = scheduling_latency(ports, clock);
    link.bytes_in(t).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_sim::{Bandwidth, Duration};

    fn all_free(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    /// Checks the matching is valid (injective both ways) and maximal with
    /// respect to the demand.
    fn assert_valid_maximal(m: &Matching, demand: &[Vec<(u64, usize)>]) {
        let mut src_used = std::collections::HashSet::new();
        let mut dst_used = std::collections::HashSet::new();
        for &(s, d) in &m.pairs {
            assert!(src_used.insert(s), "source {s} matched twice");
            assert!(dst_used.insert(d), "dest {d} matched twice");
        }
        // Maximality: no demand edge with both endpoints unmatched.
        for (d, row) in demand.iter().enumerate() {
            if dst_used.contains(&d) {
                continue;
            }
            for &(_, s) in row {
                assert!(
                    src_used.contains(&s),
                    "edge {s}->{d} left unmatched but both free"
                );
            }
        }
    }

    #[test]
    fn single_demand_matches() {
        let mut pim = PimRunner::new(PimConfig::for_ports(4));
        let mut demand = vec![Vec::new(); 4];
        demand[2].push((10, 0));
        let m = pim.run(&demand, &all_free(4), &all_free(4));
        assert_eq!(m.pairs, vec![(0, 2)]);
        assert_eq!(m.iterations, 1);
        assert_eq!(m.cycles, 3);
    }

    #[test]
    fn conflict_resolved_by_priority() {
        // Two destinations want the same source; lower key wins.
        let mut pim = PimRunner::new(PimConfig::for_ports(4));
        let mut demand = vec![Vec::new(); 4];
        demand[1].push((50, 0));
        demand[2].push((10, 0)); // higher priority
        let m = pim.run(&demand, &all_free(4), &all_free(4));
        assert!(m.pairs.contains(&(0, 2)));
        assert!(!m.pairs.contains(&(0, 1)));
    }

    #[test]
    fn loser_matches_in_later_iteration() {
        // dest1 loses src0 to dest2 but can fall back to src3.
        let mut pim = PimRunner::new(PimConfig::for_ports(4));
        let mut demand = vec![Vec::new(); 4];
        demand[1] = vec![(5, 0), (80, 3)];
        demand[2] = vec![(1, 0)];
        let m = pim.run(&demand, &all_free(4), &all_free(4));
        assert_valid_maximal(&m, &demand);
        assert!(m.pairs.contains(&(0, 2)));
        assert!(m.pairs.contains(&(3, 1)));
        assert_eq!(m.iterations, 2);
    }

    #[test]
    fn busy_ports_excluded() {
        let mut pim = PimRunner::new(PimConfig::for_ports(3));
        let mut demand = vec![Vec::new(); 3];
        demand[1].push((1, 0));
        demand[2].push((1, 0));
        let mut src_free = all_free(3);
        src_free[0] = false; // source busy: nothing can match
        let m = pim.run(&demand, &src_free, &all_free(3));
        assert!(m.pairs.is_empty());
        assert_eq!(m.iterations, 0);

        let mut dst_free = all_free(3);
        dst_free[1] = false;
        let m = pim.run(&demand, &all_free(3), &dst_free);
        assert_eq!(m.pairs, vec![(0, 2)]);
    }

    #[test]
    fn permutation_demand_matches_fully_in_one_iteration() {
        let n = 16;
        let mut pim = PimRunner::new(PimConfig::for_ports(n));
        let mut demand = vec![Vec::new(); n];
        for (d, row) in demand.iter_mut().enumerate() {
            row.push((d as u64, (d + 1) % n));
        }
        let m = pim.run(&demand, &all_free(n), &all_free(n));
        assert_eq!(m.pairs.len(), n);
        assert_eq!(m.iterations, 1, "disjoint demand needs one iteration");
    }

    #[test]
    fn random_demand_valid_and_maximal() {
        let n = 32;
        let mut rng = edm_sim::Rng::seed_from(99);
        for trial in 0..50 {
            let mut demand = vec![Vec::new(); n];
            for (d, row) in demand.iter_mut().enumerate() {
                let k = rng.below(5);
                for _ in 0..k {
                    let s = rng.below(n as u64) as usize;
                    row.push((rng.below(1000), s));
                }
                row.sort_unstable();
                let _ = d;
            }
            let mut pim = PimRunner::new(PimConfig::for_ports(n));
            let m = pim.run(&demand, &all_free(n), &all_free(n));
            assert_valid_maximal(&m, &demand);
            assert!(
                m.iterations <= n,
                "trial {trial}: {} iterations absurd",
                m.iterations
            );
        }
    }

    #[test]
    fn average_iterations_near_log_n() {
        // All-to-all uniform demand: PIM should converge in O(log N)
        // iterations on average. For N=64 expect well under N/2.
        let n = 64;
        let mut rng = edm_sim::Rng::seed_from(7);
        let mut total_iters = 0usize;
        let trials = 30;
        for _ in 0..trials {
            let mut demand = vec![Vec::new(); n];
            for row in demand.iter_mut() {
                for s in 0..n {
                    row.push((rng.below(10_000), s));
                }
                row.sort_unstable();
            }
            let mut pim = PimRunner::new(PimConfig::for_ports(n));
            let m = pim.run(&demand, &all_free(n), &all_free(n));
            assert_eq!(m.pairs.len(), n, "full demand must match all ports");
            total_iters += m.iterations;
        }
        let avg = total_iters as f64 / trials as f64;
        assert!(
            avg <= 2.0 * (n as f64).log2(),
            "avg iterations {avg} should be O(log n) = {}",
            (n as f64).log2()
        );
    }

    #[test]
    fn iteration_cap_respected() {
        let n = 8;
        let mut demand = vec![Vec::new(); n];
        for (d, row) in demand.iter_mut().enumerate() {
            for s in 0..n {
                row.push(((s + d) as u64, s));
            }
            row.sort_unstable();
        }
        let mut pim = PimRunner::new(PimConfig {
            ports: n,
            max_iterations: Some(1),
        });
        let m = pim.run(&demand, &all_free(n), &all_free(n));
        assert_eq!(m.iterations, 1);
    }

    #[test]
    fn scheduling_latency_formula() {
        // 512 ports at 3 GHz: 3*log2(512)=27 cycles ≈ 9 ns (§3.1.3).
        let t = scheduling_latency(512, crate::ASIC_CLOCK);
        let ns = t.as_ns_f64();
        assert!((ns - 9.0).abs() < 0.1, "got {ns} ns, expected ~9 ns");
    }

    #[test]
    fn min_chunk_for_512x100g() {
        // §3.1.3: "to achieve line rate scheduling for 512x100 Gbps switch,
        // EDM would set the minimum chunk size to 128 B."
        let c = min_chunk_for_line_rate(512, crate::ASIC_CLOCK, Bandwidth::from_gbps(100));
        assert_eq!(c, 128);
    }

    #[test]
    fn scheduling_latency_monotone_in_ports() {
        let clock = Duration::from_ps(333);
        let l16 = scheduling_latency(16, clock);
        let l512 = scheduling_latency(512, clock);
        assert!(l16 < l512);
    }
}
