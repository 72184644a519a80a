//! Property-based tests for the topology subsystem: every (src, dst)
//! pair routes over a valid path, hop counts match the tier structure,
//! the precomputed ECMP table routes and digests exactly like a
//! from-scratch filter walk through any fault sequence, and the 1-switch
//! topology is bit-identical to the legacy single-switch `EdmWorld` path.

use edm_core::sim::{ClusterConfig, EdmProtocol, FabricProtocol, Flow, FlowKind};
use edm_sim::Time;
use edm_topo::world::FlowStatus;
use edm_topo::{
    cluster_topology, Endpoint, Hop, LeafSpine, Route, TopoEdm, TopoEdmConfig, Topology,
};
use proptest::prelude::*;

/// Structural validity of one route: every hop's ports are in range, the
/// out link really connects hop k to hop k+1 (matching ports), the first
/// hop starts at the source's attachment, and the last hop's out link
/// reaches the destination node.
fn assert_route_valid(t: &Topology, src: usize, dst: usize, r: &Route) {
    assert_eq!(r.src_link, t.node_link(src), "hop 0 starts at the source");
    let (s_sw, s_port) = t.attach(src);
    assert_eq!((r.hops[0].switch, r.hops[0].in_port), (s_sw, s_port));
    for h in &r.hops {
        assert!(t.switch_up(h.switch), "route crosses a live switch");
        assert!((h.in_port as usize) < t.switch_ports(h.switch));
        assert!((h.out_port as usize) < t.switch_ports(h.switch));
        assert!(t.link(h.out_link).is_up(), "route crosses live links");
    }
    for w in r.hops.windows(2) {
        match t.link_far_end(w[0].out_link, w[0].switch) {
            Endpoint::Port { switch, port } => {
                assert_eq!(switch, w[1].switch, "links connect consecutive hops");
                assert_eq!(port, w[1].in_port, "far port is the next in_port");
            }
            Endpoint::Node(n) => panic!("mid-route link ends at node {n}"),
        }
    }
    let last = r.hops.last().unwrap();
    match t.link_far_end(last.out_link, last.switch) {
        Endpoint::Node(n) => assert_eq!(n as usize, dst, "route reaches dst"),
        other => panic!("route ends at {other:?}, not node {dst}"),
    }
}

/// The router as it was before the ECMP table, kept as an executable
/// specification and written against the public API only: at every
/// switch it filters the trunk adjacency for live minimal-distance
/// candidates twice (count, then select) and lets the salt pick.
mod reference {
    use super::*;

    /// `(neighbor switch, link id, local port, far port)`.
    type TrunkEdge = (u32, u32, u16, u16);

    /// Switch `s`'s trunk adjacency in link-id order — the candidate
    /// order ECMP picks are defined over.
    fn trunks(t: &Topology, s: u32) -> Vec<TrunkEdge> {
        let mut out = Vec::new();
        for (id, l) in t.links().iter().enumerate() {
            if let (
                Endpoint::Port {
                    switch: x,
                    port: px,
                },
                Endpoint::Port {
                    switch: y,
                    port: py,
                },
            ) = (l.a, l.b)
            {
                if x == s {
                    out.push((y, id as u32, px, py));
                } else if y == s {
                    out.push((x, id as u32, py, px));
                }
            }
        }
        out
    }

    fn eligible(t: &Topology, d_sw: u32, d_here: usize, &(nb, link, _, _): &TrunkEdge) -> bool {
        t.link(link).is_up()
            && t.switch_up(nb)
            && t.switch_distance(nb, d_sw).is_some_and(|d| d + 1 == d_here)
    }

    pub fn route(t: &Topology, src: usize, dst: usize, salt: u64) -> Option<Route> {
        let (s_sw, s_port) = t.attach(src);
        let (d_sw, d_port) = t.attach(dst);
        let (src_link, dst_link) = (t.node_link(src), t.node_link(dst));
        if !t.switch_up(s_sw)
            || !t.switch_up(d_sw)
            || !t.link(src_link).is_up()
            || !t.link(dst_link).is_up()
        {
            return None;
        }
        let mut hops = Vec::new();
        let (mut cur, mut in_port) = (s_sw, s_port);
        loop {
            if cur == d_sw {
                hops.push(Hop {
                    switch: cur,
                    in_port,
                    out_port: d_port,
                    out_link: dst_link,
                });
                return Some(Route { hops, src_link });
            }
            let d_here = t.switch_distance(cur, d_sw)?;
            let adj = trunks(t, cur);
            let count = adj.iter().filter(|e| eligible(t, d_sw, d_here, e)).count();
            if count == 0 {
                return None;
            }
            let &(nb, link, local, far) = adj
                .iter()
                .filter(|e| eligible(t, d_sw, d_here, e))
                .nth((salt % count as u64) as usize)
                .expect("pick is within the candidate count");
            hops.push(Hop {
                switch: cur,
                in_port,
                out_port: local,
                out_link: link,
            });
            cur = nb;
            in_port = far;
        }
    }

    /// FNV-1a over each row's live distance (`u16::MAX` = unreachable)
    /// and eligible link ids, as `Topology::route_digests` documents.
    pub fn route_digests(t: &Topology) -> Vec<u64> {
        let n = t.switch_count();
        let mut out = vec![0u64; n * n];
        for s in 0..n as u32 {
            let adj = trunks(t, s);
            for d in 0..n as u32 {
                if s == d {
                    continue;
                }
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
                let d_here = t.switch_distance(s, d);
                mix(d_here.map_or(u16::MAX as u64, |d| d as u64));
                if let Some(d_here) = d_here {
                    for e in adj.iter().filter(|e| eligible(t, d, d_here, e)) {
                        mix(e.1 as u64 + 1);
                    }
                }
                out[s as usize * n + d as usize] = h;
            }
        }
        out
    }
}

/// Applies `ops` — `(is_switch, index, up)` element state changes — one
/// at a time, checking after each (and before the first) that the
/// table-driven router agrees with the reference walk on every ordered
/// node pair under each salt, and that the row digests agree too.
fn assert_table_matches_reference(
    t: &mut Topology,
    ops: &[(bool, usize, bool)],
    salts: &[u64],
) -> Result<(), TestCaseError> {
    for step in 0..=ops.len() {
        if step > 0 {
            let (is_switch, idx, up) = ops[step - 1];
            if is_switch {
                t.set_switch_up((idx % t.switch_count()) as u32, up);
            } else {
                t.set_link_up((idx % t.links().len()) as u32, up);
            }
        }
        prop_assert_eq!(
            t.route_digests(),
            reference::route_digests(t),
            "step {}",
            step
        );
        for src in 0..t.nodes() {
            for dst in 0..t.nodes() {
                if src == dst {
                    continue;
                }
                for &salt in salts {
                    prop_assert_eq!(
                        t.route(src, dst, salt),
                        reference::route(t, src, dst, salt),
                        "step {}: {} -> {} salt {}",
                        step,
                        src,
                        dst,
                        salt
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    /// The ECMP table is the filter walk, precomputed: on leaf–spine
    /// fabrics of random shape, through random link and switch down/up
    /// sequences, every (src, dst, salt) routes identically — including
    /// to `None` — and `route_digests` is unchanged value for value.
    #[test]
    fn table_routes_like_the_filter_walk_on_leaf_spine(
        leaves in 2usize..5,
        spines in 1usize..4,
        npl in 1usize..4,
        uplinks in 1usize..4,
        ops in proptest::collection::vec((any::<bool>(), 0usize..1000, any::<bool>()), 0..10),
        salts in proptest::collection::vec(any::<u64>(), 3),
    ) {
        let mut t = Topology::leaf_spine(LeafSpine::symmetric(leaves, spines, npl, uplinks));
        assert_table_matches_reference(&mut t, &ops, &salts)?;
    }

    /// Same, on arbitrary adjacency: a random tree plus random extra
    /// trunks (parallel ones included), hosts on a random subset of the
    /// switches.
    #[test]
    fn table_routes_like_the_filter_walk_on_arbitrary_adjacency(
        switches in 2usize..7,
        parents in proptest::collection::vec(any::<u32>(), 6),
        extra in proptest::collection::vec((0u32..7, 0u32..7), 0..8),
        attach in proptest::collection::vec(0u32..7, 2..8),
        ops in proptest::collection::vec((any::<bool>(), 0usize..1000, any::<bool>()), 0..10),
        salts in proptest::collection::vec(any::<u64>(), 3),
    ) {
        let n = switches as u32;
        let mut trunks: Vec<(u32, u32)> = (1..n).map(|s| (parents[s as usize - 1] % s, s)).collect();
        trunks.extend(extra.iter().map(|&(a, b)| (a % n, b % n)).filter(|&(a, b)| a != b));
        let attach: Vec<u32> = attach.iter().map(|&sw| sw % n).collect();
        let mut t = Topology::from_adjacency(
            switches,
            &attach,
            &trunks,
            Default::default(),
            Default::default(),
        );
        assert_table_matches_reference(&mut t, &ops, &salts)?;
    }

    /// Leaf–spine fabrics of random shape: every ordered pair routes,
    /// same-leaf pairs in one hop, cross-leaf pairs in exactly three
    /// (leaf → spine → leaf), and every route is structurally valid.
    #[test]
    fn leaf_spine_routing_matches_tiers(
        leaves in 2usize..6,
        spines in 1usize..4,
        npl in 2usize..6,
        uplinks in 1usize..3,
        salt in any::<u64>(),
    ) {
        let t = Topology::leaf_spine(LeafSpine::symmetric(leaves, spines, npl, uplinks));
        let nodes = leaves * npl;
        for src in 0..nodes {
            for dst in 0..nodes {
                if src == dst {
                    continue;
                }
                let r = t.route(src, dst, salt).expect("healthy fabric routes all pairs");
                let same_leaf = src / npl == dst / npl;
                prop_assert_eq!(r.hops.len(), if same_leaf { 1 } else { 3 });
                assert_route_valid(&t, src, dst, &r);
            }
        }
    }

    /// Arbitrary connected adjacency: a random spanning path plus random
    /// extra trunks; all pairs must route over valid paths no longer than
    /// the switch count.
    #[test]
    fn arbitrary_adjacency_routes_all_pairs(
        switches in 2usize..7,
        attach_seed in any::<u64>(),
        extra in proptest::collection::vec((0u32..7, 0u32..7), 0..6),
        salt in any::<u64>(),
    ) {
        // One node per switch guarantees every switch is a leaf; a
        // spanning path guarantees connectivity.
        let attach: Vec<u32> = (0..switches as u32).collect();
        let mut trunks: Vec<(u32, u32)> = (1..switches as u32).map(|s| {
            // Each switch links to a pseudo-random earlier one: a tree.
            let parent = (attach_seed.wrapping_mul(0x9E37_79B9).wrapping_add(s as u64 * 7) % s as u64) as u32;
            (parent, s)
        }).collect();
        for &(a, b) in &extra {
            let (a, b) = (a % switches as u32, b % switches as u32);
            if a != b {
                trunks.push((a.min(b), a.max(b)));
            }
        }
        let t = Topology::from_adjacency(
            switches,
            &attach,
            &trunks,
            Default::default(),
            Default::default(),
        );
        for src in 0..switches {
            for dst in 0..switches {
                if src == dst {
                    continue;
                }
                let r = t.route(src, dst, salt).expect("connected graph routes all pairs");
                prop_assert!(r.hops.len() <= switches, "no loops");
                let expect_hops = t.switch_distance(attach[src], attach[dst]).unwrap() + 1;
                prop_assert_eq!(r.hops.len(), expect_hops, "route follows shortest paths");
                assert_route_valid(&t, src, dst, &r);
            }
        }
    }

    /// The degenerate 1-switch topology is bit-identical to the legacy
    /// single-switch simulator: same flows, exactly equal per-flow
    /// completion times — including the X-limit backlog path.
    #[test]
    fn single_switch_bit_identical_to_legacy(
        specs in proptest::collection::vec(
            (0usize..8, 8usize..16, 1u32..4096, 0u64..10_000, any::<bool>()),
            1..40,
        ),
        x in 1usize..5,
    ) {
        let cluster = ClusterConfig { nodes: 16, ..ClusterConfig::default() };
        let flows: Vec<Flow> = specs
            .iter()
            .enumerate()
            .map(|(id, &(src, dst, size, at, is_write))| Flow {
                id,
                src,
                dst,
                size,
                arrival: Time::from_ns(at),
                kind: if is_write { FlowKind::Write } else { FlowKind::Read },
            })
            .collect();
        let mut legacy = EdmProtocol {
            max_active_per_pair: x,
            ..EdmProtocol::default()
        };
        let expect = legacy.simulate(&cluster, &flows);
        let topo = cluster_topology(&cluster);
        let topo_edm = TopoEdm::new(TopoEdmConfig::matching(&cluster, &legacy));
        let got = topo_edm.simulate(&topo, &flows);
        prop_assert_eq!(got.outcomes.len(), expect.outcomes.len());
        for (a, b) in expect.outcomes.iter().zip(&got.outcomes) {
            prop_assert_eq!(
                FlowStatus::Delivered(a.completed),
                b.status,
                "flow {:?} diverged",
                a.flow
            );
        }
        prop_assert_eq!(got.stats.reroutes, 0);
        prop_assert_eq!(got.stats.failed, 0);
        // The two worlds agree event for event, not only outcome for
        // outcome: streamed over the same time-ordered flows, both
        // dispatch one demand per flow, the same polls (superseded ones
        // included) and the same chunks, and run the same rounds, empty
        // ones included. Admissions are the topology world's alone and
        // it does not count them.
        let mut sorted = flows;
        sorted.sort_by_key(|f| f.arrival);
        for (id, f) in sorted.iter_mut().enumerate() {
            f.id = id;
        }
        let legacy_stats = legacy.simulate_streamed(&cluster, sorted.iter().copied(), |_| {});
        let topo_stats = topo_edm.simulate_streamed(&topo, sorted.iter().copied(), |_| {});
        prop_assert_eq!(
            (legacy_stats.events, legacy_stats.rounds, legacy_stats.empty_rounds),
            (topo_stats.events, topo_stats.rounds, topo_stats.empty_rounds)
        );
        prop_assert_eq!(legacy_stats.completed, topo_stats.delivered);
    }

    /// ECMP determinism: the same (topology, flow, salt) always yields
    /// the same route, and routes never cross down elements.
    #[test]
    fn routing_is_deterministic_and_avoids_down_elements(
        kill_spine in 0usize..3,
        salt in any::<u64>(),
    ) {
        let mut t = Topology::leaf_spine(LeafSpine::symmetric(3, 3, 3, 2));
        let dead = (3 + kill_spine) as u32;
        t.set_switch_up(dead, false);
        for (src, dst) in [(0usize, 4usize), (1, 7), (8, 2)] {
            let a = t.route(src, dst, salt).expect("two spines remain");
            let b = t.route(src, dst, salt).unwrap();
            prop_assert_eq!(&a, &b, "same salt, same route");
            prop_assert!(!a.uses_switch(dead), "route avoids the dead spine");
            assert_route_valid(&t, src, dst, &a);
        }
    }
}
