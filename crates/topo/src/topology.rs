//! The fabric graph: switches, links, node attachment, ECMP routing, and
//! failure state.
//!
//! A [`Topology`] is a static port-level description of the fabric plus
//! mutable element state (links and switches can be taken down, links can
//! be latency-degraded). Routing is recomputed whenever element state
//! changes: a BFS hop-distance matrix over the live inter-switch graph
//! yields, per (switch, destination switch), the list of live
//! minimal-distance trunks, and the ECMP walk indexes that list — at
//! every switch the next hop is `choices[salt % choices.len()]`, so
//! equal-cost paths (spines, parallel trunks) spread by flow id.

use edm_sim::{Bandwidth, Duration};

/// Physical parameters of one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// Link bandwidth.
    pub bandwidth: Bandwidth,
    /// One-way propagation delay.
    pub propagation: Duration,
}

impl Default for LinkParams {
    fn default() -> Self {
        // The paper's §4.3 scale: 100 Gb/s links, 10 ns propagation.
        LinkParams {
            bandwidth: Bandwidth::from_gbps(100),
            propagation: Duration::from_ns(10),
        }
    }
}

/// Role of a switch in the fabric. Routing is role-agnostic; roles drive
/// construction, reporting, and tier-structure assertions in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchRole {
    /// Hosts attach here (also the single switch of a 1-switch fabric).
    Leaf,
    /// Interconnects leaves; no hosts.
    Spine,
}

/// What one end of a link connects to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// A host node.
    Node(u32),
    /// A switch port.
    Port {
        /// The switch.
        switch: u32,
        /// The port on that switch.
        port: u16,
    },
}

/// One link: a host access link (node ↔ leaf port) or an inter-switch
/// trunk (port ↔ port).
#[derive(Debug, Clone)]
pub struct Link {
    /// One end (the node for access links).
    pub a: Endpoint,
    /// The other end (always a switch port).
    pub b: Endpoint,
    /// Physical parameters.
    pub params: LinkParams,
    up: bool,
    extra_latency: Duration,
}

impl Link {
    /// Whether the link is administratively up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Effective one-way latency: propagation plus any degradation.
    pub fn latency(&self) -> Duration {
        self.params.propagation + self.extra_latency
    }

    /// The degradation currently applied.
    pub fn extra_latency(&self) -> Duration {
        self.extra_latency
    }

    /// Whether this is an inter-switch trunk.
    pub fn is_trunk(&self) -> bool {
        matches!(self.a, Endpoint::Port { .. })
    }
}

#[derive(Debug, Clone)]
struct Switch {
    role: SwitchRole,
    ports: usize,
    up: bool,
}

/// A trunk adjacency entry: `(neighbor switch, link id, local port, far
/// port)`, kept sorted by link id for deterministic candidate ordering.
type TrunkEdge = (u32, u32, u16, u16);

/// One hop of a route: the switch that schedules it and the ingress/egress
/// ports the message crosses there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The switch.
    pub switch: u32,
    /// Ingress port (the data source's access port at hop 0).
    pub in_port: u16,
    /// Egress port.
    pub out_port: u16,
    /// The link crossed when leaving this switch.
    pub out_link: u32,
}

/// A routed path for one flow's data direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Hops in order; the last hop's out link reaches the destination
    /// node.
    pub hops: Vec<Hop>,
    /// The data-source node's access link (crossed before hop 0).
    pub src_link: u32,
}

impl Route {
    /// Whether the path is scheduled by `switch`.
    pub fn uses_switch(&self, switch: u32) -> bool {
        self.hops.iter().any(|h| h.switch == switch)
    }
}

/// Hops a [`Path`] holds without allocating: a leaf–spine path crosses
/// at most three switches (leaf, spine, leaf).
const INLINE_HOPS: usize = 3;

/// A routed path in the engine's compact form: per hop only the
/// scheduling switch and the link crossed leaving it. Ports follow from
/// link endpoints ([`Topology::port_at`]) and the source access link from
/// the data source ([`Topology::node_link`]), so a leaf–spine path fits
/// in 24 bytes; longer paths (arbitrary adjacency) spill to the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Path {
    /// Up to [`INLINE_HOPS`] hops; switch ids are `u16`, as in event
    /// order keys (`Topology::recompute_routes` enforces the range).
    Inline {
        len: u8,
        switches: [u16; INLINE_HOPS],
        out_links: [u32; INLINE_HOPS],
    },
    /// `(switch, out_link)` per hop.
    Spill(Box<[(u32, u32)]>),
}

impl Path {
    const EMPTY: Path = Path::Inline {
        len: 0,
        switches: [0; INLINE_HOPS],
        out_links: [0; INLINE_HOPS],
    };

    fn push(&mut self, switch: u32, out_link: u32) {
        match self {
            Path::Inline {
                len,
                switches,
                out_links,
            } if (*len as usize) < INLINE_HOPS => {
                switches[*len as usize] = switch as u16;
                out_links[*len as usize] = out_link;
                *len += 1;
            }
            _ => {
                let mut hops: Vec<(u32, u32)> = self.iter().collect();
                hops.push((switch, out_link));
                *self = Path::Spill(hops.into_boxed_slice());
            }
        }
    }

    /// Number of hops (switches crossed).
    pub(crate) fn len(&self) -> usize {
        match self {
            Path::Inline { len, .. } => *len as usize,
            Path::Spill(hops) => hops.len(),
        }
    }

    /// The switch that schedules hop `i`.
    pub(crate) fn switch(&self, i: usize) -> u32 {
        debug_assert!(i < self.len(), "hop {i} of a {}-hop path", self.len());
        match self {
            Path::Inline { switches, .. } => switches[i] as u32,
            Path::Spill(hops) => hops[i].0,
        }
    }

    /// The link crossed leaving hop `i`'s switch; the last hop's reaches
    /// the destination node.
    pub(crate) fn out_link(&self, i: usize) -> u32 {
        debug_assert!(i < self.len(), "hop {i} of a {}-hop path", self.len());
        match self {
            Path::Inline { out_links, .. } => out_links[i],
            Path::Spill(hops) => hops[i].1,
        }
    }

    /// `(switch, out_link)` per hop, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.len()).map(|i| (self.switch(i), self.out_link(i)))
    }
}

/// Hop distance marking "unreachable".
const UNREACH: u16 = u16::MAX;

/// A multi-switch fabric graph with mutable failure state.
#[derive(Debug, Clone)]
pub struct Topology {
    switches: Vec<Switch>,
    /// node → (switch, port).
    node_attach: Vec<(u32, u16)>,
    /// node → access link id.
    node_link: Vec<u32>,
    links: Vec<Link>,
    /// Per switch: trunk adjacency, sorted by link id.
    trunks: Vec<Vec<TrunkEdge>>,
    /// Switch-to-switch hop distance over live elements (row-major).
    dist: Vec<u16>,
    /// ECMP choices in CSR form: row `s * n + d` of `next_hops`, bounded
    /// by `next_off[row]..next_off[row + 1]`, lists the live trunks of
    /// switch `s` whose far end is one hop closer to switch `d`, in
    /// adjacency (link-id) order. Empty when `d` is unreachable or is `s`
    /// itself. Rebuilt with `dist`, read once per hop by [`Topology::route`].
    next_off: Vec<u32>,
    next_hops: Vec<TrunkEdge>,
}

/// A leaf–spine fabric description.
#[derive(Debug, Clone, Copy)]
pub struct LeafSpine {
    /// Number of leaf switches.
    pub leaves: usize,
    /// Number of spine switches.
    pub spines: usize,
    /// Hosts per leaf.
    pub nodes_per_leaf: usize,
    /// Parallel trunks from each leaf to each spine. Oversubscription is
    /// `nodes_per_leaf / (spines × uplinks_per_spine)` at equal link
    /// speeds.
    pub uplinks_per_spine: usize,
    /// Host access-link parameters.
    pub host: LinkParams,
    /// Trunk parameters.
    pub trunk: LinkParams,
}

impl LeafSpine {
    /// Evaluation-scale defaults for the given shape: 100 G links, 10 ns
    /// propagation everywhere.
    pub fn symmetric(leaves: usize, spines: usize, nodes_per_leaf: usize, uplinks: usize) -> Self {
        LeafSpine {
            leaves,
            spines,
            nodes_per_leaf,
            uplinks_per_spine: uplinks,
            host: LinkParams::default(),
            trunk: LinkParams::default(),
        }
    }

    /// Host-to-uplink capacity ratio per leaf (1.0 = non-blocking).
    pub fn oversubscription(&self) -> f64 {
        let host = self.nodes_per_leaf as f64 * self.host.bandwidth.as_bps() as f64;
        let up =
            (self.spines * self.uplinks_per_spine) as f64 * self.trunk.bandwidth.as_bps() as f64;
        host / up
    }

    /// Total host count.
    pub fn nodes(&self) -> usize {
        self.leaves * self.nodes_per_leaf
    }
}

impl Topology {
    /// The degenerate 1-switch fabric: `nodes` hosts behind one switch —
    /// exactly the legacy `EdmWorld` cluster shape.
    pub fn single_switch(nodes: usize, host: LinkParams) -> Self {
        assert!(nodes >= 2, "need at least two nodes");
        let mut t = Topology {
            switches: vec![Switch {
                role: SwitchRole::Leaf,
                ports: nodes,
                up: true,
            }],
            node_attach: Vec::with_capacity(nodes),
            node_link: Vec::with_capacity(nodes),
            links: Vec::with_capacity(nodes),
            trunks: vec![Vec::new()],
            dist: Vec::new(),
            next_off: Vec::new(),
            next_hops: Vec::new(),
        };
        for n in 0..nodes {
            t.node_attach.push((0, n as u16));
            t.node_link.push(n as u32);
            t.links.push(Link {
                a: Endpoint::Node(n as u32),
                b: Endpoint::Port {
                    switch: 0,
                    port: n as u16,
                },
                params: host,
                up: true,
                extra_latency: Duration::ZERO,
            });
        }
        t.recompute_routes();
        t
    }

    /// A two-tier leaf–spine fabric. Hosts are attached contiguously:
    /// node `n` sits on leaf `n / nodes_per_leaf`. Leaf ports are hosts
    /// first, then uplinks grouped by spine; spine `s` is switch
    /// `leaves + s`.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate shape (zero leaves/spines/hosts/uplinks).
    pub fn leaf_spine(spec: LeafSpine) -> Self {
        assert!(
            spec.leaves >= 1 && spec.spines >= 1,
            "need at least one leaf and one spine"
        );
        assert!(
            spec.nodes_per_leaf >= 1 && spec.uplinks_per_spine >= 1,
            "need hosts and uplinks"
        );
        let uplinks = spec.spines * spec.uplinks_per_spine;
        let mut switches = Vec::with_capacity(spec.leaves + spec.spines);
        for _ in 0..spec.leaves {
            switches.push(Switch {
                role: SwitchRole::Leaf,
                ports: spec.nodes_per_leaf + uplinks,
                up: true,
            });
        }
        for _ in 0..spec.spines {
            switches.push(Switch {
                role: SwitchRole::Spine,
                ports: spec.leaves * spec.uplinks_per_spine,
                up: true,
            });
        }
        let mut t = Topology {
            switches,
            node_attach: Vec::new(),
            node_link: Vec::new(),
            links: Vec::new(),
            trunks: vec![Vec::new(); spec.leaves + spec.spines],
            dist: Vec::new(),
            next_off: Vec::new(),
            next_hops: Vec::new(),
        };
        for n in 0..spec.nodes() {
            let leaf = (n / spec.nodes_per_leaf) as u32;
            let port = (n % spec.nodes_per_leaf) as u16;
            t.node_attach.push((leaf, port));
            t.node_link.push(t.links.len() as u32);
            t.links.push(Link {
                a: Endpoint::Node(n as u32),
                b: Endpoint::Port { switch: leaf, port },
                params: spec.host,
                up: true,
                extra_latency: Duration::ZERO,
            });
        }
        for l in 0..spec.leaves {
            for s in 0..spec.spines {
                for k in 0..spec.uplinks_per_spine {
                    let leaf_port = (spec.nodes_per_leaf + s * spec.uplinks_per_spine + k) as u16;
                    let spine_port = (l * spec.uplinks_per_spine + k) as u16;
                    t.add_trunk(
                        l as u32,
                        leaf_port,
                        (spec.leaves + s) as u32,
                        spine_port,
                        spec.trunk,
                    );
                }
            }
        }
        t.recompute_routes();
        t
    }

    /// An arbitrary-adjacency fabric: `attach[n]` names node `n`'s switch,
    /// `trunk_pairs` the inter-switch links. Ports are assigned hosts
    /// first, then trunk endpoints in `trunk_pairs` order. Switches with
    /// hosts are leaves; the rest are spines.
    ///
    /// # Panics
    ///
    /// Panics if an attachment or trunk endpoint is out of range.
    pub fn from_adjacency(
        switch_count: usize,
        attach: &[u32],
        trunk_pairs: &[(u32, u32)],
        host: LinkParams,
        trunk: LinkParams,
    ) -> Self {
        assert!(switch_count >= 1, "need a switch");
        let mut host_counts = vec![0usize; switch_count];
        for &sw in attach {
            host_counts[sw as usize] += 1;
        }
        let mut switches: Vec<Switch> = host_counts
            .iter()
            .map(|&hosts| Switch {
                role: if hosts > 0 {
                    SwitchRole::Leaf
                } else {
                    SwitchRole::Spine
                },
                ports: hosts,
                up: true,
            })
            .collect();
        let mut t = Topology {
            node_attach: Vec::new(),
            node_link: Vec::new(),
            links: Vec::new(),
            trunks: vec![Vec::new(); switch_count],
            dist: Vec::new(),
            next_off: Vec::new(),
            next_hops: Vec::new(),
            switches: Vec::new(),
        };
        let mut next_port = vec![0u16; switch_count];
        for (n, &sw) in attach.iter().enumerate() {
            let port = next_port[sw as usize];
            next_port[sw as usize] += 1;
            t.node_attach.push((sw, port));
            t.node_link.push(t.links.len() as u32);
            t.links.push(Link {
                a: Endpoint::Node(n as u32),
                b: Endpoint::Port { switch: sw, port },
                params: host,
                up: true,
                extra_latency: Duration::ZERO,
            });
        }
        for &(x, y) in trunk_pairs {
            assert!(
                (x as usize) < switch_count && (y as usize) < switch_count && x != y,
                "bad trunk ({x}, {y})"
            );
            let px = next_port[x as usize];
            next_port[x as usize] += 1;
            let py = next_port[y as usize];
            next_port[y as usize] += 1;
            switches[x as usize].ports += 1;
            switches[y as usize].ports += 1;
            t.add_trunk(x, px, y, py, trunk);
        }
        for (sw, used) in switches.iter_mut().zip(&next_port) {
            sw.ports = sw.ports.max(*used as usize);
        }
        t.switches = switches;
        t.recompute_routes();
        t
    }

    fn add_trunk(&mut self, x: u32, px: u16, y: u32, py: u16, params: LinkParams) {
        let id = self.links.len() as u32;
        self.links.push(Link {
            a: Endpoint::Port {
                switch: x,
                port: px,
            },
            b: Endpoint::Port {
                switch: y,
                port: py,
            },
            params,
            up: true,
            extra_latency: Duration::ZERO,
        });
        self.trunks[x as usize].push((y, id, px, py));
        self.trunks[y as usize].push((x, id, py, px));
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Port count of a switch.
    pub fn switch_ports(&self, switch: u32) -> usize {
        self.switches[switch as usize].ports
    }

    /// Role of a switch.
    pub fn switch_role(&self, switch: u32) -> SwitchRole {
        self.switches[switch as usize].role
    }

    /// Whether a switch is up.
    pub fn switch_up(&self, switch: u32) -> bool {
        self.switches[switch as usize].up
    }

    /// Number of host nodes.
    pub fn nodes(&self) -> usize {
        self.node_attach.len()
    }

    /// Node `n`'s (switch, port) attachment.
    pub fn attach(&self, node: usize) -> (u32, u16) {
        self.node_attach[node]
    }

    /// Node `n`'s access link.
    pub fn node_link(&self, node: usize) -> u32 {
        self.node_link[node]
    }

    /// The links, by id.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// One link by id.
    pub fn link(&self, id: u32) -> &Link {
        &self.links[id as usize]
    }

    /// The port `link` occupies on `switch`.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is not an endpoint of the link.
    pub fn port_at(&self, link: u32, switch: u32) -> u16 {
        let l = &self.links[link as usize];
        match (l.a, l.b) {
            (_, Endpoint::Port { switch: s, port }) if s == switch => port,
            (Endpoint::Port { switch: s, port }, _) if s == switch => port,
            _ => panic!("switch {switch} is not an endpoint of link {link}"),
        }
    }

    /// The far end of `link` as seen from `from_switch`.
    ///
    /// # Panics
    ///
    /// Panics if `from_switch` is not an endpoint of the link.
    pub fn link_far_end(&self, link: u32, from_switch: u32) -> Endpoint {
        let l = &self.links[link as usize];
        match (l.a, l.b) {
            (a, Endpoint::Port { switch, .. }) if switch == from_switch => a,
            (Endpoint::Port { switch, .. }, b) if switch == from_switch => b,
            _ => panic!("switch {from_switch} is not an endpoint of link {link}"),
        }
    }

    /// The reference bandwidth for a switch's scheduler busy-release
    /// timer: the bandwidth of its lowest-id attached link (all links of
    /// one tier are homogeneous in the fabrics modeled here).
    pub fn reference_bandwidth(&self, switch: u32) -> Bandwidth {
        self.links
            .iter()
            .find_map(|l| match (l.a, l.b) {
                (Endpoint::Port { switch: s, .. }, _) | (_, Endpoint::Port { switch: s, .. })
                    if s == switch =>
                {
                    Some(l.params.bandwidth)
                }
                _ => None,
            })
            .expect("switch has at least one link")
    }

    /// Takes a switch up or down and recomputes routing.
    pub fn set_switch_up(&mut self, switch: u32, up: bool) {
        self.switches[switch as usize].up = up;
        self.recompute_routes();
    }

    /// Takes a link up or down and recomputes routing.
    pub fn set_link_up(&mut self, link: u32, up: bool) {
        self.links[link as usize].up = up;
        self.recompute_routes();
    }

    /// Adds `extra` one-way latency to a link (persistent physical
    /// degradation; stacks with previous degradation).
    pub fn degrade_link(&mut self, link: u32, extra: Duration) {
        let l = &mut self.links[link as usize];
        l.extra_latency += extra;
    }

    /// Clears all accumulated degradation on a link (fiber replaced, FEC
    /// retrains): its latency returns to the configured propagation.
    pub fn restore_link(&mut self, link: u32) {
        self.links[link as usize].extra_latency = Duration::ZERO;
    }

    /// Recomputes the live-element BFS distance matrix and, from it, the
    /// ECMP choice list of every (switch, destination switch). Called by
    /// the failure setters; only needed directly after manual state
    /// edits.
    pub fn recompute_routes(&mut self) {
        let n = self.switches.len();
        assert!(n <= 1 << 16, "switch ids travel as u16");
        self.dist = vec![UNREACH; n * n];
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n {
            if !self.switches[start].up {
                continue;
            }
            let row = start * n;
            self.dist[row + start] = 0;
            queue.clear();
            queue.push_back(start as u32);
            while let Some(cur) = queue.pop_front() {
                let d = self.dist[row + cur as usize];
                for &(nb, link, _, _) in &self.trunks[cur as usize] {
                    if !self.links[link as usize].up || !self.switches[nb as usize].up {
                        continue;
                    }
                    if self.dist[row + nb as usize] == UNREACH {
                        self.dist[row + nb as usize] = d + 1;
                        queue.push_back(nb);
                    }
                }
            }
        }
        self.next_off.clear();
        self.next_hops.clear();
        self.next_off.push(0);
        for s in 0..n {
            for d in 0..n {
                let d_here = self.dist[s * n + d];
                if d_here != UNREACH && d_here != 0 {
                    // All live minimal-distance trunks are equal
                    // candidates. Adjacency is link-id sorted, so the
                    // candidate order — and thus every salted pick — is
                    // deterministic.
                    for &edge in &self.trunks[s] {
                        let (nb, link, _, _) = edge;
                        if self.links[link as usize].up
                            && self.switches[nb as usize].up
                            && self.dist[nb as usize * n + d] as u32 + 1 == d_here as u32
                        {
                            self.next_hops.push(edge);
                        }
                    }
                }
                self.next_off.push(self.next_hops.len() as u32);
            }
        }
    }

    /// The ECMP choices at switch `s` bound for switch `d`.
    fn choices(&self, s: usize, d: usize) -> &[TrunkEdge] {
        let row = s * self.switches.len() + d;
        &self.next_hops[self.next_off[row] as usize..self.next_off[row + 1] as usize]
    }

    /// Live hop distance between two switches.
    pub fn switch_distance(&self, a: u32, b: u32) -> Option<usize> {
        let d = self.dist[a as usize * self.switches.len() + b as usize];
        (d != UNREACH).then_some(d as usize)
    }

    /// FNV-1a digest of every ECMP decision row, row-major
    /// `switch_count() × switch_count()`. Row `(s, d)` captures exactly
    /// what [`route`](Self::route) consults when standing at switch `s`
    /// bound for destination switch `d`: the live hop distance and the
    /// eligible minimal-distance trunk list in adjacency order. Two
    /// topology states with equal digests for every row a path visits —
    /// and equal endpoint liveness — route that path identically, which
    /// is what lets what-if sweeps re-resolve only the flows a fault
    /// actually touches.
    pub fn route_digests(&self) -> Vec<u64> {
        let n = self.switches.len();
        let mut out = vec![0u64; n * n];
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
                mix(self.dist[s * n + d] as u64);
                for &(_, link, _, _) in self.choices(s, d) {
                    mix(link as u64 + 1);
                }
                out[s * n + d] = h;
            }
        }
        out
    }

    /// Routes `src` → `dst` (data direction), spreading equal-cost
    /// choices by `salt`. `None` when no live path exists (failed access
    /// link, dead attach switch, or partitioned fabric).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either node is out of range.
    pub fn route(&self, src: usize, dst: usize, salt: u64) -> Option<Route> {
        let mut hops = Vec::with_capacity(INLINE_HOPS);
        self.walk(src, dst, salt, |h| hops.push(h)).then(|| Route {
            hops,
            src_link: self.node_link[src],
        })
    }

    /// [`Topology::route`] in the engine's allocation-free [`Path`] form
    /// (same walk, same hops).
    pub(crate) fn path(&self, src: usize, dst: usize, salt: u64) -> Option<Path> {
        let mut path = Path::EMPTY;
        self.walk(src, dst, salt, |h| path.push(h.switch, h.out_link))
            .then_some(path)
    }

    /// The ECMP walk behind [`Topology::route`] and [`Topology::path`]:
    /// hands each hop to `hop` in order, and returns `false` (hops handed
    /// so far are meaningless) when no live path exists.
    fn walk(&self, src: usize, dst: usize, salt: u64, mut hop: impl FnMut(Hop)) -> bool {
        assert_ne!(src, dst, "a flow needs two distinct nodes");
        let (s_sw, s_port) = self.node_attach[src];
        let (d_sw, d_port) = self.node_attach[dst];
        let src_link = self.node_link[src];
        let dst_link = self.node_link[dst];
        if !self.switches[s_sw as usize].up
            || !self.switches[d_sw as usize].up
            || !self.links[src_link as usize].up
            || !self.links[dst_link as usize].up
        {
            return false;
        }
        let mut cur = s_sw;
        let mut in_port = s_port;
        let mut crossed = 0;
        loop {
            if cur == d_sw {
                hop(Hop {
                    switch: cur,
                    in_port,
                    out_port: d_port,
                    out_link: dst_link,
                });
                return true;
            }
            // ECMP: the salt picks among the precomputed equal-cost
            // choices — this runs once per flow on the simulator hot path.
            let choices = self.choices(cur as usize, d_sw as usize);
            if choices.is_empty() {
                return false; // partitioned from the destination switch
            }
            let (nb, link, local, far) = choices[(salt % choices.len() as u64) as usize];
            hop(Hop {
                switch: cur,
                in_port,
                out_port: local,
                out_link: link,
            });
            cur = nb;
            in_port = far;
            crossed += 1;
            debug_assert!(crossed <= self.switches.len(), "routing walked a loop");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_routes_one_hop() {
        let t = Topology::single_switch(8, LinkParams::default());
        let r = t.route(0, 7, 0).expect("route exists");
        assert_eq!(r.hops.len(), 1);
        assert_eq!(
            r.hops[0],
            Hop {
                switch: 0,
                in_port: 0,
                out_port: 7,
                out_link: 7,
            }
        );
        assert_eq!(r.src_link, 0);
    }

    #[test]
    fn leaf_spine_shape() {
        let spec = LeafSpine::symmetric(4, 2, 8, 2);
        assert_eq!(spec.nodes(), 32);
        assert!((spec.oversubscription() - 2.0).abs() < 1e-9);
        let t = Topology::leaf_spine(spec);
        assert_eq!(t.switch_count(), 6);
        assert_eq!(t.switch_role(0), SwitchRole::Leaf);
        assert_eq!(t.switch_role(4), SwitchRole::Spine);
        assert_eq!(t.switch_ports(0), 8 + 4);
        assert_eq!(t.switch_ports(4), 8);
        // Same-leaf: one hop; cross-leaf: leaf → spine → leaf.
        assert_eq!(t.route(0, 7, 0).unwrap().hops.len(), 1);
        assert_eq!(t.route(0, 8, 0).unwrap().hops.len(), 3);
        assert_eq!(t.switch_distance(0, 1), Some(2));
        assert_eq!(t.switch_distance(0, 4), Some(1));
    }

    #[test]
    fn ecmp_salt_spreads_across_spines() {
        let t = Topology::leaf_spine(LeafSpine::symmetric(2, 2, 4, 1));
        let spines: std::collections::BTreeSet<u32> = (0..16)
            .map(|salt| t.route(0, 4, salt).unwrap().hops[1].switch)
            .collect();
        assert_eq!(spines.len(), 2, "both spines must carry traffic");
    }

    #[test]
    fn spine_down_removes_candidates() {
        let mut t = Topology::leaf_spine(LeafSpine::symmetric(2, 2, 4, 1));
        t.set_switch_up(2, false); // spine 0 (switches: leaves 0..2, spines 2..4)
        for salt in 0..8 {
            let r = t.route(0, 4, salt).unwrap();
            assert_eq!(r.hops[1].switch, 3, "all routes must use spine 1");
        }
        t.set_switch_up(3, false);
        assert!(t.route(0, 4, 0).is_none(), "partitioned");
        assert!(t.route(0, 3, 0).is_some(), "same-leaf unaffected");
    }

    #[test]
    fn access_link_down_kills_routes() {
        let mut t = Topology::single_switch(4, LinkParams::default());
        t.set_link_up(2, false);
        assert!(t.route(0, 2, 0).is_none());
        assert!(t.route(2, 1, 0).is_none());
        assert!(t.route(0, 1, 0).is_some());
    }

    #[test]
    fn degrade_accumulates_latency() {
        let mut t = Topology::single_switch(4, LinkParams::default());
        t.degrade_link(1, Duration::from_ns(100));
        t.degrade_link(1, Duration::from_ns(50));
        assert_eq!(t.link(1).latency(), Duration::from_ns(160));
        assert_eq!(t.link(0).latency(), Duration::from_ns(10));
        t.restore_link(1);
        assert_eq!(t.link(1).latency(), Duration::from_ns(10));
        assert_eq!(t.link(1).extra_latency(), Duration::ZERO);
    }

    #[test]
    fn elements_come_back_up_and_routes_return() {
        let mut t = Topology::leaf_spine(LeafSpine::symmetric(2, 2, 4, 1));
        t.set_switch_up(2, false);
        t.set_switch_up(3, false);
        assert!(t.route(0, 4, 0).is_none(), "partitioned");
        t.set_switch_up(3, true);
        let r = t.route(0, 4, 0).expect("healed partition routes again");
        assert_eq!(r.hops[1].switch, 3);
        t.set_switch_up(2, true);
        let spines: std::collections::BTreeSet<u32> = (0..16)
            .map(|salt| t.route(0, 4, salt).unwrap().hops[1].switch)
            .collect();
        assert_eq!(spines.len(), 2, "revived spine rejoins ECMP");
    }

    #[test]
    fn adjacency_builder_routes_a_line() {
        // 3 switches in a line, one node on each end switch.
        let t = Topology::from_adjacency(
            3,
            &[0, 2],
            &[(0, 1), (1, 2)],
            LinkParams::default(),
            LinkParams::default(),
        );
        assert_eq!(t.switch_role(1), SwitchRole::Spine);
        let r = t.route(0, 1, 9).unwrap();
        assert_eq!(r.hops.len(), 3);
        assert_eq!(
            r.hops.iter().map(|h| h.switch).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn far_end_resolution() {
        let t = Topology::leaf_spine(LeafSpine::symmetric(2, 1, 2, 1));
        let r = t.route(0, 2, 0).unwrap();
        // Hop 0 leaves leaf 0 over a trunk toward the spine.
        match t.link_far_end(r.hops[0].out_link, 0) {
            Endpoint::Port { switch, port } => {
                assert_eq!(switch, 2);
                assert_eq!(port, r.hops[1].in_port);
            }
            other => panic!("expected trunk far end, got {other:?}"),
        }
        // The last hop's out link reaches the destination node.
        match t.link_far_end(r.hops[2].out_link, 1) {
            Endpoint::Node(n) => assert_eq!(n, 2),
            other => panic!("expected node, got {other:?}"),
        }
    }
}
