//! NoC topology graphs and routing tables.
//!
//! The paper (§6.1) calls for characterizing "the various topologies —
//! ranging from bus, ring, tree to full-crossbar". This module builds those
//! graphs (plus the 2-D mesh and torus that dominated later NoC practice)
//! and precomputes deterministic next-hop routing tables for each.
//!
//! A topology is a directed graph of *routers*. The first `n_endpoints`
//! routers are endpoint routers with a network interface attached; additional
//! routers (bus arbiter, crossbar core, tree internals) carry traffic only.

use std::fmt;

/// Errors from topology construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildTopologyError {
    /// The endpoint count was zero.
    NoEndpoints,
    /// Mesh/torus dimensions do not multiply to the endpoint count.
    BadDimensions {
        /// Requested width.
        width: usize,
        /// Requested height.
        height: usize,
    },
    /// Fat-tree arity must be at least 2.
    BadArity(usize),
}

impl fmt::Display for BuildTopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildTopologyError::NoEndpoints => write!(f, "topology needs at least one endpoint"),
            BuildTopologyError::BadDimensions { width, height } => {
                write!(f, "invalid mesh dimensions {width}x{height}")
            }
            BuildTopologyError::BadArity(a) => write!(f, "fat-tree arity {a} must be >= 2"),
        }
    }
}

impl std::error::Error for BuildTopologyError {}

/// The topology families of the paper's §6.1 menu.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// A single shared bus: all endpoints hang off one arbiter that carries
    /// one transfer at a time (the "traditional shared bus" the paper says
    /// NoCs move away from).
    SharedBus,
    /// Bidirectional ring.
    Ring,
    /// 2-D mesh, XY dimension-order routed.
    Mesh,
    /// 2-D torus (mesh with wraparound), dimension-order routed.
    Torus,
    /// Fat tree (the SPIN network of the paper's §8 is a 32-port fat tree):
    /// link capacity doubles toward the root.
    FatTree,
    /// Ideal full crossbar: a single switch with per-output serialization.
    Crossbar,
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TopologyKind::SharedBus => "bus",
            TopologyKind::Ring => "ring",
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
            TopologyKind::FatTree => "fat-tree",
            TopologyKind::Crossbar => "crossbar",
        };
        f.write_str(s)
    }
}

/// One directed link out of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Destination router index.
    pub to: usize,
    /// Wire traversal latency in cycles (on top of serialization).
    pub latency: u64,
    /// Link width in flits per cycle (fat-tree upper links are wider).
    pub width: u64,
}

/// A built topology: graph, router modes and routing tables.
#[derive(Debug, Clone)]
pub struct Topology {
    n_endpoints: usize,
    /// Adjacency list per router.
    links: Vec<Vec<Link>>,
    /// Routers that serialize all their ports through one shared medium.
    shared: Vec<bool>,
    /// Row-major routing table, one row of `n_endpoints` entries per
    /// router: `next_hop[r * n_endpoints + d]` = adjacency index (into
    /// `links[r]`) of the port that leads toward endpoint `d`, or
    /// `usize::MAX` when `r == d` or `d` cannot be reached from `r`.
    next_hop: Vec<usize>,
}

impl Topology {
    /// Builds a topology of the given kind for `n` endpoints with the given
    /// per-hop link latency.
    ///
    /// Mesh and torus dimensions are chosen as the most square factorization
    /// of `n`. Fat trees use arity 4 (SPIN-like).
    ///
    /// # Errors
    ///
    /// Returns [`BuildTopologyError::NoEndpoints`] if `n == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use nw_noc::topology::{Topology, TopologyKind};
    /// let t = Topology::build(TopologyKind::Ring, 16, 1)?;
    /// assert_eq!(t.n_endpoints(), 16);
    /// # Ok::<(), nw_noc::topology::BuildTopologyError>(())
    /// ```
    pub fn build(
        kind: TopologyKind,
        n: usize,
        link_latency: u64,
    ) -> Result<Self, BuildTopologyError> {
        if n == 0 {
            return Err(BuildTopologyError::NoEndpoints);
        }
        match kind {
            TopologyKind::SharedBus => Ok(Self::star(n, link_latency, true)),
            TopologyKind::Crossbar => Ok(Self::star(n, link_latency, false)),
            TopologyKind::Ring => Ok(Self::ring(n, link_latency)),
            TopologyKind::Mesh => {
                let (w, h) = most_square(n);
                Self::mesh(w, h, link_latency, false)
            }
            TopologyKind::Torus => {
                let (w, h) = most_square(n);
                Self::mesh(w, h, link_latency, true)
            }
            TopologyKind::FatTree => Self::fat_tree(n, 4, link_latency),
        }
    }

    /// Star topology with a central router: a bus when `shared_center`, an
    /// ideal crossbar otherwise.
    fn star(n: usize, lat: u64, shared_center: bool) -> Self {
        let center = n;
        let mut links = vec![Vec::new(); n + 1];
        for i in 0..n {
            links[i].push(Link {
                to: center,
                latency: lat,
                width: 1,
            });
            links[center].push(Link {
                to: i,
                latency: lat,
                width: 1,
            });
        }
        let mut shared = vec![false; n + 1];
        shared[center] = shared_center;
        Self::finish(n, links, shared)
    }

    fn ring(n: usize, lat: u64) -> Self {
        let mut links = vec![Vec::new(); n];
        if n > 1 {
            for (i, node_links) in links.iter_mut().enumerate() {
                let cw = (i + 1) % n;
                let ccw = (i + n - 1) % n;
                node_links.push(Link {
                    to: cw,
                    latency: lat,
                    width: 1,
                });
                if ccw != cw {
                    node_links.push(Link {
                        to: ccw,
                        latency: lat,
                        width: 1,
                    });
                }
            }
        }
        Self::finish(n, links, vec![false; n])
    }

    fn mesh(w: usize, h: usize, lat: u64, wrap: bool) -> Result<Self, BuildTopologyError> {
        if w == 0 || h == 0 {
            return Err(BuildTopologyError::BadDimensions {
                width: w,
                height: h,
            });
        }
        let n = w * h;
        let idx = |x: usize, y: usize| y * w + x;
        let mut links = vec![Vec::new(); n];
        for y in 0..h {
            for x in 0..w {
                let me = idx(x, y);
                let mut push = |to: usize| {
                    if to != me {
                        links[me].push(Link {
                            to,
                            latency: lat,
                            width: 1,
                        });
                    }
                };
                if x + 1 < w {
                    push(idx(x + 1, y));
                } else if wrap && w > 1 {
                    push(idx(0, y));
                }
                if x > 0 {
                    push(idx(x - 1, y));
                } else if wrap && w > 1 {
                    push(idx(w - 1, y));
                }
                if y + 1 < h {
                    push(idx(x, y + 1));
                } else if wrap && h > 1 {
                    push(idx(x, 0));
                }
                if y > 0 {
                    push(idx(x, y - 1));
                } else if wrap && h > 1 {
                    push(idx(x, h - 1));
                }
            }
        }
        // Deduplicate (wraparound on width-2 dimensions creates duplicates).
        for l in &mut links {
            l.sort_by_key(|k| k.to);
            l.dedup_by_key(|k| k.to);
        }
        let mut topo = Self::finish(n, links, vec![false; n]);
        topo.install_xy_routing(w, h, wrap);
        Ok(topo)
    }

    /// XY dimension-order routing for mesh/torus: resolve the X offset first,
    /// then Y; on a torus each dimension takes the shorter way around.
    fn install_xy_routing(&mut self, w: usize, h: usize, wrap: bool) {
        let n = w * h;
        let idx = |x: usize, y: usize| y * w + x;
        for r in 0..n {
            let (rx, ry) = (r % w, r / w);
            for d in 0..n {
                if r == d {
                    self.next_hop[r * n + d] = usize::MAX;
                    continue;
                }
                let (dx, dy) = (d % w, d / w);
                let target = if rx != dx {
                    let step = dim_step(rx, dx, w, wrap);
                    idx(step, ry)
                } else {
                    let step = dim_step(ry, dy, h, wrap);
                    idx(rx, step)
                };
                let port = self.links[r]
                    .iter()
                    .position(|l| l.to == target)
                    .expect("XY neighbor must exist in mesh adjacency");
                self.next_hop[r * n + d] = port;
            }
        }
    }

    fn fat_tree(n: usize, arity: usize, lat: u64) -> Result<Self, BuildTopologyError> {
        if arity < 2 {
            return Err(BuildTopologyError::BadArity(arity));
        }
        // Level 0: endpoints. Build internal levels until one root remains.
        let mut links: Vec<Vec<Link>> = vec![Vec::new(); n];
        let mut level: Vec<usize> = (0..n).collect();
        let mut width = 1u64;
        while level.len() > 1 {
            let parents = level.len().div_ceil(arity);
            let mut next_level = Vec::with_capacity(parents);
            for p in 0..parents {
                let pid = links.len();
                links.push(Vec::new());
                next_level.push(pid);
                for c in 0..arity {
                    let ci = p * arity + c;
                    if ci >= level.len() {
                        break;
                    }
                    let child = level[ci];
                    links[child].push(Link {
                        to: pid,
                        latency: lat,
                        width,
                    });
                    links[pid].push(Link {
                        to: child,
                        latency: lat,
                        width,
                    });
                }
            }
            level = next_level;
            // Fat links: capacity doubles per level toward the root.
            width *= 2;
        }
        let shared = vec![false; links.len()];
        Ok(Self::finish(n, links, shared))
    }

    /// Computes BFS routing tables and assembles the struct. Mesh/torus
    /// overwrite the table with XY routing afterwards.
    fn finish(n_endpoints: usize, links: Vec<Vec<Link>>, shared: Vec<bool>) -> Self {
        let next_hop = Self::bfs_tables(&links, n_endpoints, &[]);
        Topology {
            n_endpoints,
            links,
            shared,
            next_hop,
        }
    }

    /// Per-destination BFS over the reverse adjacency, skipping any
    /// directed link listed in `dead` (as `(router, port-index)` pairs).
    /// Returns the row-major table; routers that cannot reach a destination
    /// keep `usize::MAX`.
    fn bfs_tables(links: &[Vec<Link>], n_endpoints: usize, dead: &[(usize, usize)]) -> Vec<usize> {
        let nr = links.len();
        let mut next_hop = vec![usize::MAX; nr * n_endpoints];
        // Reverse adjacency for BFS from each destination endpoint: the
        // live links into a router as `(from, port)`, ascending by `from`,
        // lowest port first among parallel links.
        let mut rev: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nr];
        for (from, ls) in links.iter().enumerate() {
            for (port, l) in ls.iter().enumerate() {
                if !dead.contains(&(from, port)) {
                    rev[l.to].push((from, port));
                }
            }
        }
        for r in &mut rev {
            r.sort_unstable();
            r.dedup_by_key(|&mut (from, _)| from);
        }
        for d in 0..n_endpoints {
            // dist and the "first hop toward d" for every router.
            let mut dist = vec![usize::MAX; nr];
            dist[d] = 0;
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(d);
            while let Some(u) = queue.pop_front() {
                for &(p, port) in &rev[u] {
                    if dist[p] == usize::MAX {
                        dist[p] = dist[u] + 1;
                        // The live port at p leading to u is on a shortest
                        // path to d.
                        next_hop[p * n_endpoints + d] = port;
                        queue.push_back(p);
                    }
                }
            }
        }
        next_hop
    }

    /// Recomputes every routing table around a set of permanently dead
    /// directed links (`(router, port-index)` pairs) — the degraded-mode
    /// reroute of the fault-injection layer.
    ///
    /// The adjacency itself is untouched, so port indices stay aligned with
    /// [`links_of`](Self::links_of); only `next_hop` changes. Mesh/torus
    /// tables fall back from XY dimension-order to plain BFS shortest
    /// paths, and destinations a router can no longer reach get no entry
    /// (both [`next_hop`](Self::next_hop) and
    /// [`try_hops`](Self::try_hops) return `None`).
    pub fn recompute_routes(&mut self, dead: &[(usize, usize)]) {
        self.next_hop = Self::bfs_tables(&self.links, self.n_endpoints, dead);
    }

    /// Number of endpoint routers (nodes components can attach to).
    pub fn n_endpoints(&self) -> usize {
        self.n_endpoints
    }

    /// Total router count including internal routers.
    pub fn n_routers(&self) -> usize {
        self.links.len()
    }

    /// Outgoing links of router `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn links_of(&self, r: usize) -> &[Link] {
        &self.links[r]
    }

    /// Whether router `r` serializes all ports through one shared medium.
    pub fn is_shared(&self, r: usize) -> bool {
        self.shared[r]
    }

    /// Port index at router `r` leading toward endpoint `d`, or `None` when
    /// `r` is the destination or can no longer reach it.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `d` is out of range.
    #[inline]
    pub fn next_hop(&self, r: usize, d: usize) -> Option<usize> {
        // The table is one flat vector: an unchecked `d` would read a
        // neighbouring router's row instead of failing.
        assert!(d < self.n_endpoints, "endpoint {d} out of range");
        let p = self.next_hop[r * self.n_endpoints + d];
        (p != usize::MAX).then_some(p)
    }

    /// Hop count from endpoint `a` to endpoint `b` following the routing
    /// tables (0 when `a == b`).
    ///
    /// # Panics
    ///
    /// Panics when the routing table cannot reach `b` from `a` (possible
    /// only after [`recompute_routes`](Self::recompute_routes) severed the
    /// pair) — use [`try_hops`](Self::try_hops) on degraded topologies.
    pub fn hops(&self, a: usize, b: usize) -> usize {
        self.try_hops(a, b)
            .expect("routing table must reach destination")
    }

    /// Hop count from endpoint `a` to endpoint `b`, or `None` when the
    /// routing tables no longer connect the pair (degraded topology after
    /// permanent link faults).
    pub fn try_hops(&self, a: usize, b: usize) -> Option<usize> {
        let mut cur = a;
        let mut hops = 0;
        while cur != b {
            let port = self.next_hop(cur, b)?;
            cur = self.links[cur][port].to;
            hops += 1;
            assert!(hops <= self.links.len() + 1, "routing loop detected");
        }
        Some(hops)
    }
}

/// Next coordinate when moving one step from `from` toward `to` along a
/// dimension of size `len`, wrapping if `wrap` and the wrap direction is
/// strictly shorter (ties go the non-wrap way).
fn dim_step(from: usize, to: usize, len: usize, wrap: bool) -> usize {
    debug_assert_ne!(from, to);
    let fwd = (to + len - from) % len; // steps going +1 with wrap
    let bwd = (from + len - to) % len; // steps going -1 with wrap
    let go_fwd = if !wrap {
        to > from
    } else if fwd < bwd {
        true
    } else if bwd < fwd {
        false
    } else {
        to > from
    };
    if go_fwd {
        (from + 1) % len
    } else {
        (from + len - 1) % len
    }
}

/// Most square factorization `(w, h)` of `n` with `w >= h`.
pub fn most_square(n: usize) -> (usize, usize) {
    let mut h = (n as f64).sqrt() as usize;
    while h > 1 && !n.is_multiple_of(h) {
        h -= 1;
    }
    let h = h.max(1);
    (n / h, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [TopologyKind; 6] = [
        TopologyKind::SharedBus,
        TopologyKind::Ring,
        TopologyKind::Mesh,
        TopologyKind::Torus,
        TopologyKind::FatTree,
        TopologyKind::Crossbar,
    ];

    #[test]
    fn zero_endpoints_is_error() {
        for k in KINDS {
            let err = Topology::build(k, 0, 1).unwrap_err();
            assert_eq!(err, BuildTopologyError::NoEndpoints);
        }
    }

    #[test]
    fn all_pairs_reachable_all_kinds() {
        for k in KINDS {
            for n in [1usize, 2, 3, 4, 9, 16, 17, 32] {
                let t = Topology::build(k, n, 1).unwrap();
                assert_eq!(t.n_endpoints(), n, "{k} n={n}");
                for a in 0..n {
                    for b in 0..n {
                        let h = t.hops(a, b);
                        if a == b {
                            assert_eq!(h, 0);
                        } else {
                            assert!(h >= 1, "{k} {a}->{b}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bus_and_crossbar_are_two_hops() {
        for k in [TopologyKind::SharedBus, TopologyKind::Crossbar] {
            let t = Topology::build(k, 8, 1).unwrap();
            assert_eq!(t.n_routers(), 9);
            for a in 0..8 {
                for b in 0..8 {
                    if a != b {
                        assert_eq!(t.hops(a, b), 2);
                    }
                }
            }
        }
    }

    #[test]
    fn ring_takes_shortest_direction() {
        let t = Topology::build(TopologyKind::Ring, 8, 1).unwrap();
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.hops(0, 4), 4);
        assert_eq!(t.hops(0, 3), 3);
        assert_eq!(t.hops(0, 5), 3);
    }

    #[test]
    fn mesh_hops_are_manhattan() {
        // 4x4 mesh.
        let t = Topology::build(TopologyKind::Mesh, 16, 1).unwrap();
        // node index = y*4+x: 0=(0,0), 15=(3,3).
        assert_eq!(t.hops(0, 15), 6);
        assert_eq!(t.hops(0, 3), 3);
        assert_eq!(t.hops(5, 6), 1);
    }

    #[test]
    fn torus_wraps() {
        let t = Topology::build(TopologyKind::Torus, 16, 1).unwrap();
        // (0,0) to (3,0): 1 hop via wraparound instead of 3.
        assert_eq!(t.hops(0, 3), 1);
        assert_eq!(t.hops(0, 15), 2);
    }

    #[test]
    fn fat_tree_structure() {
        let t = Topology::build(TopologyKind::FatTree, 16, 1).unwrap();
        // 16 leaves + 4 L1 + 1 root = 21 routers.
        assert_eq!(t.n_routers(), 21);
        // Siblings under same L1 switch: 2 hops; across the root: 4 hops.
        assert_eq!(t.hops(0, 1), 2);
        assert_eq!(t.hops(0, 15), 4);
        // Upper links are wider than leaf links.
        let leaf_w = t.links_of(0)[0].width;
        let root = t.n_routers() - 1;
        let up_w = t.links_of(root)[0].width;
        assert!(up_w > leaf_w);
    }

    #[test]
    fn only_bus_center_is_shared() {
        let bus = Topology::build(TopologyKind::SharedBus, 4, 1).unwrap();
        assert!(bus.is_shared(4));
        assert!(!bus.is_shared(0));
        let xbar = Topology::build(TopologyKind::Crossbar, 4, 1).unwrap();
        assert!(!xbar.is_shared(4));
    }

    #[test]
    fn most_square_factorizations() {
        assert_eq!(most_square(16), (4, 4));
        assert_eq!(most_square(12), (4, 3));
        assert_eq!(most_square(17), (17, 1));
        assert_eq!(most_square(1), (1, 1));
    }

    #[test]
    fn single_endpoint_topologies_are_trivial() {
        for k in KINDS {
            let t = Topology::build(k, 1, 1).unwrap();
            assert_eq!(t.hops(0, 0), 0);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(TopologyKind::FatTree.to_string(), "fat-tree");
        assert_eq!(TopologyKind::SharedBus.to_string(), "bus");
    }

    #[test]
    #[should_panic(expected = "endpoint 16 out of range")]
    fn next_hop_rejects_an_endpoint_past_the_row() {
        // In the row-major table, column 16 of router 0 is column 0 of
        // router 1: it must fail, not answer for the neighbour.
        let t = Topology::build(TopologyKind::Mesh, 16, 1).unwrap();
        let _ = t.next_hop(0, 16);
    }

    #[test]
    fn reroute_avoids_dead_link_on_mesh() {
        // 4x4 mesh, XY routing: 0 -> 3 goes east along row 0 through port
        // 0->1. Kill that link; BFS must find a detour (e.g. via row 1).
        let mut t = Topology::build(TopologyKind::Mesh, 16, 1).unwrap();
        assert_eq!(t.hops(0, 3), 3);
        let dead_port = t.next_hop(0, 1).unwrap();
        assert_eq!(t.links_of(0)[dead_port].to, 1);
        t.recompute_routes(&[(0, dead_port)]);
        // Still reachable, two extra hops around the gap.
        assert_eq!(t.try_hops(0, 3), Some(5));
        assert_eq!(t.try_hops(0, 1), Some(3));
        // The dead port is never the first hop out of router 0 any more.
        for d in 0..16 {
            assert_ne!(t.next_hop(0, d), Some(dead_port), "dest {d}");
        }
        // Reverse direction was not killed: 3 -> 0 still runs the row.
        assert_eq!(t.try_hops(3, 0), Some(3));
    }

    #[test]
    fn reroute_reports_disconnection() {
        // Severing an endpoint's only outbound link on a star disconnects
        // it outbound but leaves it reachable inbound.
        let mut t = Topology::build(TopologyKind::Crossbar, 4, 1).unwrap();
        t.recompute_routes(&[(0, 0)]);
        assert_eq!(t.try_hops(0, 1), None);
        assert_eq!(t.try_hops(1, 0), Some(2));
        assert_eq!(t.try_hops(0, 0), Some(0));
        assert_eq!(t.next_hop(0, 1), None);
    }

    #[test]
    fn reroute_with_no_dead_links_matches_bfs() {
        // An empty dead set degrades mesh XY tables to BFS shortest paths:
        // hop counts stay identical even where port choices differ.
        let reference = Topology::build(TopologyKind::Mesh, 16, 1).unwrap();
        let mut t = reference.clone();
        t.recompute_routes(&[]);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(t.try_hops(a, b), Some(reference.hops(a, b)));
            }
        }
    }
}
