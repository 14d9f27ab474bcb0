//! NoC topology graphs and their routes.
//!
//! The paper (§6.1) calls for characterizing "the various topologies —
//! ranging from bus, ring, tree to full-crossbar". This module builds those
//! graphs (plus the 2-D mesh and torus that dominated later NoC practice)
//! and routes each deterministically: a healthy fabric computes the next
//! hop from its shape, and only a fabric with dead links holds a table.
//!
//! A topology is a directed graph of *routers*. The first `n_endpoints`
//! routers are endpoint routers with a network interface attached; additional
//! routers (bus arbiter, crossbar core, tree internals) carry traffic only.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Errors from topology construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildTopologyError {
    /// The endpoint count was zero.
    NoEndpoints,
    /// A router would have more ports than a route table entry names
    /// (65 535): a bus or crossbar hub past that many endpoints.
    TooManyPorts {
        /// The router.
        router: usize,
        /// Its ports.
        ports: usize,
    },
}

/// A route table entry with no route; every other entry is a port.
const NO_ROUTE: u16 = u16::MAX;

/// The most ports one router may have: each is a route table entry below
/// [`NO_ROUTE`].
const MAX_PORTS: usize = NO_ROUTE as usize;

impl fmt::Display for BuildTopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildTopologyError::NoEndpoints => write!(f, "topology needs at least one endpoint"),
            BuildTopologyError::TooManyPorts { router, ports } => write!(
                f,
                "router {router} would have {ports} ports, more than the {MAX_PORTS} a route names"
            ),
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

fn link(to: usize, latency: u64, width: u64) -> Link {
    Link { to, latency, width }
}

/// A mesh or torus router's coordinates `[x, y]` and its ports one step
/// along each direction, as `[+x, -x, +y, -y]` (`u8::MAX` off a mesh edge).
#[derive(Debug, Clone, Copy)]
struct GridCell {
    xy: [u32; 2],
    ports: [u8; 4],
}

/// How a topology picks the port toward a destination: a function of the
/// healthy fabric's shape, or a table once links have died. The tables
/// never change once built: copies share them.
#[derive(Debug, Clone)]
enum Routes {
    /// Bus and crossbar: an endpoint's one port leads to the hub, and the
    /// hub's port `d` leads to endpoint `d`.
    Star,
    /// The shorter way round: port 0 clockwise (to `r + 1`), port 1
    /// counter-clockwise.
    Ring,
    /// Mesh or torus, XY dimension-order ([`dim_forward`]) on a grid of
    /// `dims` = `[w, h]`, one cell per router.
    Grid {
        dims: [u32; 2],
        wrap: bool,
        cells: Arc<[GridCell]>,
    },
    /// Arity-4 fat tree: the first router of each level, endpoints
    /// (level 0) first. Router `j` of level `k` covers endpoints
    /// `j·4^k .. (j+1)·4^k`, its children first among its ports and its
    /// parent last.
    FatTree { level_start: Arc<[usize]> },
    /// BFS shortest paths around dead links, row-major: entry
    /// `r * n_endpoints + d` is the port, or [`NO_ROUTE`].
    Table(Arc<[u16]>),
}

/// A built topology: graph, router modes and routes.
///
/// Nothing in it changes after [`Topology::build`] but the routes, which
/// [`Topology::recompute_routes`] replaces whole: every table sits behind
/// an `Arc`, so a clone shares them all, and a clone that reroutes gets
/// its own route table while the others keep theirs.
#[derive(Debug, Clone)]
pub struct Topology {
    n_endpoints: usize,
    /// Adjacency, row by row: router `r`'s links are
    /// `links[link_start[r]..link_start[r + 1]]`, by port.
    links: Arc<[Link]>,
    link_start: Arc<[u32]>,
    /// The router that serializes all its ports through one shared medium:
    /// the bus arbiter.
    shared: Option<usize>,
    /// Reverse adjacency, row by row: the links into router `v` are
    /// `rev[rev_start[v]..rev_start[v + 1]]` as `(from, port)`, ascending
    /// by `from`.
    rev: Arc<[(u32, u32)]>,
    rev_start: Arc<[u32]>,
    routes: Routes,
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
    /// Returns [`BuildTopologyError::NoEndpoints`] if `n == 0`, and
    /// [`BuildTopologyError::TooManyPorts`] for a bus or crossbar of more
    /// than 65 535 endpoints.
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
            TopologyKind::SharedBus => Self::star(n, link_latency, true),
            TopologyKind::Crossbar => Self::star(n, link_latency, false),
            TopologyKind::Ring => Self::ring(n, link_latency),
            TopologyKind::Mesh => Self::mesh(n, link_latency, false),
            TopologyKind::Torus => Self::mesh(n, link_latency, true),
            TopologyKind::FatTree => Self::fat_tree(n, link_latency),
        }
    }

    /// Star topology with a central router: a bus when `shared_center`, an
    /// ideal crossbar otherwise.
    fn star(n: usize, lat: u64, shared_center: bool) -> Result<Self, BuildTopologyError> {
        let center = n;
        let mut links = vec![Vec::new(); n + 1];
        for i in 0..n {
            links[i].push(link(center, lat, 1));
            links[center].push(link(i, lat, 1));
        }
        let shared = shared_center.then_some(center);
        Self::finish(n, links, shared, Routes::Star)
    }

    fn ring(n: usize, lat: u64) -> Result<Self, BuildTopologyError> {
        let mut links = vec![Vec::new(); n];
        if n > 1 {
            for (i, out) in links.iter_mut().enumerate() {
                out.push(link((i + 1) % n, lat, 1));
                // Two routers share one link.
                if n > 2 {
                    out.push(link((i + n - 1) % n, lat, 1));
                }
            }
        }
        Self::finish(n, links, None, Routes::Ring)
    }

    /// The most square `w` x `h` grid of `n` routers, router `y * w + x`
    /// at `(x, y)`, wrapped into a torus when `wrap`.
    fn mesh(n: usize, lat: u64, wrap: bool) -> Result<Self, BuildTopologyError> {
        let (w, h) = most_square(n);
        // The coordinate one step from `c` along a dimension of size `len`.
        let step = |c: usize, len: usize, up: bool| match up {
            true if c + 1 < len => Some(c + 1),
            false if c > 0 => Some(c - 1),
            _ if wrap && len > 1 => Some(if up { 0 } else { len - 1 }),
            _ => None,
        };
        let mut links = Vec::with_capacity(n);
        let mut cells = Vec::with_capacity(n);
        for r in 0..n {
            let (x, y) = (r % w, r / w);
            let to = [
                step(x, w, true).map(|x| y * w + x),
                step(x, w, false).map(|x| y * w + x),
                step(y, h, true).map(|y| y * w + x),
                step(y, h, false).map(|y| y * w + x),
            ];
            let mut out: Vec<Link> = to.iter().flatten().map(|&to| link(to, lat, 1)).collect();
            // Wraparound on a dimension of size 2 reaches one neighbour
            // both ways: one link serves both directions.
            out.sort_by_key(|l| l.to);
            out.dedup_by_key(|l| l.to);
            let port = |to: Option<usize>| {
                let p = to.and_then(|to| out.iter().position(|l| l.to == to));
                p.map_or(u8::MAX, |p| p as u8)
            };
            cells.push(GridCell {
                xy: [x as u32, y as u32],
                ports: to.map(port),
            });
            links.push(out);
        }
        let dims = [w as u32, h as u32];
        let cells = cells.into();
        let routes = Routes::Grid { dims, wrap, cells };
        Self::finish(n, links, None, routes)
    }

    fn fat_tree(n: usize, lat: u64) -> Result<Self, BuildTopologyError> {
        const ARITY: usize = 4;
        // Level 0: endpoints. Build internal levels until one root remains.
        let mut links: Vec<Vec<Link>> = vec![Vec::new(); n];
        let mut level_start = vec![0];
        let mut level: Vec<usize> = (0..n).collect();
        let mut width = 1u64;
        while level.len() > 1 {
            level_start.push(links.len());
            let parents = level.len().div_ceil(ARITY);
            let mut next_level = Vec::with_capacity(parents);
            for p in 0..parents {
                let pid = links.len();
                links.push(Vec::new());
                next_level.push(pid);
                for &child in level.iter().skip(p * ARITY).take(ARITY) {
                    links[child].push(link(pid, lat, width));
                    links[pid].push(link(child, lat, width));
                }
            }
            level = next_level;
            // Fat links: capacity doubles per level toward the root.
            width *= 2;
        }
        let level_start = level_start.into();
        Self::finish(n, links, None, Routes::FatTree { level_start })
    }

    /// Checks every router's port count, builds the reverse adjacency and
    /// assembles the struct.
    fn finish(
        n_endpoints: usize,
        links: Vec<Vec<Link>>,
        shared: Option<usize>,
        routes: Routes,
    ) -> Result<Self, BuildTopologyError> {
        if let Some((router, out)) =
            (links.iter().enumerate()).find(|(_, out)| out.len() > MAX_PORTS)
        {
            let ports = out.len();
            return Err(BuildTopologyError::TooManyPorts { router, ports });
        }
        let idx = |i: usize| u32::try_from(i).expect("router and port indices fit 32 bits");
        // Scanning sources in ascending order leaves each row ascending by
        // `from`.
        let mut rows = vec![Vec::new(); links.len()];
        for (from, out) in links.iter().enumerate() {
            for (port, l) in out.iter().enumerate() {
                rows[l.to].push((idx(from), idx(port)));
            }
        }
        // One link per `(from, to)` pair: a row of the reverse adjacency
        // names each predecessor once, so the BFS and the credit wake lose
        // nothing by keying on `from`.
        debug_assert!(rows.iter().all(|r| r.windows(2).all(|w| w[0].0 < w[1].0)));
        Ok(Topology {
            n_endpoints,
            link_start: row_starts(&links),
            links: links.concat().into(),
            shared,
            rev_start: row_starts(&rows),
            rev: rows.concat().into(),
            routes,
        })
    }

    /// The links into router `v` as `(from, port)`, ascending by `from`.
    #[inline]
    pub(crate) fn links_into(&self, v: usize) -> &[(u32, u32)] {
        &self.rev[self.rev_start[v] as usize..self.rev_start[v + 1] as usize]
    }

    /// Per-destination BFS over the reverse adjacency, skipping any
    /// directed link listed in `dead` (as `(router, port-index)` pairs).
    /// Returns the row-major table; routers that cannot reach a destination
    /// keep [`NO_ROUTE`].
    fn bfs_tables(&self, dead: &[(usize, usize)]) -> Arc<[u16]> {
        let (nr, ne) = (self.n_routers(), self.n_endpoints);
        // Collected straight into its `Arc`, so a reroute allocates the
        // table once.
        let mut table: Arc<[u16]> = std::iter::repeat_n(NO_ROUTE, nr * ne).collect();
        let next_hop = Arc::get_mut(&mut table).expect("a new table is unshared");
        let mut seen = vec![false; nr];
        let mut queue = VecDeque::new();
        for d in 0..ne {
            seen.fill(false);
            seen[d] = true;
            queue.push_back(d);
            while let Some(u) = queue.pop_front() {
                for &(p, port) in self.links_into(u) {
                    let (p, port) = (p as usize, port as usize);
                    if !seen[p] && !dead.contains(&(p, port)) {
                        seen[p] = true;
                        // The live port at p leading to u is on a shortest
                        // path to d; `finish` kept every port below
                        // `NO_ROUTE`.
                        next_hop[p * ne + d] = port as u16;
                        queue.push_back(p);
                    }
                }
            }
        }
        table
    }

    /// Recomputes every route around a set of permanently dead directed
    /// links (`(router, port-index)` pairs) — the degraded-mode reroute of
    /// the fault-injection layer.
    ///
    /// The adjacency itself is untouched, so port indices stay aligned with
    /// [`links_of`](Self::links_of); only the routes change, from the
    /// fabric's shape to a table of BFS shortest paths (mesh and torus drop
    /// XY dimension order). Destinations a router can no longer reach get
    /// no entry (both [`next_hop`](Self::next_hop) and
    /// [`try_hops`](Self::try_hops) return `None`).
    pub fn recompute_routes(&mut self, dead: &[(usize, usize)]) {
        self.routes = Routes::Table(self.bfs_tables(dead));
    }

    /// Number of endpoint routers (nodes components can attach to).
    pub fn n_endpoints(&self) -> usize {
        self.n_endpoints
    }

    /// Total router count including internal routers.
    pub fn n_routers(&self) -> usize {
        self.link_start.len() - 1
    }

    /// Outgoing links of router `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    pub fn links_of(&self, r: usize) -> &[Link] {
        &self.links[self.link_start[r] as usize..self.link_start[r + 1] as usize]
    }

    /// Whether router `r` serializes all ports through one shared medium.
    pub fn is_shared(&self, r: usize) -> bool {
        self.shared == Some(r)
    }

    /// Port index at router `r` leading toward endpoint `d`, or `None` when
    /// `r` is the destination or can no longer reach it.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `d` is out of range.
    #[inline]
    pub fn next_hop(&self, r: usize, d: usize) -> Option<usize> {
        // The healthy routes are arithmetic on `r` and `d`: unchecked, they
        // would answer for a router or endpoint that does not exist.
        assert!(r < self.n_routers(), "router {r} out of range");
        assert!(d < self.n_endpoints, "endpoint {d} out of range");
        if r == d {
            return None;
        }
        let n = self.n_endpoints;
        match &self.routes {
            Routes::Star => Some(if r == n { d } else { 0 }),
            Routes::Ring => {
                let cw = if d > r { d - r } else { d + n - r };
                let ccw = n - cw;
                // Antipode ties go the way of `d`'s lower-numbered
                // neighbour, as a BFS over ascending predecessors does:
                // counter-clockwise only when that neighbour is across the
                // wrap. Two routers share one link.
                let tie_ccw = n > 2 && (d == 0 || d == n - 1);
                Some(usize::from(ccw < cw || (ccw == cw && tie_ccw)))
            }
            Routes::Grid { dims, wrap, cells } => {
                let (at, to) = (cells[r].xy, cells[d].xy);
                // X first: dimension 1 once the x coordinates agree.
                let k = usize::from(at[0] == to[0]);
                let down = !dim_forward(at[k], to[k], dims[k], *wrap);
                Some(usize::from(cells[r].ports[2 * k + usize::from(down)]))
            }
            Routes::FatTree { level_start } => {
                let k = level_start.partition_point(|&s| s <= r) - 1;
                if k == 0 {
                    return Some(0);
                }
                let j = r - level_start[k];
                Some(if d >> (2 * k) == j {
                    (d >> (2 * (k - 1))) - 4 * j
                } else {
                    self.links_of(r).len() - 1
                })
            }
            Routes::Table(t) => {
                let p = t[r * n + d];
                (p != NO_ROUTE).then_some(usize::from(p))
            }
        }
    }

    /// Hop count from endpoint `a` to endpoint `b` following the routes
    /// (0 when `a == b`).
    ///
    /// # Panics
    ///
    /// Panics when the routes cannot reach `b` from `a` (possible only
    /// after [`recompute_routes`](Self::recompute_routes) severed the pair)
    /// — use [`try_hops`](Self::try_hops) on degraded topologies.
    pub fn hops(&self, a: usize, b: usize) -> usize {
        self.try_hops(a, b).expect("routes must reach destination")
    }

    /// Hop count from endpoint `a` to endpoint `b`, or `None` when the
    /// routes no longer connect the pair (degraded topology after
    /// permanent link faults).
    pub fn try_hops(&self, a: usize, b: usize) -> Option<usize> {
        let mut cur = a;
        let mut hops = 0;
        while cur != b {
            let port = self.next_hop(cur, b)?;
            cur = self.links_of(cur)[port].to;
            hops += 1;
            assert!(hops <= self.n_routers() + 1, "routing loop detected");
        }
        Some(hops)
    }
}

/// Where each row of `rows` starts once they are laid end to end, then
/// where the last ends.
fn row_starts<T>(rows: &[Vec<T>]) -> Arc<[u32]> {
    let ends = rows.iter().scan(0, |end, row| {
        *end += u32::try_from(row.len()).expect("router and port indices fit 32 bits");
        Some(*end)
    });
    std::iter::once(0).chain(ends).collect()
}

/// Whether one step from `from` toward `to` along a dimension of size
/// `len` goes up (+1, wrapping past `len - 1` to 0): on a torus (`wrap`)
/// the shorter way, ties going the non-wrap way.
#[inline]
fn dim_forward(from: u32, to: u32, len: u32, wrap: bool) -> bool {
    debug_assert_ne!(from, to);
    if !wrap {
        return to > from;
    }
    let fwd = to + if to > from { 0 } else { len } - from;
    2 * fwd < len || (2 * fwd == len && to > from)
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
    fn a_hub_past_the_port_limit_is_an_error() {
        // A route table names a port in a `u16`, `u16::MAX` meaning none:
        // a bus or crossbar hub has a port per endpoint.
        for k in [TopologyKind::SharedBus, TopologyKind::Crossbar] {
            let t = Topology::build(k, MAX_PORTS, 1).expect("at the limit");
            let hub = MAX_PORTS;
            assert_eq!(t.links_of(hub).len(), MAX_PORTS);
            assert_eq!(t.next_hop(hub, MAX_PORTS - 1), Some(MAX_PORTS - 1));
            let err = Topology::build(k, MAX_PORTS + 1, 1).unwrap_err();
            let want = BuildTopologyError::TooManyPorts {
                router: MAX_PORTS + 1,
                ports: MAX_PORTS + 1,
            };
            assert_eq!(err, want, "{k}");
            assert_eq!(
                err.to_string(),
                "router 65536 would have 65536 ports, more than the 65535 a route names"
            );
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
    fn routing_matches_its_recorded_digest() {
        // FNV-1a over every `next_hop(r, d)` at n in 1..=64, 256 and 1 024,
        // routers outer, each port a little-endian `u32` (`u32::MAX` for
        // `None`), recorded from the BFS tables (XY on mesh and torus) that
        // healthy fabrics stored before routing became a function.
        let pinned = [
            (TopologyKind::SharedBus, 0x80aa_a53d_98f0_1725, 1_206_912),
            (TopologyKind::Ring, 0x689c_9ea0_89b9_0715, 1_203_552),
            (TopologyKind::Mesh, 0xa403_8428_1d22_5084, 1_203_552),
            (TopologyKind::Torus, 0xac93_3bf8_6051_10f4, 1_203_552),
            (TopologyKind::FatTree, 0x8e54_ee64_5cfd_5415, 1_606_029),
            (TopologyKind::Crossbar, 0x80aa_a53d_98f0_1725, 1_206_912),
        ];
        for (kind, digest, count) in pinned {
            let (mut h, mut entries) = (nw_sim::Fnv1a::new(), 0);
            for n in (1..=64).chain([256, 1024]) {
                let t = Topology::build(kind, n, 1).unwrap();
                for (r, d) in (0..t.n_routers()).flat_map(|r| (0..n).map(move |d| (r, d))) {
                    let port = t.next_hop(r, d).map_or(u32::MAX, |p| p as u32);
                    h.bytes(&port.to_le_bytes());
                    entries += 1;
                }
            }
            let h = h.finish();
            assert_eq!((h, entries), (digest, count), "{kind}: {h:#018x}");
        }
    }

    #[test]
    #[should_panic(expected = "endpoint 16 out of range")]
    fn next_hop_rejects_an_endpoint_past_the_row() {
        // XY routing would read the grid cell of router 16, which a 16
        // endpoint mesh does not have: it must fail, not answer.
        let t = Topology::build(TopologyKind::Mesh, 16, 1).unwrap();
        let _ = t.next_hop(0, 16);
    }

    #[test]
    #[should_panic(expected = "router 9 out of range")]
    fn next_hop_rejects_a_router_past_the_fabric() {
        // A star's routes would send router 9 through port `d` like the
        // hub (router 8): it must fail, not answer for a missing router.
        let t = Topology::build(TopologyKind::Crossbar, 8, 1).unwrap();
        let _ = t.next_hop(9, 2);
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
        // An empty dead set swaps the routes for BFS shortest paths. Off
        // the grid that is the same function, tie-breaks included; mesh and
        // torus drop XY for ports that differ at equal hop counts.
        for k in KINDS {
            let grid = matches!(k, TopologyKind::Mesh | TopologyKind::Torus);
            for n in 1..=40 {
                let t = Topology::build(k, n, 1).unwrap();
                let mut bfs = t.clone();
                bfs.recompute_routes(&[]);
                for r in 0..t.n_routers() {
                    for d in 0..n {
                        if grid {
                            assert_eq!(bfs.try_hops(r, d), t.try_hops(r, d), "{k} {r}->{d}");
                        } else {
                            assert_eq!(bfs.next_hop(r, d), t.next_hop(r, d), "{k} {r}->{d}");
                        }
                    }
                }
            }
        }
    }
}
