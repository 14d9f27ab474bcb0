//! Static deadlock oracle: the channel dependency graph (Dally & Seitz, IEEE
//! Trans. Computers 1987) of every topology's routes, checked for
//! cycles without running a packet. An acyclic graph proves the routing
//! deadlock-free under its buffer model; a cycle names routers where credit
//! waits can close on themselves.
//!
//! Two buffer models, one node per buffer pool:
//!
//! * *pooled* — a node per router: the engine's policy today, where every
//!   input of a router draws on one pool of `input_buffer x in-degree`;
//! * *per-port* — a node per directed link, standing for the input buffer
//!   at its far end.
//!
//! An edge `a -> b` means a packet holding a slot of `a` waits for one of
//! `b`. Only *transit* edges are kept: a packet that reached router `u` over
//! a link and routes on to `v`. The two ends of a route add none:
//!
//! * injection needs two free slots (the bubble rule) and so never takes a
//!   pool's last one: a full pool always holds a packet that arrived over
//!   a link, and if the routers of a deadlock are all full, each has a
//!   blocked transit packet waiting on the next, which closes a cycle of
//!   transit edges;
//! * ejection is a sink: a packet reaching its destination frees its slot
//!   on arrival and waits for nothing.
//!
//! The rows cover every `TopologyKind` x n in {4, 8, 16, 32, 64} under both
//! models, then every single dead directed link at n = 16, through the
//! degraded BFS routes of `Topology::recompute_routes` (a fault campaign's
//! permanent link failure). Each row prints `acyclic` or the graph's
//! shortest cycle as router ids, lowest-numbered start first; a dead-link
//! row counts the links whose loss leaves the graph cyclic and shows the
//! first. The table is pinned below: a routing or buffer-policy change that
//! breaks or closes a cycle moves a row, and the test prints the table as
//! it reads now (`--nocapture` prints it on a pass too).

use nw_noc::{Topology, TopologyKind};
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write;

const KINDS: [TopologyKind; 6] = [
    TopologyKind::SharedBus,
    TopologyKind::Ring,
    TopologyKind::Mesh,
    TopologyKind::Torus,
    TopologyKind::FatTree,
    TopologyKind::Crossbar,
];

const SIZES: [usize; 5] = [4, 8, 16, 32, 64];

/// Endpoints of the dead-link rows.
const DEAD_N: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    Pooled,
    PerPort,
}

/// A dependency graph: its edges, and the router each node prints as (the
/// router itself, or a link's tail).
struct Graph {
    edges: BTreeSet<(usize, usize)>,
    router_of: Vec<usize>,
}

/// Builds the transit dependency graph of `topo`'s routes.
fn dependency_graph(topo: &Topology, model: Model) -> Graph {
    // Directed links numbered router by router, port by port.
    let mut first_link = Vec::with_capacity(topo.n_routers());
    let mut link_tail = Vec::new();
    for r in 0..topo.n_routers() {
        first_link.push(link_tail.len());
        link_tail.extend(topo.links_of(r).iter().map(|_| r));
    }
    let mut edges = BTreeSet::new();
    let n = topo.n_endpoints();
    for s in 0..n {
        for d in (0..n).filter(|&d| d != s) {
            // (router, port) of each hop of the route, until it arrives or
            // the degraded tables lose it.
            let (mut cur, mut prev, mut hops) = (s, None, 0);
            while let Some(port) = topo.next_hop(cur, d) {
                let link = first_link[cur] + port;
                let next = topo.links_of(cur)[port].to;
                if let Some(held) = prev {
                    edges.insert(match model {
                        Model::Pooled => (cur, next),
                        Model::PerPort => (held, link),
                    });
                }
                prev = Some(link);
                cur = next;
                hops += 1;
                assert!(hops <= topo.n_routers(), "routing loop from {s} to {d}");
            }
        }
    }
    let router_of = match model {
        Model::Pooled => (0..topo.n_routers()).collect(),
        Model::PerPort => link_tail,
    };
    Graph { edges, router_of }
}

/// The shortest cycle of `g` as its nodes, from the lowest-numbered node
/// any shortest cycle passes through; `None` when `g` is acyclic.
fn shortest_cycle(g: &Graph) -> Option<Vec<usize>> {
    let n = g.router_of.len();
    let mut succ = vec![Vec::new(); n];
    for &(a, b) in &g.edges {
        succ[a].push(b);
    }
    let mut best: Option<Vec<usize>> = None;
    for start in 0..n {
        // Breadth first from `start`: the first edge back into it closes
        // the shortest cycle through it.
        let mut parent = vec![usize::MAX; n];
        let mut queue = VecDeque::from([start]);
        let mut closing = None;
        'bfs: while let Some(u) = queue.pop_front() {
            for &v in &succ[u] {
                if v == start {
                    closing = Some(u);
                    break 'bfs;
                }
                if parent[v] == usize::MAX {
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        let Some(mut u) = closing else { continue };
        let mut cycle = vec![u];
        while u != start {
            u = parent[u];
            cycle.push(u);
        }
        cycle.reverse();
        if best.as_ref().is_none_or(|b| cycle.len() < b.len()) {
            best = Some(cycle);
        }
    }
    best
}

/// `acyclic`, or `k-cycle a → b → … → a` in router ids.
fn verdict(g: &Graph) -> String {
    match shortest_cycle(g) {
        None => "acyclic".to_string(),
        Some(cycle) => {
            let mut s = format!("{}-cycle", cycle.len());
            for (i, &node) in cycle.iter().chain(&cycle[..1]).enumerate() {
                let sep = if i == 0 { " " } else { " → " };
                write!(s, "{sep}{}", g.router_of[node]).unwrap();
            }
            s
        }
    }
}

fn model_name(model: Model) -> &'static str {
    match model {
        Model::Pooled => "pooled",
        Model::PerPort => "per-port",
    }
}

/// The table as it reads now.
fn table() -> String {
    let mut out = String::new();
    for model in [Model::Pooled, Model::PerPort] {
        for kind in KINDS {
            for n in SIZES {
                let topo = Topology::build(kind, n, 1).unwrap();
                let row = verdict(&dependency_graph(&topo, model));
                let (model, kind) = (model_name(model), kind.to_string());
                writeln!(out, "{model:<8} {kind:<8} n={n:<2}  {row}").unwrap();
            }
        }
    }
    for model in [Model::Pooled, Model::PerPort] {
        for kind in KINDS {
            let healthy = Topology::build(kind, DEAD_N, 1).unwrap();
            let mut dead_links = Vec::new();
            for r in 0..healthy.n_routers() {
                dead_links.extend((0..healthy.links_of(r).len()).map(|p| (r, p)));
            }
            let mut first = None;
            let mut cyclic = 0;
            for &dead in &dead_links {
                let mut topo = healthy.clone();
                topo.recompute_routes(&[dead]);
                let row = verdict(&dependency_graph(&topo, model));
                if row != "acyclic" {
                    cyclic += 1;
                    first.get_or_insert((dead, row));
                }
            }
            let total = dead_links.len();
            let (model, kind) = (model_name(model), kind.to_string());
            write!(
                out,
                "{model:<8} {kind:<8} n={DEAD_N}  one dead link: {cyclic}/{total} cyclic"
            )
            .unwrap();
            if let Some(((r, p), row)) = first {
                write!(out, "; first {r}:{p} dead, {row}").unwrap();
            }
            out.push('\n');
        }
    }
    out
}

/// The table at the engine's routes today.
const EXPECTED: &str = "\
pooled   bus      n=4   acyclic
pooled   bus      n=8   acyclic
pooled   bus      n=16  acyclic
pooled   bus      n=32  acyclic
pooled   bus      n=64  acyclic
pooled   ring     n=4   2-cycle 0 → 1 → 0
pooled   ring     n=8   2-cycle 0 → 1 → 0
pooled   ring     n=16  2-cycle 0 → 1 → 0
pooled   ring     n=32  2-cycle 0 → 1 → 0
pooled   ring     n=64  2-cycle 0 → 1 → 0
pooled   mesh     n=4   2-cycle 0 → 2 → 0
pooled   mesh     n=8   2-cycle 0 → 4 → 0
pooled   mesh     n=16  2-cycle 0 → 4 → 0
pooled   mesh     n=32  2-cycle 0 → 8 → 0
pooled   mesh     n=64  2-cycle 0 → 8 → 0
pooled   torus    n=4   2-cycle 0 → 2 → 0
pooled   torus    n=8   2-cycle 0 → 4 → 0
pooled   torus    n=16  2-cycle 0 → 4 → 0
pooled   torus    n=32  2-cycle 0 → 1 → 0
pooled   torus    n=64  2-cycle 0 → 1 → 0
pooled   fat-tree n=4   acyclic
pooled   fat-tree n=8   2-cycle 8 → 10 → 8
pooled   fat-tree n=16  2-cycle 16 → 20 → 16
pooled   fat-tree n=32  2-cycle 32 → 40 → 32
pooled   fat-tree n=64  2-cycle 64 → 80 → 64
pooled   crossbar n=4   acyclic
pooled   crossbar n=8   acyclic
pooled   crossbar n=16  acyclic
pooled   crossbar n=32  acyclic
pooled   crossbar n=64  acyclic
per-port bus      n=4   acyclic
per-port bus      n=8   acyclic
per-port bus      n=16  acyclic
per-port bus      n=32  acyclic
per-port bus      n=64  acyclic
per-port ring     n=4   acyclic
per-port ring     n=8   8-cycle 0 → 1 → 2 → 3 → 4 → 5 → 6 → 7 → 0
per-port ring     n=16  16-cycle 0 → 1 → 2 → 3 → 4 → 5 → 6 → 7 → 8 → 9 → 10 → 11 → 12 → 13 → 14 → 15 → 0
per-port ring     n=32  32-cycle 0 → 1 → 2 → 3 → 4 → 5 → 6 → 7 → 8 → 9 → 10 → 11 → 12 → 13 → 14 → 15 → 16 → 17 → 18 → 19 → 20 → 21 → 22 → 23 → 24 → 25 → 26 → 27 → 28 → 29 → 30 → 31 → 0
per-port ring     n=64  64-cycle 0 → 1 → 2 → 3 → 4 → 5 → 6 → 7 → 8 → 9 → 10 → 11 → 12 → 13 → 14 → 15 → 16 → 17 → 18 → 19 → 20 → 21 → 22 → 23 → 24 → 25 → 26 → 27 → 28 → 29 → 30 → 31 → 32 → 33 → 34 → 35 → 36 → 37 → 38 → 39 → 40 → 41 → 42 → 43 → 44 → 45 → 46 → 47 → 48 → 49 → 50 → 51 → 52 → 53 → 54 → 55 → 56 → 57 → 58 → 59 → 60 → 61 → 62 → 63 → 0
per-port mesh     n=4   acyclic
per-port mesh     n=8   acyclic
per-port mesh     n=16  acyclic
per-port mesh     n=32  acyclic
per-port mesh     n=64  acyclic
per-port torus    n=4   acyclic
per-port torus    n=8   acyclic
per-port torus    n=16  acyclic
per-port torus    n=32  8-cycle 0 → 1 → 2 → 3 → 4 → 5 → 6 → 7 → 0
per-port torus    n=64  8-cycle 0 → 1 → 2 → 3 → 4 → 5 → 6 → 7 → 0
per-port fat-tree n=4   acyclic
per-port fat-tree n=8   acyclic
per-port fat-tree n=16  acyclic
per-port fat-tree n=32  acyclic
per-port fat-tree n=64  acyclic
per-port crossbar n=4   acyclic
per-port crossbar n=8   acyclic
per-port crossbar n=16  acyclic
per-port crossbar n=32  acyclic
per-port crossbar n=64  acyclic
pooled   bus      n=16  one dead link: 0/32 cyclic
pooled   ring     n=16  one dead link: 32/32 cyclic; first 0:0 dead, 2-cycle 0 → 15 → 0
pooled   mesh     n=16  one dead link: 48/48 cyclic; first 0:0 dead, 2-cycle 0 → 4 → 0
pooled   torus    n=16  one dead link: 64/64 cyclic; first 0:0 dead, 2-cycle 0 → 3 → 0
pooled   fat-tree n=16  one dead link: 40/40 cyclic; first 0:0 dead, 2-cycle 16 → 20 → 16
pooled   crossbar n=16  one dead link: 0/32 cyclic
per-port bus      n=16  one dead link: 0/32 cyclic
per-port ring     n=16  one dead link: 32/32 cyclic; first 0:0 dead, 16-cycle 0 → 15 → 14 → 13 → 12 → 11 → 10 → 9 → 8 → 7 → 6 → 5 → 4 → 3 → 2 → 1 → 0
per-port mesh     n=16  one dead link: 18/48 cyclic; first 0:0 dead, 4-cycle 0 → 4 → 5 → 1 → 0
per-port torus    n=16  one dead link: 34/64 cyclic; first 0:0 dead, 4-cycle 0 → 3 → 2 → 1 → 0
per-port fat-tree n=16  one dead link: 0/40 cyclic
per-port crossbar n=16  one dead link: 0/32 cyclic
";

#[test]
fn dependency_graphs_match_the_pinned_table() {
    let now = table();
    print!("{now}");
    assert!(
        now == EXPECTED,
        "the dependency-graph table moved; as it reads now:\n{now}"
    );
}
