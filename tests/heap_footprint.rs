//! Heap footprint of the four benchmark rigs, counted by this binary's own
//! global allocator.
//!
//! For every [`BenchRig`] the test measures the live heap bytes the
//! platform holds after `build`, after nwbench's `--quick` warm-up (its
//! full warm-up ÷ 20) and what one `fork` of the warmed platform adds,
//! prints the table and fails on a figure above its pinned ceiling. A fifth
//! row runs `mix-fork-faults` through nwbench's full warm-up, which leaves
//! thousands of invocations queued, and also pins the runtime's bytes per
//! queued invocation. A NoC row pins what a healthy 1 024-endpoint mesh
//! `Noc` holds after `Noc::new` and what one `clone` of it adds: routes
//! computed from the fabric's shape keep both linear in the endpoints. It
//! also checks that a latency histogram owns no buckets until its first
//! sample. One `#[test]` only: the counter is process-wide, so a second
//! test running in parallel would be counted too.
//!
//! ```sh
//! cargo test --release --test heap_footprint -- --nocapture
//! ```

use nanowall::scenarios::BenchRig;
use nanowall::FppaPlatform;
use nw_noc::{Noc, NocConfig, Topology, TopologyKind};
use nw_sim::LatencyHistogram;
use nw_types::ObjectId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes it has handed out and not yet
/// been given back.
struct Counting;

/// Live heap bytes of the whole process.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// nwbench's `--quick` campaign horizon for the faulted rig: its warm-up
/// plus one replica window, 900 000 + 600 000 cycles ÷ 20.
const QUICK_CAMPAIGN_HORIZON: u64 = 75_000;

/// Per rig, in [`BenchRig::ALL`] order: nwbench's `--quick` warm-up in
/// cycles, and the ceilings in bytes on the platform after `build`, after
/// the warm-up, and on one fork — the figures measured plus 10 %: after
/// `build` and on a fork since routing became a function of the fabric's
/// shape, after the warm-up since a payload became a length and a 16-byte
/// head.
const RIGS: [(u64, [usize; 3]); 4] = [
    (15_000, [85_932, 120_441, 89_285]),
    (100_000, [35_280, 65_635, 47_948]),
    (3_000_000, [24_648, 33_513, 24_428]),
    (45_000, [53_529, 85_952, 65_163]),
];

/// The fifth row, `mix-fork-faults` at nwbench's full warm-up:
/// warm-up and campaign horizon in cycles, and ceilings as in [`RIGS`].
const FULL_MIX: (u64, u64, [usize; 3]) = (900_000, 1_500_000, [58_457, 160_788, 110_184]);

/// The NoC row: a healthy mesh's endpoints, and the ceilings in bytes on
/// its `Noc` after `Noc::new` and on one `clone` — measured plus 10 %.
const MESH_NOC: (usize, [usize; 2]) = (1024, [532_660, 522_522]);

/// The fewest invocations the fifth row's warm-up leaves queued, so that
/// the row measures a backlog.
const MIN_BACKLOG: usize = 5_000;

/// Ceiling on the fifth row's runtime bytes (what a fork copies of it) per
/// queued invocation: measured plus 10 %.
const BYTES_PER_QUEUED: f64 = 7.1;

/// Asserts that every object of `p` without a recorded round trip owns no
/// latency buckets, and returns how many such objects there were.
fn silent_objects_own_no_buckets(p: &FppaPlatform) -> usize {
    let objects = p
        .runtime()
        .expect("every rig installs an app")
        .app()
        .objects()
        .len();
    let silent = (0..objects).filter_map(|i| {
        let h = p.object_latency(ObjectId(i)).expect("object exists");
        (h.count() == 0).then_some((i, h.bucket_len()))
    });
    silent
        .map(|(i, buckets)| assert_eq!(buckets, 0, "object {i}"))
        .count()
}

#[test]
fn benchmark_rigs_stay_under_their_heap_ceilings() {
    let before = live();
    let empty = LatencyHistogram::new();
    assert_eq!(live(), before, "a new latency histogram allocates");
    assert_eq!(empty.bucket_len(), 0);

    let mut rows = Vec::new();
    let mut silent = 0;
    let quick = BenchRig::ALL.into_iter().zip(RIGS);
    let quick = quick.map(|(rig, (warmup, ceil))| (rig, warmup, QUICK_CAMPAIGN_HORIZON, ceil));
    let (warmup, horizon, ceil) = FULL_MIX;
    let full = (BenchRig::MixForkFaults, warmup, horizon, ceil);
    for (rig, warmup, horizon, ceilings) in quick.chain([full]) {
        let base = live();
        let mut platform = rig.build(horizon);
        let built = live() - base;
        silent += silent_objects_own_no_buckets(&platform);
        drop(platform.run(warmup));
        let warmed = live() - base;
        silent += silent_objects_own_no_buckets(&platform);
        let before_fork = live();
        let fork = platform.fork(BenchRig::CAMPAIGN_SEED);
        let forked = live() - before_fork;
        drop(fork);
        let runtime = platform.runtime().expect("every rig installs an app");
        let queued = runtime.queued_invocations();
        let before_copy = live();
        let copy = runtime.clone();
        let runtime_bytes = live() - before_copy;
        drop(copy);
        drop(platform);
        let got = [built, warmed, forked];
        rows.push((rig, warmup, got, ceilings, runtime_bytes, queued));
    }

    println!(
        "rig               warm-up   built B  warmed B    fork B   runtime B  queued  B/queued   (ceilings)"
    );
    for (rig, warmup, got, ceil, runtime_bytes, queued) in &rows {
        let per_queued = match queued {
            0 => "-".to_string(),
            &q => format!("{:.2}", *runtime_bytes as f64 / q as f64),
        };
        println!(
            "{:<16} {:>8} {:>9} {:>9} {:>9} {:>11} {:>7} {:>9}   ({} / {} / {})",
            rig.name(),
            warmup,
            got[0],
            got[1],
            got[2],
            runtime_bytes,
            queued,
            per_queued,
            ceil[0],
            ceil[1],
            ceil[2]
        );
    }
    let (endpoints, mesh_ceil) = MESH_NOC;
    let base = live();
    let topo = Topology::build(TopologyKind::Mesh, endpoints, 1).expect("endpoints > 0");
    let noc = Noc::new(topo, NocConfig::default());
    let built = live() - base;
    let before_clone = live();
    let copy = noc.clone();
    let cloned = live() - before_clone;
    drop(copy);
    drop(noc);
    println!(
        "{:<16} {:>8} {:>9} {:>9} {:>9}   ({} / - / {})",
        format!("mesh-{endpoints}-noc"),
        "-",
        built,
        "-",
        cloned,
        mesh_ceil[0],
        mesh_ceil[1]
    );
    for (what, (g, c)) in ["built", "clone"]
        .iter()
        .zip([built, cloned].into_iter().zip(mesh_ceil))
    {
        assert!(
            g <= c,
            "{endpoints}-endpoint mesh Noc: {what} heap {g} B above its ceiling {c} B"
        );
    }

    assert!(silent > 0, "no rig has an object without a round trip");
    let &(.., runtime_bytes, queued) = rows.last().expect("five rows");
    assert!(queued >= MIN_BACKLOG, "the full warm-up queued {queued}");
    let per_queued = runtime_bytes as f64 / queued as f64;
    assert!(
        per_queued <= BYTES_PER_QUEUED,
        "runtime {per_queued:.2} B per queued invocation, above {BYTES_PER_QUEUED}"
    );
    for (rig, warmup, got, ceil, ..) in rows {
        for (what, (g, c)) in ["built", "warmed", "fork"]
            .iter()
            .zip(got.into_iter().zip(ceil))
        {
            assert!(
                g <= c,
                "{} ({warmup} cycles): {what} heap {g} B above its ceiling {c} B",
                rig.name()
            );
        }
    }
}
