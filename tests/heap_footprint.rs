//! Heap footprint of the four benchmark rigs, counted by this binary's own
//! global allocator.
//!
//! For every [`BenchRig`] the test measures the live heap bytes the
//! platform holds after `build`, at most during nwbench's `--quick`
//! warm-up (its full warm-up ÷ 20; the high-water mark, a deterministic
//! proxy for nwbench's `peak_rss_mb`), after the warm-up, and what one
//! `fork` of the warmed platform adds, prints the table and fails on a
//! figure above its pinned ceiling. Each rig then runs a second window as
//! long as its warm-up, whose allocation calls are pinned exactly, and
//! runs it again after a second build and warm-up, under a trace sink:
//! tracing must not add a single allocation call. A fifth
//! row runs `mix-fork-faults` through nwbench's full warm-up, which leaves
//! thousands of invocations queued, and also pins the runtime's bytes per
//! queued invocation. The table also prints each warmed platform's live
//! heap blocks and splits a fork's bytes into its PEs, its runtime and
//! the rest (NoC, services, I/O, call table, campaign). A NoC row pins
//! what a healthy 1 024-endpoint mesh `Noc` holds after `Noc::new` and
//! what one `clone` of it adds: routes computed from the fabric's shape
//! keep both linear in the endpoints. It
//! also checks that a latency histogram owns no buckets until its first
//! sample. One `#[test]` only: the counter is process-wide, so a second
//! test running in parallel would be counted too.
//!
//! ```sh
//! cargo test --release --test heap_footprint -- --nocapture
//! ```

use nanowall::scenarios::BenchRig;
use nanowall::{FppaPlatform, RingBufferSink, TraceEvent, TraceSink};
use nw_noc::{Noc, NocConfig, Topology, TopologyKind};
use nw_sim::LatencyHistogram;
use nw_types::ObjectId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes it has handed out and not yet
/// been given back, its allocation calls and the live high-water mark.
struct Counting;

/// Live heap bytes of the whole process.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The most bytes live at once since the last [`reset_peak`]. A `realloc`
/// counts its old and new blocks together, as a moving one holds both.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `alloc`, `alloc_zeroed` and `realloc` calls of the whole process.
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// Live heap blocks of the whole process: a `realloc` moves one.
static BLOCKS: AtomicUsize = AtomicUsize::new(0);

/// `size` more bytes are live.
fn grew(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
            BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
            BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        BLOCKS.fetch_sub(1, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grew(new_size);
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

fn calls() -> usize {
    CALLS.load(Ordering::Relaxed)
}

fn blocks() -> usize {
    BLOCKS.load(Ordering::Relaxed)
}

/// The live bytes a copy made by `copy` holds.
fn bytes_of<T>(copy: impl FnOnce() -> T) -> usize {
    let before = live();
    let made = copy();
    let bytes = live() - before;
    drop(made);
    bytes
}

/// Starts a new high-water mark at the bytes live now.
fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// nwbench's `--quick` campaign horizon for the faulted rig: its warm-up
/// plus one replica window, 900 000 + 600 000 cycles ÷ 20.
const QUICK_CAMPAIGN_HORIZON: u64 = 75_000;

/// One row's pins.
struct Pins {
    /// Warm-up in cycles; the second window is as long.
    warmup: u64,
    /// Ceilings in bytes, each measured plus 10 %: on the platform after
    /// `build`, on the most live at once during the warm-up, after the
    /// warm-up, and on one fork.
    ceilings: [usize; 4],
    /// Allocation calls in the second window, exact in a release build
    /// (a debug build's audits allocate too, so it does not check them),
    /// traced or not.
    calls: usize,
}

/// Per rig, in [`BenchRig::ALL`] order, at nwbench's `--quick` warm-up.
/// Every ceiling dates from each install-time table being stored once (the
/// runtime keeps no copy of the application, a call slot no retry half
/// without a policy, and copies share the handler and topology tables) and
/// from the NoC keeping packet latency as exact moments, with no bucket
/// array to hold or to clone into a report.
const RIGS: [Pins; 4] = [
    Pins {
        warmup: 15_000,
        ceilings: [58_220, 95_497, 88_615, 52_882],
        calls: 40,
    },
    Pins {
        warmup: 100_000,
        ceilings: [24_222, 55_366, 52_462, 33_274],
        calls: 24,
    },
    Pins {
        warmup: 3_000_000,
        ceilings: [17_534, 27_047, 25_102, 14_122],
        calls: 18,
    },
    Pins {
        warmup: 45_000,
        ceilings: [42_429, 73_924, 69_392, 45_751],
        calls: 44,
    },
];

/// The fifth row, `mix-fork-faults` at nwbench's full warm-up, with its
/// campaign horizon in cycles (the campaign ends 600 000 cycles into the
/// second window), ceilings measured plus 10 % as the other rows'.
const FULL_MIX: (u64, Pins) = (
    1_500_000,
    Pins {
        warmup: 900_000,
        ceilings: [47_357, 103_149, 98_617, 64_116],
        calls: 37,
    },
);

/// The NoC row: a healthy mesh's endpoints, and the ceilings in bytes on
/// its `Noc` after `Noc::new` and on one `clone` — measured plus 10 %.
const MESH_NOC: (usize, [usize; 2]) = (1024, [505_156, 336_090]);

/// The fewest invocations the fifth row's warm-up leaves queued, so that
/// the row measures a backlog.
const MIN_BACKLOG: usize = 5_000;

/// Ceiling on the fifth row's runtime bytes (what a fork copies of it) per
/// queued invocation: measured plus 10 %.
const BYTES_PER_QUEUED: f64 = 1.98;

/// Events a primed ring holds: it is full before the traced window, so
/// each event it takes evicts one instead of growing the buffer.
const RING: usize = 1024;

/// Asserts that every object of `p` without a recorded round trip owns no
/// latency buckets, and returns how many such objects there were.
fn silent_objects_own_no_buckets(p: &FppaPlatform) -> usize {
    let runtime = p.runtime().expect("every rig installs an app");
    let objects = runtime.object_dispatches().len();
    let silent = (0..objects).filter_map(|i| {
        let h = p.object_latency(ObjectId(i)).expect("object exists");
        (h.count() == 0).then_some((i, h.bucket_len()))
    });
    silent
        .map(|(i, buckets)| assert_eq!(buckets, 0, "object {i}"))
        .count()
}

/// One rig's measurements.
struct Row {
    rig: BenchRig,
    pins: &'static Pins,
    /// Bytes after `build`, most live during the warm-up, after it, and
    /// added by one fork.
    got: [usize; 4],
    /// Live heap blocks of the warmed platform.
    blocks: usize,
    /// What copies of the warmed platform's PEs and of its runtime hold:
    /// the fork's two largest components.
    pe_bytes: usize,
    runtime_bytes: usize,
    queued: usize,
    /// Allocation calls in the second window, untraced and traced.
    calls: [usize; 2],
}

#[test]
fn benchmark_rigs_stay_under_their_heap_ceilings() {
    let before = live();
    let empty = LatencyHistogram::new();
    assert_eq!(live(), before, "a new latency histogram allocates");
    assert_eq!(empty.bucket_len(), 0);

    let mut rows = Vec::new();
    let mut silent = 0;
    let quick = BenchRig::ALL.into_iter().zip(&RIGS);
    let quick = quick.map(|(rig, pins)| (rig, QUICK_CAMPAIGN_HORIZON, pins));
    let (horizon, pins) = &FULL_MIX;
    for (rig, horizon, pins) in quick.chain([(BenchRig::MixForkFaults, *horizon, pins)]) {
        let (base, base_blocks) = (live(), blocks());
        let mut platform = rig.build(horizon);
        let built = live() - base;
        silent += silent_objects_own_no_buckets(&platform);
        reset_peak();
        drop(platform.run(pins.warmup));
        let high_water = peak() - base;
        let (warmed, warmed_blocks) = (live() - base, blocks() - base_blocks);
        silent += silent_objects_own_no_buckets(&platform);
        let forked = bytes_of(|| platform.fork(BenchRig::CAMPAIGN_SEED));
        let pes = platform.config().pes.len();
        let pe_bytes = (0..pes).map(|i| bytes_of(|| platform.pe(i).clone())).sum();
        let runtime = platform.runtime().expect("every rig installs an app");
        let queued = runtime.queued_invocations();
        let runtime_bytes = bytes_of(|| runtime.clone());
        let before_window = calls();
        let report = platform.run(pins.warmup);
        let untraced = calls() - before_window;
        drop((report, platform));
        // The same warm-up again, so that the traced window starts from
        // the same state in buffers of the same capacities.
        let mut platform = rig.build(horizon);
        drop(platform.run(pins.warmup));
        let mut ring = RingBufferSink::new(RING);
        for _ in 0..RING {
            ring.emit(TraceEvent::FastForward { cycle: 0, span: 0 });
        }
        platform.set_trace_sink(Box::new(ring));
        let before_window = calls();
        let report = platform.run(pins.warmup);
        let traced = calls() - before_window;
        drop((report, platform));
        rows.push(Row {
            rig,
            pins,
            got: [built, high_water, warmed, forked],
            blocks: warmed_blocks,
            pe_bytes,
            runtime_bytes,
            queued,
            calls: [untraced, traced],
        });
    }

    println!(
        "rig               warm-up   built B   high B  warmed B  blocks    fork B   PEs B  runtime B  rest B  queued  B/queued  calls  traced   (ceilings; calls pinned)"
    );
    for row in &rows {
        let per_queued = match row.queued {
            0 => "-".to_string(),
            q => format!("{:.2}", row.runtime_bytes as f64 / q as f64),
        };
        let [built, high, warmed, fork] = row.got;
        let [cb, ch, cw, cf] = row.pins.ceilings;
        println!(
            "{:<16} {:>8} {:>9} {:>8} {:>9} {:>7} {:>9} {:>7} {:>10} {:>7} {:>7} {:>9} {:>6} {:>7}   ({cb} / {ch} / {cw} / {cf}; {})",
            row.rig.name(),
            row.pins.warmup,
            built,
            high,
            warmed,
            row.blocks,
            fork,
            row.pe_bytes,
            row.runtime_bytes,
            fork as isize - (row.pe_bytes + row.runtime_bytes) as isize,
            row.queued,
            per_queued,
            row.calls[0],
            row.calls[1],
            row.pins.calls,
        );
    }
    let (endpoints, mesh_ceil) = MESH_NOC;
    let base = live();
    let topo = Topology::build(TopologyKind::Mesh, endpoints, 1).expect("endpoints > 0");
    let noc = Noc::new(topo, NocConfig::default());
    let built = live() - base;
    let cloned = bytes_of(|| noc.clone());
    drop(noc);
    println!(
        "{:<16} {:>8} {:>9} {:>8} {:>9} {:>7} {:>9}   ({} / - / - / {})",
        format!("mesh-{endpoints}-noc"),
        "-",
        built,
        "-",
        "-",
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
    let full = rows.last().expect("five rows");
    assert!(
        full.queued >= MIN_BACKLOG,
        "the full warm-up queued {}",
        full.queued
    );
    let per_queued = full.runtime_bytes as f64 / full.queued as f64;
    assert!(
        per_queued <= BYTES_PER_QUEUED,
        "runtime {per_queued:.2} B per queued invocation, above {BYTES_PER_QUEUED}"
    );
    for row in rows {
        let name = row.rig.name();
        let warmup = row.pins.warmup;
        for (what, (g, c)) in ["built", "high-water", "warmed", "fork"]
            .iter()
            .zip(row.got.into_iter().zip(row.pins.ceilings))
        {
            assert!(
                g <= c,
                "{name} ({warmup} cycles): {what} heap {g} B above its ceiling {c} B"
            );
        }
        if !cfg!(debug_assertions) {
            for (what, got) in ["untraced", "traced"].iter().zip(row.calls) {
                assert_eq!(
                    got, row.pins.calls,
                    "{name}: allocation calls in the {what} second {warmup}-cycle window"
                );
            }
        }
    }
}
