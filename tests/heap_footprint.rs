//! Heap footprint of the four benchmark rigs, counted by this binary's own
//! global allocator.
//!
//! For every [`BenchRig`] the test measures the live heap bytes the
//! platform holds after `build`, after nwbench's `--quick` warm-up (its
//! full warm-up ÷ 20) and what one `fork` of the warmed platform adds,
//! prints the table and fails on a figure above its pinned ceiling. It
//! also checks that a latency histogram owns no buckets until its first
//! sample. One `#[test]` only: the counter is process-wide, so a second
//! test running in parallel would be counted too.
//!
//! ```sh
//! cargo test --release --test heap_footprint -- --nocapture
//! ```

use nanowall::scenarios::BenchRig;
use nanowall::FppaPlatform;
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

/// Per rig, in [`BenchRig::ALL`] order: nwbench's `--quick` warm-up in
/// cycles, and the ceilings in bytes on the platform after `build`, after
/// the warm-up, and on one fork — the figures measured when the latency
/// buckets started growing on demand, plus 10 %.
const RIGS: [(u64, [usize; 3]); 4] = [
    (15_000, [91_059, 131_301, 99_300]),
    (100_000, [37_204, 105_148, 72_984]),
    (3_000_000, [26_069, 35_521, 26_650]),
    (45_000, [56_817, 141_992, 92_778]),
];

/// nwbench's `--quick` campaign horizon for the faulted rig: its warm-up
/// plus one replica window, 900 000 + 600 000 cycles ÷ 20.
const QUICK_CAMPAIGN_HORIZON: u64 = 75_000;

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
    for (rig, (warmup, ceilings)) in BenchRig::ALL.into_iter().zip(RIGS) {
        let base = live();
        let mut platform = rig.build(QUICK_CAMPAIGN_HORIZON);
        let built = live() - base;
        silent += silent_objects_own_no_buckets(&platform);
        drop(platform.run(warmup));
        let warmed = live() - base;
        silent += silent_objects_own_no_buckets(&platform);
        let before_fork = live();
        let fork = platform.fork(BenchRig::CAMPAIGN_SEED);
        let forked = live() - before_fork;
        drop(fork);
        drop(platform);
        rows.push((rig, [built, warmed, forked], ceilings));
    }

    println!("rig               built B   warmed B   fork B   (ceilings)");
    for (rig, got, ceil) in &rows {
        println!(
            "{:<16} {:>8} {:>10} {:>8}   ({} / {} / {})",
            rig.name(),
            got[0],
            got[1],
            got[2],
            ceil[0],
            ceil[1],
            ceil[2]
        );
    }
    assert!(silent > 0, "no rig has an object without a round trip");
    for (rig, got, ceil) in rows {
        for (what, (g, c)) in ["built", "warmed", "fork"]
            .iter()
            .zip(got.into_iter().zip(ceil))
        {
            assert!(
                g <= c,
                "{}: {what} heap {g} B above its ceiling {c} B",
                rig.name()
            );
        }
    }
}
