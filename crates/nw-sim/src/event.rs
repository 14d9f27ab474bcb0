//! Deterministic time-ordered event queue.
//!
//! Every user of the queue in this workspace treats it as a *calendar*:
//! due cycles lie a bounded distance ahead of the caller's clock (link
//! serialization plus wire latency, a pipeline depth, a DRAM access) and
//! same-cycle events pop FIFO. The storage is therefore a calendar wheel —
//! a ring of 256 per-cycle FIFO buckets (`WINDOW`) — with a binary heap kept
//! only as the overflow for the rare entry scheduled outside the window.
//!
//! # Order contract
//!
//! Events pop in exact `(due, seq)` order, where `seq` is the order of the
//! `schedule` calls. Inside the ring that order is structural: the window
//! is exactly `WINDOW` cycles wide, so a bucket only ever holds entries
//! of one due cycle, appended in schedule order. The overflow heap orders
//! its own entries by `(due, seq)`. Between the two, a tie on `due` goes to
//! the overflow entry, which is always the older one: while the ring holds
//! an entry due at cycle `d` the window cannot move off `d` (`pop_due`
//! slides it forward to its `now`, but never past the earliest ring entry,
//! and moves it freely only while the ring is empty), and a schedule for a
//! cycle inside the window never goes to the heap — so every heap entry due
//! at `d` was scheduled before the window reached `d`, hence before every
//! ring entry due at `d`.

use nw_types::Cycles;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Cycles the ring covers, one bucket each (a power of two). Sized from
/// the schedule distances of the benchmark rigs: arrivals and router wakes
/// land `ser + link latency + router_delay` ahead of the tick, pipeline
/// and memory completions a latency ahead — under 256 cycles for all but
/// jumbo payloads on narrow links. Counted over whole nwbench runs, 1 of
/// about 8.7 M schedules on the four workloads went to the heap (on
/// `mix-fork-faults`; 0 of 341 640 on the idle-heavy `modem-idle`), and a
/// narrower ring would send more: `video-knee` schedules 332 101 items
/// 128–255 cycles ahead, `modem-idle` 222 066 items 64–127 ahead.
///
/// Only `pop_due` moves the window, so the first schedule into an empty
/// queue whose owner skipped `pop_due` across a fast-forward hop would
/// miss it; every owner pops at the top of its tick, before it schedules.
/// `schedule` does not seat the window on such an entry: it has no clock,
/// and seating it on a far-future first entry would send every nearer one
/// after it to the heap until it pops.
const WINDOW: usize = 256;
const SLOT_MASK: u64 = WINDOW as u64 - 1;
const WORDS: usize = WINDOW / 64;
/// Null link of the node slab.
const NIL: u32 = u32::MAX;

/// An overflow entry: payload plus its due time and a tie-break sequence
/// number so that events scheduled for the same cycle pop in insertion order.
#[derive(Debug, Clone)]
struct Entry<T> {
    due: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first order.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One slab cell: a queued event linked to the next of its bucket, or a
/// vacated cell (`payload` is `None`) linked into the free list.
#[derive(Debug, Clone)]
struct Node<T> {
    next: u32,
    payload: Option<T>,
}

/// First and last node of one bucket's FIFO. Meaningful only while the
/// bucket's occupancy bit is set.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

/// A deterministic min-queue of timed events.
///
/// Events scheduled for the same cycle are delivered in the order they were
/// scheduled (FIFO within a cycle), which keeps whole-platform simulations
/// reproducible regardless of storage internals.
///
/// Scheduling and popping are O(1) for events due within a 256-cycle window
/// that follows the `now` passed to [`pop_due`](Self::pop_due); events due
/// outside it (later, or earlier than the window start — both legal) cost
/// a binary-heap operation and still pop in exact order.
///
/// # Examples
///
/// ```
/// use nw_sim::EventQueue;
/// use nw_types::Cycles;
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycles(10), "late");
/// q.schedule(Cycles(5), "early");
/// q.schedule(Cycles(5), "early2");
///
/// assert_eq!(q.pop_due(Cycles(4)), None);
/// assert_eq!(q.pop_due(Cycles(5)), Some("early"));
/// assert_eq!(q.pop_due(Cycles(5)), Some("early2"));
/// assert_eq!(q.pop_due(Cycles(5)), None);
/// assert_eq!(q.pop_due(Cycles(10)), Some("late"));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Node slab shared by every bucket: grows to the peak ring population
    /// and is recycled through `free`, so steady state allocates nothing.
    nodes: Vec<Node<T>>,
    /// Head of the free list threaded through vacated `nodes`.
    free: u32,
    /// Bucket `c & SLOT_MASK` holds the events due at cycle `c`, for `c` in
    /// `base .. base + WINDOW`. Allocated on the first ring insert, so a
    /// queue that is never used costs nothing.
    slots: Vec<Slot>,
    /// One bit per bucket: set while the bucket holds events.
    occupied: [u64; WORDS],
    /// First cycle of the window.
    base: u64,
    /// Events held in the ring.
    ring_len: usize,
    /// Earliest occupied cycle of the ring (valid while `ring_len > 0`).
    ring_min: u64,
    /// Events scheduled outside the window, ordered by `(due, seq)`.
    overflow: BinaryHeap<Entry<T>>,
    /// Tie-break for overflow entries of equal due time.
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            slots: Vec::new(),
            occupied: [0; WORDS],
            base: 0,
            ring_len: 0,
            ring_min: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to become due at cycle `due`.
    #[inline]
    pub fn schedule(&mut self, due: Cycles, payload: T) {
        let due = due.0;
        if due >= self.base && due - self.base < WINDOW as u64 {
            self.push_ring(due, payload);
        } else {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.overflow.push(Entry { due, seq, payload });
        }
    }

    /// Appends to the bucket of in-window cycle `due`.
    // Inlined, as `pop_ring` is: the NoC schedules and pops one arrival
    // per hop, and as calls the two measured 2.5 % of `sim_cycles_per_s`
    // on the video rig once its NoC-only spans ran inside the engine.
    #[inline]
    fn push_ring(&mut self, due: u64, payload: T) {
        if self.slots.is_empty() {
            let unlinked = Slot {
                head: NIL,
                tail: NIL,
            };
            self.slots = vec![unlinked; WINDOW];
        }
        let node = Node {
            next: NIL,
            payload: Some(payload),
        };
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = std::mem::replace(&mut self.nodes[idx as usize], node).next;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("event ring holds fewer than 2^32 - 1 entries");
            self.nodes.push(node);
            idx
        };
        let s = (due & SLOT_MASK) as usize;
        let bit = 1u64 << (s % 64);
        if self.occupied[s / 64] & bit == 0 {
            self.occupied[s / 64] |= bit;
            self.slots[s].head = idx;
        } else {
            let tail = self.slots[s].tail;
            self.nodes[tail as usize].next = idx;
        }
        self.slots[s].tail = idx;
        if self.ring_len == 0 || due < self.ring_min {
            self.ring_min = due;
        }
        self.ring_len += 1;
    }

    /// Takes the head of the `ring_min` bucket. Caller checked `ring_len > 0`.
    #[inline]
    fn pop_ring(&mut self) -> T {
        let s = (self.ring_min & SLOT_MASK) as usize;
        let idx = self.slots[s].head;
        let node = &mut self.nodes[idx as usize];
        let payload = node
            .payload
            .take()
            .expect("occupied bucket heads a live node");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = idx;
        self.ring_len -= 1;
        if next != NIL {
            self.slots[s].head = next;
        } else {
            self.occupied[s / 64] &= !(1u64 << (s % 64));
            if self.ring_len > 0 {
                self.ring_min += self.gap_to_next_occupied(s);
            }
        }
        payload
    }

    /// Distance in cycles from bucket `s` (just emptied) to the next
    /// occupied bucket, scanning the ring forward. Every ring entry is due
    /// at or after `ring_min` and less than `WINDOW` cycles past it, so one
    /// lap finds the earliest. Caller checked the ring is non-empty.
    fn gap_to_next_occupied(&self, s: usize) -> u64 {
        let (w, b) = (s / 64, s % 64);
        // Bits strictly above `b` in the starting word (two shifts: `b` may be 63).
        let above = self.occupied[w] & (!0u64 << b << 1);
        let found = if above != 0 {
            w * 64 + above.trailing_zeros() as usize
        } else {
            // The last lap step revisits word `w` for the bits below `b`.
            (1..=WORDS)
                .map(|k| (w + k) % WORDS)
                .find(|&wi| self.occupied[wi] != 0)
                .map(|wi| wi * 64 + self.occupied[wi].trailing_zeros() as usize)
                .expect("non-empty ring has an occupied bucket")
        };
        (found as u64).wrapping_sub(s as u64) & SLOT_MASK
    }

    /// Pops the overflow head if it is due.
    #[inline]
    fn pop_overflow_due(&mut self, now: u64) -> Option<T> {
        if self.overflow.peek().is_some_and(|e| e.due <= now) {
            self.overflow.pop().map(|e| e.payload)
        } else {
            None
        }
    }

    /// Pops the next event whose due time is `<= now`, if any.
    ///
    /// Call repeatedly from a component's `tick` to drain everything that
    /// matured this cycle.
    #[inline]
    pub fn pop_due(&mut self, now: Cycles) -> Option<T> {
        let now = now.0;
        if self.ring_len == 0 {
            // Nothing pins the window: let it follow the caller's clock, so
            // the schedules that follow this drain land in the ring.
            self.base = now;
            return self.pop_overflow_due(now);
        }
        if self.base < now {
            self.base = now.min(self.ring_min);
        }
        // A tie on the due cycle goes to the overflow entry — always the
        // older of the two (module docs).
        if self.overflow.peek().is_some_and(|e| e.due <= self.ring_min) {
            return self.pop_overflow_due(now);
        }
        (self.ring_min <= now).then(|| self.pop_ring())
    }

    /// The due time of the earliest pending event.
    pub fn next_due(&self) -> Option<Cycles> {
        let overflow = self.overflow.peek().map(|e| e.due);
        let ring = (self.ring_len > 0).then_some(self.ring_min);
        match (ring, overflow) {
            (Some(r), Some(o)) => Some(Cycles(r.min(o))),
            (r, o) => r.or(o).map(Cycles),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(3), 'c');
        q.schedule(Cycles(1), 'a');
        q.schedule(Cycles(3), 'd');
        q.schedule(Cycles(2), 'b');
        let mut out = Vec::new();
        while let Some(x) = q.pop_due(Cycles(100)) {
            out.push(x);
        }
        assert_eq!(out, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn respects_due_time() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(7), 1u32);
        assert!(q.pop_due(Cycles(6)).is_none());
        assert_eq!(q.next_due(), Some(Cycles(7)));
        assert_eq!(q.pop_due(Cycles(7)), Some(1));
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_schedule_and_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Cycles(1), ());
        q.schedule(Cycles(2), ());
        assert_eq!(q.len(), 2);
        q.pop_due(Cycles(5));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn same_cycle_many_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycles(1), i);
        }
        let mut last = -1i64;
        while let Some(i) = q.pop_due(Cycles(1)) {
            assert!(i as i64 > last);
            last = i as i64;
        }
        assert_eq!(last, 99);
    }

    /// Same-cycle entries split between the overflow heap (scheduled while
    /// the cycle lay beyond the window) and the ring (scheduled after the
    /// window reached it) still pop in schedule order.
    #[test]
    fn overflow_and_ring_merge_in_schedule_order() {
        let far = 3 * WINDOW as u64;
        let mut q = EventQueue::new();
        q.schedule(Cycles(1), 0); // a ring entry pins the window
        q.schedule(Cycles(far), 1); // beyond it: overflow
        q.schedule(Cycles(far), 2);
        assert_eq!((q.ring_len, q.overflow.len()), (1, 2));
        assert_eq!(q.pop_due(Cycles(1)), Some(0));
        assert_eq!(q.pop_due(Cycles(far - 1)), None); // window follows `now`
        q.schedule(Cycles(far), 3); // same cycle, now in the ring
        q.schedule(Cycles(far - 1), 4);
        q.schedule(Cycles(far - 2), 5); // behind the window: overflow
        assert_eq!((q.ring_len, q.overflow.len()), (2, 3));
        assert_eq!(q.next_due(), Some(Cycles(far - 2)));
        let mut out = Vec::new();
        while let Some(x) = q.pop_due(Cycles(u64::MAX)) {
            out.push(x);
        }
        assert_eq!(out, vec![5, 4, 1, 2, 3]);
        assert!(q.is_empty());
    }

    /// The slab recycles: a steady stream through the ring never grows the
    /// node store past its peak population.
    #[test]
    fn slab_is_recycled_across_window_laps() {
        let mut q = EventQueue::new();
        for now in 0..10 * WINDOW as u64 {
            q.schedule(Cycles(now + 7), now);
            q.schedule(Cycles(now + 40), now);
            while q.pop_due(Cycles(now)).is_some() {}
        }
        assert!(q.overflow.is_empty(), "every schedule was in the window");
        assert!(q.nodes.len() <= 64, "slab grew to {}", q.nodes.len());
    }
}
