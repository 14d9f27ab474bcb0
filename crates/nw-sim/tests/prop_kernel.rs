//! Property tests for the simulation kernel: event ordering, statistics
//! invariants and the pipelined server's timing contract.

use nw_sim::{EventQueue, LatencyHistogram, Moments, PipelinedServer, Utilization};
use nw_types::Cycles;
use proptest::prelude::*;

/// The window [`EventQueue`] documents: events due within this many cycles
/// of the `now` last passed to `pop_due` take the O(1) ring, the rest the
/// overflow heap.
const QUEUE_WINDOW: u64 = 256;

/// One step of the model-based queue property: `(kind, a, step)`. `a`
/// parameterizes the step and the clock then advances by `step`, so a case
/// laps the ring.
type QueueOp = (u8, u64, u64);

/// An [`EventQueue`] run in lock step with its oracle — the pending
/// `(due, seq)` keys, popped by linear search for the minimum. Payloads
/// are the `seq` numbers.
#[derive(Clone, Default)]
struct QueueModel {
    q: EventQueue<u64>,
    pending: Vec<(u64, u64)>,
    next_seq: u64,
    /// Every `pop_due` result so far.
    trace: Vec<Option<u64>>,
    /// `Some(now)` right after `pop_due(now)` answered `None` at the
    /// largest `now` so far: the window then starts exactly at `now`.
    window_at: Option<u64>,
    max_now: u64,
    /// Schedules that provably took the ring / the overflow heap.
    ring_hits: usize,
    overflow_hits: usize,
}

impl QueueModel {
    fn schedule(&mut self, due: u64) {
        // Two pending events a window or more apart cannot share the ring;
        // a due cycle inside a window seated by the last pop must take it.
        if self
            .pending
            .iter()
            .any(|&(d, _)| d.abs_diff(due) >= QUEUE_WINDOW)
        {
            self.overflow_hits += 1;
        }
        if self
            .window_at
            .is_some_and(|w| due >= w && due - w < QUEUE_WINDOW)
        {
            self.ring_hits += 1;
        }
        self.pending.push((due, self.next_seq));
        self.q.schedule(Cycles(due), self.next_seq);
        self.next_seq += 1;
    }

    fn pop(&mut self, now: u64) -> Option<u64> {
        let expect = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|&(_, key)| *key)
            .filter(|&(_, &(due, _))| due <= now)
            .map(|(at, &(_, seq))| (at, seq));
        if let Some((at, _)) = expect {
            self.pending.swap_remove(at);
        }
        let got = self.q.pop_due(Cycles(now));
        assert_eq!(got, expect.map(|(_, seq)| seq), "pop_due({now})");
        self.max_now = self.max_now.max(now);
        self.window_at = (got.is_none() && now == self.max_now).then_some(now);
        self.trace.push(got);
        got
    }

    fn drain(&mut self, now: u64) {
        while self.pop(now).is_some() {}
    }

    /// Applies `ops` from `clock`, checking `next_due` and `len` after
    /// every step; returns the clock it reached.
    fn run(&mut self, mut clock: u64, ops: &[QueueOp]) -> u64 {
        for &(kind, a, step) in ops {
            match kind {
                // Near future: mostly inside the window, sometimes past it.
                0..=3 => self.schedule(clock + a % 300),
                // Far future, beyond the window.
                4 => self.schedule(clock + QUEUE_WINDOW + a * 5),
                // Earlier than the last pop (and than the window start).
                5 => self.schedule(clock.saturating_sub(1 + a % 400)),
                6 if a % 2 == 0 => self.schedule(u64::MAX),
                // One pop at a `now` behind the clock: `now` is not monotone.
                6 => {
                    self.pop(clock.saturating_sub(a % 50));
                }
                7 => {
                    self.pop(clock);
                }
                // A jump of up to three windows, then drain.
                8 => {
                    clock += a % (3 * QUEUE_WINDOW);
                    self.drain(clock);
                }
                _ => self.drain(clock),
            }
            let earliest = self.pending.iter().min().map(|&(due, _)| Cycles(due));
            assert_eq!(self.q.next_due(), earliest, "next_due at clock {clock}");
            assert_eq!(self.q.len(), self.pending.len(), "len at clock {clock}");
            assert_eq!(self.q.is_empty(), self.pending.is_empty());
            clock += step;
        }
        clock
    }
}

/// A latency histogram with all 976 buckets allocated up front: the oracle
/// of `grown_buckets_match_the_fixed_array`. Its layout and quantile rule
/// are written out again here so that the two cannot share a mistake.
struct FixedLatency {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: Option<u64>,
    max: Option<u64>,
}

impl FixedLatency {
    const BUCKETS: usize = 16 + 60 * 16;

    fn new() -> Self {
        FixedLatency {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
            sum: 0,
            min: None,
            max: None,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v < 16 {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (octave - 4)) & 15) as usize;
        16 + (octave - 4) * 16 + sub
    }

    fn bucket_upper(i: usize) -> u64 {
        if i < 16 {
            return i as u64;
        }
        let octave = 4 + (i - 16) / 16;
        let sub = ((i - 16) % 16) as u64;
        ((1u64 << octave) - 1) + ((sub + 1) << (octave - 4))
    }

    fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let (lo, hi) = (self.min.unwrap_or(0), self.max.unwrap_or(u64::MAX));
                return Self::bucket_upper(i).max(lo).min(hi);
            }
        }
        self.max.unwrap_or(0)
    }
}

/// A latency sample: the bucket edges 0, 15, 16 and `u64::MAX` often,
/// otherwise a value of uniformly drawn magnitude.
fn latency_sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(15u64),
        Just(16u64),
        Just(u64::MAX),
        any::<u64>().prop_map(|v| v >> (v % 64)),
    ]
}

/// Merges `shards` pairwise in the order `picks` draws, down to one
/// histogram: a random merge tree.
fn merge_in_drawn_order(mut shards: Vec<LatencyHistogram>, picks: &[u64]) -> LatencyHistogram {
    let mut picks = picks.iter().cycle();
    while shards.len() > 1 {
        let mut draw = |n: usize| (*picks.next().expect("picks is not empty") % n as u64) as usize;
        let from = shards.swap_remove(draw(shards.len()));
        let into = draw(shards.len());
        shards[into].merge(&from);
    }
    shards.pop().expect("at least one shard")
}

proptest! {
    // Pinned effort for CI determinism; override with PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Events pop in (time, insertion) order regardless of schedule order.
    #[test]
    fn event_queue_is_a_stable_priority_queue(
        times in prop::collection::vec(0u64..100, 1..64),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Cycles(t), i);
        }
        let mut last: Option<(u64, usize)> = None;
        let mut count = 0;
        while let Some(i) = q.pop_due(Cycles(1000)) {
            let t = times[i];
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "stable order violated");
            }
            last = Some((t, i));
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Model-based: interleaved `schedule`/`pop_due`/`next_due`/`len`
    /// against a `(due, seq)` oracle, with a non-monotone `now`, dues
    /// earlier than the last pop and far beyond the window (up to
    /// `Cycles(u64::MAX)`), over at least three laps of the ring; a clone
    /// taken mid-stream, events pending in the ring and in the overflow
    /// heap, then pops exactly like the original.
    #[test]
    fn event_queue_matches_sorted_oracle(
        start in 0u64..100_000,
        ops in prop::collection::vec((0u8..10, 0u64..1000, 1u64..4), 800..1200),
    ) {
        let (head, tail) = ops.split_at(ops.len() / 2);
        let mut m = QueueModel::default();
        let mid = m.run(start, head);
        // The clone carries pending events in both stores: a drain seats
        // the window at `mid`, the next cycle then takes the ring and one
        // two windows out the overflow heap.
        m.drain(mid);
        m.schedule(mid + 1);
        m.schedule(mid + 2 * QUEUE_WINDOW);
        let mut fork = m.clone();
        let at_clone = (m.ring_hits, m.overflow_hits);
        for half in [&mut m, &mut fork] {
            let end = half.run(mid, tail);
            prop_assert!(end - start >= 3 * QUEUE_WINDOW, "three laps of the ring");
            // Everything left pops in order, `Cycles(u64::MAX)` entries last.
            half.drain(u64::MAX);
            prop_assert!(half.q.is_empty() && half.pending.is_empty());
            prop_assert!(
                half.ring_hits > at_clone.0 && half.overflow_hits > at_clone.1,
                "after the clone the ring was taken {}x, the overflow heap {}x",
                half.ring_hits - at_clone.0,
                half.overflow_hits - at_clone.1
            );
        }
        prop_assert_eq!(m.trace, fork.trace, "clone diverged from the original");
    }

    /// Latency-histogram mean/min/max match a naive computation.
    #[test]
    fn histogram_summary_matches_naive(values in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(Cycles(v));
        }
        let naive_mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((h.mean() - naive_mean).abs() < 1e-6);
        prop_assert_eq!(h.min(), values.iter().min().map(|&v| Cycles(v)));
        prop_assert_eq!(h.max(), values.iter().max().map(|&v| Cycles(v)));
        prop_assert_eq!(h.count(), values.len() as u64);
        // Quantiles are monotone.
        prop_assert!(h.quantile(0.25) <= h.quantile(0.75));
        prop_assert!(h.quantile(0.75) <= h.quantile(1.0));
    }

    /// `Moments` equals a naive fold of its samples (count, u128 sum, min,
    /// max, mean to the bit), and a stream split at any point, recorded in
    /// two halves and merged either way round, equals the whole stream.
    #[test]
    fn moments_match_a_naive_fold(
        values in prop::collection::vec(latency_sample(), 0..200),
        split in any::<usize>(),
    ) {
        let fill = |vs: &[u64]| {
            let mut m = Moments::new();
            for &v in vs {
                m.record(Cycles(v));
            }
            m
        };
        let whole = fill(&values);
        let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
        let n = values.len() as u64;
        let mean = if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        prop_assert_eq!(whole.count(), n);
        prop_assert_eq!(whole.mean().to_bits(), mean.to_bits());
        prop_assert_eq!(whole.min(), values.iter().min().map(|&v| Cycles(v)));
        prop_assert_eq!(whole.max(), values.iter().max().map(|&v| Cycles(v)));
        let (a, b) = values.split_at(split % (values.len() + 1));
        let mut ab = fill(a);
        ab.merge(&fill(b));
        let mut ba = fill(b);
        ba.merge(&fill(a));
        prop_assert_eq!(ab, whole);
        prop_assert_eq!(ba, whole);
    }

    /// Latency-histogram quantiles bound the sorted-vector oracle from
    /// above within one sub-bucket (1/16 relative error), for every q.
    #[test]
    fn latency_quantiles_bound_the_oracle(
        values in prop::collection::vec(0u64..2_000_000, 1..300),
        qs in prop::collection::vec(0.0f64..1.0, 1..8),
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(Cycles(v));
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), Some(Cycles(sorted[0])));
        prop_assert_eq!(h.max(), Some(Cycles(*sorted.last().unwrap())));
        for &q in &qs {
            let target = ((sorted.len() as f64 * q).ceil() as usize).max(1);
            let oracle = sorted[target - 1];
            let got = h.quantile(q).0;
            prop_assert!(got >= oracle, "q={q}: {got} < oracle {oracle}");
            prop_assert!(
                got <= oracle + oracle / 16 + 1,
                "q={q}: {got} overshoots oracle {oracle}"
            );
        }
        // Quantiles are monotone in q (bucket scan order).
        prop_assert!(h.p50() <= h.p95());
        prop_assert!(h.p95() <= h.p99());
        prop_assert!(h.p99() <= h.quantile(1.0));
    }

    /// Merging per-shard latency histograms is associative and order-free:
    /// any merge tree equals recording every sample into one histogram —
    /// the contract parallel sweeps rely on for bit-identical aggregation.
    #[test]
    fn latency_merge_is_associative(
        a in prop::collection::vec(0u64..1_000_000, 0..100),
        b in prop::collection::vec(0u64..1_000_000, 0..100),
        c in prop::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let fill = |vs: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &v in vs {
                h.record(Cycles(v));
            }
            h
        };
        let (ha, hb, hc) = (fill(&a), fill(&b), fill(&c));
        // (a ∪ b) ∪ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ∪ (b ∪ c)
        let mut right_inner = hb.clone();
        right_inner.merge(&hc);
        let mut right = ha.clone();
        right.merge(&right_inner);
        prop_assert_eq!(&left, &right);
        // And both equal the all-samples histogram.
        let mut all = Vec::new();
        all.extend_from_slice(&a);
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        prop_assert_eq!(&left, &fill(&all));
    }

    /// Buckets grown on demand change no result: per-shard histograms with
    /// different maxima, merged in two random orders, agree with the
    /// fixed-array oracle fed every sample on count, moments and every
    /// quantile, equal each other and one histogram fed every sample, and
    /// never hold more buckets than up to the one of `u64::MAX`.
    #[test]
    fn grown_buckets_match_the_fixed_array(
        shards in prop::collection::vec(
            (prop::collection::vec(latency_sample(), 0..30), 0u32..64),
            1..7,
        ),
        picks in prop::collection::vec(any::<u64>(), 1..16),
        other_picks in prop::collection::vec(any::<u64>(), 1..16),
    ) {
        // Each shard caps its samples at its own maximum.
        let shards: Vec<Vec<u64>> = shards
            .into_iter()
            .map(|(vs, shift)| vs.into_iter().map(|v| v.min(u64::MAX >> shift)).collect())
            .collect();
        let mut oracle = FixedLatency::new();
        let mut whole = LatencyHistogram::new();
        let hists: Vec<LatencyHistogram> = shards
            .iter()
            .map(|vs| {
                let mut h = LatencyHistogram::new();
                for &v in vs {
                    h.record(Cycles(v));
                    whole.record(Cycles(v));
                    oracle.record(v);
                }
                prop_assert!(h.bucket_len() <= FixedLatency::bucket_of(u64::MAX) + 1);
                h
            })
            .collect();
        let merged = merge_in_drawn_order(hists.clone(), &picks);
        prop_assert_eq!(&merged, &merge_in_drawn_order(hists, &other_picks));
        prop_assert_eq!(&merged, &whole);
        prop_assert!(merged.bucket_len() <= FixedLatency::bucket_of(u64::MAX) + 1);
        prop_assert_eq!(merged.count(), oracle.count);
        prop_assert_eq!(merged.mean().to_bits(), oracle.mean().to_bits());
        prop_assert_eq!(merged.min(), oracle.min.map(Cycles));
        prop_assert_eq!(merged.max(), oracle.max.map(Cycles));
        // Fixed quantiles, then every order statistic.
        let n = oracle.count.max(1);
        let every = (1..=n).map(|k| k as f64 / n as f64);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0].into_iter().chain(every) {
            prop_assert_eq!(merged.quantile(q), Cycles(oracle.quantile(q)), "q={}", q);
        }
    }

    /// Bucketing is monotone: a larger sample never lands in an earlier
    /// bucket, observed through quantiles of two-point histograms.
    #[test]
    fn latency_buckets_are_monotone(v in 0u64..u64::MAX, w in 0u64..u64::MAX) {
        let (lo, hi) = (v.min(w), v.max(w));
        let mut h = LatencyHistogram::new();
        h.record(Cycles(lo));
        h.record(Cycles(hi));
        // The half quantile isolates the smaller sample's bucket, the full
        // quantile the larger one's; monotone bucketing keeps them ordered.
        prop_assert!(h.quantile(0.5) <= h.quantile(1.0));
        prop_assert!(h.quantile(0.5).0 >= lo);
        // The top quantile clamps to the exact observed max.
        prop_assert_eq!(h.quantile(1.0).0, hi);
    }

    /// Utilization is always in [0, 1] and counts every cycle exactly.
    #[test]
    fn utilization_bounds(pattern in prop::collection::vec(any::<bool>(), 0..200)) {
        let mut u = Utilization::new();
        let mut busy = 0u64;
        for &b in &pattern {
            if b { u.busy(); busy += 1; } else { u.idle(); }
        }
        prop_assert!((0.0..=1.0).contains(&u.fraction()));
        prop_assert_eq!(u.busy_cycles(), busy);
        prop_assert_eq!(u.total_cycles(), pattern.len() as u64);
    }

    /// Fast-forward contract: `next_due` never overshoots the earliest
    /// pending event — nothing pops strictly before it, and something
    /// always pops exactly at it.
    #[test]
    fn next_due_never_overshoots(
        times in prop::collection::vec(0u64..500, 1..64),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Cycles(t), i);
        }
        let mut remaining: Vec<u64> = times.clone();
        while let Some(due) = q.next_due() {
            // next_due is exactly the earliest pending event: skipping to it
            // can never overshoot anything.
            let earliest = *remaining.iter().min().expect("queue non-empty");
            prop_assert_eq!(due, Cycles(earliest), "next_due overshot");
            if due > Cycles(0) {
                prop_assert!(q.pop_due(Cycles(due.0 - 1)).is_none(),
                    "popped strictly before next_due {}", due);
            }
            let popped = q.pop_due(due);
            prop_assert!(popped.is_some(), "nothing due at next_due {}", due);
            let t = times[popped.unwrap()];
            prop_assert_eq!(Cycles(t), due, "popped event not at its due time");
            let pos = remaining.iter().position(|&x| x == t).expect("tracked");
            remaining.swap_remove(pos);
        }
        prop_assert!(q.is_empty());
        prop_assert!(remaining.is_empty());
    }

    /// Idle-skip equivalence: driving a pipelined server by jumping from
    /// `next_event_cycle` to `next_event_cycle` observes exactly the same
    /// (cycle, id) completion sequence as ticking every cycle — the skip
    /// never changes the observable clock at wake points.
    #[test]
    fn pipeline_fast_forward_is_equivalent(
        ii in 1u64..6,
        latency in 1u64..24,
        submits in prop::collection::vec(0u64..60, 1..16),
    ) {
        let horizon = 400u64;
        // Dense reference: tick every cycle, submitting per schedule.
        let mut dense = PipelinedServer::new(ii, latency, 64);
        let mut dense_done = Vec::new();
        for c in 0..horizon {
            for (id, &at) in submits.iter().enumerate() {
                if at == c {
                    let _ = dense.try_submit(id as u64, Cycles(c));
                }
            }
            dense.tick(Cycles(c));
            while let Some(id) = dense.take_done() {
                dense_done.push((c, id));
            }
        }
        // Event-driven: only tick at submit times and self-reported events.
        let mut fast = PipelinedServer::new(ii, latency, 64);
        let mut fast_done = Vec::new();
        let mut c = 0u64;
        while c < horizon {
            for (id, &at) in submits.iter().enumerate() {
                if at == c {
                    let _ = fast.try_submit(id as u64, Cycles(c));
                }
            }
            let must_tick = fast
                .next_event_cycle(Cycles(c))
                .is_some_and(|t| t == Cycles(c));
            if must_tick {
                fast.tick(Cycles(c));
                while let Some(id) = fast.take_done() {
                    fast_done.push((c, id));
                }
            }
            // Jump to the next submit or self-timed event, whichever first.
            let next_submit = submits.iter().filter(|&&a| a > c).min().copied();
            let next_self = fast.next_event_cycle(Cycles(c + 1)).map(|t| t.0);
            c = [next_submit, next_self, Some(horizon)]
                .into_iter()
                .flatten()
                .min()
                .expect("horizon is always present");
        }
        prop_assert_eq!(dense_done, fast_done, "fast-forward diverged");
        prop_assert_eq!(dense.served(), fast.served());
    }

    /// The pipelined server completes everything submitted, in FIFO order,
    /// with completions spaced at least II apart.
    #[test]
    fn pipeline_timing_contract(
        ii in 1u64..6,
        latency in 1u64..20,
        n in 1usize..20,
    ) {
        let mut s = PipelinedServer::new(ii, latency, 64);
        for id in 0..n as u64 {
            s.try_submit(id, Cycles(0)).expect("queue sized for the test");
        }
        let mut done: Vec<(u64, u64)> = Vec::new();
        for c in 0..(latency + ii * (n as u64 + 2)) {
            s.tick(Cycles(c));
            while let Some(id) = s.take_done() {
                done.push((c, id));
            }
        }
        prop_assert_eq!(done.len(), n);
        for (k, &(c, id)) in done.iter().enumerate() {
            prop_assert_eq!(id, k as u64, "FIFO order");
            prop_assert!(c >= latency, "nothing completes before the pipeline fills");
        }
        for w in done.windows(2) {
            prop_assert!(w[1].0 - w[0].0 >= ii, "completions at least II apart");
        }
    }
}
