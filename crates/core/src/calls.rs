//! The in-flight call table: every synchronous `Op::Call` a hardware
//! thread is blocked on (the unit of the paper's latency-hiding argument,
//! §6.2–§7.2), one per `(pe, tid)`. A call has two halves — the latency
//! *probe* (issue cycle and the object the round trip is charged to) and
//! the *retry* entry (the [`RetryPolicy`] contract of
//! [`crate::resilience`]) — and one rule decides what a reply does to both.
//! Beside the probe, a thread's slot names the *handler* the runtime
//! dispatched onto the thread, which its service-node calls are charged
//! to; manual PE access, a crash and a fresh install forget it.
//!
//! # The reply rule
//!
//! A reply is delivered iff its token matches the slot's retry entry, or
//! the slot has none and the thread is awaiting; anything else is a counted
//! duplicate that leaves the slot as it was. Without a policy no slot ever
//! has a retry entry, so "retry off" is the second clause, not a second
//! path.
//!
//! # What bit-identity rests on
//!
//! * [`CallTable::expire`] visits the due slots in ascending `(pe, tid)`
//!   order, whatever their deadlines.
//! * The due set is fixed when [`CallTable::expire`] is entered: a slot it
//!   re-arms at `now` (a zero-timeout policy) fires at the next call, not
//!   twice in this one.
//! * A slot's salt bumps on every issue under a policy and on every retry,
//!   wraps as `u8`, and survives give-up, crash and restart — a late reply
//!   to an abandoned call can never match a later one.
//! * Without a policy the token is 0 and the salt stays put.
//!
//! # Storage
//!
//! The slots are one flat `Vec`, PE by PE, so a slot's flat index orders
//! it by `(pe, tid)`; each holds the salt, the probe and the handler. The
//! retry entries sit in a side table of the same indexing, and the
//! deadline index is a min-tree over it ([`Deadlines`]). Both are sized
//! once when a policy is installed, the only time a thread can hold a
//! retry entry: without a policy they hold nothing. Issuing, answering and
//! expiring calls allocate nothing.

use crate::resilience::{ResilienceStats, RetryPolicy};
use crate::tags::RequestTag;
use nw_obs::TraceEvent;
use nw_sim::LatencyHistogram;
use nw_types::{Cycles, NodeId, ObjectId, Payload};

/// The retry half of a call: one call tracked until its reply or give-up.
#[derive(Debug, Clone, PartialEq)]
struct PendingCall {
    /// Cycle the current attempt times out; mirrored in `CallTable::deadlines`.
    deadline: u64,
    /// Attempts issued so far minus one (0 = first issue outstanding).
    attempt: u8,
    /// The current attempt's tag; its token is the slot's salt at issue.
    tag: RequestTag,
    /// Destination endpoint (re-used verbatim on retry).
    dst: NodeId,
    /// The request payload, ready to re-send.
    data: Payload,
}

/// One thread's slot: its token salt, latency probe and handler. Its
/// retry entry, when a policy is installed, is `CallTable::retry`'s.
#[derive(Debug, Clone, Default, PartialEq)]
struct Slot {
    salt: u8,
    probe: Option<(Cycles, ObjectId)>,
    /// The object whose handler the runtime last dispatched onto the thread.
    handler: Option<ObjectId>,
}

// Every hardware thread has a slot in every copy of a platform (136 on
// `ipv4-sat`): a field that grows it grows the heap footprint's `warmed`
// and `fork` rows by that much per thread.
const _: () = assert!(std::mem::size_of::<Slot>() <= 48);

/// A leaf with no retry entry. A deadline that saturates at `u64::MAX`
/// reads the same: it never comes due, as no cycle reaches it.
const NONE: u64 = u64::MAX;

/// The deadline of every slot's retry entry, as a min-tree over the flat
/// slots: leaf `s` holds slot `s`'s deadline ([`NONE`] without an entry)
/// and every inner node the smaller of its two children, so the root is
/// the earliest deadline (the agenda asks every lap) and the due slots
/// are found in slot order without a sort. Empty until
/// [`CallTable::set_policy`].
#[derive(Debug, Clone, Default)]
struct Deadlines {
    /// `tree[1]` is the root; node `i` has children `2i` and `2i + 1`;
    /// slot `s` is leaf `leaves + s`.
    tree: Vec<u64>,
    leaves: usize,
}

impl Deadlines {
    fn new(slots: usize) -> Self {
        let leaves = slots.next_power_of_two();
        Deadlines {
            tree: vec![NONE; 2 * leaves],
            leaves,
        }
    }

    /// Sets slot `s`'s deadline ([`NONE`] to clear it).
    fn set(&mut self, s: usize, deadline: u64) {
        let mut i = self.leaves + s;
        self.tree[i] = deadline;
        while i > 1 {
            i /= 2;
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
    }

    /// The earliest deadline, [`NONE`] when there is none.
    fn first(&self) -> u64 {
        self.tree.get(1).copied().unwrap_or(NONE)
    }

    /// The first slot at or after `from` whose deadline is due at `now`.
    fn next_due(&self, from: usize, now: u64) -> Option<usize> {
        let now = now.min(NONE - 1);
        if from >= self.leaves {
            return None;
        }
        let mut i = self.leaves + from;
        while self.tree[i] > now {
            // On to the next subtree to the right: climb while `i` is a
            // right child; the root has none.
            while i % 2 == 1 {
                if i == 1 {
                    return None;
                }
                i /= 2;
            }
            i += 1;
        }
        while i < self.leaves {
            i = 2 * i + usize::from(self.tree[2 * i] > now);
        }
        Some(i - self.leaves)
    }
}

/// End-to-end round trips charged to one application object.
#[derive(Debug, Clone, Default)]
pub(crate) struct ObjectCalls {
    pub histogram: LatencyHistogram,
    /// Budget in cycles ([`crate::FppaPlatform::set_latency_deadline`]).
    pub deadline: Option<u64>,
    /// Recorded round trips that exceeded the budget.
    pub misses: u64,
}

/// What [`CallTable::reply`] decided.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Reply {
    /// Complete the thread; the slot is empty again. `miss` is the
    /// [`TraceEvent::DeadlineMiss`] of a round trip over its object's budget.
    Deliver { miss: Option<TraceEvent> },
    /// Counted and dropped; the slot is untouched.
    Duplicate,
}

/// What [`CallTable::expire`] did to one due slot.
#[derive(Debug, Clone)]
pub(crate) enum Expired {
    /// Re-send `data` to `dst` under `tag` (fresh token, doubled window).
    Retry {
        tag: RequestTag,
        attempt: u8,
        dst: NodeId,
        data: Payload,
    },
    /// The attempt budget is spent and the slot is empty: release the
    /// thread if it still waits.
    GiveUp { pe: usize, tid: usize },
}

#[derive(Debug, Clone, Default)]
pub(crate) struct CallTable {
    /// Every thread's slot, PE by PE, sized from `Pe::n_threads()`:
    /// thread `(pe, tid)` is slot `first[pe] + tid`.
    slots: Vec<Slot>,
    /// Per PE its first slot, then the slot count.
    first: Vec<usize>,
    /// Every slot's retry entry: one per slot under a policy, else empty.
    retry: Vec<Option<PendingCall>>,
    deadlines: Deadlines,
    policy: Option<RetryPolicy>,
    /// Indexed by [`ObjectId`]; sized by [`CallTable::reset`].
    objects: Vec<ObjectCalls>,
    retries: u64,
    give_ups: u64,
    duplicates: u64,
}

impl CallTable {
    pub fn new(threads_per_pe: impl IntoIterator<Item = usize>) -> Self {
        let mut first = vec![0];
        for n in threads_per_pe {
            first.push(first[first.len() - 1] + n);
        }
        CallTable {
            slots: vec![Slot::default(); first[first.len() - 1]],
            first,
            ..CallTable::default()
        }
    }

    /// Thread `(pe, tid)`'s flat slot index.
    fn slot(&self, pe: usize, tid: usize) -> usize {
        assert!(
            tid < self.first[pe + 1] - self.first[pe],
            "PE {pe} has no thread {tid}"
        );
        self.first[pe] + tid
    }

    /// PE `pe`'s slots.
    fn pe_slots(&self, pe: usize) -> std::ops::Range<usize> {
        self.first[pe]..self.first[pe + 1]
    }

    /// Drops slot `s`'s retry entry, if any, and its deadline.
    fn close_retry(&mut self, s: usize) {
        if self.retry.get_mut(s).and_then(Option::take).is_some() {
            self.deadlines.set(s, NONE);
        }
    }

    /// Installs or swaps the policy. Entries and salts stay: a pending
    /// call keeps its deadline and meets the new policy at its next expiry.
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        if self.policy.is_none() {
            self.retry = vec![None; self.slots.len()];
            self.deadlines = Deadlines::new(self.slots.len());
        }
        self.policy = Some(policy);
    }

    /// Records the call thread `(tag.pe, tag.tid)` blocks on from `now` and
    /// returns its tag with the token stamped. `object` opens the latency
    /// probe (`None`, or an id the installed application does not have,
    /// leaves it alone); under a policy `data` is kept to retry.
    pub fn issue(
        &mut self,
        mut tag: RequestTag,
        dst: NodeId,
        data: Payload,
        object: Option<ObjectId>,
        now: Cycles,
    ) -> RequestTag {
        let s = self.slot(tag.pe.0, tag.tid.0);
        if let Some(object) = object.filter(|o| o.0 < self.objects.len()) {
            self.slots[s].probe = Some((now, object));
        }
        let Some(policy) = self.policy else {
            return tag;
        };
        // A blocked thread holds one call; a leftover entry is replaced.
        let slot = &mut self.slots[s];
        slot.salt = slot.salt.wrapping_add(1);
        tag.token = slot.salt;
        let deadline = now.0.saturating_add(policy.window(0));
        self.retry[s] = Some(PendingCall {
            deadline,
            attempt: 0,
            tag,
            dst,
            data,
        });
        self.deadlines.set(s, deadline);
        tag
    }

    /// Applies the reply rule (module docs) to a reply for thread
    /// `(pe, tid)` carrying `token`; `awaiting` is whether the thread is
    /// blocked on a completion. A delivery closes both halves of the slot.
    pub fn reply(
        &mut self,
        pe: usize,
        tid: usize,
        token: u8,
        awaiting: bool,
        now: Cycles,
    ) -> Reply {
        let s = self.slot(pe, tid);
        let live = match self.retry.get(s) {
            Some(Some(call)) => call.tag.token == token,
            _ => awaiting,
        };
        if !live {
            self.duplicates += 1;
            return Reply::Duplicate;
        }
        self.close_retry(s);
        let miss = self.slots[s].probe.take().and_then(|(issued, object)| {
            let latency = now.saturating_sub(issued);
            let o = &mut self.objects[object.0];
            o.histogram.record(latency);
            let budget = o.deadline.filter(|&budget| latency.0 > budget)?;
            o.misses += 1;
            Some(TraceEvent::DeadlineMiss {
                cycle: now.0,
                object: object.0,
                latency: latency.0,
                budget,
            })
        });
        Reply::Deliver { miss }
    }

    /// The earliest pending deadline — an agenda entry, so a quiet span
    /// never skips a timeout.
    pub fn next_deadline(&self) -> Option<u64> {
        Some(self.deadlines.first()).filter(|&d| d != NONE)
    }

    /// Fires every deadline due at `now`, in `(pe, tid)` order, appending
    /// what it did to `out`: a retry with a bumped token and doubled
    /// window, or a give-up once [`RetryPolicy::max_attempts`] are spent.
    /// The table allocates nothing; `out` grows only past its capacity.
    pub fn expire(&mut self, now: u64, out: &mut Vec<Expired>) {
        let Some(policy) = self.policy else {
            return;
        };
        let mut from = 0;
        // A slot re-armed at `now` lies behind `from`: it fires once.
        while let Some(s) = self.deadlines.next_due(from, now) {
            from = s + 1;
            let slot = &mut self.slots[s];
            let entry = &mut self.retry[s];
            let call = entry.as_mut().expect("a due slot holds a call");
            if u32::from(call.attempt) + 1 >= u32::from(policy.max_attempts.max(1)) {
                let (pe, tid) = (call.tag.pe.0, call.tag.tid.0);
                slot.probe = None;
                *entry = None;
                self.deadlines.set(s, NONE);
                self.give_ups += 1;
                out.push(Expired::GiveUp { pe, tid });
                continue;
            }
            slot.salt = slot.salt.wrapping_add(1);
            call.tag.token = slot.salt;
            call.attempt = call.attempt.saturating_add(1);
            call.deadline = now.saturating_add(policy.window(call.attempt));
            self.retries += 1;
            out.push(Expired::Retry {
                tag: call.tag,
                attempt: call.attempt,
                dst: call.dst,
                data: call.data,
            });
            self.deadlines.set(s, call.deadline);
        }
    }

    /// The runtime dispatched `object`'s handler onto thread `(pe, tid)`.
    pub fn start_handler(&mut self, pe: usize, tid: usize, object: ObjectId) {
        let s = self.slot(pe, tid);
        self.slots[s].handler = Some(object);
    }

    /// The object whose handler thread `(pe, tid)` runs, if the runtime
    /// put one there.
    pub fn handler(&self, pe: usize, tid: usize) -> Option<ObjectId> {
        self.slots[self.slot(pe, tid)].handler
    }

    /// PE `pe`'s threads run no known handler (`FppaPlatform::pe_mut`'s
    /// caller may spawn anything); probes in flight keep their object.
    pub fn forget_handlers(&mut self, pe: usize) {
        let slots = self.pe_slots(pe);
        for slot in &mut self.slots[slots] {
            slot.handler = None;
        }
    }

    /// PE `pe` crashed: its probes, retry entries and handlers are
    /// dropped; salts stay.
    pub fn abandon_pe(&mut self, pe: usize) {
        for s in self.pe_slots(pe) {
            self.slots[s].probe = None;
            self.slots[s].handler = None;
            self.close_retry(s);
        }
    }

    /// A freshly installed application of `n_objects` objects: empty
    /// per-object telemetry, no open probe, no handler. Retry entries are
    /// untouched.
    pub fn reset(&mut self, n_objects: usize) {
        self.objects = vec![ObjectCalls::default(); n_objects];
        for slot in &mut self.slots {
            slot.probe = None;
            slot.handler = None;
        }
    }

    /// Calls currently tracked for retry.
    pub fn pending_len(&self) -> usize {
        self.retry.iter().flatten().count()
    }

    /// Per-object telemetry, indexed by [`ObjectId`].
    pub fn objects(&self) -> &[ObjectCalls] {
        &self.objects
    }

    /// `object`'s telemetry, to set its budget.
    pub fn object_mut(&mut self, object: ObjectId) -> Option<&mut ObjectCalls> {
        self.objects.get_mut(object.0)
    }

    /// Writes the table's three counters into `stats`.
    pub fn fill_stats(&self, stats: &mut ResilienceStats) {
        stats.retries = self.retries;
        stats.retry_give_ups = self.give_ups;
        stats.duplicate_replies_dropped = self.duplicates;
    }
}

#[cfg(test)]
impl CallTable {
    /// Test shorthand: thread `(pe, tid)` issues `data` at `now`, charged
    /// to no object; returns the token.
    pub fn issue_at(&mut self, pe: usize, tid: usize, data: Payload, now: u64) -> u8 {
        (self.issue(tests::tag(pe, tid), NodeId(1), data, None, Cycles(now))).token
    }

    /// Test shorthand: what [`CallTable::expire`] fires at `now`.
    pub fn expired(&mut self, now: u64) -> Vec<Expired> {
        let mut out = Vec::new();
        self.expire(now, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// xorshift: a fixed, dependency-free operation stream.
    fn stream(mut x: u64) -> impl FnMut(u64) -> u64 {
        move |n| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        }
    }

    pub fn tag(pe: usize, tid: usize) -> RequestTag {
        RequestTag {
            pe: nw_types::PeId(pe),
            tid: nw_types::ThreadId(tid),
            token: 0,
            reply_bytes: 8,
        }
    }

    /// The deadline index the table kept before its min-tree, a `BTreeSet`
    /// of `(deadline, pe, tid)` fed the same operations: the reference the
    /// tree is checked against.
    #[derive(Debug, Default)]
    struct Reference(BTreeSet<(u64, usize, usize)>);

    impl Reference {
        fn close(&mut self, pe: usize, tid: usize) {
            self.0.retain(|&(_, p, t)| (p, t) != (pe, tid));
        }

        fn open(&mut self, pe: usize, tid: usize, deadline: u64) {
            self.close(pe, tid);
            self.0.insert((deadline, pe, tid));
        }

        /// The slots due at `now`, in `(pe, tid)` order.
        fn due(&self, now: u64) -> Vec<(usize, usize)> {
            let keys = self.0.range(..=(now, usize::MAX, usize::MAX));
            let mut due: Vec<_> = keys.map(|&(_, pe, tid)| (pe, tid)).collect();
            due.sort_unstable();
            due
        }
    }

    /// Slot `s`'s retry entry, if any.
    fn entry(t: &CallTable, s: usize) -> Option<&PendingCall> {
        t.retry.get(s)?.as_ref()
    }

    /// The table's oracle: after every operation a walk over the slots,
    /// the reference and the tree agree, and so do the pending count and
    /// the earliest deadline.
    fn audit(t: &CallTable, reference: &Reference) {
        let scan: BTreeSet<_> = (0..t.first.len() - 1)
            .flat_map(|pe| {
                (t.pe_slots(pe).enumerate())
                    .filter_map(move |(tid, s)| Some((entry(t, s)?.deadline, pe, tid)))
            })
            .collect();
        assert_eq!(scan, reference.0, "scan of the slots ≡ reference");
        let Deadlines { tree, leaves } = &t.deadlines;
        if tree.is_empty() {
            assert!(t.retry.is_empty(), "a retry table without a policy");
        } else {
            assert_eq!(t.retry.len(), t.slots.len(), "one retry entry per slot");
            for s in 0..t.slots.len() {
                let want = entry(t, s).map_or(NONE, |c| c.deadline);
                assert_eq!(tree[leaves + s], want, "leaf of slot {s}");
            }
            assert!(tree[leaves + t.slots.len()..].iter().all(|&d| d == NONE));
            for i in 1..*leaves {
                assert_eq!(tree[i], tree[2 * i].min(tree[2 * i + 1]), "node {i}");
            }
        }
        assert_eq!(t.pending_len(), scan.len());
        assert_eq!(t.next_deadline(), scan.first().map(|k| k.0));
    }

    #[test]
    fn table_matches_a_scan_after_random_operations() {
        const THREADS: [usize; 4] = [3, 1, 4, 3];
        // The second policy re-arms a retried slot at `now`: it still fires
        // once per `expire`.
        let policies = [(7, 2), (0, 3)].map(|(timeout, max_attempts)| RetryPolicy {
            timeout,
            max_attempts,
        });
        for policy in policies {
            let mut draw = stream(0x9e37_79b9_7f4a_7c15);
            let mut t = CallTable::new(THREADS);
            t.set_policy(policy);
            t.reset(2);
            let mut reference = Reference::default();
            let (mut now, mut duplicates, mut give_ups) = (0, 0, 0);
            for _ in 0..6_000 {
                now += draw(3);
                let pe = draw(4) as usize;
                let tid = draw(THREADS[pe] as u64) as usize;
                let s = t.slot(pe, tid);
                let before = t.slots.clone();
                let retry_before = t.retry.clone();
                match draw(7) {
                    0 | 1 => {
                        let object = Some(ObjectId(draw(3) as usize));
                        let data = Payload::with_head(1, &[9]);
                        let stamped = t.issue(tag(pe, tid), NodeId(1), data, object, Cycles(now));
                        let slot = &t.slots[s];
                        assert_eq!(stamped.token, slot.salt);
                        assert_eq!(slot.salt, before[s].salt.wrapping_add(1));
                        assert_eq!(entry(&t, s).map(|c| c.tag), Some(stamped));
                        reference.open(pe, tid, now + policy.window(0));
                    }
                    // A reply: live, stale or for a slot with no entry, to a
                    // thread that waits or does not.
                    2..=4 => {
                        let live = retry_before[s].as_ref().map(|c| c.tag.token);
                        let token = live.unwrap_or(0).wrapping_add(draw(2) as u8);
                        let awaiting = draw(2) == 0;
                        let got = t.reply(pe, tid, token, awaiting, Cycles(now));
                        let slot = &t.slots[s];
                        if live.map_or(awaiting, |live| live == token) {
                            assert!(matches!(got, Reply::Deliver { .. }));
                            assert!(slot.probe.is_none() && entry(&t, s).is_none());
                            assert_eq!(slot.salt, before[s].salt);
                            reference.close(pe, tid);
                        } else {
                            assert_eq!(got, Reply::Duplicate);
                            assert_eq!(t.slots, before, "a duplicate leaves the slot");
                            assert_eq!(t.retry, retry_before, "and the retry entries");
                            duplicates += 1;
                        }
                    }
                    5 => {
                        let due = reference.due(now);
                        let mut fired = Vec::new();
                        for e in t.expired(now) {
                            let (pe, tid) = match e {
                                Expired::Retry {
                                    tag, attempt, data, ..
                                } => {
                                    let s = t.slot(tag.pe.0, tag.tid.0);
                                    let call = entry(&t, s).expect("re-armed");
                                    assert_eq!(call.tag, tag);
                                    assert_eq!(tag.token, t.slots[s].salt);
                                    assert_eq!(data, Payload::with_head(1, &[9]));
                                    let was = retry_before[s].as_ref().expect("was pending");
                                    assert_eq!(attempt, was.attempt + 1);
                                    let deadline = now + policy.window(attempt);
                                    reference.open(tag.pe.0, tag.tid.0, deadline);
                                    (tag.pe.0, tag.tid.0)
                                }
                                Expired::GiveUp { pe, tid } => {
                                    let s = t.slot(pe, tid);
                                    assert!(t.slots[s].probe.is_none() && entry(&t, s).is_none());
                                    reference.close(pe, tid);
                                    give_ups += 1;
                                    (pe, tid)
                                }
                            };
                            fired.push((pe, tid));
                        }
                        assert_eq!(fired, due, "every due slot once, in (pe, tid) order");
                        if policy.timeout > 0 {
                            assert!(t.next_deadline().is_none_or(|d| d > now));
                        }
                    }
                    _ => {
                        t.abandon_pe(pe);
                        for s in t.pe_slots(pe) {
                            let slot = &t.slots[s];
                            assert!(slot.probe.is_none() && entry(&t, s).is_none());
                            assert_eq!(slot.salt, before[s].salt, "salts survive a crash");
                        }
                        (0..THREADS[pe]).for_each(|tid| reference.close(pe, tid));
                    }
                }
                audit(&t, &reference);
            }
            let mut stats = ResilienceStats::default();
            t.fill_stats(&mut stats);
            assert_eq!(stats.duplicate_replies_dropped, duplicates);
            assert_eq!(stats.retry_give_ups, give_ups);
            assert!(
                duplicates > 0 && give_ups > 0 && stats.retries > 0,
                "{policy:?}: {stats:?}"
            );
        }
    }

    #[test]
    fn reply_rule_is_the_same_with_and_without_a_policy() {
        // A fault-free stream — every call answered once, before its
        // deadline, to a thread that waits — delivers the same replies and
        // records the same latencies whether or not calls are tracked.
        let mut draw = stream(0x2545_f491_4f6c_dd1d);
        let mut tracked = CallTable::new([2; 3]);
        tracked.set_policy(RetryPolicy::default());
        let mut untracked = CallTable::new([2; 3]);
        for t in [&mut tracked, &mut untracked] {
            t.reset(2);
            t.object_mut(ObjectId(1)).unwrap().deadline = Some(20);
        }
        let (mut reference, untracked_reference) = (Reference::default(), Reference::default());
        let mut open = [[None; 2]; 3];
        let (mut now, mut misses) = (0, 0);
        for _ in 0..2_000 {
            now += draw(16);
            let (pe, tid) = (draw(3) as usize, draw(2) as usize);
            if let Some((live, zero)) = open[pe][tid].take() {
                let got = tracked.reply(pe, tid, live, true, Cycles(now));
                reference.close(pe, tid);
                assert_eq!(got, untracked.reply(pe, tid, zero, true, Cycles(now)));
                assert!(matches!(got, Reply::Deliver { .. }));
                misses += u64::from(got != Reply::Deliver { miss: None });
            } else {
                let object = Some(ObjectId(draw(2) as usize));
                let at = Cycles(now);
                let data = Payload::with_head(1, &[1]);
                let live = tracked.issue(tag(pe, tid), NodeId(1), data, object, at);
                let zero = untracked.issue(tag(pe, tid), NodeId(1), data, object, at);
                assert_eq!((zero.token, untracked.pending_len()), (0, 0));
                assert_ne!(live.token, 0);
                open[pe][tid] = Some((live.token, zero.token));
                reference.open(pe, tid, now + RetryPolicy::default().window(0));
            }
            audit(&tracked, &reference);
            audit(&untracked, &untracked_reference);
        }
        assert!(misses > 0, "the budget of object 1 was never exceeded");
        for (a, b) in tracked.objects().iter().zip(untracked.objects()) {
            assert_eq!((&a.histogram, a.misses), (&b.histogram, b.misses));
        }
        let (mut a, mut b) = (ResilienceStats::default(), ResilienceStats::default());
        tracked.fill_stats(&mut a);
        untracked.fill_stats(&mut b);
        assert_eq!(a, b);
        assert_eq!(
            a,
            ResilienceStats::default(),
            "no retry, give-up or duplicate"
        );
    }

    #[test]
    fn thread_attribution_records_and_clears() {
        let mut t = CallTable::new([2; 2]);
        let threads = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let held = |t: &CallTable| threads.map(|(pe, tid)| t.handler(pe, tid).is_some());
        assert_eq!(held(&t), [false; 4]);
        t.start_handler(0, 1, ObjectId(3));
        assert_eq!(t.handler(0, 1), Some(ObjectId(3)));
        // Manual PE access (`FppaPlatform::pe_mut`) forgets the PE's
        // handlers, so foreign programs never inherit them; so do a crash
        // of the PE and a fresh install.
        let forget: [(fn(&mut CallTable), _); 3] = [
            (|t| t.forget_handlers(0), [false, false, true, true]),
            (|t| t.abandon_pe(1), [true, true, false, false]),
            (|t| t.reset(1), [false; 4]),
        ];
        for (forget, left) in forget {
            (threads.iter()).for_each(|&(pe, tid)| t.start_handler(pe, tid, ObjectId(0)));
            forget(&mut t);
            assert_eq!(held(&t), left);
        }
    }
}
