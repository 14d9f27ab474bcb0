//! The in-flight call table: every synchronous `Op::Call` a hardware
//! thread is blocked on (the unit of the paper's latency-hiding argument,
//! §6.2–§7.2), in one slot per `(pe, tid)`. A slot has two halves — the
//! latency *probe* (issue cycle and the object the round trip is charged
//! to) and the *retry* entry (the [`RetryPolicy`] contract of
//! [`crate::resilience`]) — and one rule decides what a reply does to both.
//! Beside them, the slot names the *handler* the runtime dispatched onto
//! the thread, which its service-node calls are charged to; manual PE
//! access, a crash and a fresh install forget it.
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
//! * A slot's salt bumps on every issue under a policy and on every retry,
//!   wraps as `u8`, and survives give-up, crash and restart — a late reply
//!   to an abandoned call can never match a later one.
//! * Without a policy the token is 0 and the salt stays put.
//! * The stored payload is a `pool.take()` + `extend_from_slice` clone,
//!   put back at delivery, give-up and crash.

use crate::resilience::{ResilienceStats, RetryPolicy};
use crate::tags::RequestTag;
use nw_noc::PayloadPool;
use nw_obs::TraceEvent;
use nw_sim::LatencyHistogram;
use nw_types::{Cycles, NodeId, ObjectId};
use std::collections::BTreeSet;

/// The retry half of a slot: one call tracked until its reply or give-up.
#[derive(Debug, Clone, PartialEq)]
struct PendingCall {
    /// Cycle the current attempt times out; mirrored in `CallTable::index`.
    deadline: u64,
    /// Attempts issued so far minus one (0 = first issue outstanding).
    attempt: u8,
    /// The current attempt's tag; its token is the slot's salt at issue.
    tag: RequestTag,
    /// Destination endpoint (re-used verbatim on retry).
    dst: NodeId,
    /// Pool-accounted clone of the request payload, ready to re-send.
    data: Vec<u8>,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Slot {
    salt: u8,
    probe: Option<(Cycles, ObjectId)>,
    retry: Option<PendingCall>,
    /// The object whose handler the runtime last dispatched onto the thread.
    handler: Option<ObjectId>,
}

impl Slot {
    /// Drops the retry entry of slot `(pe, tid)`, if any: out of the
    /// deadline index, its payload clone back to the pool.
    fn close_retry(&mut self, pe: usize, tid: usize, index: &mut Index, pool: &mut PayloadPool) {
        if let Some(call) = self.retry.take() {
            index.remove(&(call.deadline, pe, tid));
            pool.put(call.data);
        }
    }
}

/// `(deadline, pe, tid)` of every retry entry: the earliest deadline is the
/// first element (the agenda asks every lap).
type Index = BTreeSet<(u64, usize, usize)>;

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
#[derive(Debug)]
pub(crate) enum Expired {
    /// Re-send `data` to `dst` under `tag` (fresh token, doubled window).
    Retry {
        tag: RequestTag,
        attempt: u8,
        dst: NodeId,
        data: Vec<u8>,
    },
    /// The attempt budget is spent and the slot is empty: release the
    /// thread if it still waits.
    GiveUp { pe: usize, tid: usize },
}

#[derive(Debug, Clone, Default)]
pub(crate) struct CallTable {
    /// `slots[pe][tid]`, sized from `Pe::n_threads()`.
    slots: Vec<Vec<Slot>>,
    index: Index,
    policy: Option<RetryPolicy>,
    /// Indexed by [`ObjectId`]; sized by [`CallTable::reset`].
    objects: Vec<ObjectCalls>,
    retries: u64,
    give_ups: u64,
    duplicates: u64,
}

impl CallTable {
    pub fn new(threads_per_pe: impl IntoIterator<Item = usize>) -> Self {
        let slots = threads_per_pe.into_iter().map(|n| vec![Slot::default(); n]);
        CallTable {
            slots: slots.collect(),
            ..CallTable::default()
        }
    }

    /// Installs or swaps the policy. Entries and salts stay: a pending
    /// call keeps its deadline and meets the new policy at its next expiry.
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = Some(policy);
    }

    /// Records the call thread `(tag.pe, tag.tid)` blocks on from `now` and
    /// returns its tag with the token stamped. `object` opens the latency
    /// probe (`None`, or an id the installed application does not have,
    /// leaves it alone); under a policy a clone of `data` is kept to retry.
    pub fn issue(
        &mut self,
        mut tag: RequestTag,
        dst: NodeId,
        data: &[u8],
        object: Option<ObjectId>,
        now: Cycles,
        pool: &mut PayloadPool,
    ) -> RequestTag {
        let (pe, tid) = (tag.pe.0, tag.tid.0);
        let slot = &mut self.slots[pe][tid];
        if let Some(object) = object.filter(|o| o.0 < self.objects.len()) {
            slot.probe = Some((now, object));
        }
        let Some(policy) = self.policy else {
            return tag;
        };
        // A blocked thread holds one call; a leftover entry is replaced.
        slot.close_retry(pe, tid, &mut self.index, pool);
        slot.salt = slot.salt.wrapping_add(1);
        tag.token = slot.salt;
        let mut copy = pool.take();
        copy.extend_from_slice(data);
        let deadline = now.0.saturating_add(policy.window(0));
        self.index.insert((deadline, pe, tid));
        slot.retry = Some(PendingCall {
            deadline,
            attempt: 0,
            tag,
            dst,
            data: copy,
        });
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
        pool: &mut PayloadPool,
    ) -> Reply {
        let slot = &mut self.slots[pe][tid];
        let live = match &slot.retry {
            Some(call) => call.tag.token == token,
            None => awaiting,
        };
        if !live {
            self.duplicates += 1;
            return Reply::Duplicate;
        }
        slot.close_retry(pe, tid, &mut self.index, pool);
        let miss = slot.probe.take().and_then(|(issued, object)| {
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
        self.index.first().map(|&(deadline, _, _)| deadline)
    }

    /// Fires every deadline due at `now`, in `(pe, tid)` order: a retry
    /// with a bumped token and doubled window, or a give-up once
    /// [`RetryPolicy::max_attempts`] are spent. Allocates nothing when no
    /// deadline is due.
    pub fn expire(&mut self, now: u64, pool: &mut PayloadPool) -> Vec<Expired> {
        let Some(policy) = self.policy else {
            return Vec::new();
        };
        let mut due: Vec<_> = (self.index.range(..=(now, usize::MAX, usize::MAX)))
            .map(|&(_, pe, tid)| (pe, tid))
            .collect();
        due.sort_unstable();
        let mut expired = Vec::with_capacity(due.len());
        for (pe, tid) in due {
            let slot = &mut self.slots[pe][tid];
            let call = slot.retry.as_mut().expect("indexed slots hold a call");
            if u32::from(call.attempt) + 1 >= u32::from(policy.max_attempts.max(1)) {
                slot.probe = None;
                slot.close_retry(pe, tid, &mut self.index, pool);
                self.give_ups += 1;
                expired.push(Expired::GiveUp { pe, tid });
                continue;
            }
            self.index.remove(&(call.deadline, pe, tid));
            slot.salt = slot.salt.wrapping_add(1);
            call.tag.token = slot.salt;
            call.attempt = call.attempt.saturating_add(1);
            call.deadline = now.saturating_add(policy.window(call.attempt));
            self.index.insert((call.deadline, pe, tid));
            let mut fresh = pool.take();
            fresh.extend_from_slice(&call.data);
            self.retries += 1;
            expired.push(Expired::Retry {
                tag: call.tag,
                attempt: call.attempt,
                dst: call.dst,
                data: std::mem::replace(&mut call.data, fresh),
            });
        }
        expired
    }

    /// The runtime dispatched `object`'s handler onto thread `(pe, tid)`.
    pub fn start_handler(&mut self, pe: usize, tid: usize, object: ObjectId) {
        self.slots[pe][tid].handler = Some(object);
    }

    /// The object whose handler thread `(pe, tid)` runs, if the runtime
    /// put one there.
    pub fn handler(&self, pe: usize, tid: usize) -> Option<ObjectId> {
        self.slots[pe][tid].handler
    }

    /// PE `pe`'s threads run no known handler (`FppaPlatform::pe_mut`'s
    /// caller may spawn anything); probes in flight keep their object.
    pub fn forget_handlers(&mut self, pe: usize) {
        for slot in &mut self.slots[pe] {
            slot.handler = None;
        }
    }

    /// PE `pe` crashed: its probes, retry entries and handlers are dropped
    /// (stored payloads back to the pool, in thread order); salts stay.
    pub fn abandon_pe(&mut self, pe: usize, pool: &mut PayloadPool) {
        for (tid, slot) in self.slots[pe].iter_mut().enumerate() {
            slot.probe = None;
            slot.handler = None;
            slot.close_retry(pe, tid, &mut self.index, pool);
        }
    }

    /// A freshly installed application of `n_objects` objects: empty
    /// per-object telemetry, no open probe, no handler. Retry entries are
    /// untouched.
    pub fn reset(&mut self, n_objects: usize) {
        self.objects = vec![ObjectCalls::default(); n_objects];
        for slot in self.slots.iter_mut().flatten() {
            slot.probe = None;
            slot.handler = None;
        }
    }

    /// Calls currently tracked for retry.
    pub fn pending_len(&self) -> usize {
        self.index.len()
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
    pub fn issue_at(
        &mut self,
        pe: usize,
        tid: usize,
        data: &[u8],
        now: u64,
        pool: &mut PayloadPool,
    ) -> u8 {
        (self.issue(
            tests::tag(pe, tid),
            NodeId(1),
            data,
            None,
            Cycles(now),
            pool,
        ))
        .token
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The table's oracle: after every operation the index, the pending
    /// count and the pool ledger are what a walk over the slots answers.
    fn audit(t: &CallTable, pool: &PayloadPool) {
        let scan: BTreeSet<_> = (t.slots.iter().enumerate())
            .flat_map(|(pe, slots)| {
                (slots.iter().enumerate())
                    .filter_map(move |(tid, s)| Some((s.retry.as_ref()?.deadline, pe, tid)))
            })
            .collect();
        assert_eq!(t.index, scan, "index ≡ scan of the slots");
        assert_eq!(t.pending_len(), scan.len());
        assert_eq!(t.next_deadline(), scan.first().map(|k| k.0));
        // Every stored clone is out of the pool exactly once.
        assert_eq!(pool.outstanding(), scan.len() as i64, "ledger");
    }

    #[test]
    fn table_matches_a_scan_after_random_operations() {
        let mut draw = stream(0x9e37_79b9_7f4a_7c15);
        let mut t = CallTable::new([3; 4]);
        t.set_policy(RetryPolicy {
            timeout: 7,
            max_attempts: 2,
        });
        t.reset(2);
        let mut pool = PayloadPool::new();
        let (mut now, mut duplicates, mut give_ups) = (0, 0, 0);
        for _ in 0..6_000 {
            now += draw(3);
            let (pe, tid) = (draw(4) as usize, draw(3) as usize);
            let before = t.slots[pe].clone();
            match draw(7) {
                0 | 1 => {
                    let object = Some(ObjectId(draw(3) as usize));
                    let stamped = t.issue(
                        tag(pe, tid),
                        NodeId(1),
                        &[9],
                        object,
                        Cycles(now),
                        &mut pool,
                    );
                    let slot = &t.slots[pe][tid];
                    assert_eq!(stamped.token, slot.salt);
                    assert_eq!(slot.salt, before[tid].salt.wrapping_add(1));
                    assert_eq!(slot.retry.as_ref().map(|c| c.tag), Some(stamped));
                }
                // A reply: live, stale or for a slot with no entry, to a
                // thread that waits or does not.
                2..=4 => {
                    let entry = before[tid].retry.as_ref().map(|c| c.tag.token);
                    let token = entry.unwrap_or(0).wrapping_add(draw(2) as u8);
                    let awaiting = draw(2) == 0;
                    let got = t.reply(pe, tid, token, awaiting, Cycles(now), &mut pool);
                    let slot = &t.slots[pe][tid];
                    if entry.map_or(awaiting, |live| live == token) {
                        assert!(matches!(got, Reply::Deliver { .. }));
                        assert!(slot.probe.is_none() && slot.retry.is_none());
                        assert_eq!(slot.salt, before[tid].salt);
                    } else {
                        assert_eq!(got, Reply::Duplicate);
                        assert_eq!(t.slots[pe], before, "a duplicate leaves both halves");
                        duplicates += 1;
                    }
                }
                5 => {
                    let is_due = |s: &Slot| s.retry.as_ref().is_some_and(|c| c.deadline <= now);
                    let due: Vec<_> = (0..4)
                        .flat_map(|pe| (0..3).map(move |tid| (pe, tid)))
                        .filter(|&(pe, tid)| is_due(&t.slots[pe][tid]))
                        .collect();
                    let expired = t.expire(now, &mut pool);
                    let fired: Vec<_> = (expired.into_iter())
                        .map(|e| match e {
                            Expired::Retry { tag, data, .. } => {
                                let slot = &t.slots[tag.pe.0][tag.tid.0];
                                assert_eq!(slot.retry.as_ref().map(|c| c.tag), Some(tag));
                                assert_eq!(tag.token, slot.salt);
                                pool.put(data); // the re-send, consumed
                                (tag.pe.0, tag.tid.0)
                            }
                            Expired::GiveUp { pe, tid } => {
                                let slot = &t.slots[pe][tid];
                                assert!(slot.probe.is_none() && slot.retry.is_none());
                                give_ups += 1;
                                (pe, tid)
                            }
                        })
                        .collect();
                    assert_eq!(fired, due, "every due slot, in (pe, tid) order");
                    assert!(t.next_deadline().is_none_or(|d| d > now));
                }
                _ => {
                    t.abandon_pe(pe, &mut pool);
                    for (slot, was) in t.slots[pe].iter().zip(&before) {
                        assert!(slot.probe.is_none() && slot.retry.is_none());
                        assert_eq!(slot.salt, was.salt, "salts survive a crash");
                    }
                }
            }
            audit(&t, &pool);
        }
        let mut stats = ResilienceStats::default();
        t.fill_stats(&mut stats);
        assert_eq!(stats.duplicate_replies_dropped, duplicates);
        assert_eq!(stats.retry_give_ups, give_ups);
        assert!(
            duplicates > 0 && give_ups > 0 && stats.retries > 0,
            "{stats:?}"
        );
        // Nothing due: no allocation behind the returned vector.
        assert_eq!(t.expire(0, &mut pool).capacity(), 0);
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
        let (mut pool_t, mut pool_u) = (PayloadPool::new(), PayloadPool::new());
        for t in [&mut tracked, &mut untracked] {
            t.reset(2);
            t.object_mut(ObjectId(1)).unwrap().deadline = Some(20);
        }
        let mut open = [[None; 2]; 3];
        let (mut now, mut misses) = (0, 0);
        for _ in 0..2_000 {
            now += draw(16);
            let (pe, tid) = (draw(3) as usize, draw(2) as usize);
            if let Some((live, zero)) = open[pe][tid].take() {
                let got = tracked.reply(pe, tid, live, true, Cycles(now), &mut pool_t);
                assert_eq!(
                    got,
                    untracked.reply(pe, tid, zero, true, Cycles(now), &mut pool_u)
                );
                assert!(matches!(got, Reply::Deliver { .. }));
                misses += u64::from(got != Reply::Deliver { miss: None });
            } else {
                let object = Some(ObjectId(draw(2) as usize));
                let at = Cycles(now);
                let live = tracked.issue(tag(pe, tid), NodeId(1), &[1], object, at, &mut pool_t);
                let zero = untracked.issue(tag(pe, tid), NodeId(1), &[1], object, at, &mut pool_u);
                assert_eq!((zero.token, pool_u.outstanding()), (0, 0));
                assert_ne!(live.token, 0);
                open[pe][tid] = Some((live.token, zero.token));
            }
            audit(&tracked, &pool_t);
            audit(&untracked, &pool_u);
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
            (
                |t| t.abandon_pe(1, &mut PayloadPool::new()),
                [true, true, false, false],
            ),
            (|t| t.reset(1), [false; 4]),
        ];
        for (forget, left) in forget {
            (threads.iter()).for_each(|&(pe, tid)| t.start_handler(pe, tid, ObjectId(0)));
            forget(&mut t);
            assert_eq!(held(&t), left);
        }
    }
}
