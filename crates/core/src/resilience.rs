//! Graceful degradation: retry/timeout bookkeeping and fault statistics.
//!
//! The platform applies a [`nw_fault::FaultCampaign`] through explicit
//! hooks (NoC port stalls, link kills, packet drop/corruption, PE
//! crash/restart); this module holds the *recovery* side — the
//! deterministic retry layer for synchronous calls and the counters the
//! [`PlatformReport`](crate::report::PlatformReport) surfaces.
//!
//! # Retry contract
//!
//! With a [`RetryPolicy`] installed, every `Op::Call` the platform
//! collects opens a pending entry keyed on the issuing hardware thread:
//! the cloned request payload, the destination, and a deadline
//! `issue + timeout`. The request tag carries a per-thread **token**
//! (bits 32..40 of [`RequestTag`](crate::tags::RequestTag)) that echoes
//! through service nodes and DSOC replies untouched:
//!
//! * a reply whose token matches the live entry closes it;
//! * a reply with a stale token (an earlier attempt that was slow, not
//!   lost) is dropped and counted in
//!   [`ResilienceStats::duplicate_replies_dropped`];
//! * a deadline that fires re-issues the stored payload with a bumped
//!   token and doubles the next timeout (deterministic exponential
//!   backoff);
//! * after [`RetryPolicy::max_attempts`] total attempts the call is
//!   abandoned: the blocked thread is completed so the handler can make
//!   progress, and the give-up is counted.
//!
//! Everything is a pure function of simulation state — deadlines are
//! cycle numbers, tokens are per-thread counters — so fault runs stay
//! bit-identical across scheduler modes and across repeats of a seed.

use nw_types::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Deterministic retry/timeout policy for synchronous calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Cycles a call may stay unanswered before its first retry fires.
    /// Subsequent attempts double the window (capped exponential backoff).
    pub timeout: u64,
    /// Total attempts (first issue included) before the call is abandoned
    /// and the blocked thread is released. Minimum 1.
    pub max_attempts: u8,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: 4_096,
            max_attempts: 4,
        }
    }
}

impl RetryPolicy {
    /// The deadline window of attempt `attempt` (0 = first issue):
    /// `timeout << attempt`, saturating at `u64::MAX` instead of wrapping.
    pub fn window(&self, attempt: u8) -> u64 {
        let shift = u32::from(attempt.min(16));
        if self.timeout == 0 {
            0
        } else if shift > self.timeout.leading_zeros() {
            u64::MAX
        } else {
            self.timeout << shift
        }
    }
}

/// One in-flight synchronous call tracked for retry.
#[derive(Debug, Clone)]
pub(crate) struct PendingCall {
    /// Cycle the current attempt times out. Private: it is mirrored in
    /// `ResilienceState::by_deadline`, so only `open`/`bump` may set it.
    deadline: u64,
    /// Attempts issued so far minus one (0 = first issue outstanding).
    pub attempt: u8,
    /// Token stamped on the current attempt's tag.
    pub token: u8,
    /// Destination endpoint (re-used verbatim on retry).
    pub dst: NodeId,
    /// Expected reply payload size (tag field).
    pub reply_bytes: u64,
    /// Pool-accounted clone of the request payload, ready to re-send.
    pub data: Vec<u8>,
}

/// Outcome of matching an arriving reply against the retry table.
#[derive(Debug)]
pub(crate) enum CloseOutcome {
    /// The live attempt's reply: entry closed, stored payload returned for
    /// recycling. Deliver the completion.
    Live(Vec<u8>),
    /// A stale attempt's reply (token mismatch): drop it, keep waiting.
    Stale,
    /// No entry for this thread (already gave up, or the PE crashed):
    /// deliver only if the thread is actually awaiting.
    Unknown,
}

/// The retry table: per-thread pending calls plus token counters.
#[derive(Debug, Clone)]
pub(crate) struct ResilienceState {
    pub policy: RetryPolicy,
    /// Pending synchronous calls keyed `(pe, tid)` — BTreeMap so due-scan
    /// order is deterministic.
    pending: BTreeMap<(usize, usize), PendingCall>,
    /// `(deadline, pe, tid)` of every pending entry, so the earliest
    /// deadline is the first element instead of a walk over `pending`
    /// (both the quiet-span probe and the retry phase ask every cycle).
    /// Kept in step by `open`, `bump`, `close`, `abandon`, `abandon_pe`.
    by_deadline: BTreeSet<(u64, usize, usize)>,
    /// Per-thread token counter; bumps on every open so replies from an
    /// abandoned call can never correlate with a later one.
    salts: BTreeMap<(usize, usize), u8>,
}

impl ResilienceState {
    pub fn new(policy: RetryPolicy) -> Self {
        ResilienceState {
            policy,
            pending: BTreeMap::new(),
            by_deadline: BTreeSet::new(),
            salts: BTreeMap::new(),
        }
    }

    /// Opens a pending entry for a freshly issued call and returns the
    /// token to stamp on its tag.
    pub fn open(
        &mut self,
        pe: usize,
        tid: usize,
        dst: NodeId,
        reply_bytes: u64,
        data: Vec<u8>,
        now: u64,
    ) -> u8 {
        let salt = self.salts.entry((pe, tid)).or_insert(0);
        *salt = salt.wrapping_add(1);
        let token = *salt;
        let deadline = now + self.policy.window(0);
        // A blocked thread holds one call; a leftover entry is replaced.
        self.abandon(pe, tid);
        self.pending.insert(
            (pe, tid),
            PendingCall {
                deadline,
                attempt: 0,
                token,
                dst,
                reply_bytes,
                data,
            },
        );
        self.by_deadline.insert((deadline, pe, tid));
        token
    }

    /// Advances the pending entry of `(pe, tid)` to its next attempt:
    /// fresh token from the thread's salt counter, attempt count up, new
    /// deadline with the doubled backoff window. No-op if nothing pends.
    pub fn bump(&mut self, pe: usize, tid: usize, now: u64) {
        let salt = self.salts.entry((pe, tid)).or_insert(0);
        *salt = salt.wrapping_add(1);
        let token = *salt;
        let policy = self.policy;
        if let Some(e) = self.pending.get_mut(&(pe, tid)) {
            self.by_deadline.remove(&(e.deadline, pe, tid));
            e.attempt = e.attempt.saturating_add(1);
            e.token = token;
            e.deadline = now + policy.window(e.attempt);
            self.by_deadline.insert((e.deadline, pe, tid));
        }
    }

    /// Matches a reply for thread `(pe, tid)` carrying `token`.
    pub fn close(&mut self, pe: usize, tid: usize, token: u8) -> CloseOutcome {
        match self.pending.get(&(pe, tid)) {
            Some(entry) if entry.token == token => {
                let data = self.abandon(pe, tid).expect("entry just matched");
                CloseOutcome::Live(data)
            }
            Some(_) => CloseOutcome::Stale,
            None => CloseOutcome::Unknown,
        }
    }

    /// Keys whose deadline has fired at `now`, in `(pe, tid)` order.
    /// Allocates nothing when no deadline is due.
    pub fn due_keys(&self, now: u64) -> Vec<(usize, usize)> {
        let mut keys: Vec<_> = self
            .by_deadline
            .range(..=(now, usize::MAX, usize::MAX))
            .map(|&(_, pe, tid)| (pe, tid))
            .collect();
        keys.sort_unstable();
        keys
    }

    pub fn get_mut(&mut self, pe: usize, tid: usize) -> Option<&mut PendingCall> {
        self.pending.get_mut(&(pe, tid))
    }

    /// Removes an entry (give-up, crash), returning its payload.
    pub fn abandon(&mut self, pe: usize, tid: usize) -> Option<Vec<u8>> {
        let e = self.pending.remove(&(pe, tid))?;
        self.by_deadline.remove(&(e.deadline, pe, tid));
        Some(e.data)
    }

    /// Drops every entry of PE `pe` (crash), returning the payloads.
    pub fn abandon_pe(&mut self, pe: usize) -> Vec<Vec<u8>> {
        let keys: Vec<_> = self
            .pending
            .range((pe, 0)..(pe + 1, 0))
            .map(|(&k, _)| k)
            .collect();
        keys.into_iter()
            .filter_map(|(p, tid)| self.abandon(p, tid))
            .collect()
    }

    /// The earliest pending deadline — folded into the scheduler
    /// fast-forward paths so a quiet span never skips a timeout.
    pub fn earliest_deadline(&self) -> Option<u64> {
        self.by_deadline.first().map(|&(deadline, _, _)| deadline)
    }

    /// Pending entries (observability/tests).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

/// Fault-injection and recovery counters of one run.
///
/// All zeros when fault injection is off — the report field then compares
/// equal between faulted and legacy builds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Campaign events applied (all kinds).
    pub faults_injected: u64,
    /// Permanent link kills that triggered degraded-mode rerouting.
    pub links_failed: u64,
    /// Route-table recomputations around dead links.
    pub reroutes: u64,
    /// Packets discarded by the NoC (injected drops + disconnections).
    pub packets_dropped: u64,
    /// Flits those packets carried.
    pub flits_dropped: u64,
    /// Packets whose payload was corrupted in place.
    pub packets_corrupted: u64,
    /// PE crash events applied.
    pub pe_crashes: u64,
    /// PE restart events applied.
    pub pe_restarts: u64,
    /// Timed-out calls re-issued by the retry layer.
    pub retries: u64,
    /// Calls abandoned after exhausting their attempt budget.
    pub retry_give_ups: u64,
    /// Replies dropped as stale duplicates (token mismatch or no
    /// outstanding call).
    pub duplicate_replies_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_roundtrip() {
        let mut rs = ResilienceState::new(RetryPolicy::default());
        let tok = rs.open(1, 2, NodeId(5), 64, vec![1, 2, 3], 100);
        assert_eq!(rs.pending_len(), 1);
        assert_eq!(rs.earliest_deadline(), Some(100 + 4_096));
        match rs.close(1, 2, tok) {
            CloseOutcome::Live(data) => assert_eq!(data, vec![1, 2, 3]),
            other => panic!("expected live close, got {other:?}"),
        }
        assert_eq!(rs.pending_len(), 0);
        assert!(matches!(rs.close(1, 2, tok), CloseOutcome::Unknown));
    }

    #[test]
    fn stale_token_is_detected() {
        let mut rs = ResilienceState::new(RetryPolicy::default());
        let tok = rs.open(0, 0, NodeId(1), 8, Vec::new(), 0);
        let entry = rs.get_mut(0, 0).expect("entry open");
        entry.attempt = 1;
        entry.token = tok.wrapping_add(1);
        assert!(matches!(rs.close(0, 0, tok), CloseOutcome::Stale));
        assert!(matches!(
            rs.close(0, 0, tok.wrapping_add(1)),
            CloseOutcome::Live(_)
        ));
    }

    #[test]
    fn tokens_never_repeat_across_reopens() {
        let mut rs = ResilienceState::new(RetryPolicy::default());
        let a = rs.open(0, 0, NodeId(1), 8, Vec::new(), 0);
        rs.abandon(0, 0);
        let b = rs.open(0, 0, NodeId(1), 8, Vec::new(), 50);
        assert_ne!(a, b, "a reopened call must get a fresh token");
    }

    #[test]
    fn due_scan_and_pe_abandon() {
        let mut rs = ResilienceState::new(RetryPolicy {
            timeout: 10,
            max_attempts: 3,
        });
        rs.open(0, 0, NodeId(1), 8, vec![1], 0);
        rs.open(0, 1, NodeId(1), 8, vec![2], 5);
        rs.open(2, 0, NodeId(1), 8, vec![3], 0);
        assert_eq!(rs.due_keys(10), vec![(0, 0), (2, 0)]);
        assert_eq!(rs.due_keys(9), Vec::<(usize, usize)>::new());
        let dropped = rs.abandon_pe(0);
        assert_eq!(dropped, vec![vec![1], vec![2]]);
        assert_eq!(rs.pending_len(), 1);
        assert_eq!(rs.earliest_deadline(), Some(10));
    }

    #[test]
    fn deadline_index_matches_a_scan_after_random_operations() {
        // xorshift: a fixed, dependency-free operation stream.
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut draw = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut rs = ResilienceState::new(RetryPolicy {
            timeout: 7,
            max_attempts: 4,
        });
        let mut now = 0;
        for _ in 0..4_000 {
            now += draw(3);
            let (pe, tid) = (draw(4) as usize, draw(3) as usize);
            match draw(6) {
                0 | 1 => {
                    rs.open(pe, tid, NodeId(1), 8, Vec::new(), now);
                }
                2 => rs.bump(pe, tid, now),
                3 => {
                    let token = rs.get_mut(pe, tid).map_or(0, |e| e.token);
                    rs.close(pe, tid, token.wrapping_add(draw(2) as u8));
                }
                4 => {
                    rs.abandon(pe, tid);
                }
                _ => {
                    rs.abandon_pe(pe);
                }
            }
            let scan_min = rs.pending.values().map(|e| e.deadline).min();
            assert_eq!(rs.earliest_deadline(), scan_min);
            let scan_due: Vec<_> = rs
                .pending
                .iter()
                .filter(|(_, e)| e.deadline <= now)
                .map(|(&k, _)| k)
                .collect();
            assert_eq!(rs.due_keys(now), scan_due);
            assert_eq!(rs.by_deadline.len(), rs.pending.len());
        }
        // Nothing due: no allocation behind the returned vector.
        assert_eq!(rs.due_keys(0).capacity(), 0);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy {
            timeout: 100,
            max_attempts: 8,
        };
        assert_eq!(p.window(0), 100);
        assert_eq!(p.window(1), 200);
        assert_eq!(p.window(3), 800);
        let huge = RetryPolicy {
            timeout: u64::MAX / 2,
            max_attempts: 8,
        };
        assert_eq!(huge.window(3), u64::MAX, "backoff saturates, never wraps");
    }
}
