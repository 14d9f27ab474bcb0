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
    //! The retry contract above, driven through the table that keeps it.
    use super::*;
    use crate::calls::{CallTable, Expired, Reply};
    use nw_noc::PayloadPool;
    use nw_types::Cycles;

    const DELIVERED: Reply = Reply::Deliver { miss: None };

    fn table(policy: RetryPolicy) -> (CallTable, PayloadPool) {
        let mut t = CallTable::new([2, 2, 2]);
        t.set_policy(policy);
        (t, PayloadPool::new())
    }

    #[test]
    fn open_close_roundtrip() {
        let (mut t, mut pool) = table(RetryPolicy::default());
        let tok = t.issue_at(1, 1, &[1, 2, 3], 100, &mut pool);
        assert_eq!(t.pending_len(), 1);
        assert_eq!(pool.outstanding(), 1, "the stored clone");
        assert_eq!(t.next_deadline(), Some(100 + 4_096));
        assert_eq!(t.reply(1, 1, tok, true, Cycles(150), &mut pool), DELIVERED);
        assert_eq!(t.pending_len(), 0);
        assert_eq!(pool.outstanding(), 0, "the clone went back at the close");
        // No entry left: the same reply again reaches only a waiting thread.
        let now = Cycles(160);
        assert_eq!(t.reply(1, 1, tok, false, now, &mut pool), Reply::Duplicate);
        assert_eq!(t.reply(1, 1, tok, true, now, &mut pool), DELIVERED);
    }

    #[test]
    fn stale_token_is_detected() {
        let (mut t, mut pool) = table(RetryPolicy {
            timeout: 10,
            max_attempts: 3,
        });
        let first = t.issue_at(0, 0, &[7; 4], 0, &mut pool);
        let retried = match t.expire(10, &mut pool).as_slice() {
            [Expired::Retry {
                tag,
                attempt: 1,
                data,
                ..
            }] => {
                assert_eq!(data, &[7; 4], "the retry re-sends the stored payload");
                tag.token
            }
            other => panic!("expected one retry, got {other:?}"),
        };
        assert_ne!(first, retried);
        let now = Cycles(12);
        assert_eq!(t.reply(0, 0, first, true, now, &mut pool), Reply::Duplicate);
        assert_eq!(t.pending_len(), 1, "a stale reply leaves the call pending");
        assert_eq!(t.reply(0, 0, retried, true, now, &mut pool), DELIVERED);
    }

    #[test]
    fn tokens_never_repeat_across_reopens() {
        let (mut t, mut pool) = table(RetryPolicy {
            timeout: 10,
            max_attempts: 1,
        });
        let a = t.issue_at(0, 0, &[], 0, &mut pool);
        t.abandon_pe(0, &mut pool);
        let b = t.issue_at(0, 0, &[], 50, &mut pool);
        assert_ne!(a, b, "a call reopened after a crash must get a fresh token");
        assert!(matches!(
            t.expire(60, &mut pool).as_slice(),
            [Expired::GiveUp { pe: 0, tid: 0 }]
        ));
        let c = t.issue_at(0, 0, &[], 70, &mut pool);
        assert!(c != a && c != b, "and so must one reopened after a give-up");
    }

    #[test]
    fn due_scan_and_pe_abandon() {
        let (mut t, mut pool) = table(RetryPolicy {
            timeout: 10,
            max_attempts: 3,
        });
        t.issue_at(2, 0, &[3], 0, &mut pool);
        t.issue_at(0, 1, &[2], 5, &mut pool);
        t.issue_at(0, 0, &[1], 0, &mut pool);
        assert!(t.expire(9, &mut pool).is_empty());
        let due: Vec<_> = (t.expire(10, &mut pool).iter())
            .map(|e| match e {
                Expired::Retry { tag, .. } => (tag.pe.0, tag.tid.0),
                Expired::GiveUp { .. } => panic!("first timeout of three attempts"),
            })
            .collect();
        assert_eq!(due, [(0, 0), (2, 0)], "due slots fire in (pe, tid) order");
        assert_eq!(t.next_deadline(), Some(15));
        t.abandon_pe(0, &mut pool);
        assert_eq!(t.pending_len(), 1);
        assert_eq!(t.next_deadline(), Some(10 + 20), "the doubled window");
        // Three clones and two re-sends taken, PE 0's two clones returned.
        assert_eq!(pool.outstanding(), 3);
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
