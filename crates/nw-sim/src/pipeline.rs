//! A generic pipelined server: the timing skeleton shared by hardwired IP
//! blocks and eFPGA-mapped kernels.
//!
//! A pipelined datapath is characterized by its *initiation interval* (II,
//! cycles between accepting successive items) and its *latency* (cycles from
//! acceptance to completion). Items queue in a bounded buffer in front of
//! the pipeline; back-pressure is exposed through [`PipelinedServer::try_submit`].

use crate::event::EventQueue;
use crate::stats::Counter;
use crate::Clocked;
use nw_types::Cycles;
use std::collections::VecDeque;
use std::fmt;

/// Error from [`PipelinedServer::try_submit`] when the input queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerFull;

impl fmt::Display for ServerFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipelined server input queue full")
    }
}

impl std::error::Error for ServerFull {}

/// A pipelined server processing opaque item cookies.
///
/// # Examples
///
/// ```
/// use nw_sim::{PipelinedServer, Clocked};
/// use nw_types::Cycles;
///
/// // II=2, latency=10: accepts an item every other cycle.
/// let mut s = PipelinedServer::new(2, 10, 8);
/// s.try_submit(1, Cycles(0)).unwrap();
/// s.try_submit(2, Cycles(0)).unwrap();
/// let mut done = Vec::new();
/// for c in 0..20 {
///     s.tick(Cycles(c));
///     while let Some(id) = s.take_done() { done.push(id); }
/// }
/// assert_eq!(done, vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct PipelinedServer {
    ii: u64,
    latency: u64,
    queue: VecDeque<u64>,
    queue_cap: usize,
    in_flight: EventQueue<u64>,
    next_accept: u64,
    done: VecDeque<u64>,
    served: Counter,
    /// Cycles the issue stage actually accepted an item.
    issue_cycles: Counter,
}

impl PipelinedServer {
    /// Creates a server with initiation interval `ii` (>= 1), pipeline
    /// `latency` (>= 1) and input queue capacity `queue_cap` (>= 1).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(ii: u64, latency: u64, queue_cap: usize) -> Self {
        assert!(ii >= 1, "initiation interval must be at least 1");
        assert!(latency >= 1, "latency must be at least 1");
        assert!(queue_cap >= 1, "queue capacity must be at least 1");
        PipelinedServer {
            ii,
            latency,
            queue: VecDeque::new(),
            queue_cap,
            in_flight: EventQueue::new(),
            next_accept: 0,
            done: VecDeque::new(),
            served: Counter::new(),
            issue_cycles: Counter::new(),
        }
    }

    /// Pipeline latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Offers an item.
    ///
    /// # Errors
    ///
    /// [`ServerFull`] when the input queue is at capacity.
    pub fn try_submit(&mut self, id: u64, _now: Cycles) -> Result<(), ServerFull> {
        if self.queue.len() >= self.queue_cap {
            return Err(ServerFull);
        }
        self.queue.push_back(id);
        Ok(())
    }

    /// Takes the next completed item cookie, if any.
    pub fn take_done(&mut self) -> Option<u64> {
        self.done.pop_front()
    }

    /// Items completed so far.
    pub fn served(&self) -> u64 {
        self.served.count()
    }

    /// Whether nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty() && self.done.is_empty()
    }

    /// Delays the issue stage until `cycle` (used to model eFPGA
    /// reconfiguration downtime).
    pub fn stall_until(&mut self, cycle: Cycles) {
        self.next_accept = self.next_accept.max(cycle.0);
    }

    /// Free slots in the input queue.
    pub fn queue_free(&self) -> usize {
        self.queue_cap - self.queue.len()
    }

    /// The earliest cycle `>= now` at which ticking this server or taking
    /// its completions can change anything, or `None` when it is fully
    /// drained (every tick until the next submit is a no-op).
    ///
    /// A caller that ticks and drains only at the returned cycles observes
    /// exactly what a caller ticking every cycle does: completions mature
    /// on their due cycle, queued items issue no earlier than
    /// `next_accept`, and completions not yet taken are due `now`.
    pub fn next_event_cycle(&self, now: Cycles) -> Option<Cycles> {
        if !self.done.is_empty() {
            return Some(now);
        }
        let mut next: Option<Cycles> = self.in_flight.next_due().map(|d| d.max(now));
        if !self.queue.is_empty() {
            let issue = Cycles(self.next_accept.max(now.0));
            next = Some(next.map_or(issue, |n| n.min(issue)));
        }
        next
    }
}

impl Clocked for PipelinedServer {
    fn tick(&mut self, now: Cycles) {
        while let Some(id) = self.in_flight.pop_due(now) {
            self.served.incr();
            self.done.push_back(id);
        }
        if now.0 >= self.next_accept {
            if let Some(id) = self.queue.pop_front() {
                self.in_flight.schedule(Cycles(now.0 + self.latency), id);
                self.next_accept = now.0 + self.ii;
                self.issue_cycles.incr();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(s: &mut PipelinedServer, upto: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for c in 0..upto {
            s.tick(Cycles(c));
            while let Some(id) = s.take_done() {
                out.push((c, id));
            }
        }
        out
    }

    #[test]
    fn throughput_follows_initiation_interval() {
        let mut s = PipelinedServer::new(4, 10, 16);
        for id in 0..4 {
            s.try_submit(id, Cycles(0)).unwrap();
        }
        let done = drive(&mut s, 40);
        assert_eq!(done.len(), 4);
        // Completions 4 cycles apart after the initial latency.
        let times: Vec<u64> = done.iter().map(|&(c, _)| c).collect();
        assert_eq!(times[1] - times[0], 4);
        assert_eq!(times[3] - times[2], 4);
    }

    #[test]
    fn latency_is_respected() {
        let mut s = PipelinedServer::new(1, 25, 4);
        s.try_submit(7, Cycles(0)).unwrap();
        let done = drive(&mut s, 40);
        assert_eq!(done, vec![(25, 7)]);
    }

    #[test]
    fn queue_full_backpressure() {
        let mut s = PipelinedServer::new(1, 5, 2);
        s.try_submit(1, Cycles(0)).unwrap();
        s.try_submit(2, Cycles(0)).unwrap();
        assert_eq!(s.try_submit(3, Cycles(0)), Err(ServerFull));
        assert_eq!(s.queue_free(), 0);
    }

    #[test]
    fn stall_until_delays_issue() {
        let mut s = PipelinedServer::new(1, 5, 4);
        s.stall_until(Cycles(100));
        s.try_submit(1, Cycles(0)).unwrap();
        let done = drive(&mut s, 120);
        assert_eq!(done.len(), 1);
        assert!(
            done[0].0 >= 105,
            "completion at {} should wait for stall",
            done[0].0
        );
    }

    /// Visits the server on cycles `0..upto`: submits in a fixed pattern
    /// that overflows the queue, stalls the issue stage at cycle 30 until 55, ticks
    /// on the cycles `tick_on` selects, and takes at most one completion
    /// per ticked cycle, so completions stay undrained across cycles.
    fn visit(
        upto: u64,
        tick_on: impl Fn(&PipelinedServer, Cycles) -> bool,
    ) -> (Vec<(u64, u64)>, [u64; 3]) {
        let mut s = PipelinedServer::new(3, 7, 4);
        let (mut out, mut id) = (Vec::new(), 0);
        for c in 0..upto {
            if c == 30 {
                s.stall_until(Cycles(55));
            }
            for _ in 0..[2, 0, 0, 1, 0, 3, 0, 0, 0, 0, 0][(c % 11) as usize] {
                let _ = s.try_submit(id, Cycles(c));
                id += 1;
            }
            if tick_on(&s, Cycles(c)) {
                s.tick(Cycles(c));
                out.extend(s.take_done().map(|id| (c, id)));
            }
        }
        let counts = [s.served(), s.issue_cycles.count(), s.next_accept];
        (out, counts)
    }

    #[test]
    fn ticking_only_at_answered_cycles_equals_ticking_every_cycle() {
        let every = visit(200, |_, _| true);
        let answered = visit(200, |s, c| s.next_event_cycle(c) == Some(c));
        assert_eq!(every, answered);
        assert!(every.0.len() > 30, "{} completions", every.0.len());
        // An undrained completion is work due now, not "drained".
        let mut s = PipelinedServer::new(1, 2, 4);
        s.try_submit(9, Cycles(0)).unwrap();
        for c in 0..3 {
            s.tick(Cycles(c));
        }
        assert_eq!(s.next_event_cycle(Cycles(3)), Some(Cycles(3)));
        assert_eq!(s.take_done(), Some(9));
        assert_eq!(s.next_event_cycle(Cycles(3)), None);
    }

    #[test]
    fn idle_detection() {
        let mut s = PipelinedServer::new(1, 2, 4);
        assert!(s.is_idle());
        s.try_submit(1, Cycles(0)).unwrap();
        assert!(!s.is_idle());
        drive(&mut s, 10);
        assert!(s.is_idle());
        assert_eq!(s.served(), 1);
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_ii_panics() {
        let _ = PipelinedServer::new(0, 1, 1);
    }
}
