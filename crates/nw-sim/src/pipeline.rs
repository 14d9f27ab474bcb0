//! A generic pipelined server: the timing skeleton shared by hardwired IP
//! blocks and eFPGA-mapped kernels.
//!
//! A pipelined datapath is characterized by its *initiation interval* (II,
//! cycles between accepting successive items) and its *latency* (cycles from
//! acceptance to completion). Items queue in a buffer of
//! [`PipelinedServer::QUEUE_CAP`] in front of the pipeline; back-pressure is
//! exposed through [`PipelinedServer::try_submit`]. Each item is charged
//! the energy of the configuration that issued it.

use crate::event::EventQueue;
use nw_types::{Cycles, Picojoules};
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
/// use nw_sim::PipelinedServer;
/// use nw_types::{Cycles, Picojoules};
///
/// // II=2, latency=10: accepts an item every other cycle.
/// let mut s = PipelinedServer::new(2, 10, Picojoules(1.5));
/// s.try_submit(1, Cycles(0)).unwrap();
/// s.try_submit(2, Cycles(0)).unwrap();
/// let mut done = Vec::new();
/// for c in 0..20 {
///     s.tick(Cycles(c));
///     while let Some(id) = s.take_done() { done.push(id); }
/// }
/// assert_eq!(done, vec![1, 2]);
/// assert_eq!(s.energy(), Picojoules(3.0));
/// ```
#[derive(Debug, Clone)]
pub struct PipelinedServer {
    ii: u64,
    latency: u64,
    energy_per_item: Picojoules,
    queue: VecDeque<u64>,
    /// Issued items with the energy they were issued at.
    in_flight: EventQueue<(u64, Picojoules)>,
    next_accept: u64,
    done: VecDeque<u64>,
    served: u64,
    energy: Picojoules,
}

impl PipelinedServer {
    /// Items the input queue holds.
    pub const QUEUE_CAP: usize = 64;

    /// Creates a server with initiation interval `ii` (>= 1), pipeline
    /// `latency` (>= 1) and `energy_per_item` charged as each item
    /// completes.
    ///
    /// # Panics
    ///
    /// Panics if `ii` or `latency` is zero.
    pub fn new(ii: u64, latency: u64, energy_per_item: Picojoules) -> Self {
        let mut server = PipelinedServer {
            ii: 1,
            latency: 1,
            energy_per_item,
            queue: VecDeque::new(),
            in_flight: EventQueue::new(),
            next_accept: 0,
            done: VecDeque::new(),
            served: 0,
            energy: Picojoules::ZERO,
        };
        server.retime(ii, latency, energy_per_item);
        server
    }

    /// Sets the initiation interval, latency and energy per item of every
    /// later issue. Items already issued keep the completion cycle and the
    /// energy they were issued with, queued items stay queued, and the next
    /// issue still waits out the interval of the last one.
    ///
    /// # Panics
    ///
    /// Panics if `ii` or `latency` is zero.
    pub fn retime(&mut self, ii: u64, latency: u64, energy_per_item: Picojoules) {
        assert!(ii >= 1, "initiation interval must be at least 1");
        assert!(latency >= 1, "latency must be at least 1");
        self.ii = ii;
        self.latency = latency;
        self.energy_per_item = energy_per_item;
    }

    /// Offers an item.
    ///
    /// # Errors
    ///
    /// [`ServerFull`] when the input queue is at capacity.
    pub fn try_submit(&mut self, id: u64, _now: Cycles) -> Result<(), ServerFull> {
        if self.is_full() {
            return Err(ServerFull);
        }
        self.queue.push_back(id);
        Ok(())
    }

    /// Whether the input queue is at capacity, so that
    /// [`PipelinedServer::try_submit`] refuses.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= Self::QUEUE_CAP
    }

    /// Takes the next completed item cookie, if any.
    pub fn take_done(&mut self) -> Option<u64> {
        self.done.pop_front()
    }

    /// Items completed so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Dynamic energy of the items completed so far, each at the energy per
    /// item it was issued with.
    pub fn energy(&self) -> Picojoules {
        self.energy
    }

    /// Delays the issue stage until `cycle` (used to model eFPGA
    /// reconfiguration downtime).
    pub fn stall_until(&mut self, cycle: Cycles) {
        self.next_accept = self.next_accept.max(cycle.0);
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

    /// Advances the server by one clock cycle: completions due at `now`
    /// mature, then the issue stage accepts the next queued item if the
    /// initiation interval allows.
    pub fn tick(&mut self, now: Cycles) {
        while let Some((id, energy)) = self.in_flight.pop_due(now) {
            self.served += 1;
            self.energy += energy;
            self.done.push_back(id);
        }
        if now.0 >= self.next_accept {
            if let Some(id) = self.queue.pop_front() {
                let item = (id, self.energy_per_item);
                self.in_flight.schedule(Cycles(now.0 + self.latency), item);
                self.next_accept = now.0 + self.ii;
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
        let mut s = PipelinedServer::new(4, 10, Picojoules::ZERO);
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
        let mut s = PipelinedServer::new(1, 25, Picojoules::ZERO);
        s.try_submit(7, Cycles(0)).unwrap();
        let done = drive(&mut s, 40);
        assert_eq!(done, vec![(25, 7)]);
    }

    #[test]
    fn queue_full_backpressure() {
        let mut s = PipelinedServer::new(1, 5, Picojoules::ZERO);
        for id in 0..PipelinedServer::QUEUE_CAP as u64 {
            s.try_submit(id, Cycles(0)).unwrap();
        }
        assert_eq!(s.try_submit(64, Cycles(0)), Err(ServerFull));
        // One issue frees one slot.
        s.tick(Cycles(0));
        assert_eq!(s.try_submit(64, Cycles(0)), Ok(()));
        assert_eq!(s.try_submit(65, Cycles(0)), Err(ServerFull));
    }

    #[test]
    fn retiming_applies_to_later_issues_only() {
        let mut s = PipelinedServer::new(1, 10, Picojoules(1.0));
        for id in 0..3 {
            s.try_submit(id, Cycles(0)).unwrap();
        }
        s.tick(Cycles(0)); // item 0 issues at latency 10
        s.retime(5, 2, Picojoules(4.0));
        // Item 1 waits out the old interval, item 2 the new one; item 0
        // keeps its completion cycle and its energy.
        assert_eq!(drive(&mut s, 20), vec![(3, 1), (8, 2), (10, 0)]);
        assert_eq!((s.served(), s.energy()), (3, Picojoules(9.0)));
    }

    #[test]
    fn stall_until_delays_issue() {
        let mut s = PipelinedServer::new(1, 5, Picojoules::ZERO);
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
        let mut s = PipelinedServer::new(3, 7, Picojoules::ZERO);
        let (mut out, mut id, mut refused) = (Vec::new(), 0, 0);
        for c in 0..upto {
            if c == 30 {
                s.stall_until(Cycles(55));
            }
            for _ in 0..[2, 0, 0, 1, 0, 3, 0, 0, 0, 0, 0][(c % 11) as usize] {
                refused += u64::from(s.try_submit(id, Cycles(c)).is_err());
                id += 1;
            }
            if tick_on(&s, Cycles(c)) {
                s.tick(Cycles(c));
                out.extend(s.take_done().map(|id| (c, id)));
            }
        }
        let counts = [s.served(), s.next_accept, refused];
        (out, counts)
    }

    #[test]
    fn ticking_only_at_answered_cycles_equals_ticking_every_cycle() {
        let every = visit(400, |_, _| true);
        let answered = visit(400, |s, c| s.next_event_cycle(c) == Some(c));
        assert_eq!(every, answered);
        assert!(every.0.len() > 30, "{} completions", every.0.len());
        assert!(every.1[2] > 0, "the queue never overflowed");
        // An undrained completion is work due now, not "drained".
        let mut s = PipelinedServer::new(1, 2, Picojoules::ZERO);
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
        let mut s = PipelinedServer::new(1, 2, Picojoules::ZERO);
        assert_eq!(s.next_event_cycle(Cycles(0)), None);
        s.try_submit(1, Cycles(0)).unwrap();
        assert_eq!(s.next_event_cycle(Cycles(0)), Some(Cycles(0)));
        drive(&mut s, 10);
        assert_eq!(s.next_event_cycle(Cycles(10)), None);
        assert_eq!(s.served(), 1);
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_ii_panics() {
        let _ = PipelinedServer::new(0, 1, Picojoules::ZERO);
    }
}
