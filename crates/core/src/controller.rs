//! Banked, cycle-stepped memory controller: the block behind a memory
//! service node.
//!
//! The controller fronts one memory macro (of any [`MemoryTechnology`]) with
//! `n_banks` independently busy banks interleaved on the address. Requests
//! queue per bank; a bank serves one request at a time for the technology's
//! service time. Completed request ids surface through
//! [`MemoryController::take_done`] for the service node to answer.
//!
//! [`MemoryTechnology`]: nw_types::MemoryTechnology

use nw_sim::EventQueue;
use nw_types::{Cycles, MemorySpec, Picojoules};
use std::collections::VecDeque;

/// Kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReqKind {
    /// Read `bytes` bytes.
    Read,
    /// Write `bytes` bytes.
    Write,
}

/// A memory request submitted to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemRequest {
    /// Caller correlation id (surfaced again once served).
    pub(crate) id: u64,
    /// Access kind.
    pub(crate) kind: ReqKind,
    /// Byte address (used only for bank selection).
    pub(crate) addr: u64,
    /// Access size in bytes.
    pub(crate) bytes: u64,
}

/// Why a request was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubmitError {
    /// The target bank's queue is full; retry later (back-pressure).
    QueueFull {
        /// Bank whose queue was full.
        bank: usize,
    },
}

#[derive(Debug, Clone)]
struct Bank {
    /// Waiting requests.
    queue: VecDeque<MemRequest>,
    busy_until: u64,
}

/// A banked memory controller for one memory macro.
#[derive(Debug, Clone)]
pub(crate) struct MemoryController {
    spec: MemorySpec,
    banks: Vec<Bank>,
    queue_capacity: usize,
    interleave: u64,
    /// Ids of the accesses in flight, due at their completion cycle.
    completions: EventQueue<u64>,
    ready: VecDeque<u64>,
    energy: Picojoules,
    served: u64,
}

impl MemoryController {
    /// Cache-line-sized bank interleave in bytes.
    pub(crate) const INTERLEAVE: u64 = 64;

    /// Creates a controller with `n_banks` banks and per-bank queue depth
    /// `queue_capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `n_banks == 0` or `queue_capacity == 0`.
    pub(crate) fn new(spec: MemorySpec, n_banks: usize, queue_capacity: usize) -> Self {
        assert!(n_banks > 0, "need at least one bank");
        assert!(queue_capacity > 0, "need queue capacity");
        MemoryController {
            spec,
            banks: (0..n_banks)
                .map(|_| Bank {
                    queue: VecDeque::new(),
                    busy_until: 0,
                })
                .collect(),
            queue_capacity,
            interleave: Self::INTERLEAVE,
            completions: EventQueue::new(),
            ready: VecDeque::new(),
            energy: Picojoules::ZERO,
            served: 0,
        }
    }

    /// Bank index serving an address.
    fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.interleave) % self.banks.len() as u64) as usize
    }

    /// Submits a request.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the target bank queue is at capacity.
    pub(crate) fn submit(&mut self, req: MemRequest) -> Result<(), SubmitError> {
        let bank = self.bank_of(req.addr);
        if self.banks[bank].queue.len() >= self.queue_capacity {
            return Err(SubmitError::QueueFull { bank });
        }
        self.banks[bank].queue.push_back(req);
        Ok(())
    }

    /// Takes the id of the next completed access, if any.
    pub(crate) fn take_done(&mut self) -> Option<u64> {
        self.ready.pop_front()
    }

    /// Total energy consumed by served accesses.
    pub(crate) fn energy(&self) -> Picojoules {
        self.energy
    }

    /// Number of accesses served.
    pub(crate) fn served(&self) -> u64 {
        self.served
    }

    /// The earliest cycle `>= now` at which ticking the controller or
    /// taking its responses can change anything, or `None` when it is fully
    /// drained. Exact: a surfaced response answers `now`, an access in
    /// flight its completion cycle, a queued request the cycle its bank
    /// frees — so a caller that ticks only at the answered cycles observes
    /// what a caller ticking every cycle does.
    pub(crate) fn next_event_cycle(&self, now: Cycles) -> Option<Cycles> {
        if !self.ready.is_empty() {
            return Some(now);
        }
        let queued = self.banks.iter().filter(|b| !b.queue.is_empty());
        let bank_free = queued.map(|b| Cycles(b.busy_until)).min();
        let next = match (self.completions.next_due(), bank_free) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        next.map(|d| d.max(now))
    }

    /// Advances the controller by one clock cycle: matured accesses become
    /// responses, then every free bank starts its oldest queued request.
    pub(crate) fn tick(&mut self, now: Cycles) {
        // Surface matured completions.
        while let Some(id) = self.completions.pop_due(now) {
            self.served += 1;
            self.ready.push_back(id);
        }
        // Start new accesses on idle banks.
        for b in &mut self.banks {
            if b.busy_until <= now.0 {
                if let Some(req) = b.queue.pop_front() {
                    let write = req.kind == ReqKind::Write;
                    let service = self.spec.service_time(write, req.bytes);
                    b.busy_until = now.0 + service.0;
                    self.energy += self.spec.access_energy(write, req.bytes);
                    self.completions.schedule(Cycles(b.busy_until), req.id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_types::MemoryTechnology;

    fn sram(banks: usize) -> MemoryController {
        MemoryController::new(MemorySpec::of(MemoryTechnology::Sram), banks, 8)
    }

    fn req(id: u64, kind: ReqKind, addr: u64, bytes: u64) -> MemRequest {
        MemRequest {
            id,
            kind,
            addr,
            bytes,
        }
    }

    /// Ticks every cycle from `from` until `n` accesses are done, returning
    /// each as (cycle it surfaced, id).
    fn run_until(ctl: &mut MemoryController, n: usize, from: u64, limit: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut now = from;
        while out.len() < n {
            ctl.tick(Cycles(now));
            while let Some(id) = ctl.take_done() {
                out.push((now, id));
            }
            now += 1;
            assert!(now < limit, "responses missing after {limit} cycles");
        }
        out
    }

    #[test]
    fn single_read_completes_with_correct_timing() {
        let mut ctl = sram(1);
        ctl.submit(req(7, ReqKind::Read, 0, 64)).unwrap();
        // SRAM 64B read = 2 + 8 = 10 cycles.
        assert_eq!(run_until(&mut ctl, 1, 0, 100), [(10, 7)]);
        assert_eq!(ctl.next_event_cycle(Cycles(11)), None);
        assert_eq!(ctl.served(), 1);
    }

    #[test]
    fn same_bank_serializes_different_banks_overlap() {
        // Two 64-byte reads to the same bank take ~2x one read.
        let last = |second_addr| {
            let mut ctl = sram(4);
            ctl.submit(req(1, ReqKind::Read, 0, 64)).unwrap();
            ctl.submit(req(2, ReqKind::Read, second_addr, 64)).unwrap();
            run_until(&mut ctl, 2, 0, 200)[1].0
        };
        let (t_same, t_diff) = (last(0), last(MemoryController::INTERLEAVE));
        assert!(
            t_same > t_diff,
            "bank conflict {t_same} must be slower than parallel banks {t_diff}"
        );
    }

    #[test]
    fn queue_full_backpressure() {
        let mut ctl = MemoryController::new(MemorySpec::of(MemoryTechnology::Sram), 1, 2);
        for id in 0..2 {
            ctl.submit(req(id, ReqKind::Read, 0, 8)).unwrap();
        }
        let err = ctl.submit(req(9, ReqKind::Read, 0, 8)).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { bank: 0 });
    }

    #[test]
    fn energy_accumulates_and_writes_cost_more() {
        let mut ctl = sram(1);
        ctl.submit(req(1, ReqKind::Read, 0, 64)).unwrap();
        run_until(&mut ctl, 1, 0, 100);
        let e_read = ctl.energy();
        ctl.submit(req(2, ReqKind::Write, 0, 64)).unwrap();
        run_until(&mut ctl, 1, 100, 200);
        assert!(ctl.energy().0 > 2.0 * e_read.0 - e_read.0 * 0.5);
    }

    #[test]
    fn bank_mapping_interleaves() {
        let ctl = sram(4);
        assert_eq!(ctl.bank_of(0), 0);
        assert_eq!(ctl.bank_of(64), 1);
        assert_eq!(ctl.bank_of(128), 2);
        assert_eq!(ctl.bank_of(256), 0);
    }

    /// Visits a two-bank eDRAM controller on cycles `0..upto` with a fixed
    /// submit pattern (bank conflicts, full queues, idle gaps), ticking on
    /// the cycles `tick_on` selects and taking at most one response per
    /// ticked cycle, so responses stay surfaced across cycles.
    fn visit(
        upto: u64,
        tick_on: impl Fn(&MemoryController, Cycles) -> bool,
    ) -> (Vec<(u64, u64)>, String) {
        let mut ctl = MemoryController::new(MemorySpec::of(MemoryTechnology::Edram), 2, 3);
        let (mut out, mut id) = (Vec::new(), 0);
        for c in 0..upto {
            for k in 0..[3, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0][(c % 13) as usize] {
                let kind = if id % 3 == 0 {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                };
                let addr = (id + k) % 3 * MemoryController::INTERLEAVE;
                let _ = ctl.submit(req(id, kind, addr, 8 + 24 * (id % 4)));
                id += 1;
            }
            if tick_on(&ctl, Cycles(c)) {
                ctl.tick(Cycles(c));
                out.extend(ctl.take_done().map(|r| (c, r)));
            }
        }
        let busy: Vec<u64> = ctl.banks.iter().map(|b| b.busy_until).collect();
        let state = format!("{busy:?} {} {:?}", ctl.served(), ctl.energy());
        (out, state)
    }

    #[test]
    fn ticking_only_at_answered_cycles_equals_ticking_every_cycle() {
        let every = visit(600, |_, _| true);
        let answered = visit(600, |ctl, c| ctl.next_event_cycle(c) == Some(c));
        assert_eq!(every, answered);
        assert!(every.0.len() > 20, "{} responses", every.0.len());
        // The answer is a bound, not "now": a queued request behind a busy
        // bank is due when the bank frees.
        let mut ctl = sram(1);
        for id in 0..2 {
            ctl.submit(req(id, ReqKind::Read, 0, 64)).unwrap();
        }
        assert_eq!(ctl.next_event_cycle(Cycles(0)), Some(Cycles(0)));
        ctl.tick(Cycles(0));
        assert_eq!(ctl.next_event_cycle(Cycles(1)), Some(Cycles(10)));
    }

    #[test]
    #[should_panic(expected = "need at least one bank")]
    fn zero_banks_panics() {
        let _ = MemoryController::new(MemorySpec::of(MemoryTechnology::Sram), 0, 1);
    }
}
