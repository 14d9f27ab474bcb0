//! Banked, cycle-stepped memory controller.
//!
//! The controller fronts one memory macro (of any [`MemoryTechnology`]) with
//! `n_banks` independently busy banks interleaved on the address. Requests
//! queue per bank; a bank serves one request at a time for the technology's
//! service time. Completions surface through [`MemoryController::take_response`]
//! so a platform component can forward them over the NoC.
//!
//! [`MemoryTechnology`]: crate::model::MemoryTechnology

use crate::model::MemorySpec;
use nw_sim::{Counter, EventQueue, Histogram};
use nw_types::{Cycles, Picojoules};
use std::collections::VecDeque;
use std::fmt;

/// Kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Read `bytes` bytes.
    Read,
    /// Write `bytes` bytes.
    Write,
}

/// A memory request submitted to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller correlation id (echoed in the response).
    pub id: u64,
    /// Access kind.
    pub kind: ReqKind,
    /// Byte address (used only for bank selection).
    pub addr: u64,
    /// Access size in bytes.
    pub bytes: u64,
}

/// A completed memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// Correlation id from the request.
    pub id: u64,
    /// Access kind.
    pub kind: ReqKind,
    /// Access size in bytes.
    pub bytes: u64,
    /// Cycle at which the access completed.
    pub completed_at: Cycles,
}

/// Why a request was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The target bank's queue is full; retry later (back-pressure).
    QueueFull {
        /// Bank whose queue was full.
        bank: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { bank } => write!(f, "memory bank {bank} queue full"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Debug, Clone)]
struct Bank {
    /// Waiting requests, each with its submit cycle (for the latency
    /// histogram).
    queue: VecDeque<(MemRequest, Cycles)>,
    busy_until: u64,
}

/// A banked memory controller for one memory macro.
///
/// # Examples
///
/// ```
/// use nw_mem::{MemoryController, MemorySpec, MemoryTechnology, MemRequest, ReqKind};
/// use nw_types::Cycles;
///
/// let spec = MemorySpec::of(MemoryTechnology::Sram);
/// let mut ctl = MemoryController::new(spec, 4, 8);
/// ctl.submit(MemRequest { id: 1, kind: ReqKind::Read, addr: 0x40, bytes: 16 }, Cycles(0))
///     .unwrap();
/// let mut now = Cycles(0);
/// let resp = loop {
///     ctl.tick(now);
///     if let Some(r) = ctl.take_response() { break r; }
///     now += Cycles(1);
///     assert!(now.0 < 100);
/// };
/// assert_eq!(resp.id, 1);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    spec: MemorySpec,
    banks: Vec<Bank>,
    queue_capacity: usize,
    interleave: u64,
    /// Accesses in flight, each with its submit cycle.
    completions: EventQueue<(MemResponse, Cycles)>,
    ready: VecDeque<MemResponse>,
    energy: Picojoules,
    served: Counter,
    latency: Histogram,
}

impl MemoryController {
    /// Cache-line-sized bank interleave in bytes.
    pub const INTERLEAVE: u64 = 64;

    /// Creates a controller with `n_banks` banks and per-bank queue depth
    /// `queue_capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `n_banks == 0` or `queue_capacity == 0`.
    pub fn new(spec: MemorySpec, n_banks: usize, queue_capacity: usize) -> Self {
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
            served: Counter::new(),
            latency: Histogram::new(),
        }
    }

    /// The memory technology parameters in use.
    pub fn spec(&self) -> &MemorySpec {
        &self.spec
    }

    /// Bank index serving an address.
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.interleave) % self.banks.len() as u64) as usize
    }

    /// Submits a request.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the target bank queue is at capacity.
    pub fn submit(&mut self, req: MemRequest, now: Cycles) -> Result<(), SubmitError> {
        let bank = self.bank_of(req.addr);
        if self.banks[bank].queue.len() >= self.queue_capacity {
            return Err(SubmitError::QueueFull { bank });
        }
        self.banks[bank].queue.push_back((req, now));
        Ok(())
    }

    /// Takes the next completed response, if any.
    pub fn take_response(&mut self) -> Option<MemResponse> {
        self.ready.pop_front()
    }

    /// Total energy consumed by served accesses.
    pub fn energy(&self) -> Picojoules {
        self.energy
    }

    /// Number of accesses served.
    pub fn served(&self) -> u64 {
        self.served.count()
    }

    /// Distribution of request latency (submit to completion).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Whether all queues are empty and no access is in flight.
    pub fn is_idle(&self) -> bool {
        self.completions.is_empty()
            && self.ready.is_empty()
            && self.banks.iter().all(|b| b.queue.is_empty())
    }

    /// The earliest cycle `>= now` at which ticking the controller or
    /// taking its responses can change anything, or `None` when it is fully
    /// drained. Exact: a surfaced response answers `now`, an access in
    /// flight its completion cycle, a queued request the cycle its bank
    /// frees — so a caller that ticks only at the answered cycles observes
    /// what a caller ticking every cycle does.
    pub fn next_event_cycle(&self, now: Cycles) -> Option<Cycles> {
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
    pub fn tick(&mut self, now: Cycles) {
        // Surface matured completions.
        while let Some((r, submitted)) = self.completions.pop_due(now) {
            self.latency.record(now.saturating_sub(submitted));
            self.served.incr();
            self.ready.push_back(r);
        }
        // Start new accesses on idle banks.
        for b in &mut self.banks {
            if b.busy_until <= now.0 {
                if let Some((req, submitted)) = b.queue.pop_front() {
                    let write = req.kind == ReqKind::Write;
                    let service = self.spec.service_time(write, req.bytes);
                    b.busy_until = now.0 + service.0;
                    self.energy += self.spec.access_energy(write, req.bytes);
                    self.completions.schedule(
                        Cycles(now.0 + service.0),
                        (
                            MemResponse {
                                id: req.id,
                                kind: req.kind,
                                bytes: req.bytes,
                                completed_at: Cycles(now.0 + service.0),
                            },
                            submitted,
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MemoryTechnology;

    fn sram(banks: usize) -> MemoryController {
        MemoryController::new(MemorySpec::of(MemoryTechnology::Sram), banks, 8)
    }

    fn run_until(ctl: &mut MemoryController, n: usize, limit: u64) -> Vec<MemResponse> {
        let mut out = Vec::new();
        let mut now = Cycles(0);
        while out.len() < n {
            ctl.tick(now);
            while let Some(r) = ctl.take_response() {
                out.push(r);
            }
            now += Cycles(1);
            assert!(now.0 < limit, "responses missing after {limit} cycles");
        }
        out
    }

    #[test]
    fn single_read_completes_with_correct_timing() {
        let mut ctl = sram(1);
        ctl.submit(
            MemRequest {
                id: 7,
                kind: ReqKind::Read,
                addr: 0,
                bytes: 64,
            },
            Cycles(0),
        )
        .unwrap();
        let rs = run_until(&mut ctl, 1, 100);
        assert_eq!(rs[0].id, 7);
        // SRAM 64B read = 2 + 8 = 10 cycles.
        assert_eq!(rs[0].completed_at, Cycles(10));
        assert!(ctl.is_idle());
        assert_eq!(ctl.served(), 1);
    }

    #[test]
    fn same_bank_serializes_different_banks_overlap() {
        // Two 64-byte reads to the same bank take ~2x one read.
        let mut same = sram(4);
        same.submit(
            MemRequest {
                id: 1,
                kind: ReqKind::Read,
                addr: 0,
                bytes: 64,
            },
            Cycles(0),
        )
        .unwrap();
        same.submit(
            MemRequest {
                id: 2,
                kind: ReqKind::Read,
                addr: 0,
                bytes: 64,
            },
            Cycles(0),
        )
        .unwrap();
        let t_same = run_until(&mut same, 2, 200).last().unwrap().completed_at;

        let mut diff = sram(4);
        diff.submit(
            MemRequest {
                id: 1,
                kind: ReqKind::Read,
                addr: 0,
                bytes: 64,
            },
            Cycles(0),
        )
        .unwrap();
        diff.submit(
            MemRequest {
                id: 2,
                kind: ReqKind::Read,
                addr: MemoryController::INTERLEAVE,
                bytes: 64,
            },
            Cycles(0),
        )
        .unwrap();
        let t_diff = run_until(&mut diff, 2, 200).last().unwrap().completed_at;
        assert!(
            t_same.0 > t_diff.0,
            "bank conflict {t_same} must be slower than parallel banks {t_diff}"
        );
    }

    #[test]
    fn queue_full_backpressure() {
        let mut ctl = MemoryController::new(MemorySpec::of(MemoryTechnology::Sram), 1, 2);
        for id in 0..2 {
            ctl.submit(
                MemRequest {
                    id,
                    kind: ReqKind::Read,
                    addr: 0,
                    bytes: 8,
                },
                Cycles(0),
            )
            .unwrap();
        }
        let err = ctl
            .submit(
                MemRequest {
                    id: 9,
                    kind: ReqKind::Read,
                    addr: 0,
                    bytes: 8,
                },
                Cycles(0),
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { bank: 0 });
    }

    #[test]
    fn energy_accumulates_and_writes_cost_more() {
        let mut ctl = sram(1);
        ctl.submit(
            MemRequest {
                id: 1,
                kind: ReqKind::Read,
                addr: 0,
                bytes: 64,
            },
            Cycles(0),
        )
        .unwrap();
        run_until(&mut ctl, 1, 100);
        let e_read = ctl.energy();
        ctl.submit(
            MemRequest {
                id: 2,
                kind: ReqKind::Write,
                addr: 0,
                bytes: 64,
            },
            Cycles(0),
        )
        .unwrap();
        let mut now = Cycles(100);
        while ctl.take_response().is_none() {
            ctl.tick(now);
            now += Cycles(1);
        }
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

    #[test]
    fn latency_histogram_records() {
        let mut ctl = sram(2);
        for id in 0..4 {
            ctl.submit(
                MemRequest {
                    id,
                    kind: ReqKind::Read,
                    addr: id * 64,
                    bytes: 32,
                },
                Cycles(0),
            )
            .unwrap();
        }
        run_until(&mut ctl, 4, 500);
        assert_eq!(ctl.latency().count(), 4);
        assert!(ctl.latency().mean() > 0.0);
    }

    /// Visits a two-bank eDRAM controller on cycles `0..upto` with a fixed
    /// submit pattern (bank conflicts, full queues, idle gaps), ticking on
    /// the cycles `tick_on` selects and taking at most one response per
    /// ticked cycle, so responses stay surfaced across cycles.
    fn visit(
        upto: u64,
        tick_on: impl Fn(&MemoryController, Cycles) -> bool,
    ) -> (Vec<(u64, MemResponse)>, String) {
        let mut ctl = MemoryController::new(MemorySpec::of(MemoryTechnology::Edram), 2, 3);
        let (mut out, mut id) = (Vec::new(), 0);
        for c in 0..upto {
            for k in 0..[3, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0][(c % 13) as usize] {
                let req = MemRequest {
                    id,
                    kind: if id % 3 == 0 {
                        ReqKind::Write
                    } else {
                        ReqKind::Read
                    },
                    addr: (id + k) % 3 * MemoryController::INTERLEAVE,
                    bytes: 8 + 24 * (id % 4),
                };
                let _ = ctl.submit(req, Cycles(c));
                id += 1;
            }
            if tick_on(&ctl, Cycles(c)) {
                ctl.tick(Cycles(c));
                out.extend(ctl.take_response().map(|r| (c, r)));
            }
        }
        let busy: Vec<u64> = ctl.banks.iter().map(|b| b.busy_until).collect();
        let state = format!(
            "{busy:?} {} {:?} {:?}",
            ctl.served(),
            ctl.energy(),
            ctl.latency()
        );
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
            let req = MemRequest {
                id,
                kind: ReqKind::Read,
                addr: 0,
                bytes: 64,
            };
            ctl.submit(req, Cycles(0)).unwrap();
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
