//! The hardware-multithreaded processing element.

use crate::class::PeClass;
use crate::program::{Op, Program};
use nw_sim::Utilization;
use nw_types::{Cycles, MemorySpec, MemoryTechnology, NodeId, Payload, Picojoules, ThreadId};
use std::collections::VecDeque;
use std::fmt;

/// Hardware thread scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Run the current thread until it stalls, then swap to the next ready
    /// context, paying the swap penalty (the paper's §6.2 machine with a
    /// one-cycle swap).
    #[default]
    SwitchOnStall,
    /// Barrel processor: rotate among ready contexts every cycle with no
    /// swap penalty (F6 ablation).
    RoundRobin,
}

/// Every PE's local scratchpad, which services `Op::LocalMem`.
const SCRATCHPAD: MemorySpec = MemorySpec::of(MemoryTechnology::Sram);

/// Configuration of one processing element. Its local scratchpad is SRAM.
#[derive(Debug, Clone)]
pub struct PeConfig {
    /// Processor class (Figure 1 continuum point).
    pub class: PeClass,
    /// Number of hardware thread contexts (register banks).
    pub n_threads: usize,
    /// Context-switch penalty in cycles (the paper's HW-MT machines swap in
    /// one cycle; 0 models an ideal machine).
    pub swap_penalty: u64,
    /// Scheduling policy.
    pub policy: SchedPolicy,
}

impl PeConfig {
    /// A PE of `class` with `n_threads` contexts, one-cycle swap and
    /// switch-on-stall scheduling.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads` is zero or more than 64.
    pub fn new(class: PeClass, n_threads: usize) -> Self {
        assert_context_count(n_threads);
        PeConfig {
            class,
            n_threads,
            swap_penalty: 1,
            policy: SchedPolicy::SwitchOnStall,
        }
    }

    /// Sets the swap penalty.
    pub fn with_swap_penalty(mut self, cycles: u64) -> Self {
        self.swap_penalty = cycles;
        self
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// The context sets of a [`Pe`] are one `u64` each.
fn assert_context_count(n_threads: usize) {
    assert!(
        (1..=u64::BITS as usize).contains(&n_threads),
        "a PE has 1 to 64 thread contexts, not {n_threads}"
    );
}

/// A request the PE raises to its owner for servicing over the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeRequest {
    /// Asynchronous message: complete the thread once the NI accepts it.
    Send {
        /// Destination endpoint.
        dst: NodeId,
        /// Wire payload size.
        bytes: u64,
        /// Marshalled payload.
        data: Payload,
        /// Opaque NoC tag passed through from the op.
        tag: u64,
    },
    /// Synchronous round trip: complete the thread when the response
    /// arrives.
    Call {
        /// Destination endpoint.
        dst: NodeId,
        /// Request payload size.
        bytes: u64,
        /// Expected response size.
        reply_bytes: u64,
        /// Marshalled payload.
        data: Payload,
    },
}

/// Error from [`Pe::spawn`] when no context is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpawnError;

impl fmt::Display for SpawnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no idle hardware thread context")
    }
}

impl std::error::Error for SpawnError {}

#[derive(Debug, Clone, Copy)]
enum ThreadState {
    /// No task assigned.
    Idle,
    /// Has a task and can execute.
    Ready,
    /// Mid compute burst.
    Computing { remaining: u64 },
    /// Stalled on the local scratchpad until the given cycle.
    ScratchpadStall { until: u64 },
    /// Stalled on a platform-serviced request (NoC send/call).
    AwaitingCompletion,
}

impl ThreadState {
    /// `bit` in whichever of a PE's `[ready, stalled, idle]` context sets a
    /// context in this state belongs to.
    fn sets(self, bit: u64) -> [u64; 3] {
        match self {
            ThreadState::Ready | ThreadState::Computing { .. } => [bit, 0, 0],
            ThreadState::ScratchpadStall { .. } => [0, bit, 0],
            ThreadState::Idle => [0, 0, bit],
            ThreadState::AwaitingCompletion => [0; 3],
        }
    }
}

#[derive(Debug, Clone)]
struct Thread {
    state: ThreadState,
    program: Option<Program>,
    pc: usize,
    /// Cycles spent holding a task, over the intervals already closed: a
    /// context notes `since = accounted_to` when it leaves `Idle` and adds
    /// `accounted_to − since` here when it returns. [`Pe::stats`] adds the
    /// open interval of a context still holding one.
    occupied: u64,
    since: u64,
}

/// Aggregate statistics of one PE.
#[derive(Debug, Clone)]
pub struct PeStats {
    /// Fraction of cycles the core issued (any context).
    pub core_utilization: f64,
    /// Per-thread fraction of cycles holding a task.
    pub thread_occupancy: Vec<f64>,
    /// Tasks run to completion.
    pub tasks_completed: u64,
    /// Total dynamic energy.
    pub energy: Picojoules,
    /// Context switches performed.
    pub swaps: u64,
}

/// A hardware-multithreaded processing element.
///
/// See the [crate-level documentation](crate) for the execution model and
/// an end-to-end example.
#[derive(Debug, Clone)]
pub struct Pe {
    cfg: PeConfig,
    threads: Vec<Thread>,
    current: usize,
    swap_remaining: u64,
    swaps: u64,
    requests: VecDeque<(ThreadId, PeRequest)>,
    core: Utilization,
    tasks_completed: u64,
    /// Scratchpad access energy. Core issue energy is not accumulated
    /// per cycle: it is exactly `energy_per_cycle × busy issue slots`, so
    /// [`Pe::stats`] derives it from the core utilization counter — one
    /// multiply instead of a float addition per cycle, and bulk catch-up
    /// ([`Pe::settle_accounting`]) stays bit-identical to per-cycle
    /// ticking.
    mem_energy: Picojoules,
    /// Cycle up to which (exclusive) the PE's evolution has been applied.
    /// A self-timed scheduler leaves the PE unticked over any span
    /// [`Pe::quiet_span`] promised; the skipped cycles are caught up in
    /// bulk — with identical counter arithmetic — on the next tick or via
    /// [`Pe::settle_accounting`].
    accounted_to: u64,
    /// Context sets, bit `i` for thread `i`, kept in step with the states
    /// by `set_state` so that no tick, span probe or spawn walks the
    /// threads: `Ready` or `Computing`; `ScratchpadStall`; `Idle`. A context
    /// in none of them awaits a platform completion.
    ready: u64,
    stalled: u64,
    idle: u64,
    /// Cleared op buffers of retired programs, at most `n_threads`, handed
    /// out by [`Pe::take_spare_ops`] so the next handler program is built
    /// in a retired one's allocation.
    spare_ops: Vec<Vec<Op>>,
    /// Crashed by fault injection: every context is dead and refuses new
    /// tasks until [`Pe::restart`]. A crashed PE ticks as a pure
    /// accounting no-op (all threads idle), so schedulers need no special
    /// case.
    crashed: bool,
}

impl Pe {
    /// Builds a PE from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_threads` is zero or more than 64.
    pub fn new(cfg: PeConfig) -> Self {
        assert_context_count(cfg.n_threads);
        let idle = u64::MAX >> (u64::BITS as usize - cfg.n_threads);
        let spare_ops = Vec::with_capacity(cfg.n_threads);
        let threads = (0..cfg.n_threads)
            .map(|_| Thread {
                state: ThreadState::Idle,
                program: None,
                pc: 0,
                occupied: 0,
                since: 0,
            })
            .collect();
        Pe {
            cfg,
            threads,
            current: 0,
            swap_remaining: 0,
            swaps: 0,
            requests: VecDeque::new(),
            core: Utilization::new(),
            tasks_completed: 0,
            mem_energy: Picojoules::ZERO,
            accounted_to: 0,
            ready: 0,
            stalled: 0,
            idle,
            spare_ops,
            crashed: false,
        }
    }

    /// An empty op buffer for the next program spawned here: the cleared
    /// buffer of a program this PE retired, capacity kept, or a new empty
    /// `Vec` (no allocation) when there is none. The DSOC runtime builds
    /// every handler program in one, so in steady state an invocation
    /// allocates no op storage: the buffer travels runtime → [`Pe::spawn`]
    /// → thread → retirement → this list → runtime.
    #[inline]
    pub fn take_spare_ops(&mut self) -> Vec<Op> {
        self.spare_ops.pop().unwrap_or_default()
    }

    /// Keeps `ops` cleared for [`Pe::take_spare_ops`], unless `n_threads`
    /// buffers are already spare (more can never be live at once).
    fn keep_spare(&mut self, mut ops: Vec<Op>) {
        if self.spare_ops.len() < self.cfg.n_threads {
            ops.clear();
            self.spare_ops.push(ops);
        }
    }

    /// The configuration this PE was built with.
    pub fn config(&self) -> &PeConfig {
        &self.cfg
    }

    /// Number of hardware thread contexts.
    pub fn n_threads(&self) -> usize {
        self.cfg.n_threads
    }

    /// Whether thread `tid` currently has no task.
    pub fn thread_is_idle(&self, tid: ThreadId) -> bool {
        matches!(self.threads[tid.0].state, ThreadState::Idle)
    }

    /// Number of idle contexts ready to accept a task (0 while crashed).
    #[inline]
    pub fn idle_threads(&self) -> usize {
        self.audit_sets();
        if self.crashed {
            0
        } else {
            self.idle.count_ones() as usize
        }
    }

    /// Debug builds: each set holds exactly the contexts whose state says so.
    fn audit_sets(&self) {
        if cfg!(debug_assertions) {
            let mut sets = [0u64; 3];
            for (i, t) in self.threads.iter().enumerate() {
                let of = t.state.sets(1 << i);
                sets = [sets[0] | of[0], sets[1] | of[1], sets[2] | of[2]];
            }
            assert_eq!(
                [self.ready, self.stalled, self.idle],
                sets,
                "context sets out of step with the thread states"
            );
        }
    }

    /// The only place a context changes state: moves it between the sets
    /// and opens or closes its occupancy interval at `accounted_to`.
    fn set_state(&mut self, i: usize, state: ThreadState) {
        let t = &mut self.threads[i];
        match (
            matches!(t.state, ThreadState::Idle),
            matches!(state, ThreadState::Idle),
        ) {
            (true, false) => t.since = self.accounted_to,
            (false, true) => t.occupied += self.accounted_to - t.since,
            _ => {}
        }
        t.state = state;
        let bit = 1u64 << i;
        let [ready, stalled, idle] = state.sets(bit);
        self.ready = self.ready & !bit | ready;
        self.stalled = self.stalled & !bit | stalled;
        self.idle = self.idle & !bit | idle;
    }

    /// Assigns a task to the lowest-numbered idle context.
    ///
    /// # Errors
    ///
    /// Returns [`SpawnError`] when every context is occupied — the caller
    /// (the DSOC dispatcher) should queue the invocation and retry.
    #[inline]
    pub fn spawn(&mut self, program: Program) -> Result<ThreadId, SpawnError> {
        if self.crashed || self.idle == 0 {
            return Err(SpawnError);
        }
        let slot = self.idle.trailing_zeros() as usize;
        if program.is_empty() {
            // Degenerate empty task: completes immediately.
            self.tasks_completed += 1;
            self.keep_spare(program.into_ops());
            return Ok(ThreadId(slot));
        }
        let t = &mut self.threads[slot];
        t.program = Some(program);
        t.pc = 0;
        self.set_state(slot, ThreadState::Ready);
        Ok(ThreadId(slot))
    }

    /// Unblocks a thread stalled on a platform request (NI accepted the
    /// send, or the call's response arrived).
    ///
    /// # Panics
    ///
    /// Panics if the thread was not awaiting completion — that indicates a
    /// platform-glue protocol bug worth failing loudly on.
    #[inline]
    pub fn complete(&mut self, tid: ThreadId) {
        assert!(
            self.is_awaiting(tid),
            "complete() on {tid} which is not awaiting completion"
        );
        self.set_state(tid.0, ThreadState::Ready);
    }

    /// Whether thread `tid` is stalled awaiting a platform completion.
    /// The resilience layer's guard before [`Pe::complete`]: a reply for a
    /// thread that crashed (or already gave up) must be discarded, not
    /// delivered.
    #[inline]
    pub fn is_awaiting(&self, tid: ThreadId) -> bool {
        matches!(self.threads[tid.0].state, ThreadState::AwaitingCompletion)
    }

    /// Whether this PE is crashed (fault injection).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Crash this PE at `now`: every context dies mid-task, its program
    /// and pending platform requests are discarded, and the PE refuses new
    /// work until [`Pe::restart`].
    ///
    /// Killed tasks count as neither completed nor retired.
    pub fn crash(&mut self, now: Cycles) {
        self.settle_accounting(now);
        self.crashed = true;
        self.swap_remaining = 0;
        self.current = 0;
        self.requests.clear();
        for i in 0..self.threads.len() {
            self.set_state(i, ThreadState::Idle);
            let t = &mut self.threads[i];
            t.pc = 0;
            t.program = None;
        }
    }

    /// Restart a crashed PE at `now` with cold, idle contexts. No-op when
    /// not crashed.
    pub fn restart(&mut self, now: Cycles) {
        if self.crashed {
            self.settle_accounting(now);
            self.crashed = false;
        }
    }

    /// Takes the oldest undrained platform request, if any. The owner
    /// drains with `while let Some(..) = pe.pop_request()` after a tick.
    #[inline]
    pub fn pop_request(&mut self) -> Option<(ThreadId, PeRequest)> {
        self.requests.pop_front()
    }

    /// Whether this PE will make progress without outside help: a context
    /// switch is in flight, or some thread is `Ready`, mid compute burst,
    /// or sleeping on a self-timed scratchpad stall.
    ///
    /// A PE that is **not** live (every thread `Idle` or awaiting a platform
    /// completion) is dormant: [`Pe::quiet_span`] answers `u64::MAX` and
    /// only an external event (spawn, completion, restart) wakes it. This
    /// is an inspection predicate; schedulers decide when to tick from
    /// [`Pe::quiet_span`], which also lets a live PE sleep through a
    /// compute burst or a whole-PE stall.
    pub fn is_live(&self) -> bool {
        self.swap_remaining > 0 || self.ready | self.stalled != 0
    }

    /// The single lazy catch-up: applies every cycle before `now` that the
    /// PE was left unticked, assuming the span was one [`Pe::quiet_span`]
    /// promised. The arithmetic follows the state that held during the
    /// span, and comes out bit-identical to per-cycle ticking:
    ///
    /// * current switch-on-stall context `Computing` — a **compute burst**:
    ///   the burst counter drops by the span and the core counts busy
    ///   issue slots;
    /// * otherwise — a **stall** (whole-PE stall, dormant or crashed): no
    ///   issue slot fires, so the core counts idle slots.
    ///
    /// Occupancy needs no catching up: a context holding a task has an open
    /// interval that grows with `accounted_to`. Whether the current context
    /// is `Computing` changes only inside `tick` and [`Pe::crash`], which
    /// both settle first, so the state found here is the state that held
    /// over the whole span.
    ///
    /// Callers must settle **before** mutating thread state at `now` (e.g.
    /// before `spawn`): an interval opens at `accounted_to`, so a context
    /// spawned into an unsettled gap is charged the whole gap. Settling is
    /// idempotent.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the span outruns the compute burst — the caller
    /// slept past the wake cycle `quiet_span` gave.
    #[inline]
    pub fn settle_accounting(&mut self, now: Cycles) {
        if now.0 > self.accounted_to {
            self.advance_quiet(now.0 - self.accounted_to);
        }
    }

    /// Tasks run to completion so far.
    pub fn tasks_completed(&self) -> u64 {
        self.tasks_completed
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> PeStats {
        let issue_energy = self.cfg.class.energy_per_cycle().0 * self.core.busy_cycles() as f64;
        // Every context has observed the cycles the core has.
        let total = self.core.total_cycles();
        let occupancy = |t: &Thread| {
            let open = match t.state {
                ThreadState::Idle => 0,
                _ => self.accounted_to - t.since,
            };
            if total == 0 {
                0.0
            } else {
                (t.occupied + open) as f64 / total as f64
            }
        };
        PeStats {
            core_utilization: self.core.fraction(),
            thread_occupancy: self.threads.iter().map(occupancy).collect(),
            tasks_completed: self.tasks_completed,
            energy: Picojoules(self.mem_energy.0 + issue_energy),
            swaps: self.swaps,
        }
    }

    /// The number of cycles from `now` over which this PE's evolution is
    /// provably bulk-computable — it may be left unticked until
    /// `now + span` and caught up by [`Pe::settle_accounting`] — or `None`
    /// when the tick at `now` may do arbitrary work and must run. Three
    /// skippable shapes:
    ///
    /// * **Compute burst** (switch-on-stall): the issuing context is mid
    ///   [`Op::Compute`] with that many decrements left before anything
    ///   state-changing — retirement, a new op, a swap — can happen.
    ///   Nothing preempts a runnable current context, so other threads
    ///   maturing from scratchpad stalls or completions arriving do not
    ///   alter the span's accounting.
    /// * **Whole-PE stall**: every context is idle, awaiting a platform
    ///   completion, or sleeping on a scratchpad stall — no issue slot
    ///   fires until the earliest stall matures, which bounds the span.
    /// * **Dormant**: every context is idle or awaiting a completion (or
    ///   the PE is crashed) — the span is `u64::MAX`: nothing wakes the PE
    ///   but an external event.
    ///
    /// An external event (spawn, completion, crash, restart) ends the
    /// promise: the owner must tick the PE at the event's cycle. The
    /// platform's active-set scheduler posts `now + span` into its per-PE
    /// wake table after every tick.
    #[inline]
    pub fn quiet_span(&self, now: Cycles) -> Option<u64> {
        if self.swap_remaining > 0 || !self.requests.is_empty() {
            return None;
        }
        if self.cfg.policy == SchedPolicy::SwitchOnStall {
            if let ThreadState::Computing { remaining } = self.threads[self.current].state {
                return (remaining >= 2).then_some(remaining - 1);
            }
        }
        // Whole-PE stall: no context may be runnable now or become runnable
        // inside the span (a matured stall swaps in on the next tick).
        if self.ready != 0 {
            return None;
        }
        match self.stalls().map(|(_, until)| until).min() {
            // No stall to mature: dormant, unbounded.
            None => Some(u64::MAX),
            Some(earliest) => (earliest > now.0).then(|| earliest - now.0),
        }
    }

    /// The cycle this PE must next be ticked, given that it is not ticked
    /// before `at`: `at` itself unless [`Pe::quiet_span`] promises a span
    /// from there (`u64::MAX`: dormant). The state must be caught up to
    /// `at` ([`Pe::settle_accounting`]) when a compute burst may be running.
    #[inline]
    pub fn wake_cycle(&self, at: Cycles) -> u64 {
        at.0.saturating_add(self.quiet_span(at).unwrap_or(0))
    }

    /// Bulk-applies `k > 0` unticked cycles — the body of
    /// [`Pe::settle_accounting`], which documents the arithmetic.
    fn advance_quiet(&mut self, k: u64) {
        match (self.cfg.policy, &mut self.threads[self.current].state) {
            (SchedPolicy::SwitchOnStall, ThreadState::Computing { remaining }) => {
                debug_assert!(*remaining > k, "slept past the compute burst");
                *remaining -= k;
                self.core.busy_n(k);
            }
            // Stall: no issue slot fires during the span.
            _ => self.core.idle_n(k),
        }
        self.accounted_to += k;
    }

    /// The stalled contexts and the cycle each matures.
    fn stalls(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let mut left = self.stalled;
        std::iter::from_fn(move || {
            let i = left.checked_ilog2()? as usize;
            left &= !(1 << i);
            match self.threads[i].state {
                ThreadState::ScratchpadStall { until } => Some((i, until)),
                _ => unreachable!("context {i} is in the stalled set"),
            }
        })
    }

    fn thread_is_runnable(&self, i: usize, now: Cycles) -> bool {
        match self.threads[i].state {
            ThreadState::Ready | ThreadState::Computing { .. } => true,
            ThreadState::ScratchpadStall { until } => until <= now.0,
            _ => false,
        }
    }

    /// Picks the next runnable context after `from` in round-robin order,
    /// `from` itself being the last candidate.
    fn next_runnable(&self, from: usize, now: Cycles) -> Option<usize> {
        let matured = self.stalls().filter(|&(_, until)| until <= now.0);
        pick_after(matured.fold(self.ready, |set, (i, _)| set | 1 << i), from)
    }

    /// Executes one issue slot of thread `i`. Returns true if work was done.
    fn run_thread(&mut self, i: usize, now: Cycles) -> bool {
        // Resolve a matured scratchpad stall into Ready.
        if let ThreadState::ScratchpadStall { until } = self.threads[i].state {
            if until <= now.0 {
                self.set_state(i, ThreadState::Ready);
            } else {
                return false;
            }
        }
        match &mut self.threads[i].state {
            ThreadState::Computing { remaining } => {
                if *remaining <= 1 {
                    self.set_state(i, ThreadState::Ready);
                    self.advance_pc(i);
                } else {
                    *remaining -= 1;
                }
                true
            }
            ThreadState::Ready => self.issue(i, now),
            _ => false,
        }
    }

    /// Issues the op at the thread's pc. Returns true if a cycle of work was
    /// consumed.
    fn issue(&mut self, i: usize, now: Cycles) -> bool {
        let (op, domain) = {
            let t = &self.threads[i];
            let prog = t.program.as_ref().expect("ready thread has a program");
            match prog.ops().get(t.pc) {
                Some(&op) => (op, prog.domain()),
                None => {
                    // Program exhausted: retire the task.
                    self.retire(i);
                    return true;
                }
            }
        };
        match op {
            Op::Compute(n) => {
                let speedup = self.cfg.class.speedup(domain);
                let eff = ceil_cycles(n as f64 / speedup).max(1);
                if eff == 1 {
                    self.advance_pc(i);
                } else {
                    self.set_state(i, ThreadState::Computing { remaining: eff - 1 });
                }
            }
            Op::LocalMem { write, bytes } => {
                let service = SCRATCHPAD.service_time(write, bytes);
                self.mem_energy += SCRATCHPAD.access_energy(write, bytes);
                let until = now.0 + service.0;
                self.set_state(i, ThreadState::ScratchpadStall { until });
                self.advance_pc(i);
            }
            Op::Send {
                dst,
                bytes,
                data,
                tag,
            } => {
                self.requests.push_back((
                    ThreadId(i),
                    PeRequest::Send {
                        dst,
                        bytes,
                        data,
                        tag,
                    },
                ));
                self.set_state(i, ThreadState::AwaitingCompletion);
                self.advance_pc(i);
            }
            Op::Call {
                dst,
                bytes,
                reply_bytes,
                data,
            } => {
                self.requests.push_back((
                    ThreadId(i),
                    PeRequest::Call {
                        dst,
                        bytes,
                        reply_bytes,
                        data,
                    },
                ));
                self.set_state(i, ThreadState::AwaitingCompletion);
                self.advance_pc(i);
            }
        }
        true
    }

    fn advance_pc(&mut self, i: usize) {
        self.threads[i].pc += 1;
        let done = {
            let t = &self.threads[i];
            t.program.as_ref().is_none_or(|p| t.pc >= p.len())
                && matches!(t.state, ThreadState::Ready)
        };
        if done {
            self.retire(i);
        }
    }

    /// Retires thread `i`'s task: the context goes idle and the program's
    /// op buffer is kept cleared for [`Pe::take_spare_ops`]. ([`Pe::crash`]
    /// does not come here: it drops the buffers.)
    fn retire(&mut self, i: usize) {
        self.set_state(i, ThreadState::Idle);
        if let Some(prog) = self.threads[i].program.take() {
            self.keep_spare(prog.into_ops());
        }
        self.threads[i].pc = 0;
        self.tasks_completed += 1;
    }
}

/// `q.ceil() as u64` for a finite `q ≥ 0` — saturating at `u64::MAX` like
/// the cast — without a libm call: baseline x86-64 has no inline rounding
/// instruction, and every compute op issued rounds its scaled length.
#[inline]
fn ceil_cycles(q: f64) -> u64 {
    let t = q as u64;
    let up = if (t as f64) < q {
        t.saturating_add(1)
    } else {
        t
    };
    debug_assert_eq!(up, q.ceil() as u64, "cast ceil of {q}");
    up
}

/// The lowest context of `set` above `from`, else the lowest of all: the
/// rotation that starts after `from` and ends on it.
fn pick_after(set: u64, from: usize) -> Option<usize> {
    // `2 << 63` is 0, so context 63 has nothing above it.
    let above = set & !(2u64 << from).wrapping_sub(1);
    let pick = if above != 0 { above } else { set };
    (pick != 0).then(|| pick.trailing_zeros() as usize)
}

impl Pe {
    /// Advances the PE by one clock cycle: catches up the cycles it slept
    /// through, then finishes a context swap, issues one op from the
    /// running context or switches to the next ready one. Returns the
    /// thread whose task retired this cycle: one issue slot retires at
    /// most one task.
    pub fn tick(&mut self, now: Cycles) -> Option<ThreadId> {
        // Catch up any cycles a self-timed scheduler slept through, then
        // mark this cycle accounted (the body below accounts inline).
        self.settle_accounting(now);
        self.accounted_to = now.0 + 1;
        self.audit_sets();

        // Mid context switch: the core is stalled.
        if self.swap_remaining > 0 {
            self.swap_remaining -= 1;
            self.core.idle();
            return None;
        }

        // Choose which context issues this cycle.
        let issuing = match self.cfg.policy {
            SchedPolicy::SwitchOnStall if self.thread_is_runnable(self.current, now) => {
                Some(self.current)
            }
            SchedPolicy::SwitchOnStall => {
                let next = self.next_runnable(self.current, now);
                if let Some(next) = next {
                    self.swaps += 1;
                    self.current = next;
                    if self.cfg.swap_penalty > 0 {
                        // The swap consumes this cycle (and possibly more).
                        self.swap_remaining = self.cfg.swap_penalty - 1;
                        self.core.idle();
                        return None;
                    }
                }
                next
            }
            // Rotate every cycle among runnable contexts.
            SchedPolicy::RoundRobin => {
                let next = self.next_runnable(self.current, now);
                self.current = next.unwrap_or(self.current);
                next
            }
        };

        // Issue energy is derived from the busy counter in `stats()`.
        let completed = self.tasks_completed;
        if issuing.is_some_and(|i| self.run_thread(i, now)) {
            self.core.busy();
        } else {
            self.core.idle();
        }
        issuing
            .filter(|_| self.tasks_completed > completed)
            .map(ThreadId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::KernelDomain;

    fn run(pe: &mut Pe, cycles: u64) {
        for c in 0..cycles {
            pe.tick(Cycles(c));
        }
    }

    #[test]
    fn masked_pick_is_the_modulo_scan() {
        let scan = |set: u64, n: usize, from: usize| {
            (1..=n).map(|k| (from + k) % n).find(|&i| set >> i & 1 == 1)
        };
        for n in 1..=6 {
            for from in 0..n {
                for set in 0..1u64 << n {
                    assert_eq!(
                        pick_after(set, from),
                        scan(set, n, from),
                        "{n} {from} {set:b}"
                    );
                }
            }
        }
        // Nothing lies above context 63, and `1 << 64` would overflow.
        for set in [0, 1, 1 << 5 | 1 << 63, 1 << 62, 1 << 63, u64::MAX] {
            for from in [0, 62, 63] {
                assert_eq!(pick_after(set, from), scan(set, 64, from), "{from} {set:b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "1 to 64 thread contexts, not 0")]
    fn a_pe_without_contexts_cannot_be_built() {
        let mut cfg = PeConfig::new(PeClass::GpRisc, 1);
        cfg.n_threads = 0;
        Pe::new(cfg);
    }

    #[test]
    fn compute_task_takes_expected_cycles() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        pe.spawn(Program::straight_line([Op::Compute(10)])).unwrap();
        run(&mut pe, 10);
        // 10 compute cycles; retirement happens on the next issue slot.
        assert!(pe.tasks_completed() <= 1);
        run(&mut pe, 2);
        assert_eq!(pe.tasks_completed(), 1);
        assert!(pe.idle_threads() == 1);
    }

    #[test]
    fn asip_speedup_shortens_matched_kernels() {
        let domain = KernelDomain::PacketHeader;
        let time_to_finish = |class: PeClass| {
            let mut pe = Pe::new(PeConfig::new(class, 1));
            pe.spawn(Program::new([Op::Compute(80)], domain)).unwrap();
            let mut c = 0u64;
            while pe.tasks_completed() == 0 {
                pe.tick(Cycles(c));
                c += 1;
                assert!(c < 1000);
            }
            c
        };
        let risc = time_to_finish(PeClass::GpRisc);
        let asip = time_to_finish(PeClass::Asip { domain });
        assert!(asip * 4 < risc, "asip {asip} vs risc {risc}");
    }

    #[test]
    fn call_blocks_until_completed() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        let tid = pe
            .spawn(Program::straight_line([
                Op::call(NodeId(5), 8, 8),
                Op::Compute(1),
            ]))
            .unwrap();
        run(&mut pe, 5);
        let (_, req) = pe.pop_request().expect("the call raised a request");
        assert!(matches!(req, PeRequest::Call { dst: NodeId(5), .. }));
        assert!(pe.requests.is_empty());
        // Blocked: no progress however long we wait.
        run(&mut pe, 50);
        assert_eq!(pe.tasks_completed(), 0);
        pe.complete(tid);
        run(&mut pe, 55);
        assert_eq!(pe.tasks_completed(), 1);
    }

    #[test]
    fn multithreading_hides_call_latency() {
        // One thread stalls on a call; the second thread keeps the core busy.
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 2).with_swap_penalty(1));
        pe.spawn(Program::straight_line([Op::call(NodeId(1), 8, 8)]))
            .unwrap();
        pe.spawn(Program::straight_line([Op::Compute(100)]))
            .unwrap();
        run(&mut pe, 50);
        let s = pe.stats();
        assert!(
            s.core_utilization > 0.9,
            "core should stay busy: {}",
            s.core_utilization
        );
        assert!(s.swaps >= 1);
    }

    #[test]
    fn single_thread_starves_on_call() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        pe.spawn(Program::straight_line([Op::call(NodeId(1), 8, 8)]))
            .unwrap();
        run(&mut pe, 100);
        let s = pe.stats();
        assert!(
            s.core_utilization < 0.1,
            "blocked single-thread core must idle: {}",
            s.core_utilization
        );
    }

    #[test]
    fn spawn_fails_when_full_and_recovers() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 2));
        pe.spawn(Program::straight_line([Op::Compute(5)])).unwrap();
        pe.spawn(Program::straight_line([Op::Compute(5)])).unwrap();
        assert_eq!(
            pe.spawn(Program::straight_line([Op::Compute(5)])),
            Err(SpawnError)
        );
        run(&mut pe, 30);
        assert!(pe.idle_threads() > 0);
        assert!(pe.spawn(Program::straight_line([Op::Compute(5)])).is_ok());
    }

    #[test]
    fn scratchpad_stall_is_self_timed() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        pe.spawn(Program::straight_line([
            Op::LocalMem {
                write: false,
                bytes: 64,
            },
            Op::Compute(1),
        ]))
        .unwrap();
        // SRAM 64B read = 10 cycles stall + issue cycles; finishes unaided.
        run(&mut pe, 20);
        assert_eq!(pe.tasks_completed(), 1);
        assert!(pe.stats().energy.0 > 0.0);
    }

    #[test]
    fn send_blocks_until_ni_accept() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        let tid = pe
            .spawn(Program::straight_line([Op::Send {
                dst: NodeId(2),
                bytes: 40,
                data: Payload::EMPTY,
                tag: 0,
            }]))
            .unwrap();
        run(&mut pe, 3);
        let (_, req) = pe.pop_request().expect("the send raised a request");
        assert!(matches!(req, PeRequest::Send { bytes: 40, .. }));
        pe.complete(tid);
        run(&mut pe, 6);
        assert_eq!(pe.tasks_completed(), 1);
    }

    #[test]
    fn round_robin_policy_interleaves_without_swap_cost() {
        let mut pe =
            Pe::new(PeConfig::new(PeClass::GpRisc, 4).with_policy(SchedPolicy::RoundRobin));
        for _ in 0..4 {
            pe.spawn(Program::straight_line([Op::Compute(25)])).unwrap();
        }
        run(&mut pe, 110);
        let s = pe.stats();
        assert_eq!(s.tasks_completed, 4);
        assert_eq!(s.swaps, 0);
        assert!(s.core_utilization > 0.9);
    }

    #[test]
    fn empty_program_completes_immediately() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        pe.spawn(Program::straight_line([])).unwrap();
        assert_eq!(pe.tasks_completed(), 1);
        assert_eq!(pe.idle_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "not awaiting completion")]
    fn completing_a_non_waiting_thread_panics() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        pe.complete(ThreadId(0));
    }

    #[test]
    fn skipped_dormant_cycles_settle_identically() {
        // Two identical PEs, one ticked every cycle through a dormant span,
        // one skipped and bulk-settled: every statistic must come out equal.
        let mk = || Pe::new(PeConfig::new(PeClass::GpRisc, 2));
        let mut dense = mk();
        let mut lazy = mk();
        let task = Program::straight_line([Op::Compute(3), Op::call(NodeId(1), 8, 8)]);
        let td = dense.spawn(task.clone()).unwrap();
        let tl = lazy.spawn(task).unwrap();
        for c in 0..6 {
            dense.tick(Cycles(c));
            lazy.tick(Cycles(c));
        }
        assert!(dense.pop_request().is_some() && dense.requests.is_empty());
        assert!(lazy.pop_request().is_some() && lazy.requests.is_empty());
        assert!(!lazy.is_live(), "blocked on the call: dormant");
        // Dormant span: dense ticks 100 cycles, lazy skips them entirely.
        for c in 6..106 {
            dense.tick(Cycles(c));
        }
        lazy.settle_accounting(Cycles(106));
        dense.complete(td);
        lazy.complete(tl);
        for c in 106..112 {
            dense.tick(Cycles(c));
            lazy.tick(Cycles(c));
        }
        let (a, b) = (dense.stats(), lazy.stats());
        assert_eq!(a.tasks_completed, b.tasks_completed);
        assert_eq!(a.swaps, b.swaps);
        assert_eq!(a.core_utilization.to_bits(), b.core_utilization.to_bits());
        assert_eq!(a.thread_occupancy.len(), b.thread_occupancy.len());
        for (x, y) in a.thread_occupancy.iter().zip(&b.thread_occupancy) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.energy.0.to_bits(), b.energy.0.to_bits());
    }

    #[test]
    fn crash_kills_threads_and_drops_requests() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 2));
        // Thread 0 will be awaiting a call whose request is undrained;
        // thread 1 holds an unexecuted send with a payload.
        let t0 = pe
            .spawn(Program::straight_line([Op::Call {
                dst: NodeId(1),
                bytes: 8,
                reply_bytes: 8,
                data: Payload::with_head(3, &[1, 2, 3]),
            }]))
            .unwrap();
        pe.spawn(Program::straight_line([
            Op::Compute(50),
            Op::Send {
                dst: NodeId(2),
                bytes: 4,
                data: Payload::with_head(2, &[9, 9]),
                tag: 0,
            },
        ]))
        .unwrap();
        run(&mut pe, 3);
        // Leave thread 0's request undrained: the crash drops it.
        assert!(!pe.requests.is_empty());
        assert!(pe.is_awaiting(t0));
        pe.crash(Cycles(3));
        assert!(pe.is_crashed());
        assert!(!pe.is_live());
        assert_eq!(pe.idle_threads(), 0);
        assert!(!pe.is_awaiting(t0));
        assert!(pe.requests.is_empty());
        assert_eq!(
            pe.spawn(Program::straight_line([Op::Compute(1)])),
            Err(SpawnError)
        );
        assert_eq!(pe.tasks_completed(), 0, "killed tasks never complete");
        // Ticking a crashed PE is a pure accounting no-op.
        run(&mut pe, 10);
        assert_eq!(pe.tasks_completed(), 0);
        // Restart brings cold contexts back.
        pe.restart(Cycles(13));
        assert!(!pe.is_crashed());
        assert_eq!(pe.idle_threads(), 2);
        pe.spawn(Program::straight_line([Op::Compute(2)])).unwrap();
        for c in 13..20 {
            pe.tick(Cycles(c));
        }
        assert_eq!(pe.tasks_completed(), 1);
    }

    #[test]
    fn a_request_is_at_most_64_bytes_with_its_thread() {
        assert!(std::mem::size_of::<(ThreadId, PeRequest)>() <= 64);
    }

    #[test]
    fn crash_is_deterministic_and_restart_idempotent() {
        let mk = || {
            let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 2));
            pe.spawn(Program::straight_line([Op::Compute(20)])).unwrap();
            for c in 0..5 {
                pe.tick(Cycles(c));
            }
            pe.crash(Cycles(5));
            pe.restart(Cycles(9));
            pe.restart(Cycles(9)); // idempotent
            pe.spawn(Program::straight_line([Op::Compute(3)])).unwrap();
            for c in 9..20 {
                pe.tick(Cycles(c));
            }
            let s = pe.stats();
            (s.tasks_completed, s.core_utilization.to_bits(), s.swaps)
        };
        assert_eq!(mk(), mk());
    }

    /// Runs `pe` from cycle `from` until `done` tasks have completed.
    fn run_until_done(pe: &mut Pe, from: u64, done: u64) -> u64 {
        let mut c = from;
        while pe.tasks_completed() < done {
            pe.tick(Cycles(c));
            c += 1;
            assert!(c < from + 10_000, "tasks never finished");
        }
        c
    }

    /// How many buffers the spare list holds, emptying it.
    fn drain_spares(pe: &mut Pe) -> usize {
        std::iter::from_fn(|| Some(pe.take_spare_ops()))
            .take_while(|ops| ops.capacity() > 0)
            .count()
    }

    #[test]
    fn a_retired_programs_buffer_comes_back_with_its_capacity() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 1));
        assert_eq!(pe.take_spare_ops().capacity(), 0, "nothing retired yet");
        let mut ops = Vec::with_capacity(16);
        ops.extend([
            Op::Compute(3),
            Op::Send {
                dst: NodeId(2),
                bytes: 8,
                data: Payload::EMPTY,
                tag: 0,
            },
            Op::Compute(2),
        ]);
        let buffer = ops.as_ptr();
        pe.spawn(Program::from_ops(ops, KernelDomain::Generic))
            .unwrap();
        run(&mut pe, 5);
        let (tid, _) = pe.pop_request().expect("the send was issued");
        pe.complete(tid);
        run_until_done(&mut pe, 5, 1);
        let spare = pe.take_spare_ops();
        assert!(spare.is_empty(), "a spare buffer comes back cleared");
        assert_eq!(spare.capacity(), 16);
        assert_eq!(spare.as_ptr(), buffer, "the same allocation");
        assert_eq!(pe.take_spare_ops().capacity(), 0, "handed out once");
    }

    #[test]
    fn the_spare_list_never_exceeds_n_threads() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 3));
        let mut c = 0;
        for round in 1..=4 {
            for _ in 0..3 {
                pe.spawn(Program::straight_line([Op::Compute(4)])).unwrap();
            }
            c = run_until_done(&mut pe, c, 3 * round);
        }
        // A degenerate empty program is kept too, but still within bound.
        let mut empty = Vec::with_capacity(4);
        empty.push(Op::Compute(1));
        empty.clear();
        pe.spawn(Program::from_ops(empty, KernelDomain::Generic))
            .unwrap();
        assert_eq!(drain_spares(&mut pe), 3, "twelve retired, three kept");
        let mut empty = Vec::with_capacity(4);
        empty.push(Op::Compute(1));
        empty.clear();
        pe.spawn(Program::from_ops(empty, KernelDomain::Generic))
            .unwrap();
        assert_eq!(drain_spares(&mut pe), 1, "an empty program's buffer");
    }

    #[test]
    fn a_crash_with_live_programs_keeps_no_op_buffer() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 2));
        pe.spawn(Program::straight_line([Op::Compute(2)])).unwrap();
        let c = run_until_done(&mut pe, 0, 1);
        // Both live programs are built in spare buffers, the way the
        // runtime builds them; only the first thread finds one.
        let mut first = pe.take_spare_ops();
        assert!(first.capacity() > 0);
        first.extend([
            Op::Send {
                dst: NodeId(1),
                bytes: 8,
                data: Payload::with_head(3, &[1; 3]),
                tag: 0,
            },
            Op::Compute(40),
        ]);
        let mut second = pe.take_spare_ops();
        second.extend([
            Op::Call {
                dst: NodeId(2),
                bytes: 8,
                reply_bytes: 8,
                data: Payload::with_head(4, &[2; 4]),
            },
            Op::Call {
                dst: NodeId(2),
                bytes: 8,
                reply_bytes: 8,
                data: Payload::with_head(5, &[3; 5]),
            },
        ]);
        pe.spawn(Program::from_ops(first, KernelDomain::Generic))
            .unwrap();
        pe.spawn(Program::from_ops(second, KernelDomain::Generic))
            .unwrap();
        for c in c..c + 5 {
            pe.tick(Cycles(c));
        }
        assert!(
            !pe.requests.is_empty(),
            "the send and the first call are queued"
        );
        pe.crash(Cycles(c + 5));
        assert!(pe.requests.is_empty());
        assert_eq!(drain_spares(&mut pe), 0, "a crash keeps no buffer");
        pe.restart(Cycles(c + 6));
        pe.spawn(Program::straight_line([Op::Compute(2)])).unwrap();
        run_until_done(&mut pe, c + 6, 2);
        assert_eq!(drain_spares(&mut pe), 1, "retirement keeps buffers again");
    }

    /// Every rounding the issue slot does: each class's speedup on each
    /// domain, over a million op lengths.
    #[test]
    fn cast_ceil_equals_libm_ceil_for_every_speedup() {
        let domains = [
            KernelDomain::Control,
            KernelDomain::Signal,
            KernelDomain::PacketHeader,
            KernelDomain::Generic,
        ];
        let classes = [PeClass::GpRisc, PeClass::Dsp]
            .into_iter()
            .chain(domains.map(|tuned_for| PeClass::Configurable { tuned_for }))
            .chain(domains.map(|domain| PeClass::Asip { domain }));
        for class in classes {
            for domain in domains {
                let speedup = class.speedup(domain);
                for n in 1..=1_000_000u64 {
                    let q = n as f64 / speedup;
                    assert_eq!(ceil_cycles(q), q.ceil() as u64, "{class} {domain} {n}");
                }
            }
        }
        for q in [0.0, 0.5, 2f64.powi(53) + 2.0, 2f64.powi(64), 1e30, f64::MAX] {
            assert_eq!(ceil_cycles(q), q.ceil() as u64, "{q}");
        }
    }

    #[test]
    fn occupancy_tracks_assigned_tasks() {
        let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 2));
        pe.spawn(Program::straight_line([Op::Compute(50)])).unwrap();
        run(&mut pe, 50);
        let s = pe.stats();
        assert!(s.thread_occupancy[0] > 0.9);
        assert!(s.thread_occupancy[1] < 0.1);
    }
}
