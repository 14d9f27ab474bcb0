//! The DSOC runtime: application installation, program synthesis and
//! invocation dispatch.
//!
//! This is the platform-dependent half of the paper's §7.2 stack. Given a
//! validated [`Application`] and a placement (object → PE), the runtime:
//!
//! 1. resolves every object into the handler table, per method: its costs,
//!    each downstream call with the node hosting the callee and, once
//!    bound, the object's service offload and egress hand-off;
//! 2. on each arriving invocation, *synthesizes* a micro-op handler program
//!    from its table entry — state read, compute burst, downstream
//!    sends/calls (marshalled with the real wire codec), reply if twoway,
//!    and the egress hand-off if the object is bound to an I/O channel;
//! 3. dispatches handlers onto idle hardware threads (the hardware
//!    dispatcher of the StepNP platform), queueing when all contexts are
//!    busy;
//! 4. paces entry-point traffic: a deterministic rate drive, line-rate I/O
//!    binding, or saturation mode for utilization experiments.

use crate::tags::RequestTag;
use nw_dsoc::{Application, Domain, Message, MessageKind, MessageView, MethodDef, MethodId};
use nw_noc::{Packet, PayloadPool};
use nw_pe::{KernelDomain, Op, Pe, Program};
use nw_sim::Pacer;
use nw_types::{Cycles, NodeId, ObjectId, ThreadId};
use std::collections::VecDeque;
use std::num::NonZeroU64;

// nw-analyze: allow-file(RH01): every acquired buffer's ownership transfers out of this
// module — into synthesized Program sends and outbox messages that become NoC packets;
// the platform recycles each one at packet consumption (FppaPlatform::route_arrivals).
use std::fmt;

/// Errors from installing an application or configuring drives.
#[derive(Debug, Clone, PartialEq)]
pub enum InstallError {
    /// Placement length differs from the object count.
    PlacementLength {
        /// Objects in the application.
        objects: usize,
        /// Entries in the placement.
        placed: usize,
    },
    /// Placement names a PE that does not exist.
    PeOutOfRange(usize),
    /// The driven/bound object is not an entry point of the application.
    NotAnEntry(ObjectId),
    /// No application is installed.
    NoApp,
    /// The I/O channel index does not exist.
    IoOutOfRange(usize),
    /// The object does not exist in the application.
    UnknownObject(ObjectId),
    /// The bound node is not a service endpoint (memory, fabric or hwip).
    NotAServiceNode(NodeId),
    /// The drive rate is negative, not finite, or 2³² invocations per
    /// cycle and beyond.
    DriveRate(f64),
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::PlacementLength { objects, placed } => {
                write!(f, "placement covers {placed} of {objects} objects")
            }
            InstallError::PeOutOfRange(p) => write!(f, "placement names missing PE {p}"),
            InstallError::NotAnEntry(o) => write!(f, "object {o} is not an entry point"),
            InstallError::NoApp => write!(f, "no application installed"),
            InstallError::IoOutOfRange(i) => write!(f, "no I/O channel {i}"),
            InstallError::UnknownObject(o) => write!(f, "object {o} not in application"),
            InstallError::NotAServiceNode(n) => {
                write!(f, "node {n} is not a memory/fabric/hwip service endpoint")
            }
            InstallError::DriveRate(r) => {
                write!(f, "drive rate {r} is not a rate in [0, 2^32) per cycle")
            }
        }
    }
}

impl std::error::Error for InstallError {}

/// How an I/O channel feeds an entry point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IoBinding {
    pub object: ObjectId,
    pub method: MethodId,
    /// Node hosting the object.
    pub dst: NodeId,
}

/// A per-invocation synchronous offload against a platform service node
/// (memory macro, eFPGA fabric or hardwired IP) installed on an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceBinding {
    /// The service endpoint the handler calls.
    pub node: NodeId,
    /// Request payload per call.
    pub request_bytes: u64,
    /// Expected reply payload per call.
    pub reply_bytes: u64,
    /// Synchronous calls per invocation.
    pub calls: u32,
}

/// A queued invocation awaiting an idle hardware thread.
#[derive(Debug, Clone)]
struct PendingInvocation {
    object: ObjectId,
    method: MethodId,
    /// The invocation tag: the wire sequence number of the arriving request
    /// (0 for drive/saturation-originated invocations, which have no
    /// caller). Synthesized replies echo it, so a reply correlates with its
    /// request on the wire — the tag threads request → dispatch queue →
    /// handler → reply.
    seq: u32,
    /// Reply destination and request tag for twoway invocations.
    reply_to: Option<(NodeId, u64)>,
}

impl PendingInvocation {
    /// A drive- or saturation-originated invocation: no caller.
    fn entry(object: ObjectId, method: MethodId) -> Self {
        PendingInvocation {
            object,
            method,
            seq: 0,
            reply_to: None,
        }
    }
}

/// A deterministic entry-rate drive: invocations per cycle as 32.32
/// fixed-point credit, one invocation costing [`DRIVE_COST`].
#[derive(Debug, Clone)]
struct Drive {
    object: ObjectId,
    method: MethodId,
    pacer: Pacer,
}

/// The cycle of the `n`-th tick of a pacer that has been ticked for the
/// cycles before `from` (`n >= 1`; `u64::MAX`, never, stays never).
pub(crate) fn nth_tick(from: u64, n: u64) -> u64 {
    match n {
        u64::MAX => u64::MAX,
        _ => from.saturating_add(n - 1),
    }
}

/// Credit per driven invocation; a drive's per-cycle credit is its rate
/// times this, rounded to the nearest integer.
const DRIVE_COST: NonZeroU64 = NonZeroU64::new(1 << 32).unwrap();

/// One downstream call edge of a handler, resolved at install: the
/// callee's marshalling footprint and hosting node never change after
/// installation, so synthesis only applies the per-invocation
/// fractional-multiplicity carry and fresh sequence numbers.
#[derive(Debug, Clone, PartialEq)]
struct EdgePlan {
    /// Index into the application's edge list (the carry accumulator slot).
    edge_idx: usize,
    calls_per_invocation: f64,
    to: ObjectId,
    to_method: MethodId,
    /// Node hosting the callee.
    dst: NodeId,
    /// Callee argument bytes (message body size).
    arg_bytes: u64,
    twoway: bool,
    /// Expected reply size for twoway calls (callee reply + wire header).
    call_reply_bytes: u64,
}

/// The static skeleton of one `(object, method)` handler, built at install
/// (service and egress bindings written in as they are made), so the
/// per-invocation work is just op emission.
#[derive(Debug, Clone, PartialEq)]
struct Handler {
    domain: KernelDomain,
    local_bytes: u64,
    service: Option<ServiceBinding>,
    compute_cycles: u64,
    edges: Vec<EdgePlan>,
    /// This method's reply body size (twoway answers).
    reply_body_bytes: u64,
    /// Egress binding: (I/O node, packet bytes).
    egress: Option<(NodeId, u64)>,
}

/// The installed-application runtime state.
#[derive(Debug, Clone)]
pub struct Runtime {
    app: Application,
    /// object → PE index.
    placement: Vec<usize>,
    /// `handlers[object][method]`.
    handlers: Vec<Vec<Handler>>,
    /// Per-PE invocation queues.
    dispatch: Vec<VecDeque<PendingInvocation>>,
    drives: Vec<Drive>,
    io_bindings: Vec<Vec<IoBinding>>,
    io_rr: Vec<usize>,
    /// Objects whose host PE is kept saturated with entry invocations.
    saturate: Vec<(ObjectId, MethodId)>,
    /// Fractional call-multiplicity carry per edge index.
    edge_carry: Vec<f64>,
    /// Invocations queued across all per-PE dispatch queues (so the
    /// dispatcher can skip the whole scan when nothing is pending).
    pending_total: usize,
    /// Per PE: the dispatcher can spawn on it ([`Runtime::can_spawn`]) as
    /// of the last [`Runtime::note_pe`]. A set bit may be stale (the dispatch it causes
    /// is a no-op and clears it); a clear bit never is: every site that
    /// queues an invocation or frees a hardware thread refreshes it.
    ready: Vec<bool>,
    /// Set bits in `ready`.
    ready_count: usize,
    /// Drives are advanced lazily: every drive has been ticked for the
    /// cycles before this one.
    drive_clock: u64,
    /// The cycle whose tick queues the next driven invocation (`u64::MAX`:
    /// no drive running).
    drive_due: u64,
    seq: u32,
    /// Invocations that arrived but could not be decoded (protocol errors).
    pub decode_errors: u64,
    /// Invocations dispatched per object (per-stage throughput input).
    dispatched_per_object: Vec<u64>,
}

impl Runtime {
    pub(crate) fn new(
        app: Application,
        placement: Vec<usize>,
        n_pes: usize,
        n_ios: usize,
        now: Cycles,
    ) -> Result<Self, InstallError> {
        if placement.len() != app.objects().len() {
            return Err(InstallError::PlacementLength {
                objects: app.objects().len(),
                placed: placement.len(),
            });
        }
        if let Some(&bad) = placement.iter().find(|&&p| p >= n_pes) {
            return Err(InstallError::PeOutOfRange(bad));
        }
        let handler = |m: &MethodDef| Handler {
            domain: domain_to_kernel(m.domain),
            local_bytes: m.local_bytes,
            service: None,
            compute_cycles: m.compute_cycles,
            edges: Vec::new(),
            reply_body_bytes: m.reply_bytes,
            egress: None,
        };
        let mut handlers: Vec<Vec<Handler>> = (app.objects().iter())
            .map(|o| o.methods.iter().map(handler).collect())
            .collect();
        // In edge order, so each handler's calls keep the application's
        // order (synthesis order and the carry slots rest on it).
        for (i, e) in app.edges().iter().enumerate() {
            let callee = app.method(e.to, e.to_method);
            let handler = &mut handlers[e.from.0][e.from_method.0 as usize];
            handler.edges.push(EdgePlan {
                edge_idx: i,
                calls_per_invocation: e.calls_per_invocation,
                to: e.to,
                to_method: e.to_method,
                dst: pe_endpoint(placement[e.to.0]),
                arg_bytes: callee.arg_bytes,
                twoway: callee.is_twoway(),
                call_reply_bytes: callee.reply_bytes + Message::HEADER_LEN as u64,
            });
        }
        let n_edges = app.edges().len();
        let n_objects = app.objects().len();
        Ok(Runtime {
            app,
            placement,
            handlers,
            dispatch: (0..n_pes).map(|_| VecDeque::new()).collect(),
            drives: Vec::new(),
            io_bindings: vec![Vec::new(); n_ios],
            io_rr: vec![0; n_ios],
            saturate: Vec::new(),
            edge_carry: vec![0.0; n_edges],
            pending_total: 0,
            ready: vec![false; n_pes],
            ready_count: 0,
            drive_clock: now.0,
            drive_due: u64::MAX,
            seq: 0,
            decode_errors: 0,
            dispatched_per_object: vec![0; n_objects],
        })
    }

    /// The installed application.
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// The object placement (object index → PE index).
    pub fn placement(&self) -> &[usize] {
        &self.placement
    }

    fn entry_method_of(&self, object: ObjectId) -> Result<MethodId, InstallError> {
        self.app
            .entries()
            .iter()
            .find(|&&(o, _)| o == object)
            .map(|&(_, m)| m)
            .ok_or(InstallError::NotAnEntry(object))
    }

    pub(crate) fn add_drive(&mut self, object: ObjectId, rate: f64) -> Result<(), InstallError> {
        let method = self.entry_method_of(object)?;
        let credit = Pacer::whole_credit(rate * DRIVE_COST.get() as f64)
            .ok_or(InstallError::DriveRate(rate))?;
        self.drives.push(Drive {
            object,
            method,
            pacer: Pacer::new(credit, DRIVE_COST),
        });
        self.sync_drives(self.drive_clock);
        Ok(())
    }

    pub(crate) fn add_saturation(&mut self, object: ObjectId) -> Result<(), InstallError> {
        let method = self.entry_method_of(object)?;
        self.saturate.push((object, method));
        // Ready unless proven otherwise: the next dispatch looks.
        self.note_pe(self.placement[object.0], usize::MAX);
        Ok(())
    }

    pub(crate) fn bind_io(&mut self, io: usize, object: ObjectId) -> Result<(), InstallError> {
        let method = self.entry_method_of(object)?;
        let slot = self
            .io_bindings
            .get_mut(io)
            .ok_or(InstallError::IoOutOfRange(io))?;
        slot.push(IoBinding {
            object,
            method,
            dst: pe_endpoint(self.placement[object.0]),
        });
        Ok(())
    }

    pub(crate) fn bind_egress(
        &mut self,
        object: ObjectId,
        io_node: NodeId,
        packet_bytes: u64,
    ) -> Result<(), InstallError> {
        let handlers = self.handlers.get_mut(object.0);
        for h in handlers.ok_or(InstallError::UnknownObject(object))? {
            h.egress = Some((io_node, packet_bytes));
        }
        Ok(())
    }

    pub(crate) fn bind_service(
        &mut self,
        object: ObjectId,
        binding: ServiceBinding,
    ) -> Result<(), InstallError> {
        let handlers = self.handlers.get_mut(object.0);
        for h in handlers.ok_or(InstallError::UnknownObject(object))? {
            h.service = Some(binding);
        }
        Ok(())
    }

    /// Invocations dispatched per object (indexed by [`ObjectId`]).
    pub fn object_dispatches(&self) -> &[u64] {
        &self.dispatched_per_object
    }

    pub(crate) fn io_has_bindings(&self, io: usize) -> bool {
        self.io_bindings.get(io).is_some_and(|b| !b.is_empty())
    }

    /// Builds the (destination node, marshalled bytes) of one line-rate
    /// ingress invocation for a bound I/O channel, rotating round-robin
    /// among the channel's bound entry points. The marshalled buffer is
    /// drawn from the payload arena rather than allocated.
    ///
    /// # Panics
    ///
    /// Panics if the channel has no bindings (callers check
    /// [`Runtime::io_has_bindings`] first).
    pub(crate) fn ingress_invocation(
        &mut self,
        io: usize,
        pool: &mut PayloadPool,
    ) -> (NodeId, Vec<u8>) {
        let bindings = &self.io_bindings[io];
        assert!(!bindings.is_empty(), "ingress on an unbound I/O channel");
        let b = bindings[self.io_rr[io] % bindings.len()];
        self.io_rr[io] = (self.io_rr[io] + 1) % bindings.len();
        let arg_bytes = self.app.method(b.object, b.method).arg_bytes as usize;
        let seq = next_seq(&mut self.seq);
        let mut data = pool.take();
        Message::encode_zeroed_into(
            MessageKind::Invocation,
            b.object,
            b.method,
            seq,
            arg_bytes,
            &mut data,
        );
        (b.dst, data)
    }

    /// Routes an arriving DSOC packet at PE `p` (which has `idle_threads`
    /// free contexts) into its dispatch queue.
    pub(crate) fn enqueue_invocation(&mut self, p: usize, pkt: &Packet, idle_threads: usize) {
        // Borrowed decode: dispatch only needs the header fields, so the
        // body stays in the packet buffer (which the platform recycles).
        let msg = match MessageView::decode(&pkt.data) {
            Ok(m) => m,
            Err(_) => {
                self.decode_errors += 1;
                return;
            }
        };
        if msg.kind != MessageKind::Invocation {
            self.decode_errors += 1;
            return;
        }
        if msg.object.0 >= self.app.objects().len()
            || msg.method.0 as usize >= self.app.object(msg.object).methods.len()
        {
            self.decode_errors += 1;
            return;
        }
        let twoway = self.app.method(msg.object, msg.method).is_twoway();
        let reply_to = (twoway && pkt.tag != 0).then_some((pkt.src, pkt.tag));
        self.dispatch[p].push_back(PendingInvocation {
            object: msg.object,
            method: msg.method,
            seq: msg.seq,
            reply_to,
        });
        self.pending_total += 1;
        self.note_pe(p, idle_threads);
    }

    /// Whether the dispatcher has something to spawn on PE `p`: a free
    /// hardware thread, and a queued invocation or a saturated entry point
    /// hosted there.
    fn can_spawn(&self, p: usize, idle_threads: usize) -> bool {
        let saturated = || self.saturate.iter().any(|&(o, _)| self.placement[o.0] == p);
        idle_threads > 0 && (!self.dispatch[p].is_empty() || saturated())
    }

    /// Refreshes PE `p`'s ready bit from its free hardware threads.
    pub(crate) fn note_pe(&mut self, p: usize, idle_threads: usize) {
        let ready = self.can_spawn(p, idle_threads);
        if ready != self.ready[p] {
            self.ready[p] = ready;
            if ready {
                self.ready_count += 1;
            } else {
                self.ready_count -= 1;
            }
        }
    }

    /// [`Runtime::note_pe`] for every PE.
    pub(crate) fn note_pes(&mut self, pes: &[Pe]) {
        for (p, pe) in pes.iter().enumerate() {
            self.note_pe(p, pe.idle_threads());
        }
    }

    /// The oracle of the dispatcher's agenda entry (debug builds, after
    /// every step and hop): no PE the dispatcher could spawn on has a clear
    /// ready bit, the count is the set bits, and the posted drive cycle is
    /// not past the next emission.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn audit_agenda(&self, pes: &[Pe]) {
        for (p, pe) in pes.iter().enumerate() {
            let late = !self.ready[p] && self.can_spawn(p, pe.idle_threads());
            assert!(!late, "PE {p}: ready bit late");
        }
        let set = self.ready.iter().filter(|&&r| r).count();
        assert_eq!(self.ready_count, set, "ready count out of step");
        let emission = nth_tick(self.drive_clock, self.drive_ticks_to_next());
        assert!(self.drive_due <= emission, "drive entry late");
    }

    /// The dispatcher's agenda entry: `now` while some PE is ready, else
    /// the cycle the next driven invocation is queued.
    #[inline]
    pub(crate) fn dispatch_due(&self, now: u64) -> u64 {
        if self.ready_count > 0 {
            now
        } else {
            self.drive_due
        }
    }

    /// The cycle whose tick queues the next driven invocation.
    pub(crate) fn drive_due(&self) -> u64 {
        self.drive_due
    }

    /// Ticks every drive for the cycles before `to` it has not seen yet —
    /// in closed form, queueing the invocations that fall due — and posts
    /// the next one. The dispatcher runs on every cycle a drive emits, so
    /// only the tick of `to - 1` ever queues anything.
    pub(crate) fn sync_drives(&mut self, to: u64) {
        self.advance_drives(to - self.drive_clock);
        self.drive_clock = to;
        self.drive_due = nth_tick(to, self.drive_ticks_to_next());
    }

    /// Advances the deterministic entry drives by `k` cycles, queueing
    /// the invocations that fall due.
    fn advance_drives(&mut self, k: u64) {
        for d in &mut self.drives {
            let pe = self.placement[d.object.0];
            for _ in 0..d.pacer.advance(k) {
                self.dispatch[pe].push_back(PendingInvocation::entry(d.object, d.method));
                self.pending_total += 1;
            }
        }
    }

    /// How many cycles from now the first drive queues an invocation: the
    /// `n`-th coming cycle (`n >= 1`; `u64::MAX` with no drive running).
    fn drive_ticks_to_next(&self) -> u64 {
        self.drives
            .iter()
            .map(|d| d.pacer.ticks_to_next())
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Ticks the drives through cycle `now`, then dispatches queued
    /// invocations (and saturation refills) onto idle hardware threads:
    /// queues PE by PE ascending, then the saturated entry points in order,
    /// each spawn reported to `on_spawn` as `(pe, thread, object)`. The
    /// caller refreshes the ready bits afterwards ([`Runtime::note_pes`]).
    ///
    /// Only PEs with pending work are visited (an active-set skip that is
    /// behaviour-identical to the dense scan, since a PE with an empty queue
    /// is a no-op there). Each PE spawned on is caught up to `now` before
    /// the spawn flips a thread from idle to ready, and afterwards posts in
    /// the platform's `pe_wake` table the cycle it must tick: `now`, unless
    /// it is mid compute burst and the new thread only waits behind it
    /// ([`Pe::quiet_span`]). Returns the number of PEs woken and the
    /// earliest wake posted.
    pub(crate) fn dispatch(
        &mut self,
        pes: &mut [Pe],
        now: Cycles,
        pe_wake: &mut [u64],
        pool: &mut PayloadPool,
        mut on_spawn: impl FnMut(usize, ThreadId, ObjectId),
    ) -> (u64, u64) {
        self.sync_drives(now.0 + 1);
        let (mut woken, mut earliest) = (0, u64::MAX);
        let mut wake = |p: usize, pe: &Pe| {
            let at = pe.wake_cycle(now);
            pe_wake[p] = pe_wake[p].min(at);
            earliest = earliest.min(at);
            woken += 1;
        };
        if self.pending_total > 0 {
            for (p, pe) in pes.iter_mut().enumerate() {
                if self.dispatch[p].is_empty() || pe.idle_threads() == 0 {
                    continue;
                }
                pe.settle_accounting(now);
                while pe.idle_threads() > 0 {
                    let Some(inv) = self.dispatch[p].pop_front() else {
                        break;
                    };
                    self.pending_total -= 1;
                    self.spawn(p, pe, &inv, pool, &mut on_spawn);
                }
                wake(p, pe);
            }
        }
        // Saturation mode: keep every context of the hosting PE occupied.
        for k in 0..self.saturate.len() {
            let (object, method) = self.saturate[k];
            let p = self.placement[object.0];
            let pe = &mut pes[p];
            if pe.idle_threads() == 0 {
                continue;
            }
            pe.settle_accounting(now);
            let inv = PendingInvocation::entry(object, method);
            while pe.idle_threads() > 0 {
                self.spawn(p, pe, &inv, pool, &mut on_spawn);
            }
            wake(p, pe);
        }
        (woken, earliest)
    }

    /// Spawns `inv`'s handler on PE `p`, which has an idle thread.
    fn spawn(
        &mut self,
        p: usize,
        pe: &mut Pe,
        inv: &PendingInvocation,
        pool: &mut PayloadPool,
        on_spawn: &mut impl FnMut(usize, ThreadId, ObjectId),
    ) {
        let prog = self.synthesize(inv, pool);
        let tid = pe.spawn(prog).expect("idle thread count was checked");
        on_spawn(p, tid, inv.object);
        self.dispatched_per_object[inv.object.0] += 1;
    }

    /// Synthesizes the handler program for one invocation from its handler;
    /// only the fractional-multiplicity carry and message sequence
    /// numbers vary between invocations of the same `(object, method)`.
    /// Marshalled message buffers come from the payload arena; the bodies
    /// are all-zero (only sizes are simulated), so the zero-body encoder
    /// writes them without an intermediate body vector.
    fn synthesize(&mut self, inv: &PendingInvocation, pool: &mut PayloadPool) -> Program {
        let h = &self.handlers[inv.object.0][inv.method.0 as usize];
        let mut ops = Vec::new();
        if h.local_bytes > 0 {
            ops.push(Op::LocalMem {
                write: false,
                bytes: h.local_bytes,
            });
        }
        // Service offloads precede the compute burst: the handler fetches
        // its operands (reference windows, cipher blocks) from the bound
        // service node, blocking the thread per round trip.
        if let Some(svc) = h.service {
            for _ in 0..svc.calls {
                ops.push(Op::Call {
                    dst: svc.node,
                    bytes: svc.request_bytes,
                    reply_bytes: svc.reply_bytes,
                    data: Vec::new(),
                });
            }
        }
        if h.compute_cycles > 0 {
            ops.push(Op::Compute(h.compute_cycles));
        }
        // Downstream calls, with deterministic fractional-multiplicity carry.
        for e in &h.edges {
            self.edge_carry[e.edge_idx] += e.calls_per_invocation;
            let count = self.edge_carry[e.edge_idx].floor() as u64;
            self.edge_carry[e.edge_idx] -= count as f64;
            for _ in 0..count {
                let seq = next_seq(&mut self.seq);
                let mut data = pool.take();
                Message::encode_zeroed_into(
                    MessageKind::Invocation,
                    e.to,
                    e.to_method,
                    seq,
                    e.arg_bytes as usize,
                    &mut data,
                );
                let bytes = data.len() as u64;
                if e.twoway {
                    ops.push(Op::Call {
                        dst: e.dst,
                        bytes,
                        reply_bytes: e.call_reply_bytes,
                        data,
                    });
                } else {
                    ops.push(Op::Send {
                        dst: e.dst,
                        bytes,
                        data,
                        tag: 0,
                    });
                }
            }
        }
        // Twoway: answer the caller with the echoed request tag. The reply
        // also echoes the request's sequence number (the invocation tag),
        // so the round trip is correlated end-to-end on the wire — same
        // marshalled size either way, so timing is unchanged.
        if let Some((reply_to, tag)) = inv.reply_to {
            let mut data = pool.take();
            Message::encode_zeroed_into(
                MessageKind::Reply,
                inv.object,
                inv.method,
                inv.seq,
                h.reply_body_bytes as usize,
                &mut data,
            );
            let bytes = data.len() as u64;
            ops.push(Op::Send {
                dst: reply_to,
                bytes,
                data,
                tag: RequestTag::decode(tag).encode_reply(),
            });
        }
        // Egress hand-off.
        if let Some((io_node, packet_bytes)) = h.egress {
            ops.push(Op::Send {
                dst: io_node,
                bytes: packet_bytes,
                data: Vec::new(),
                tag: 0,
            });
        }
        Program::new(ops, h.domain)
    }

    /// Invocations currently queued (all PEs).
    pub fn queued_invocations(&self) -> usize {
        self.pending_total
    }
}

/// The next wire sequence number: one counter numbers ingress invocations
/// and downstream calls alike.
fn next_seq(seq: &mut u32) -> u32 {
    *seq = seq.wrapping_add(1);
    *seq
}

/// Maps the DSOC domain tag to the PE kernel domain.
pub(crate) fn domain_to_kernel(d: Domain) -> KernelDomain {
    match d {
        Domain::Control => KernelDomain::Control,
        Domain::Signal => KernelDomain::Signal,
        Domain::PacketHeader => KernelDomain::PacketHeader,
        Domain::Generic => KernelDomain::Generic,
    }
}

// ---- FppaPlatform runtime API ------------------------------------------

use crate::platform::{pe_endpoint, FppaPlatform};

impl FppaPlatform {
    /// Installs a DSOC application with `placement[object] = pe index`.
    ///
    /// # Errors
    ///
    /// See [`InstallError`].
    pub fn install_app(
        &mut self,
        app: &Application,
        placement: &[usize],
    ) -> Result<(), InstallError> {
        let rt = Runtime::new(
            app.clone(),
            placement.to_vec(),
            self.pes_slice().len(),
            self.ios_slice().len(),
            self.now(),
        )?;
        self.runtime = Some(rt);
        self.post_io();
        self.calls.reset(app.objects().len());
        Ok(())
    }

    /// Drives entry-point `object` at `rate` invocations per cycle
    /// (deterministic pacing: the rate is held as 32.32 fixed point, so
    /// over `c` cycles exactly `floor(c * round(rate * 2^32) / 2^32)`
    /// invocations are queued, whichever scheduler runs them).
    ///
    /// # Panics
    ///
    /// Panics if no application is installed, the object is not an entry
    /// point, or the rate is negative, not finite or `2^32` and beyond —
    /// all setup bugs in the calling experiment.
    pub fn drive_entry(&mut self, object: ObjectId, rate: f64) {
        self.runtime
            .as_mut()
            .expect("install_app before drive_entry")
            .add_drive(object, rate)
            .expect("drive_entry requires an application entry point and a valid rate");
    }

    /// Keeps the PE hosting `object` saturated with entry invocations
    /// (utilization rigs).
    ///
    /// # Panics
    ///
    /// Panics if no application is installed or the object is not an entry
    /// point.
    pub fn saturate_entry(&mut self, object: ObjectId) {
        self.runtime
            .as_mut()
            .expect("install_app before saturate_entry")
            .add_saturation(object)
            .expect("saturate_entry requires an application entry point");
    }

    /// Feeds entry-point `object` from I/O channel `io` at line rate.
    ///
    /// # Errors
    ///
    /// See [`InstallError`].
    pub fn bind_io_entry(&mut self, io: usize, object: ObjectId) -> Result<(), InstallError> {
        self.runtime
            .as_mut()
            .ok_or(InstallError::NoApp)?
            .bind_io(io, object)?;
        self.post_io();
        Ok(())
    }

    /// Routes completions of `object` to I/O channel `io` as transmitted
    /// packets of `packet_bytes`.
    ///
    /// # Errors
    ///
    /// See [`InstallError`].
    pub fn bind_egress(
        &mut self,
        object: ObjectId,
        io: usize,
        packet_bytes: u64,
    ) -> Result<(), InstallError> {
        if io >= self.ios_slice().len() {
            return Err(InstallError::IoOutOfRange(io));
        }
        let io_node = self.io_node(io);
        self.runtime
            .as_mut()
            .ok_or(InstallError::NoApp)?
            .bind_egress(object, io_node, packet_bytes)
    }

    /// Installs a per-invocation service offload on `object`: every
    /// synthesized handler performs `calls` synchronous
    /// `request_bytes`/`reply_bytes` round trips to the service at `node`
    /// (a memory macro, eFPGA fabric or hardwired IP endpoint) before its
    /// compute burst.
    ///
    /// # Errors
    ///
    /// [`InstallError::NotAServiceNode`] if `node` does not host a memory,
    /// fabric or hwip block; otherwise see [`InstallError`].
    pub fn bind_service(
        &mut self,
        object: ObjectId,
        node: NodeId,
        request_bytes: u64,
        reply_bytes: u64,
        calls: u32,
    ) -> Result<(), InstallError> {
        match self.role(node) {
            Some(
                crate::platform::NodeRole::Memory(_)
                | crate::platform::NodeRole::Fabric(_)
                | crate::platform::NodeRole::HwIp(_),
            ) => {}
            _ => return Err(InstallError::NotAServiceNode(node)),
        }
        self.runtime
            .as_mut()
            .ok_or(InstallError::NoApp)?
            .bind_service(
                object,
                ServiceBinding {
                    node,
                    request_bytes,
                    reply_bytes,
                    calls,
                },
            )
    }

    /// The installed runtime, if any.
    pub fn runtime(&self) -> Option<&Runtime> {
        self.runtime.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_dsoc::ObjectDef;

    /// Caller (twoway, with local state and compute) fanning out two calls
    /// per invocation to a oneway sink — exercises every handler section.
    fn two_stage_app() -> Application {
        let mut b = Application::builder("memo");
        let a = b.add_object(
            ObjectDef::new("a").with_method(
                MethodDef::twoway("go", 16, 8)
                    .with_compute(40)
                    .with_local_bytes(32),
            ),
        );
        let c = b.add_object(ObjectDef::new("c").with_method(MethodDef::oneway("sink", 24)));
        b.connect(a, 0, c, 0, 2.0);
        b.entry(a, 0);
        b.build().expect("valid test app")
    }

    fn runtime() -> Runtime {
        Runtime::new(two_stage_app(), vec![0, 1], 2, 0, Cycles(0)).expect("valid placement")
    }

    /// Op equality modulo marshalled payload bytes (sequence numbers vary
    /// between invocations by design; everything timing-relevant must not).
    fn same_shape(a: &Op, b: &Op) -> bool {
        match (a, b) {
            (Op::Compute(x), Op::Compute(y)) => x == y,
            (
                Op::LocalMem {
                    write: wa,
                    bytes: ba,
                },
                Op::LocalMem {
                    write: wb,
                    bytes: bb,
                },
            ) => wa == wb && ba == bb,
            (
                Op::Send {
                    dst: da,
                    bytes: ba,
                    tag: ta,
                    data: xa,
                },
                Op::Send {
                    dst: db,
                    bytes: bb,
                    tag: tb,
                    data: xb,
                },
            ) => da == db && ba == bb && ta == tb && xa.len() == xb.len(),
            (
                Op::Call {
                    dst: da,
                    bytes: ba,
                    reply_bytes: ra,
                    data: xa,
                },
                Op::Call {
                    dst: db,
                    bytes: bb,
                    reply_bytes: rb,
                    data: xb,
                },
            ) => da == db && ba == bb && ra == rb && xa.len() == xb.len(),
            _ => false,
        }
    }

    #[test]
    fn handler_synthesis_is_identical_across_invocations() {
        let mut rt = runtime();
        let inv = PendingInvocation::entry(ObjectId(0), MethodId(0));
        let mut pool = PayloadPool::new();
        let first = rt.synthesize(&inv, &mut pool);
        let second = rt.synthesize(&inv, &mut pool);

        // Identical programs: same length, domain and op timing shape
        // (2.0 calls/invocation is integral, so the carry emits exactly
        // two downstream sends every time).
        assert_eq!(first.len(), second.len());
        assert_eq!(first.domain(), second.domain());
        for (x, y) in first.ops().iter().zip(second.ops()) {
            assert!(same_shape(x, y), "{x:?} vs {y:?}");
        }

        // And byte-identical to a fresh runtime at the same sequence state.
        let mut cold = runtime();
        let cold_first = cold.synthesize(&inv, &mut PayloadPool::new());
        assert_eq!(first, cold_first);
    }

    #[test]
    fn drives_pace_exactly_in_one_jump_or_cycle_by_cycle() {
        let mut ticked = runtime();
        ticked.add_drive(ObjectId(0), 0.01).expect("entry point");
        ticked
            .add_drive(ObjectId(0), 1.0 / 3.0)
            .expect("entry point");
        let mut jumped = ticked.clone();
        // 1/3 rounds down to 1431655765 / 2^32: the third tick is one
        // credit unit short, the fourth (cycle 3) emits.
        assert_eq!(ticked.drive_due(), 3);
        for c in 1..=1_000 {
            ticked.sync_drives(c);
        }
        jumped.sync_drives(1_000);
        // floor(1000 * round(r * 2^32) / 2^32): 10 and 333.
        assert_eq!(ticked.queued_invocations(), 343);
        assert_eq!(jumped.queued_invocations(), 343);
        assert_eq!(ticked.drive_due(), jumped.drive_due());
        assert_eq!(runtime().drive_due(), u64::MAX, "no drive, no arrival");
    }

    #[test]
    fn unusable_drive_rates_are_errors() {
        let mut rt = runtime();
        for bad in [-0.5, f64::INFINITY, 4_294_967_296.0] {
            assert_eq!(
                rt.add_drive(ObjectId(0), bad),
                Err(InstallError::DriveRate(bad))
            );
        }
        assert!(rt.add_drive(ObjectId(0), f64::NAN).is_err());
        assert_eq!(
            rt.add_drive(ObjectId(1), 0.5),
            Err(InstallError::NotAnEntry(ObjectId(1)))
        );
        assert_eq!(rt.add_drive(ObjectId(0), 0.0), Ok(()));
    }

    #[test]
    fn a_binding_reaches_the_next_synthesis() {
        let mut rt = runtime();
        let inv = PendingInvocation::entry(ObjectId(0), MethodId(0));
        let mut pool = PayloadPool::new();
        assert!(rt.handlers[0][0].service.is_none());
        assert_eq!(rt.synthesize(&inv, &mut pool).call_count(), 0);
        let binding = ServiceBinding {
            node: NodeId(1),
            request_bytes: 8,
            reply_bytes: 64,
            calls: 3,
        };
        rt.bind_service(ObjectId(0), binding)
            .expect("object exists");
        assert_eq!(rt.handlers[0][0].service, Some(binding));
        // The synthesized handler now front-loads the three service calls.
        assert_eq!(rt.synthesize(&inv, &mut pool).call_count(), 3);
        assert_eq!(
            rt.bind_service(ObjectId(2), binding),
            Err(InstallError::UnknownObject(ObjectId(2)))
        );
    }
}
