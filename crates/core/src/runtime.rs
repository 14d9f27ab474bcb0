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
//!    busy.
//!
//! Entry-point traffic arrives one way: from an I/O channel bound to the
//! entry at its line rate ([`FppaPlatform::bind_io_entry`]).

use crate::tags::RequestTag;
use nw_dsoc::{Application, Domain, Message, MessageHeader, MessageKind, MethodId};
use nw_noc::Packet;
use nw_pe::{KernelDomain, Op, Pe, Program};
use nw_types::{Cycles, NodeId, ObjectId, Payload, ThreadId};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Errors from installing an application or binding its objects.
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
    /// The bound object is not an entry point of the application.
    NotAnEntry(ObjectId),
    /// No application is installed.
    NoApp,
    /// The I/O channel index does not exist.
    IoOutOfRange(usize),
    /// The object does not exist in the application.
    UnknownObject(ObjectId),
    /// The bound node is not a service endpoint (memory, fabric or hwip).
    NotAServiceNode(NodeId),
    /// The objects placed on PE `pe` have this many `(object, method)`
    /// handlers, more than the 128 a dispatch key indexes.
    TooManyHandlers {
        /// The PE.
        pe: usize,
        /// Handlers of the objects placed on it.
        handlers: usize,
    },
    /// A message size the wire cannot carry: `bytes` of `what` on
    /// `object`'s handlers, past the `limit` one payload holds. `method`
    /// is the method whose size it is; a binding's size is every method's.
    MessageTooLarge {
        /// The object.
        object: ObjectId,
        /// The method, for a method's own argument or reply size.
        method: Option<MethodId>,
        /// Which size: `"argument"`, `"reply"`, `"service request"`,
        /// `"service reply"` or `"egress packet"`.
        what: &'static str,
        /// The size asked for.
        bytes: u64,
        /// The largest size the wire carries there.
        limit: u64,
    },
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
            InstallError::TooManyHandlers { pe, handlers } => write!(
                f,
                "PE {pe} would host {handlers} handlers, more than the \
                 {MAX_HANDLERS_PER_PE} a dispatch key indexes"
            ),
            InstallError::MessageTooLarge {
                object,
                method,
                what,
                bytes,
                limit,
            } => {
                write!(f, "{object}")?;
                if let Some(m) = method {
                    write!(f, ".{m}")?;
                }
                write!(
                    f,
                    ": a {bytes}-byte {what}, past the {limit} bytes the wire carries"
                )
            }
        }
    }
}

impl std::error::Error for InstallError {}

/// How an I/O channel feeds an entry point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IoBinding {
    /// The entry method's handler.
    pub handler: usize,
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

/// The reply fields of a queued invocation that answers its caller: 16
/// bytes, kept only for an answering invocation (a oneway one never
/// reads them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reply {
    /// The invocation tag: the wire sequence number of the arriving
    /// request. The synthesized reply echoes it, so a reply correlates with
    /// its request on the wire — the tag threads request → dispatch queue →
    /// handler → reply.
    seq: u32,
    /// The caller's [`NodeId`], narrowed at enqueue.
    node: u32,
    /// The request tag the reply echoes; never 0.
    tag: u64,
}

/// One PE's dispatch backlog: the invocations awaiting an idle hardware
/// thread, in arrival order, as two FIFOs. Every invocation queues a
/// one-byte key `local << 1 | answers`: `local` is its handler's index
/// among the handlers of this PE's objects (`Runtime::pe_first`), and the
/// low bit says whether it answers. An answering one also queues its
/// [`Reply`], popped with the key. A oneway invocation costs 1 byte, an
/// answering one 17.
#[derive(Debug, Clone, Default)]
struct Backlog {
    keys: VecDeque<u8>,
    /// One per queued key whose answer bit is set, in the same order.
    replies: VecDeque<Reply>,
}

impl Backlog {
    /// Queues an invocation of local handler `local`, which answers when
    /// `reply` is set.
    fn push(&mut self, local: u8, reply: Option<Reply>) {
        debug_assert!(usize::from(local) < MAX_HANDLERS_PER_PE);
        self.keys.push_back(local << 1 | u8::from(reply.is_some()));
        self.replies.extend(reply);
    }

    /// The oldest invocation: its local handler index and, when it
    /// answers, its reply fields.
    fn pop(&mut self) -> Option<(usize, Option<Reply>)> {
        let key = self.keys.pop_front()?;
        let reply = (key & 1 == 1)
            .then(|| (self.replies.pop_front()).expect("an answering key has a reply record"));
        Some((usize::from(key >> 1), reply))
    }

    fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Handlers one PE can host: a backlog key keeps the local index in 7 bits.
const MAX_HANDLERS_PER_PE: usize = 1 << 7;

/// The largest message body the wire carries: header and body fill one
/// payload of at most [`Payload::MAX_LEN`] bytes.
const MAX_BODY_BYTES: u64 = (Payload::MAX_LEN - Message::HEADER_LEN) as u64;

/// The largest raw packet (service request or reply, egress hand-off).
/// It bounds a reply size in a request tag too, whose field is 32 bits.
const MAX_PACKET_BYTES: u64 = Payload::MAX_LEN as u64;

/// `Ok` when `bytes` is at most `limit`; else the error that names where.
fn check_size(
    object: ObjectId,
    method: Option<MethodId>,
    what: &'static str,
    bytes: u64,
    limit: u64,
) -> Result<(), InstallError> {
    if bytes <= limit {
        return Ok(());
    }
    Err(InstallError::MessageTooLarge {
        object,
        method,
        what,
        bytes,
        limit,
    })
}

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
    object: ObjectId,
    method: MethodId,
    domain: KernelDomain,
    /// Whether the method answers its caller.
    twoway: bool,
    /// This method's argument body size (an ingress invocation's).
    arg_bytes: u32,
    local_bytes: u64,
    service: Option<ServiceBinding>,
    compute_cycles: u64,
    /// Its downstream calls: `Runtime::edges[edges.0..edges.1]`.
    edges: (u32, u32),
    /// This method's reply body size (twoway answers).
    reply_body_bytes: u32,
    /// Egress binding: (I/O node, packet bytes).
    egress: Option<(NodeId, u64)>,
}

// One per `(object, method)` of the installed application: the heap
// footprint's `built` and `warmed` rows grow by any growth per handler.
const _: () = assert!(std::mem::size_of::<Handler>() <= 112);

/// Where one object's handlers sit in the table, fixed at install.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ObjectPlan {
    /// Its first handler: method `m` is handler `first + m`.
    first: u32,
    /// Its method count.
    methods: u16,
    /// The method an I/O channel bound to it feeds: its first in the
    /// application's entry list, `None` unless it is an entry point.
    entry: Option<MethodId>,
}

/// The installed-application runtime state.
///
/// What install fixes — placement, handler table, call edges and I/O
/// bindings — sits behind `Arc`s that every copy shares (a binding made
/// after a copy gives the binder its own table); the rest is what a run
/// changes.
#[derive(Debug, Clone)]
pub struct Runtime {
    /// object → PE index.
    placement: Arc<[usize]>,
    /// Every `(object, method)` handler, object by object with the objects
    /// grouped PE by PE: `(o, m)` is at `objects[o].first + m`, and PE
    /// `p`'s objects own `pe_first[p]..pe_first[p + 1]`.
    handlers: Arc<[Handler]>,
    /// Every handler's downstream calls, handler by handler, each
    /// handler's in the application's edge order.
    edges: Arc<[EdgePlan]>,
    objects: Arc<[ObjectPlan]>,
    pe_first: Arc<[usize]>,
    /// Per-PE dispatch backlogs.
    dispatch: Vec<Backlog>,
    io_bindings: Arc<[Vec<IoBinding>]>,
    io_rr: Vec<usize>,
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
    seq: u32,
    /// Invocations that arrived but could not be decoded, or reached a PE
    /// that does not host their object (protocol errors).
    pub decode_errors: u64,
    /// Invocations dispatched per object (per-stage throughput input).
    dispatched_per_object: Vec<u64>,
}

impl Runtime {
    pub(crate) fn new(
        app: &Application,
        placement: &[usize],
        n_pes: usize,
        n_ios: usize,
    ) -> Result<Self, InstallError> {
        let objects = app.objects();
        if placement.len() != objects.len() {
            return Err(InstallError::PlacementLength {
                objects: objects.len(),
                placed: placement.len(),
            });
        }
        if let Some(&bad) = placement.iter().find(|&&p| p >= n_pes) {
            return Err(InstallError::PeOutOfRange(bad));
        }
        let mut pe_first = vec![0; n_pes + 1];
        for (def, &p) in objects.iter().zip(placement) {
            pe_first[p + 1] += def.methods.len();
        }
        for p in 0..n_pes {
            let handlers = pe_first[p + 1];
            if handlers > MAX_HANDLERS_PER_PE {
                return Err(InstallError::TooManyHandlers { pe: p, handlers });
            }
            pe_first[p + 1] += pe_first[p];
        }
        let narrow = |i: usize| u32::try_from(i).expect("a handler or edge index fits 32 bits");
        // Objects PE by PE, in id order on each: a stable sort.
        let mut order: Vec<usize> = (0..objects.len()).collect();
        order.sort_by_key(|&o| placement[o]);
        let mut plans = vec![
            ObjectPlan {
                first: 0,
                methods: 0,
                entry: None,
            };
            objects.len()
        ];
        let mut handlers = Vec::with_capacity(pe_first[n_pes]);
        for o in order {
            let object = ObjectId(o);
            let methods = &objects[o].methods;
            plans[o].first = narrow(handlers.len());
            plans[o].methods =
                u16::try_from(methods.len()).expect("a PE hosts at most 128 handlers");
            for (m, def) in methods.iter().enumerate() {
                let method = MethodId(u16::try_from(m).expect("a PE hosts at most 128 handlers"));
                let (arg, reply) = (def.arg_bytes, def.reply_bytes);
                check_size(object, Some(method), "argument", arg, MAX_BODY_BYTES)?;
                check_size(object, Some(method), "reply", reply, MAX_BODY_BYTES)?;
                // Both fit: a body is at most a payload long.
                let (arg, reply) = (arg as u32, reply as u32);
                handlers.push(Handler {
                    object,
                    method,
                    domain: domain_to_kernel(def.domain),
                    twoway: def.is_twoway(),
                    arg_bytes: arg,
                    local_bytes: def.local_bytes,
                    service: None,
                    compute_cycles: def.compute_cycles,
                    edges: (0, 0),
                    reply_body_bytes: reply,
                    egress: None,
                });
            }
        }
        for &(o, m) in app.entries().iter().rev() {
            plans[o.0].entry = Some(m);
        }
        // Each handler's calls in edge order (synthesis order and the
        // carry slots rest on it), the handlers' runs in table order.
        let mut calls = vec![Vec::new(); handlers.len()];
        for (i, e) in app.edges().iter().enumerate() {
            let callee = app.method(e.to, e.to_method);
            let from = plans[e.from.0].first as usize + usize::from(e.from_method.0);
            calls[from].push(EdgePlan {
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
        let mut edges = Vec::with_capacity(app.edges().len());
        for (h, calls) in handlers.iter_mut().zip(calls) {
            h.edges = (narrow(edges.len()), narrow(edges.len() + calls.len()));
            edges.extend(calls);
        }
        Ok(Runtime {
            placement: placement.into(),
            handlers: handlers.into(),
            edges: edges.into(),
            objects: plans.into(),
            pe_first: pe_first.into(),
            dispatch: vec![Backlog::default(); n_pes],
            io_bindings: vec![Vec::new(); n_ios].into(),
            io_rr: vec![0; n_ios],
            edge_carry: vec![0.0; app.edges().len()],
            pending_total: 0,
            ready: vec![false; n_pes],
            ready_count: 0,
            seq: 0,
            decode_errors: 0,
            dispatched_per_object: vec![0; objects.len()],
        })
    }

    /// The object placement (object index → PE index).
    pub fn placement(&self) -> &[usize] {
        &self.placement
    }

    /// The handler index of `(object, method)`, when the application has it.
    fn handler_of(&self, object: ObjectId, method: MethodId) -> Option<usize> {
        let plan = self.objects.get(object.0)?;
        (method.0 < plan.methods).then(|| plan.first as usize + usize::from(method.0))
    }

    pub(crate) fn bind_io(&mut self, io: usize, object: ObjectId) -> Result<(), InstallError> {
        let plan = self.objects.get(object.0);
        let method = (plan.and_then(|p| p.entry)).ok_or(InstallError::NotAnEntry(object))?;
        if io >= self.io_bindings.len() {
            return Err(InstallError::IoOutOfRange(io));
        }
        let handler = self
            .handler_of(object, method)
            .expect("an entry method has a handler");
        let dst = pe_endpoint(self.placement[object.0]);
        Arc::make_mut(&mut self.io_bindings)[io].push(IoBinding { handler, dst });
        Ok(())
    }

    pub(crate) fn bind_egress(
        &mut self,
        object: ObjectId,
        io_node: NodeId,
        packet_bytes: u64,
    ) -> Result<(), InstallError> {
        let handlers = self.object_handlers(object)?;
        check_size(
            object,
            None,
            "egress packet",
            packet_bytes,
            MAX_PACKET_BYTES,
        )?;
        for h in Arc::make_mut(&mut self.handlers)[handlers].iter_mut() {
            h.egress = Some((io_node, packet_bytes));
        }
        Ok(())
    }

    pub(crate) fn bind_service(
        &mut self,
        object: ObjectId,
        binding: ServiceBinding,
    ) -> Result<(), InstallError> {
        let handlers = self.object_handlers(object)?;
        let (request, reply) = (binding.request_bytes, binding.reply_bytes);
        check_size(object, None, "service request", request, MAX_PACKET_BYTES)?;
        check_size(object, None, "service reply", reply, MAX_PACKET_BYTES)?;
        for h in Arc::make_mut(&mut self.handlers)[handlers].iter_mut() {
            h.service = Some(binding);
        }
        Ok(())
    }

    /// The handler indexes of `object`'s methods.
    fn object_handlers(&self, object: ObjectId) -> Result<std::ops::Range<usize>, InstallError> {
        let plan = self.objects.get(object.0);
        let plan = plan.ok_or(InstallError::UnknownObject(object))?;
        let first = plan.first as usize;
        Ok(first..first + usize::from(plan.methods))
    }

    /// Invocations dispatched per object (indexed by [`ObjectId`]).
    pub fn object_dispatches(&self) -> &[u64] {
        &self.dispatched_per_object
    }

    pub(crate) fn io_has_bindings(&self, io: usize) -> bool {
        self.io_bindings.get(io).is_some_and(|b| !b.is_empty())
    }

    /// Builds the (destination node, marshalled payload) of one line-rate
    /// ingress invocation for a bound I/O channel, rotating round-robin
    /// among the channel's bound entry points.
    ///
    /// # Panics
    ///
    /// Panics if the channel has no bindings (callers check
    /// [`Runtime::io_has_bindings`] first).
    pub(crate) fn ingress_invocation(&mut self, io: usize) -> (NodeId, Payload) {
        let bindings = &self.io_bindings[io];
        assert!(!bindings.is_empty(), "ingress on an unbound I/O channel");
        let b = bindings[self.io_rr[io] % bindings.len()];
        self.io_rr[io] = (self.io_rr[io] + 1) % bindings.len();
        let h = &self.handlers[b.handler];
        let header = MessageHeader {
            kind: MessageKind::Invocation,
            object: h.object,
            method: h.method,
            seq: next_seq(&mut self.seq),
            body_len: h.arg_bytes as usize,
        };
        (b.dst, header.zeroed_payload())
    }

    /// Routes an arriving DSOC packet at PE `p` (which has `idle_threads`
    /// free contexts) into its dispatch queue.
    pub(crate) fn enqueue_invocation(&mut self, p: usize, pkt: &Packet, idle_threads: usize) {
        let msg = match MessageHeader::decode(&pkt.data) {
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
        let Some(handler) = self.handler_of(msg.object, msg.method) else {
            self.decode_errors += 1;
            return;
        };
        // An invocation runs on the PE that hosts its object: arriving at
        // another, it has no handler there.
        if self.placement[msg.object.0] != p {
            self.decode_errors += 1;
            return;
        }
        let local =
            u8::try_from(handler - self.pe_first[p]).expect("a PE hosts at most 128 handlers");
        // A twoway invocation answers when its request carries a tag.
        let answers = pkt.tag != 0 && self.handlers[handler].twoway;
        let reply = if answers {
            // A caller node past `u32` (never built: each is a vector
            // index) is refused.
            let Ok(node) = u32::try_from(pkt.src.0) else {
                self.decode_errors += 1;
                return;
            };
            Some(Reply {
                seq: msg.seq,
                node,
                tag: pkt.tag,
            })
        } else {
            None
        };
        self.dispatch[p].push(local, reply);
        self.pending_total += 1;
        self.note_pe(p, idle_threads);
    }

    /// Whether the dispatcher has something to spawn on PE `p`: a free
    /// hardware thread and a queued invocation.
    fn can_spawn(&self, p: usize, idle_threads: usize) -> bool {
        idle_threads > 0 && !self.dispatch[p].is_empty()
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
    /// ready bit, and the count is the set bits.
    #[cfg(debug_assertions)]
    pub(crate) fn audit_agenda(&self, pes: &[Pe]) {
        for (p, pe) in pes.iter().enumerate() {
            let late = !self.ready[p] && self.can_spawn(p, pe.idle_threads());
            assert!(!late, "PE {p}: ready bit late");
        }
        let set = self.ready.iter().filter(|&&r| r).count();
        assert_eq!(self.ready_count, set, "ready count out of step");
    }

    /// The dispatcher's agenda entry: `now` while some PE is ready, else
    /// never (an arrival routed to a PE or a freed thread sets a bit).
    #[inline]
    pub(crate) fn dispatch_due(&self, now: u64) -> u64 {
        if self.ready_count > 0 {
            now
        } else {
            u64::MAX
        }
    }

    /// Dispatches queued invocations onto idle hardware threads, PE by PE
    /// ascending, each spawn reported to `on_spawn` as `(pe, thread,
    /// object)`. The caller refreshes the ready bits afterwards
    /// ([`Runtime::note_pes`]).
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
        mut on_spawn: impl FnMut(usize, ThreadId, ObjectId),
    ) -> (u64, u64) {
        let (mut woken, mut earliest) = (0, u64::MAX);
        if self.pending_total == 0 {
            return (woken, earliest);
        }
        for (p, pe) in pes.iter_mut().enumerate() {
            if self.dispatch[p].is_empty() || pe.idle_threads() == 0 {
                continue;
            }
            pe.settle_accounting(now);
            while pe.idle_threads() > 0 {
                let Some((handler, reply)) = self.take_invocation(p) else {
                    break;
                };
                self.spawn(p, pe, handler, reply, &mut on_spawn);
            }
            let at = pe.wake_cycle(now);
            pe_wake[p] = pe_wake[p].min(at);
            earliest = earliest.min(at);
            woken += 1;
        }
        (woken, earliest)
    }

    /// Takes PE `p`'s oldest queued invocation: its handler index and, when
    /// it answers, its reply fields.
    fn take_invocation(&mut self, p: usize) -> Option<(usize, Option<Reply>)> {
        let (local, reply) = self.dispatch[p].pop()?;
        self.pending_total -= 1;
        Some((self.pe_first[p] + local, reply))
    }

    /// Spawns an invocation of `handler` on PE `p`, which has an idle
    /// thread; `reply` is set when the invocation answers.
    fn spawn(
        &mut self,
        p: usize,
        pe: &mut Pe,
        handler: usize,
        reply: Option<Reply>,
        on_spawn: &mut impl FnMut(usize, ThreadId, ObjectId),
    ) {
        let prog = self.synthesize(handler, reply, pe.take_spare_ops());
        let tid = pe.spawn(prog).expect("idle thread count was checked");
        let object = self.handlers[handler].object;
        on_spawn(p, tid, object);
        self.dispatched_per_object[object.0] += 1;
    }

    /// Synthesizes the program for one invocation of `handler`, which
    /// answers when `reply` is set; only the fractional-multiplicity carry
    /// and message sequence numbers vary between invocations of the same
    /// `(object, method)`.
    ///
    /// The ops are pushed onto `ops`, an empty buffer the hosting PE handed
    /// out ([`Pe::take_spare_ops`]): the program owns it until the PE
    /// retires it and keeps it for the next spawn, so a steady stream of
    /// invocations allocates no op storage. Marshalled messages are
    /// header-only payloads: the bodies are all-zero (only sizes are
    /// simulated).
    fn synthesize(&mut self, handler: usize, reply: Option<Reply>, mut ops: Vec<Op>) -> Program {
        debug_assert!(ops.is_empty(), "a spare op buffer comes back cleared");
        let h = &self.handlers[handler];
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
                    data: Payload::EMPTY,
                });
            }
        }
        if h.compute_cycles > 0 {
            ops.push(Op::Compute(h.compute_cycles));
        }
        // Downstream calls, with deterministic fractional-multiplicity carry.
        let (first, end) = h.edges;
        for e in &self.edges[first as usize..end as usize] {
            self.edge_carry[e.edge_idx] += e.calls_per_invocation;
            // The carry is ≥ 0, where the truncating cast is `floor`.
            let carry = self.edge_carry[e.edge_idx];
            let count = carry as u64;
            debug_assert_eq!(count, carry.floor() as u64, "carry {carry}");
            self.edge_carry[e.edge_idx] -= count as f64;
            for _ in 0..count {
                let data = MessageHeader {
                    kind: MessageKind::Invocation,
                    object: e.to,
                    method: e.to_method,
                    seq: next_seq(&mut self.seq),
                    body_len: e.arg_bytes as usize,
                }
                .zeroed_payload();
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
        if let Some(r) = reply {
            let data = MessageHeader {
                kind: MessageKind::Reply,
                object: h.object,
                method: h.method,
                seq: r.seq,
                body_len: h.reply_body_bytes as usize,
            }
            .zeroed_payload();
            let bytes = data.len() as u64;
            ops.push(Op::Send {
                dst: NodeId(r.node as usize),
                bytes,
                data,
                tag: RequestTag::decode(r.tag).encode_reply(),
            });
        }
        // Egress hand-off.
        if let Some((io_node, packet_bytes)) = h.egress {
            ops.push(Op::Send {
                dst: io_node,
                bytes: packet_bytes,
                data: Payload::EMPTY,
                tag: 0,
            });
        }
        Program::from_ops(ops, h.domain)
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
        let rt = Runtime::new(app, placement, self.sim.pes.len(), self.sim.ios.len())?;
        self.sim.runtime = Some(rt);
        self.post_io();
        self.sim.calls.reset(app.objects().len());
        Ok(())
    }

    /// Feeds entry-point `object` from I/O channel `io` at line rate.
    ///
    /// # Errors
    ///
    /// See [`InstallError`].
    pub fn bind_io_entry(&mut self, io: usize, object: ObjectId) -> Result<(), InstallError> {
        self.runtime_mut()?.bind_io(io, object)?;
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
        if io >= self.sim.ios.len() {
            return Err(InstallError::IoOutOfRange(io));
        }
        let io_node = self.io_node(io);
        self.runtime_mut()?
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
        self.runtime_mut()?.bind_service(
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
        self.sim.runtime.as_ref()
    }

    /// The installed runtime, or [`InstallError::NoApp`].
    fn runtime_mut(&mut self) -> Result<&mut Runtime, InstallError> {
        self.sim.runtime.as_mut().ok_or(InstallError::NoApp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_dsoc::{MethodDef, ObjectDef};
    use nw_noc::PacketId;
    use proptest::prelude::*;

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
        Runtime::new(&two_stage_app(), &[0, 1], 2, 0).expect("valid placement")
    }

    /// The entry point's handler (`a.go`, the table's first).
    const ENTRY: usize = 0;

    /// A packet from node `src` carrying an invocation of `(object, method)`.
    fn invocation(object: usize, method: u16, seq: u32, src: usize, tag: u64) -> Packet {
        let data = MessageHeader {
            kind: MessageKind::Invocation,
            object: ObjectId(object),
            method: MethodId(method),
            seq,
            body_len: 0,
        }
        .zeroed_payload();
        Packet {
            id: PacketId(0),
            src: NodeId(src),
            dst: NodeId(0),
            data,
            tag,
            injected_at: Cycles(0),
        }
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
        let first = rt.synthesize(ENTRY, None, Vec::new());
        let second = rt.synthesize(ENTRY, None, Vec::new());

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
        let cold_first = cold.synthesize(ENTRY, None, Vec::new());
        assert_eq!(first, cold_first);
    }

    #[test]
    fn a_oneway_entry_costs_1_byte_and_an_answering_one_17() {
        let bytes = |b: &Backlog| {
            b.keys.len() * std::mem::size_of::<u8>()
                + b.replies.len() * std::mem::size_of::<Reply>()
        };
        let mut rt = runtime();
        rt.enqueue_invocation(1, &invocation(1, 0, 5, 0, 9), 0);
        assert_eq!(bytes(&rt.dispatch[1]), 1);
        rt.enqueue_invocation(0, &invocation(0, 0, 5, 1, 9), 0);
        assert_eq!(bytes(&rt.dispatch[0]), 17);
        assert_eq!(rt.dispatch[0].replies.len(), 1);
    }

    #[test]
    fn only_a_nonzero_reply_tag_synthesizes_a_reply() {
        let mut rt = runtime();
        let sends = |p: &Program| {
            let is_send = |op: &&Op| matches!(op, Op::Send { .. });
            p.ops().iter().filter(is_send).count()
        };
        // `a.go` answers a tagged request only; `c.sink` is oneway.
        // Object `o` is placed on PE `o`.
        for (object, tag, answers) in [(0, 0, false), (0, 7, true), (1, 7, false)] {
            rt.enqueue_invocation(object, &invocation(object, 0, 3, 1, tag), 0);
            let (handler, reply) = rt.take_invocation(object).expect("one queued");
            assert_eq!(reply.is_some(), answers, "object {object}, tag {tag}");
            let silent = rt.synthesize(handler, None, Vec::new());
            let prog = rt.synthesize(handler, reply, Vec::new());
            assert_eq!(sends(&prog), sends(&silent) + usize::from(answers));
            if answers {
                let last = prog.ops().last();
                let to_caller = matches!(last, Some(Op::Send { dst: NodeId(1), .. }));
                assert!(to_caller, "{last:?}");
            }
        }
        assert_eq!(rt.queued_invocations(), 0);
    }

    /// An application whose objects have `methods[o]` oneway methods each.
    fn app_of(methods: &[usize]) -> Application {
        let mut b = Application::builder("wide");
        for (o, &n) in methods.iter().enumerate() {
            let mut def = ObjectDef::new(&format!("o{o}"));
            for m in 0..n {
                def = def.with_method(MethodDef::oneway(&format!("m{m}"), 8));
            }
            b.add_object(def);
        }
        b.entry(ObjectId(0), 0);
        b.build().expect("valid test app")
    }

    #[test]
    fn a_handler_index_past_the_key_is_an_install_error() {
        // 128 handlers on PE 1, split over two objects, fit; so do 128 on
        // each of two PEs.
        let app = app_of(&[1, 100, 28, 128]);
        let rt = Runtime::new(&app, &[0, 1, 1, 2], 3, 0).expect("128 per PE fit");
        assert_eq!(rt.pe_first[..], [0, 1, 129, 257]);
        // The last local index comes back out of a key whole and names
        // its handler.
        let mut rt = rt;
        rt.enqueue_invocation(1, &invocation(2, 27, 5, 0, 0), 0);
        assert_eq!(rt.dispatch[1].keys, [127 << 1]);
        let (handler, _) = rt.take_invocation(1).expect("one queued");
        let h = &rt.handlers[handler];
        assert_eq!((h.object, h.method), (ObjectId(2), MethodId(27)));
        // A 129th handler on one PE is refused, naming the PE.
        let err = Runtime::new(&app, &[0, 1, 1, 1], 3, 0).err();
        let want = InstallError::TooManyHandlers {
            pe: 1,
            handlers: 256,
        };
        assert_eq!(err, Some(want.clone()));
        assert_eq!(
            want.to_string(),
            "PE 1 would host 256 handlers, more than the 128 a dispatch key indexes"
        );
        let err = Runtime::new(&app_of(&[1, 129]), &[0, 1], 2, 0).err();
        let want = InstallError::TooManyHandlers {
            pe: 1,
            handlers: 129,
        };
        assert_eq!(err, Some(want));
    }

    /// A queued invocation with every field spelled out: the oracle the
    /// two-FIFO backlog is checked against.
    #[derive(Debug, Clone)]
    struct PendingInvocation {
        object: ObjectId,
        method: MethodId,
        seq: u32,
        reply_node: usize,
        /// 0: no reply.
        reply_tag: u64,
    }

    /// Three objects with oneway and twoway methods, on two PEs.
    fn mixed_app() -> Application {
        let mut b = Application::builder("mixed");
        let a = b.add_object(
            ObjectDef::new("a")
                .with_method(MethodDef::twoway("go", 8, 8))
                .with_method(MethodDef::oneway("poke", 8)),
        );
        b.add_object(ObjectDef::new("b").with_method(MethodDef::oneway("sink", 8)));
        b.add_object(
            ObjectDef::new("c")
                .with_method(MethodDef::oneway("note", 8))
                .with_method(MethodDef::twoway("ask", 8, 16))
                .with_method(MethodDef::twoway("query", 8, 4)),
        );
        b.entry(a, 0);
        b.build().expect("valid test app")
    }

    /// Pops PE `p`'s oldest invocation from both and checks they agree.
    fn pop_both(rt: &mut Runtime, oracle: &mut [VecDeque<PendingInvocation>], p: usize) {
        let (handler, reply, want) = match (rt.take_invocation(p), oracle[p].pop_front()) {
            (Some((handler, reply)), Some(want)) => (handler, reply, want),
            (got, want) => {
                assert!(
                    got.is_none() && want.is_none(),
                    "PE {p}: {got:?} vs {want:?}"
                );
                return;
            }
        };
        let h = &rt.handlers[handler];
        assert_eq!((h.object, h.method), (want.object, want.method));
        let want_reply = (want.reply_tag != 0).then(|| Reply {
            seq: want.seq,
            node: u32::try_from(want.reply_node).expect("test nodes fit"),
            tag: want.reply_tag,
        });
        assert_eq!(reply, want_reply);
        let queued: usize = oracle.iter().map(VecDeque::len).sum();
        assert_eq!(rt.queued_invocations(), queued);
        // One reply record per queued answering entry: none at all while
        // only oneway entries are queued.
        for (b, q) in rt.dispatch.iter().zip(oracle.iter()) {
            let answering = q.iter().filter(|i| i.reply_tag != 0).count();
            assert_eq!(b.replies.len(), answering, "reply FIFO out of step");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of oneway and answering arrivals, pops and
        /// forks: the backlog pops what a queue of whole invocations pops.
        #[test]
        fn the_backlog_pops_what_a_queue_of_whole_invocations_pops(
            steps in prop::collection::vec(
                (0u8..10, 0usize..2, 0usize..6, any::<bool>(), any::<u64>(), any::<u32>()),
                1..300,
            )
        ) {
            const METHODS: [(usize, u16); 6] = [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (2, 2)];
            let app = mixed_app();
            let mut rt = Runtime::new(&app, &[0, 1, 1], 2, 0).expect("valid");
            let mut oracle = vec![VecDeque::new(); 2];
            let mut forked = Vec::new();
            for (step, p, m, tagged, tag, seq) in steps {
                match step {
                    0..=4 => {
                        let (object, method) = METHODS[m];
                        let tag = if tagged { tag } else { 0 };
                        let src = usize::try_from(seq >> 8).expect("fits");
                        let errors = rt.decode_errors;
                        rt.enqueue_invocation(p, &invocation(object, method, seq, src, tag), 0);
                        // Objects 1 and 2 are placed on PE 1; arriving
                        // elsewhere, an invocation has no handler.
                        if p != usize::from(object > 0) {
                            prop_assert_eq!(rt.decode_errors, errors + 1);
                            continue;
                        }
                        let (object, method) = (ObjectId(object), MethodId(method));
                        let twoway = app.method(object, method).is_twoway();
                        oracle[p].push_back(PendingInvocation {
                            object,
                            method,
                            seq,
                            reply_node: src,
                            reply_tag: if twoway { tag } else { 0 },
                        });
                    }
                    5..=8 => pop_both(&mut rt, &mut oracle, p),
                    // A fork: the copy is drained at the end.
                    _ => forked.push((rt.clone(), oracle.clone())),
                }
            }
            forked.push((rt, oracle));
            for (mut rt, mut oracle) in forked {
                for p in 0..2 {
                    while !oracle[p].is_empty() {
                        pop_both(&mut rt, &mut oracle, p);
                    }
                    pop_both(&mut rt, &mut oracle, p);
                }
                prop_assert_eq!(rt.queued_invocations(), 0);
            }
        }
    }

    #[test]
    fn a_binding_reaches_the_next_synthesis() {
        let mut rt = runtime();
        assert!(rt.handlers[ENTRY].service.is_none());
        let calls = |rt: &mut Runtime| rt.synthesize(ENTRY, None, Vec::new()).call_count();
        assert_eq!(calls(&mut rt), 0);
        let binding = ServiceBinding {
            node: NodeId(1),
            request_bytes: 8,
            reply_bytes: 64,
            calls: 3,
        };
        rt.bind_service(ObjectId(0), binding)
            .expect("object exists");
        assert_eq!(rt.handlers[ENTRY].service, Some(binding));
        // The synthesized handler now front-loads the three service calls.
        assert_eq!(calls(&mut rt), 3);
        assert_eq!(
            rt.bind_service(ObjectId(2), binding),
            Err(InstallError::UnknownObject(ObjectId(2)))
        );
    }
}
