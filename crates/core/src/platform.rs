//! The cycle-stepped FPPA platform.
//!
//! [`FppaPlatform`] wires every substrate together behind one NoC: PEs raise
//! [`PeRequest`]s that become packets, service nodes (memory, eFPGA,
//! hardwired IP) answer tagged requests, I/O channels pace ingress traffic
//! at line rate and absorb egress, and the DSOC runtime (in
//! [`runtime`](crate::runtime)) dispatches marshalled invocations onto
//! hardware threads.
//!
//! Within each cycle the platform advances in a fixed order — I/O pacing,
//! ingress injection, NoC, arrival routing, service nodes, DSOC dispatch,
//! PEs, request servicing, and the injection retry queue — which makes whole
//! runs bit-reproducible.
//!
//! [`PeRequest`]: nw_pe::PeRequest

use crate::calls::{CallTable, Expired, Reply};
use crate::config::{BuildPlatformError, FppaConfig};
use crate::fabric::Efpga;
use crate::faults::{FabricShape, FaultCampaign, FaultKind};
use crate::io::IoChannel;
use crate::report::PlatformReport;
use crate::resilience::{ResilienceStats, RetryPolicy};
use crate::runtime::Runtime;
use crate::services::Services;
use crate::tags::{is_reply, RequestTag};
use nw_dsoc::{MessageHeader, MessageKind};
use nw_noc::{Noc, NocWork, Topology};
use nw_obs::{HostPhase, HostProfiler, NocHeatmap, TraceEvent, TraceSink};
use nw_pe::{Pe, PeRequest};
use nw_sim::LatencyHistogram;
use nw_types::{
    AreaMm2, Cycles, MemorySpec, NodeId, ObjectId, Payload, PeId, Picojoules, ThreadId,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// How [`FppaPlatform::step`] visits components each cycle.
///
/// Both schedulers run the same step function and produce **bit-identical**
/// simulations — same reports, same statistics, same packet-level timing.
/// `Dense` is the reference kept for differential testing; `ActiveSet` is
/// the fast path used by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Reference scheduler: every phase is entered and every component is
    /// ticked every cycle.
    Dense,
    /// Event-driven scheduler: every source of work posts the cycle it is
    /// next due in the platform's agenda; [`FppaPlatform::run`] hops the
    /// clock to the earliest entry and a stepped cycle enters only the
    /// phases that are due. PEs sleep through compute bursts, stalls and
    /// dormancy, I/O channels are paced lazily in closed form, and service
    /// nodes tick on the cycles they answer.
    #[default]
    ActiveSet,
}

/// Deterministic work counters of the scheduler: what the run loop did,
/// not what the simulation computed. They legitimately differ between
/// [`SchedulerMode::Dense`] and [`SchedulerMode::ActiveSet`] (which is why
/// they stay out of [`PlatformReport`]), but for a given mode they are a
/// pure function of configuration and seed, so they repeat exactly and
/// explain a wall-clock move without its noise. Cumulative since the
/// platform was built; snapshots and forks carry them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Cycles advanced one at a time by a scheduler step.
    pub cycles_stepped: u64,
    /// Cycles skipped by fast-forward hops.
    pub cycles_hopped: u64,
    /// Fast-forward hops taken.
    pub hops: u64,
    /// Hops whose target cycle is an arrival on a bound I/O channel (ties
    /// with a PE wake, NoC event, fault, retry deadline or the end of the
    /// run included): the pacing, not the platform, ended the quiet span.
    pub hops_ended_by_io: u64,
    /// `Pe::tick` calls made (dense: every PE every stepped cycle).
    pub pe_ticks: u64,
    /// Wake requests posted for a PE by something other than its own tick:
    /// reply delivery, NI accept, dispatch spawn, retry give-up, crash,
    /// restart, `pe_mut`.
    pub pe_external_wakes: u64,
    /// Active-set steps that skipped the NoC tick because `Noc::due_now`
    /// said nothing was due (dense ticks the NoC every cycle: always 0).
    pub noc_ticks_skipped: u64,
    /// Stepped cycles run inside a NoC-only span (see
    /// [`FppaPlatform::run`]): cycles on which the NoC was the only due
    /// source, stepped without reading the rest of the agenda. A share of
    /// `cycles_stepped`, not an addition to it; dense never spans, so 0.
    /// On nwbench's windows it is 2.36 M of `video-knee`'s 3.41 M stepped
    /// cycles and 0.12 M of `ipv4-sat`'s 1.50 M: the interconnect-centric
    /// media rig spends most of its stepped cycles moving packets only.
    pub span_cycles: u64,
    /// How often each of the seven phases of a stepped cycle was entered,
    /// indexed by [`HostPhase`] (`IoPacing` .. `Outbox`; `IoPacing` counts
    /// the cycles in which a fault, a retry deadline or the I/O pacing
    /// itself was due). The active set enters a phase only when its agenda
    /// entry is due; dense enters every phase on every cycle.
    pub phases_entered: [u64; 7],
    /// What the NoC ticks that did run cost: ticks, arrivals drained,
    /// router wakes scheduled, routers visited, link transfers fired.
    /// Filled in by [`FppaPlatform::scheduler_stats`] from [`Noc::work`].
    pub noc: NocWork,
}

/// A source of platform work. Each has one entry in the agenda
/// ([`FppaPlatform::due`]): the cycle its phase must next run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Faults,
    Retries,
    Io,
    Noc,
    Services,
    Dispatch,
    Pes,
    Outbox,
}

/// Every source but the NoC: the entries a NoC-only span's limit is read
/// from ([`FppaPlatform::run`]).
#[cfg(debug_assertions)]
const NOT_NOC: [Source; 7] = [
    Source::Faults,
    Source::Retries,
    Source::Io,
    Source::Services,
    Source::Dispatch,
    Source::Pes,
    Source::Outbox,
];

/// An agenda entry with nothing scheduled.
pub(crate) const NEVER: u64 = u64::MAX;

/// The NoC endpoint of PE `p`: PEs come first in the endpoint order
/// ([`FppaPlatform::new`]).
pub(crate) fn pe_endpoint(p: usize) -> NodeId {
    NodeId(p)
}

/// What sits at one NoC endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Processing element (index into the PE list).
    Pe(usize),
    /// Memory controller.
    Memory(usize),
    /// Embedded FPGA fabric.
    Fabric(usize),
    /// Hardwired IP block.
    HwIp(usize),
    /// I/O channel.
    Io(usize),
}

/// A packet queued for injection (with retry-on-backpressure).
#[derive(Debug, Clone)]
pub(crate) struct Outgoing {
    pub src: NodeId,
    pub dst: NodeId,
    pub data: Payload,
    pub tag: u64,
    /// Thread to complete once the NI accepts the packet (async sends).
    pub on_accept: Option<(PeId, nw_types::ThreadId)>,
}

/// The assembled platform: its simulation state and the host-side
/// observers watching it.
///
/// See the [crate-level documentation](crate) for a quickstart.
#[derive(Debug)]
pub struct FppaPlatform {
    /// Everything a run reads or changes: what a snapshot copies.
    pub(crate) sim: State,
    obs: Observers,
}

/// What never changes after [`FppaPlatform::new`]: every copy of a
/// platform shares one.
#[derive(Debug)]
struct Fixed {
    cfg: FppaConfig,
    roles: Vec<NodeRole>,
}

/// The simulation state of a [`FppaPlatform`]: every field a run reads or
/// changes, and nothing that only watches it. A snapshot, a restore and a
/// fork each clone it; the tables that never change after build or
/// install sit behind `Arc`s, which the clone shares.
#[derive(Debug, Clone)]
pub(crate) struct State {
    fixed: Arc<Fixed>,
    pub(crate) noc: Noc,
    pub(crate) pes: Vec<Pe>,
    /// Memories, fabrics and hardwired IP with their request bookkeeping
    /// and the `Services` agenda entry (see [`crate::services`]).
    pub(crate) services: Services,
    pub(crate) ios: Vec<IoChannel>,
    /// The cycle currently executing.
    now: Cycles,
    outbox: VecDeque<Outgoing>,
    pub(crate) runtime: Option<Runtime>,
    scheduler: SchedulerMode,
    /// Active-set scheduling: the next cycle each PE must tick
    /// (`u64::MAX`: dormant until an external event). An early entry is
    /// conservative (a tick first catches up, then runs normally); a later
    /// one is the PE's own [`Pe::quiet_span`] promise that leaving it
    /// unticked until then and settling in bulk is bit-identical. Set
    /// after every tick, pulled earlier by [`FppaPlatform::wake_pe`]. The
    /// dense step never reads or posts it, so under dense every entry
    /// stays at or before `now` (where the switch to dense put it).
    pe_wake: Vec<u64>,
    /// Agenda entry of the PE phase: a cycle at or before `min(pe_wake)`.
    /// Lowered with the table ([`FppaPlatform::wake_pe`], dispatch),
    /// recomputed by the PE phase, which walks the table anyway.
    pe_due: u64,
    /// Agenda entry of the I/O phase: the cycle the next packet arrives on
    /// a bound channel (the coming cycle while one holds an RX backlog).
    /// Posted by [`FppaPlatform::post_io`].
    io_due: u64,
    /// I/O channels are advanced lazily, in closed form: every channel has
    /// been ticked for the cycles before this one. Behind the clock only
    /// between an I/O phase and the next phase or [`FppaPlatform::settle`].
    io_synced: u64,
    /// Scheduler work counters (`noc` is filled in on read).
    sched_stats: SchedulerStats,
    /// Every in-flight synchronous call — latency probe and retry entry
    /// per hardware thread — with the per-object latency telemetry and the
    /// retry policy (see [`crate::calls`]).
    pub(crate) calls: CallTable,
    /// The due retries `check_retries` is handling, kept between
    /// calls so that a steady run of timeouts allocates nothing; empty
    /// outside it, so a copy allocates nothing for it.
    expired: Vec<Expired>,
    /// Installed fault campaign, drained cycle by cycle at the top of each
    /// step. `None` keeps every fault hook structurally untouched, so
    /// faults-off runs are bit-identical to builds without the subsystem.
    campaign: Option<FaultCampaign>,
    /// Fault counters surfaced through [`FppaPlatform::resilience_stats`]
    /// (the retry counters live in `calls`); all zero when faults are off.
    rstats: ResilienceStats,
}

/// The host-side observers of a [`FppaPlatform`]: never simulation state,
/// never copied.
#[derive(Debug, Default)]
struct Observers {
    /// Sim-domain trace sink (see [`FppaPlatform::set_trace_sink`]). A pure
    /// observer: events are derived from simulation state and never fed
    /// back, so traced runs are bit-identical to untraced ones (pinned by
    /// the scheduler differential suite). `None` costs one branch per
    /// emission site.
    sink: Option<Box<dyn TraceSink>>,
    /// Host-side wall-clock phase profiler (see
    /// [`FppaPlatform::set_host_profiler`]). Host-domain only — its
    /// readings never influence simulation state.
    profiler: Option<HostProfiler>,
}

/// A checkpoint of a [`FppaPlatform`]: its simulation state.
///
/// Captures the complete simulation state — PE/program state, NoC engine
/// state (queues, `busy_until` stamps, event-wheel wakes), runtime
/// dispatch state (pending invocations, retry deadlines, handler table),
/// service/memory state, latency histograms and resilience counters — such
/// that
/// [`FppaPlatform::from_snapshot`] continues bit-identically to the
/// uninterrupted original.
///
/// It cannot hold the host-side observers (the trace sink and the host
/// profiler): they live outside the state. [`FppaPlatform::restore`]
/// keeps the target's own observers across the restore.
#[derive(Debug)]
pub struct PlatformSnapshot {
    state: State,
}

impl FppaPlatform {
    /// Builds the platform from its configuration.
    ///
    /// # Errors
    ///
    /// [`BuildPlatformError::NoPes`] for an empty platform;
    /// [`BuildPlatformError::Topology`] if the NoC cannot be built;
    /// [`BuildPlatformError::Noc`] for a NoC timing configuration no
    /// traffic could move under (zero flit width or NI depth);
    /// [`BuildPlatformError::Io`] for an I/O channel that cannot be paced
    /// (zero packet size, unusable clock or rate);
    /// [`BuildPlatformError::Pe`] for a PE with no thread contexts or more
    /// than 64; [`BuildPlatformError::Memory`] for a memory with no bank or
    /// no bank queue; [`BuildPlatformError::HwIp`] for a hardwired block
    /// with a zero initiation interval or latency.
    pub fn new(cfg: FppaConfig) -> Result<Self, BuildPlatformError> {
        if cfg.pes.is_empty() {
            return Err(BuildPlatformError::NoPes);
        }
        // `n_threads` is a public field; `Pe::new` panics on what it cannot
        // hold in one set word.
        for (index, pe) in cfg.pes.iter().enumerate() {
            let reason = match pe.n_threads {
                0 => "no thread contexts",
                1..=64 => continue,
                _ => "more than 64 thread contexts",
            };
            return Err(BuildPlatformError::Pe { index, reason });
        }
        // Likewise the service blocks' public fields, which their
        // constructors assert on.
        for (index, m) in cfg.memories.iter().enumerate() {
            let reason = match (m.banks, m.queue_depth) {
                (0, _) => "no banks",
                (_, 0) => "no bank queue capacity",
                _ => continue,
            };
            return Err(BuildPlatformError::Memory { index, reason });
        }
        for (index, h) in cfg.hwip.iter().enumerate() {
            let reason = match (h.ii, h.latency) {
                (0, _) => "zero initiation interval",
                (_, 0) => "zero pipeline latency",
                _ => continue,
            };
            return Err(BuildPlatformError::HwIp { index, reason });
        }
        let n = cfg.n_endpoints();
        let link_latency = cfg.effective_link_latency();
        let topo = Topology::build(cfg.topology, n, link_latency)?;
        // Credit-based flow control only keeps long links busy when the
        // buffer pool covers the credit round trip (the latency-bandwidth
        // product); undersized buffers cause tree saturation long before
        // the wires are full.
        let mut noc_cfg = cfg.noc;
        noc_cfg.input_buffer = noc_cfg
            .input_buffer
            .max(4 + (link_latency + noc_cfg.router_delay) as usize / 2);
        noc_cfg.validate().map_err(BuildPlatformError::Noc)?;
        let noc = Noc::new(topo, noc_cfg);

        // Endpoint order: PEs, memories, fabrics, hardwired IP, I/O.
        let pes: Vec<Pe> = cfg.pes.iter().cloned().map(Pe::new).collect();
        let services = Services::new(&cfg, NodeId(pes.len()));
        let mut roles: Vec<NodeRole> = (0..pes.len()).map(NodeRole::Pe).collect();
        roles.extend((0..cfg.memories.len()).map(NodeRole::Memory));
        roles.extend((0..cfg.fabrics.len()).map(NodeRole::Fabric));
        roles.extend((0..cfg.hwip.len()).map(NodeRole::HwIp));
        let ios = cfg
            .io
            .iter()
            .enumerate()
            .map(|(index, c)| {
                IoChannel::new(*c).map_err(|reason| BuildPlatformError::Io { index, reason })
            })
            .collect::<Result<Vec<IoChannel>, _>>()?;
        roles.extend((0..ios.len()).map(NodeRole::Io));

        let n_pes = pes.len();
        let calls = CallTable::new(pes.iter().map(Pe::n_threads));
        let sim = State {
            fixed: Arc::new(Fixed { cfg, roles }),
            noc,
            pes,
            services,
            ios,
            now: Cycles::ZERO,
            outbox: VecDeque::new(),
            runtime: None,
            scheduler: SchedulerMode::default(),
            pe_wake: vec![0; n_pes],
            pe_due: 0,
            io_due: NEVER,
            io_synced: 0,
            sched_stats: SchedulerStats::default(),
            calls,
            expired: Vec::new(),
            campaign: None,
            rstats: ResilienceStats::default(),
        };
        Ok(FppaPlatform::with_state(sim))
    }

    /// A platform running `sim`, with no observer installed.
    fn with_state(sim: State) -> FppaPlatform {
        let obs = Observers::default();
        FppaPlatform { sim, obs }
    }

    /// Checkpoints the platform. The snapshot owns an independent copy of
    /// every piece of simulation state; the platform is untouched (host
    /// observers included) and can keep running.
    pub fn snapshot(&self) -> PlatformSnapshot {
        PlatformSnapshot {
            state: self.sim.clone(),
        }
    }

    /// Rebuilds a platform from a snapshot. The result runs bit-identically
    /// to the platform the snapshot was taken from — same reports under
    /// both [`SchedulerMode`]s, with or without an active fault campaign —
    /// and starts with no trace sink or profiler installed.
    pub fn from_snapshot(snap: &PlatformSnapshot) -> FppaPlatform {
        FppaPlatform::with_state(snap.state.clone())
    }

    /// Overwrites this platform's simulation state with the snapshot's,
    /// keeping the host-side observers (trace sink, profiler) this
    /// platform already has. Restoring under an installed sink re-enables
    /// the NoC heatmap on the restored state.
    pub fn restore(&mut self, snap: &PlatformSnapshot) {
        self.sim = snap.state.clone();
        if self.obs.sink.is_some() {
            self.sim.noc.enable_obs();
        }
    }

    /// Spawns an independent measurement replica: a bit-exact copy of this
    /// warmed-up platform, re-seeded with `seed`. The replica shares the
    /// parent's entire history (queues, histograms, fault effects already
    /// applied) but its *future* randomness — the undrained tail of an
    /// installed fault campaign, the platform's only random input — is
    /// redrawn from `seed`. Forking with the seed the campaign was
    /// generated from (or any seed, when no campaign is installed)
    /// reproduces the uninterrupted run exactly; distinct seeds give
    /// statistically independent replicas. The replica starts with no
    /// trace sink or profiler installed.
    pub fn fork(&self, seed: u64) -> FppaPlatform {
        let mut sim = self.sim.clone();
        if let Some(c) = sim.campaign.as_mut() {
            c.reseed(seed, sim.now.0);
        }
        FppaPlatform::with_state(sim)
    }

    /// Installs a trace sink: from now on the platform reports packet
    /// injections/deliveries, link transfers, handler dispatch/retire,
    /// deadline misses and fast-forward hops to it, and the NoC starts its
    /// heatmap accounting. Tracing is pure observation — a traced run
    /// produces bit-identical reports to an untraced one.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sim.noc.enable_obs();
        self.obs.sink = Some(sink);
    }

    /// Removes and returns the installed trace sink (NoC heatmap counters
    /// keep accumulating once enabled).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.obs.sink.take()
    }

    /// The NoC contention heatmap up to the current cycle: `None` unless
    /// a trace sink was installed on this platform, or on the platform its
    /// state was copied from, at some point (a snapshot, restore or fork
    /// carries the counters).
    pub fn noc_heatmap(&self) -> Option<NocHeatmap> {
        self.sim.noc.heatmap(self.sim.now)
    }

    /// Installs a host-side phase profiler; [`FppaPlatform::run`] arms it,
    /// laps it at every phase boundary, and pauses it on return.
    pub fn set_host_profiler(&mut self, profiler: HostProfiler) {
        self.obs.profiler = Some(profiler);
    }

    /// Removes and returns the host profiler (read it with
    /// [`HostProfiler::report`]).
    pub fn take_host_profiler(&mut self) -> Option<HostProfiler> {
        self.obs.profiler.take()
    }

    /// Closes the host-profiler phase that just finished, if profiling.
    #[inline]
    fn prof_lap(&mut self, phase: HostPhase) {
        if let Some(p) = self.obs.profiler.as_mut() {
            p.lap(phase);
        }
    }

    /// Switches scheduler — the only selector there is: every platform is
    /// built in [`SchedulerMode::default`], and no process-wide setting or
    /// environment variable overrides that. Both modes simulate identically
    /// (the active-set scheduler is verified bit-identical against the dense
    /// reference), so switching is safe at any point — also while PEs sleep
    /// mid-burst: every PE is marked due now, and its next tick (under
    /// either mode) first catches up what it slept through. Dense enters
    /// every phase anyway and posts no agenda entry, so the cached entries
    /// are posted afresh here.
    pub fn set_scheduler_mode(&mut self, mode: SchedulerMode) {
        let now = self.sim.now.0;
        self.sim.scheduler = mode;
        self.sim.pe_wake.fill(now);
        self.sim.pe_due = now;
        self.sim.services.post(Cycles(now));
        self.sync_io(now);
        self.post_io();
        if let Some(rt) = self.sim.runtime.as_mut() {
            rt.note_pes(&self.sim.pes);
        }
    }

    /// The scheduler's deterministic work counters so far.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        SchedulerStats {
            noc: self.sim.noc.work(),
            ..self.sim.sched_stats
        }
    }

    /// External wake: PE `p` must tick at cycle `at` at the latest. Every
    /// site that changes a PE's state from outside its own tick calls this
    /// with the next cycle the PE phase runs — `now` from phases before
    /// the PE phase, `now + 1` from the outbox flush after it.
    #[inline]
    fn wake_pe(&mut self, p: usize, at: Cycles) {
        self.sim.pe_wake[p] = self.sim.pe_wake[p].min(at.0);
        self.sim.pe_due = self.sim.pe_due.min(at.0);
        self.sim.sched_stats.pe_external_wakes += 1;
    }

    /// Data-driven wake: unblocks thread `tid` of PE `p`, whose PE phase
    /// next runs at cycle `at`, and posts the cycle the PE must tick. That
    /// is `at` when the completion made the only runnable context — but a
    /// PE mid compute burst keeps issuing from its current context
    /// whatever becomes ready behind it, so it is asked again
    /// ([`Pe::quiet_span`], on state caught up to `at`) and goes on
    /// sleeping to the end of the burst.
    fn complete_thread(&mut self, p: usize, tid: nw_types::ThreadId, at: Cycles) {
        let pe = &mut self.sim.pes[p];
        pe.complete(tid);
        pe.settle_accounting(at);
        let wake = pe.wake_cycle(at);
        self.wake_pe(p, Cycles(wake));
    }

    /// The configuration the platform was built from.
    pub fn config(&self) -> &FppaConfig {
        &self.sim.fixed.cfg
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycles {
        self.sim.now
    }

    /// The NoC node hosting PE `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn pe_node(&self, i: usize) -> NodeId {
        assert!(i < self.sim.pes.len(), "no PE {i}");
        pe_endpoint(i)
    }

    /// The NoC node hosting memory `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn memory_node(&self, i: usize) -> NodeId {
        (self.sim.services.memories())
            .nth(i)
            .expect("no such memory")
            .0
    }

    /// The NoC node hosting eFPGA fabric `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fabric_node(&self, i: usize) -> NodeId {
        (self.sim.services.fabrics())
            .nth(i)
            .expect("no such fabric")
            .0
    }

    /// The NoC node hosting hardwired IP `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn hwip_node(&self, i: usize) -> NodeId {
        self.sim.services.hwips().nth(i).expect("no such hwip").0
    }

    /// The NoC node hosting I/O channel `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn io_node(&self, i: usize) -> NodeId {
        assert!(i < self.sim.ios.len(), "no I/O channel {i}");
        // I/O channels come last in the endpoint order.
        NodeId(self.sim.fixed.roles.len() - self.sim.ios.len() + i)
    }

    /// The role at an endpoint.
    pub fn role(&self, node: NodeId) -> Option<NodeRole> {
        self.sim.fixed.roles.get(node.0).copied()
    }

    /// Direct access to a PE (inspection, custom program spawning).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn pe(&self, i: usize) -> &Pe {
        &self.sim.pes[i]
    }

    /// Mutable access to a PE.
    ///
    /// The PE is woken for active-set scheduling (the caller may spawn work
    /// on it) and caught up to the current cycle before the reference is
    /// handed out, so external mutation composes with cycles it slept
    /// through.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn pe_mut(&mut self, i: usize) -> &mut Pe {
        let now = self.sim.now;
        self.sim.pes[i].settle_accounting(now);
        self.wake_pe(i, now);
        // The caller may spawn programs the runtime never saw; drop the
        // PE's handler attributions so a manual program's service calls
        // cannot be charged to a stale handler's latency histogram.
        self.sim.calls.forget_handlers(i);
        // And whatever the caller does to the thread contexts, the
        // dispatcher looks at this PE next cycle (an early entry is safe).
        if let Some(rt) = self.sim.runtime.as_mut() {
            rt.note_pe(i, usize::MAX);
        }
        &mut self.sim.pes[i]
    }

    /// Direct access to an eFPGA fabric (configuration).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fabric_mut(&mut self, i: usize) -> &mut Efpga {
        // The caller may load a kernel or submit work: look next cycle.
        (self.sim.services).fabric_mut(self.fabric_node(i), self.sim.now)
    }

    /// Direct access to an I/O channel.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn io(&self, i: usize) -> &IoChannel {
        &self.sim.ios[i]
    }

    /// NoC hop-distance matrix over all endpoints (input for the MultiFlex
    /// mappers), read from the live routes: after a link is
    /// permanently failed ([`FppaPlatform::fail_noc_link`] or a campaign
    /// fault) it answers for the degraded routes, and endpoint pairs
    /// disconnected by dead links read `f64::INFINITY`.
    pub fn hop_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.sim.fixed.roles.len();
        let topology = self.sim.noc.topology();
        let hops = |a, b| topology.try_hops(a, b).map_or(f64::INFINITY, |h| h as f64);
        (0..n)
            .map(|a| (0..n).map(|b| hops(a, b)).collect())
            .collect()
    }

    /// Total die area of the declared components (PE cores + memory macros +
    /// fabrics + hardwired IP) at the configured node.
    pub fn area(&self) -> AreaMm2 {
        let cfg = &self.sim.fixed.cfg;
        let pe_area: AreaMm2 = cfg.pes.iter().map(|p| p.class.core_area()).sum();
        let mem_area: AreaMm2 = (cfg.memories.iter())
            .map(|m| MemorySpec::at_node(m.technology, cfg.tech).macro_area(m.mbits))
            .sum();
        let kernels = self.sim.services.fabrics().filter_map(|(_, f)| f.kernel());
        let fabric_area: AreaMm2 = kernels.map(|k| k.area).sum();
        let hwip_area: AreaMm2 = self.sim.services.hwips().map(|(_, h, ..)| h.area).sum();
        pe_area + mem_area + fabric_area + hwip_area
    }

    /// Runs the platform for `cycles` cycles and reports.
    ///
    /// One loop, both schedulers: read the agenda's minimum
    /// ([`FppaPlatform::next_event_cycle`]); if it is later than the clock,
    /// hop there — nothing but the clock moves: sleeping PEs and I/O
    /// channels catch up later, in closed form — else run one
    /// stepped cycle, entering only the phases whose agenda entry is due.
    /// [`SchedulerMode::Dense`] never hops and enters every phase. An entry
    /// may be early (its phase runs as a no-op and re-posts), never late,
    /// so both modes simulate bit-identically.
    ///
    /// After a stepped cycle the active set tries a *NoC-only span*: when
    /// nothing but the interconnect is due before the earliest other agenda
    /// entry, one engine call ([`Noc::run_span`]) runs the NoC from event
    /// to event up to that entry, and every hop and stepped cycle is booked
    /// exactly as the loop above would book it — counters, trace events and
    /// profiler laps, with one clock read for the span (see `noc_span`).
    /// Traced and profiled runs take the same span. Ends settled
    /// ([`FppaPlatform::settle`]).
    ///
    /// # Panics
    ///
    /// Panics if the run would take the clock past `u64::MAX` cycles.
    pub fn run(&mut self, cycles: u64) -> PlatformReport {
        let start = self.sim.now;
        let end = start.0.checked_add(cycles).unwrap_or_else(|| {
            panic!(
                "run({cycles}) at cycle {} would take the clock past u64::MAX",
                start.0
            )
        });
        if let Some(p) = self.obs.profiler.as_mut() {
            p.arm();
        }
        let dense = self.sim.scheduler == SchedulerMode::Dense;
        while self.sim.now.0 < end {
            // The agenda read has no phase of its own: its cost folds into
            // the lap that ends next (FastForward on a hop, IoPacing on a
            // stepped cycle).
            let now = self.sim.now.0;
            let due = if dense { now } else { self.agenda_min(now) };
            if due > now {
                self.hop(now, due.min(end));
            } else {
                self.step_cycle(dense);
            }
            #[cfg(debug_assertions)]
            self.audit_agenda();
            if due <= now && !dense {
                self.noc_span(end);
            }
        }
        let report = self.report(self.sim.now.saturating_sub(start));
        self.prof_lap(HostPhase::Settle);
        if let Some(p) = self.obs.profiler.as_mut() {
            p.pause();
        }
        report
    }

    /// Hops the clock from `now` to `target`: nothing else moves. Books the
    /// hop and closes its profiler lap, which carries the agenda read that
    /// chose the target.
    fn hop(&mut self, now: u64, target: u64) {
        let span = target - now;
        self.sim.now += Cycles(span);
        self.sim.sched_stats.cycles_hopped += span;
        self.sim.sched_stats.hops += 1;
        self.sim.sched_stats.hops_ended_by_io += u64::from(target == self.sim.io_due);
        if let Some(s) = self.obs.sink.as_deref_mut() {
            s.emit(TraceEvent::FastForward { cycle: now, span });
        }
        self.prof_lap(HostPhase::FastForward);
    }

    /// A NoC-only span, tried by [`FppaPlatform::run`] after every stepped
    /// cycle of the active set: while the NoC is the only due source, the
    /// engine runs from event to event in one call ([`Noc::run_span`]),
    /// and the span books the hops and stepped cycles the run loop would
    /// have made — without its agenda read, its phase gates or a profiler
    /// lap per cycle.
    ///
    /// The cheap check comes first: no delivery awaits ejection, the
    /// outbox is empty and the NoC's next event comes before the PEs'
    /// entry. Then the *limit* is read once: the earliest of the seven
    /// other entries, capped at `end`. Each NoC event before the limit is
    /// the agenda's minimum, so the loop would hop to it (unless it is the
    /// current cycle) and step it; stepping it enters phase 2 alone, since
    /// every other gate reads an entry at or past the limit. The engine
    /// stops after a tick that leaves a delivery pending — phases 3–7 of
    /// that cycle then run as [`FppaPlatform::step_cycle`] runs them — or
    /// that drops a packet (the engine's span contract, [`Noc::run_span`]).
    ///
    /// Proof obligations, which make the booking exact:
    ///
    /// * A NoC tick posts to no other agenda entry: it moves packets
    ///   between NoC-owned queues and its wheels (routing a delivery is
    ///   phase 3's move, which ends the span), and a hop moves only the
    ///   clock. So the limit read at the start holds for the whole span;
    ///   debug builds re-read the seven entries once the engine returns.
    /// * No span cycle skips its NoC tick (`noc_ticks_skipped`): the
    ///   engine ticks only at `next_event_cycle`'s answers, at which
    ///   `due_now` holds.
    /// * No span hop ends by I/O (`hops_ended_by_io`): every hop target is
    ///   below the limit, and the limit is at most `io_due`.
    fn noc_span(&mut self, end: u64) {
        let (now, sim) = (self.sim.now.0, &self.sim);
        if sim.noc.eject_pending() > 0 || !sim.outbox.is_empty() || sim.pe_due <= now {
            return;
        }
        let Some(next) = self.sim.noc.next_event_cycle(Cycles(now)) else {
            return;
        };
        if next.0 >= self.sim.pe_due {
            return;
        }
        let limit = self.agenda_min_but_noc(now).min(end);
        if next.0 >= limit {
            return;
        }
        #[cfg(debug_assertions)]
        let others = NOT_NOC.map(|source| self.due(source, now));
        let sink = self.obs.sink.as_deref_mut();
        let span = (self.sim.noc).run_span(Cycles(now), next, Cycles(limit), sink);
        // The last cycle is closed here, or by phases 3–7 when it holds a
        // delivery.
        let last = Cycles(span.end.0 - 1);
        let delivered = u64::from(span.delivered);
        let s = &mut self.sim.sched_stats;
        s.hops += span.hops;
        s.cycles_hopped += span.cycles_hopped;
        s.cycles_stepped += span.ticks - delivered;
        s.span_cycles += span.ticks;
        s.phases_entered[HostPhase::NocTick as usize] += span.ticks;
        if let Some(p) = self.obs.profiler.as_mut() {
            // One clock read for the span: its time is the NoC's; its laps
            // are the loop's, one per hop and two per stepped cycle.
            p.book(HostPhase::FastForward, span.hops);
            p.book(HostPhase::IoPacing, span.ticks);
            p.book(HostPhase::NocTick, span.ticks - 1);
            p.lap(HostPhase::NocTick);
        }
        self.sim.now += Cycles(span.end.0 - now - delivered);
        #[cfg(debug_assertions)]
        for (source, was) in NOT_NOC.into_iter().zip(others) {
            let due = self.due(source, last.0);
            assert_eq!(due, was, "{last}: a NoC span moved the {source:?} entry");
        }
        if span.delivered {
            self.step_after_noc(last, false);
        }
        #[cfg(debug_assertions)]
        self.audit_agenda();
    }

    /// Advances the platform by one cycle under the configured scheduler
    /// (a stepped cycle, never a hop), and catches I/O channels up to the
    /// new clock, so [`FppaPlatform::io`] and
    /// [`FppaPlatform::next_event_cycle`] read settled state. PE accounting
    /// stays lazy: see [`FppaPlatform::settle`].
    pub fn step(&mut self) {
        self.step_cycle(self.sim.scheduler == SchedulerMode::Dense);
        self.sync_io(self.sim.now.0);
        #[cfg(debug_assertions)]
        self.audit_agenda();
    }

    /// The minimal fabric description a [`FaultCampaign`] needs to aim
    /// faults at valid targets on this platform.
    pub fn fault_shape(&self) -> FabricShape {
        let topo = self.sim.noc.topology();
        FabricShape {
            n_pes: self.sim.pes.len(),
            router_ports: (0..topo.n_routers())
                .map(|r| topo.links_of(r).len())
                .collect(),
            n_endpoints: topo.n_endpoints(),
        }
    }

    /// Installs a fault campaign: from the next stepped cycle on, due
    /// events are drained at the top of every cycle (under both scheduler
    /// modes, at identical cycles) and applied through the NoC and PE fault
    /// hooks. Campaigns pair naturally with
    /// [`FppaPlatform::set_retry_policy`] so lost requests recover instead
    /// of blocking their thread forever.
    pub fn install_fault_campaign(&mut self, campaign: FaultCampaign) {
        self.sim.campaign = Some(campaign);
    }

    /// The installed fault campaign, if any.
    pub fn fault_campaign(&self) -> Option<&FaultCampaign> {
        self.sim.campaign.as_ref()
    }

    /// Enables the deterministic retry layer: every synchronous call gets a
    /// deadline, a timed-out call is re-issued with a bumped tag token
    /// (stale replies are detected and dropped), and a call that exhausts
    /// [`RetryPolicy::max_attempts`] releases its blocked thread. Calls
    /// already in flight stay untracked; setting a policy again swaps it
    /// under the tracked calls, which keep their deadlines and tokens.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.sim.calls.set_policy(policy);
    }

    /// Synchronous calls currently tracked by the retry layer.
    pub fn pending_retries(&self) -> usize {
        self.sim.calls.pending_len()
    }

    /// Whether the platform holds no work in flight: no packet in the NoC
    /// or waiting to enter it, every PE thread idle and no call tracked for
    /// retry. A finite workload run long enough ends here, faults or not.
    pub fn is_quiescent(&self) -> bool {
        let idle = |pe: &Pe| (0..pe.n_threads()).all(|t| pe.thread_is_idle(ThreadId(t)));
        self.sim.noc.packets_held() == 0
            && self.sim.outbox.is_empty()
            && self.sim.pes.iter().all(idle)
            && self.sim.calls.pending_len() == 0
    }

    /// Fault-injection and recovery counters: platform-side events merged
    /// with the NoC's drop/corruption bookkeeping. All zero when faults
    /// were never enabled.
    pub fn resilience_stats(&self) -> ResilienceStats {
        let mut s = self.sim.rstats.clone();
        self.sim.calls.fill_stats(&mut s);
        s.packets_dropped = self.sim.noc.dropped_packets();
        s.flits_dropped = self.sim.noc.dropped_flits();
        s.packets_corrupted = self.sim.noc.corrupted_packets();
        s
    }

    /// Permanently fails output `port` of `router`: routes are recomputed
    /// around the dead link (BFS over the surviving fabric) and stranded
    /// packets are redirected or deterministically dropped. Returns `false`
    /// when the link was already down. This is the degraded-mode hook the
    /// fault phase uses for permanent `LinkDown` events; tests and
    /// experiments may call it directly.
    pub fn fail_noc_link(&mut self, router: usize, port: usize) -> bool {
        let now = self.sim.now;
        if !self.sim.noc.fail_link(router, port, now) {
            return false;
        }
        self.sim.rstats.links_failed += 1;
        self.sim.rstats.reroutes += 1;
        if let Some(s) = self.obs.sink.as_deref_mut() {
            s.emit(TraceEvent::Reroute {
                cycle: now.0,
                router,
                port,
            });
        }
        true
    }

    /// Crashes PE `pe` (fault hook): threads die, latency probes and retry
    /// entries of the PE are cancelled. Idempotent while crashed.
    fn crash_pe(&mut self, pe: usize, now: Cycles) {
        if pe >= self.sim.pes.len() || self.sim.pes[pe].is_crashed() {
            return;
        }
        self.sim.pes[pe].crash(now);
        // One tick on the dead contexts; it posts the PE dormant.
        self.wake_pe(pe, now);
        self.sim.calls.abandon_pe(pe);
        if let Some(rt) = self.sim.runtime.as_mut() {
            rt.note_pe(pe, 0);
        }
        self.sim.rstats.pe_crashes += 1;
    }

    /// Drains and applies every campaign event due at `now` (phase 0 of a
    /// stepped cycle; the campaign's next cycle is an agenda entry, so the
    /// active set steps every fault cycle and applies it where dense does).
    fn apply_faults(&mut self, now: Cycles) {
        let Some(mut campaign) = self.sim.campaign.take() else {
            return;
        };
        for ev in campaign.take_due(now.0) {
            self.sim.rstats.faults_injected += 1;
            let (kind, target, arg) = match ev.kind {
                FaultKind::LinkDown {
                    router,
                    port,
                    until: Some(until),
                } => {
                    if router < self.sim.noc.topology().n_routers()
                        && port < self.sim.noc.topology().links_of(router).len()
                    {
                        self.sim.noc.stall_port(router, port, until);
                    }
                    (0, router, port as u64)
                }
                FaultKind::LinkDown {
                    router,
                    port,
                    until: None,
                } => {
                    if router < self.sim.noc.topology().n_routers()
                        && port < self.sim.noc.topology().links_of(router).len()
                    {
                        self.fail_noc_link(router, port);
                    }
                    (1, router, port as u64)
                }
                FaultKind::RouterStall { router, until } => {
                    if router < self.sim.noc.topology().n_routers() {
                        self.sim.noc.stall_router(router, until);
                    }
                    (2, router, until)
                }
                FaultKind::DropNext { router } => {
                    if router < self.sim.noc.topology().n_routers() {
                        self.sim.noc.drop_next(router, now);
                    }
                    (3, router, 0)
                }
                FaultKind::CorruptNext { node } => {
                    if node < self.sim.fixed.roles.len() {
                        self.sim.noc.corrupt_next(node);
                    }
                    (4, node, 0)
                }
                FaultKind::PeCrash { pe } => {
                    self.crash_pe(pe, now);
                    (5, pe, 0)
                }
                FaultKind::PeRestart { pe } => {
                    if pe < self.sim.pes.len() && self.sim.pes[pe].is_crashed() {
                        self.sim.pes[pe].restart(now);
                        self.wake_pe(pe, now);
                        if let Some(rt) = self.sim.runtime.as_mut() {
                            rt.note_pe(pe, self.sim.pes[pe].idle_threads());
                        }
                        self.sim.rstats.pe_restarts += 1;
                    }
                    (6, pe, 0)
                }
            };
            if let Some(s) = self.obs.sink.as_deref_mut() {
                s.emit(TraceEvent::FaultInjected {
                    cycle: now.0,
                    kind,
                    target,
                    arg,
                });
            }
        }
        self.sim.campaign = Some(campaign);
    }

    /// Fires due retry deadlines: re-issue with a bumped token and doubled
    /// window, or give up after the attempt budget and release the blocked
    /// thread. Deadlines are plain cycle numbers, so both schedulers fire
    /// them on identical cycles.
    fn check_retries(&mut self, now: Cycles) {
        let mut due = std::mem::take(&mut self.sim.expired);
        self.sim.calls.expire(now.0, &mut due);
        for expired in due.drain(..) {
            match expired {
                Expired::GiveUp { pe, tid } => {
                    let t = nw_types::ThreadId(tid);
                    if self.sim.pes[pe].is_awaiting(t) {
                        self.complete_thread(pe, t, now);
                    }
                }
                Expired::Retry {
                    tag,
                    attempt,
                    dst,
                    data,
                } => {
                    self.sim.outbox.push_back(Outgoing {
                        src: self.pe_node(tag.pe.0),
                        dst,
                        data,
                        tag: tag.encode(),
                        on_accept: None,
                    });
                    if let Some(s) = self.obs.sink.as_deref_mut() {
                        s.emit(TraceEvent::RetryIssued {
                            cycle: now.0,
                            pe: tag.pe.0,
                            thread: tag.tid.0,
                            attempt: u32::from(attempt),
                        });
                    }
                }
            }
        }
        self.sim.expired = due;
    }

    /// One stepped cycle: the eight phases in their fixed order, each
    /// entered only if its agenda entry is due — or unconditionally with
    /// every gate `open`, which is the dense reference scheduler. A skipped
    /// phase would have run as a no-op (or, for sleeping PEs and lazily
    /// paced I/O, as arithmetic that is settled in bulk later), so gated
    /// and open steps simulate bit-identically. Gates are read when their
    /// phase comes up, not at the top: an earlier phase of the same cycle
    /// may have posted work for a later one. An open step reads no agenda
    /// entry, so it posts none of the cached ones either
    /// ([`FppaPlatform::set_scheduler_mode`] re-posts them). Phases 3–7
    /// are their own function, which a NoC-only span that ends in a
    /// delivery runs too (`noc_span`).
    fn step_cycle(&mut self, open: bool) {
        let now = self.sim.now;
        let due = |p: &Self, source| open || p.due(source, now.0) <= now.0;

        // 0. Fault injection and retry deadlines.
        let faults = due(self, Source::Faults);
        if faults {
            self.apply_faults(now);
        }
        let retries = due(self, Source::Retries);
        if retries {
            self.check_retries(now);
        }

        // 1. I/O pacing and ingress injection: the line-rate credit of
        //    every cycle since the channels were last advanced, in one
        //    jump. The lap is taken on every stepped cycle: it carries the
        //    agenda read and phase 0.
        let io = due(self, Source::Io);
        if io {
            self.sync_io(now.0 + 1);
            self.io_ingress(now);
            if !open {
                self.post_io();
            }
        }
        if faults || retries || io {
            self.sim.sched_stats.phases_entered[HostPhase::IoPacing as usize] += 1;
        }
        self.prof_lap(HostPhase::IoPacing);

        // 2. The interconnect, when an arrival, router wake or ready NI
        //    head is due this cycle. A loaded-but-stalled fabric (every
        //    queued packet waiting out multi-cycle link occupancy) is
        //    skipped entirely.
        if open || self.sim.noc.due_now(now) {
            self.sim.noc.tick_traced(now, self.obs.sink.as_deref_mut());
            self.entered(HostPhase::NocTick);
        } else {
            self.sim.sched_stats.noc_ticks_skipped += 1;
        }

        self.step_after_noc(now, open);
    }

    /// Phases 3–7 of the stepped cycle `now`, then the clock moves on.
    fn step_after_noc(&mut self, now: Cycles, open: bool) {
        let due = |p: &Self, source| open || p.due(source, now.0) <= now.0;

        // 3. Route arrivals, when a delivered packet awaits ejection.
        if open || self.sim.noc.eject_pending() > 0 {
            self.route_arrivals(now);
            self.entered(HostPhase::RouteArrivals);
        }

        // 4. Service nodes: memories, fabrics, hardwired IP. Every
        //    completion becomes a reply packet in the outbox.
        if due(self, Source::Services) {
            self.sim.services.tick(now, open, |src, dst, tag| {
                let t = RequestTag::decode(tag);
                self.sim.outbox.push_back(Outgoing {
                    src,
                    dst,
                    data: Payload::zeroed(t.reply_bytes as usize),
                    tag: t.encode_reply(),
                    on_accept: None,
                });
            });
            self.entered(HostPhase::Services);
        }

        // 5. DSOC dispatch.
        if due(self, Source::Dispatch) {
            self.runtime_dispatch(now, open);
            self.entered(HostPhase::Dispatch);
        }

        // 6. Due PEs execute, hand over their requests and post their
        //    next wake; the others keep sleeping and catch up in bulk when
        //    they wake or at report time. Dense ticks every PE and posts
        //    nothing: its wake entries stay at or before `now`.
        if due(self, Source::Pes) {
            let next = Cycles(now.0 + 1);
            let mut earliest = NEVER;
            for p in 0..self.sim.pes.len() {
                if !open && self.sim.pe_wake[p] > now.0 {
                    earliest = earliest.min(self.sim.pe_wake[p]);
                    continue;
                }
                if let Some(tid) = self.sim.pes[p].tick(now) {
                    if let Some(s) = self.obs.sink.as_deref_mut() {
                        s.emit(TraceEvent::HandlerEnd {
                            cycle: now.0,
                            pe: p,
                            thread: tid.0,
                        });
                    }
                }
                self.collect_pe_requests(p, now);
                self.sim.sched_stats.pe_ticks += 1;
                if !open {
                    self.sim.pe_wake[p] = self.sim.pes[p].wake_cycle(next);
                    earliest = earliest.min(self.sim.pe_wake[p]);
                    // A retirement frees a hardware thread for the dispatcher.
                    if let Some(rt) = self.sim.runtime.as_mut() {
                        rt.note_pe(p, self.sim.pes[p].idle_threads());
                    }
                }
            }
            if !open {
                self.sim.pe_due = earliest;
            }
            self.entered(HostPhase::PeStep);
        }

        // 7. Flush the injection retry queue.
        if due(self, Source::Outbox) {
            self.flush_outbox(now);
            self.entered(HostPhase::Outbox);
        }

        self.sim.sched_stats.cycles_stepped += 1;
        self.sim.now += Cycles(1);
    }

    /// Counts phase `phase` of a stepped cycle as entered and closes its
    /// host-profiler lap.
    #[inline]
    fn entered(&mut self, phase: HostPhase) {
        self.sim.sched_stats.phases_entered[phase as usize] += 1;
        self.prof_lap(phase);
    }

    /// The agenda: the cycle source `source`'s phase must next run
    /// ([`NEVER`]: nothing scheduled). One rule: an entry may be early —
    /// the phase runs as a no-op and re-posts — never late. Sources that
    /// own an ordered structure are read in place (the campaign cursor, the
    /// retry index, the NoC wheels, the outbox); the others keep a cached
    /// word that every state change posts into.
    #[inline]
    fn due(&self, source: Source, now: u64) -> u64 {
        match source {
            Source::Faults => (self.sim.campaign.as_ref())
                .and_then(FaultCampaign::next_cycle)
                .unwrap_or(NEVER),
            Source::Retries => self.sim.calls.next_deadline().unwrap_or(NEVER),
            Source::Io => self.sim.io_due,
            Source::Noc if self.sim.noc.eject_pending() > 0 => now,
            Source::Noc => (self.sim.noc.next_event_cycle(Cycles(now))).map_or(NEVER, |c| c.0),
            Source::Services => self.sim.services.due(),
            Source::Dispatch => {
                (self.sim.runtime.as_ref()).map_or(NEVER, |rt| rt.dispatch_due(now))
            }
            Source::Pes => self.sim.pe_due,
            Source::Outbox if self.sim.outbox.is_empty() => NEVER,
            Source::Outbox => now,
        }
    }

    /// The earliest agenda entry.
    #[inline]
    fn agenda_min(&self, now: u64) -> u64 {
        self.due(Source::Noc, now).min(self.agenda_min_but_noc(now))
    }

    /// The earliest of the seven agenda entries other than the NoC's, read
    /// one by one: the limit of a NoC-only span.
    #[inline]
    fn agenda_min_but_noc(&self, now: u64) -> u64 {
        use Source::{Dispatch, Faults, Io, Outbox, Pes, Retries, Services};
        let due = |source| self.due(source, now);
        due(Faults)
            .min(due(Retries))
            .min(due(Io))
            .min(due(Services))
            .min(due(Dispatch))
            .min(due(Pes))
            .min(due(Outbox))
    }

    /// The earliest cycle `>=` now at which any platform component has work
    /// due — the minimum of the agenda — or `None` when the platform is
    /// completely drained. Spans before the returned cycle are safe to
    /// skip: the dense scheduler would tick through them changing nothing
    /// but pacing credit, unbound channels' line drops and sleeping PEs'
    /// accounting. A bound channel answers with its true next arrival; an
    /// unbound channel wakes nothing and posts nothing. Reads
    /// settled state after [`FppaPlatform::run`], [`FppaPlatform::step`]
    /// and [`FppaPlatform::settle`]; under dense every PE reads due now.
    pub fn next_event_cycle(&self) -> Option<Cycles> {
        let now = self.sim.now.0;
        let due = self.agenda_min(now);
        (due != NEVER).then(|| Cycles(due.max(now)))
    }

    /// Catches everything that is advanced lazily up to the current cycle:
    /// sleeping PEs' accounting (wake cycles are absolute, so the wake
    /// table is unaffected) and I/O channels' pacing credit.
    /// Called automatically by [`FppaPlatform::report`] and so by
    /// [`FppaPlatform::run`]; call it directly before reading
    /// [`Pe::stats`] on a manually stepped platform running the active-set
    /// scheduler.
    pub fn settle(&mut self) {
        let now = self.sim.now;
        for pe in &mut self.sim.pes {
            pe.settle_accounting(now);
        }
        self.sync_io(now.0);
    }

    /// Ticks every I/O channel for the cycles before `to` it has not seen
    /// yet, in one closed-form jump ([`IoChannel::advance`]). The agenda
    /// runs the I/O phase on every bound arrival, so between phases only
    /// credit accrues and unbound channels fill and overflow their FIFOs.
    fn sync_io(&mut self, to: u64) {
        if to > self.sim.io_synced {
            for io in &mut self.sim.ios {
                io.advance(to - self.sim.io_synced);
            }
            self.sim.io_synced = to;
        }
    }

    /// Posts the I/O agenda entry: the cycle of the next arrival on a
    /// bound channel — one division per channel per call, and the phase
    /// calls it once per arrival — or the next cycle to run while a bound
    /// channel's RX backlog waits for NI room.
    pub(crate) fn post_io(&mut self) {
        self.sim.io_due = self.io_arrival();
    }

    /// The cycle of the next arrival on a bound channel: every channel has
    /// been ticked for the cycles before `io_synced`, and the `n`-th tick
    /// from there is the first to emit (never stays never). A channel
    /// with an RX backlog answers `io_synced`.
    fn io_arrival(&self) -> u64 {
        let Some(rt) = self.sim.runtime.as_ref() else {
            return NEVER;
        };
        let bound = (self.sim.ios.iter().enumerate()).filter(|&(i, _)| rt.io_has_bindings(i));
        bound
            .map(|(_, io)| match (io.rx_backlog(), io.ticks_to_next_rx()) {
                (0, NEVER) => NEVER,
                (0, n) => self.sim.io_synced.saturating_add(n - 1),
                _ => self.sim.io_synced,
            })
            .min()
            .unwrap_or(NEVER)
    }

    /// The agenda's oracle, run after every step and hop of a debug build:
    /// no cached entry is later than what a walk over the state it
    /// summarizes answers — the fold the run loop used to make every lap.
    #[cfg(debug_assertions)]
    fn audit_agenda(&self) {
        let sim = &self.sim;
        if sim.scheduler == SchedulerMode::Dense {
            return; // dense neither reads nor posts the agenda
        }
        let now = sim.now;
        let pes = sim.pe_wake.iter().copied().min().unwrap_or(NEVER);
        assert!(sim.pe_due <= pes, "{now}: PE entry {} late", sim.pe_due);
        let io = self.io_arrival();
        assert!(sim.io_due <= io, "{now}: I/O entry {} late", sim.io_due);
        let services = sim.services.next_event(now);
        assert!(
            sim.services.due() <= services,
            "{now}: services entry {} late, a node is due at {services}",
            sim.services.due()
        );
        if let Some(rt) = sim.runtime.as_ref() {
            rt.audit_agenda(&sim.pes);
        }
    }

    /// Drains line-rate ingress into DSOC invocations (runtime present) or
    /// discards descriptors (no app installed).
    fn io_ingress(&mut self, now: Cycles) {
        for i in 0..self.sim.ios.len() {
            let io_node = self.io_node(i);
            let Some(rt) = self.sim.runtime.as_mut() else {
                return;
            };
            if !rt.io_has_bindings(i) {
                continue;
            }
            // Only drain what the NI can take this cycle; the rest waits in
            // the RX FIFO (and overflows are counted as line drops).
            let io = &mut self.sim.ios[i];
            while self.sim.noc.ni_free(io_node) > 0 {
                let Some(_seq) = io.take_rx() else { break };
                let (dst, data) = rt.ingress_invocation(i);
                let bytes = data.len();
                (self.sim.noc)
                    .try_inject(io_node, dst, data, 0, now)
                    .expect("ni_free was checked");
                if let Some(s) = self.obs.sink.as_deref_mut() {
                    s.emit(TraceEvent::FlitInject {
                        cycle: now.0,
                        src: io_node.0,
                        dst: dst.0,
                        bytes,
                    });
                }
            }
        }
    }

    fn route_arrivals(&mut self, now: Cycles) {
        // Endpoint by endpoint in ascending order, each drained in arrival
        // order — asked of the NoC, which knows which endpoints hold a
        // delivery, instead of polling all of them.
        while let Some((NodeId(node), pkt)) = self.sim.noc.eject_next() {
            match self.sim.fixed.roles[node] {
                NodeRole::Pe(p) => {
                    if is_reply(pkt.tag) {
                        let t = RequestTag::decode(pkt.tag);
                        let awaiting = self.sim.pes[p].is_awaiting(t.tid);
                        // A duplicate — a superseded attempt's reply, or
                        // one for a thread that gave up or whose PE
                        // crashed — is counted by the table and dropped.
                        if let Reply::Deliver { miss } =
                            (self.sim.calls).reply(p, t.tid.0, t.token, awaiting, now)
                        {
                            if let (Some(miss), Some(s)) = (miss, self.obs.sink.as_deref_mut()) {
                                s.emit(miss);
                            }
                            self.complete_thread(p, t.tid, now);
                        }
                    } else if let Some(rt) = self.sim.runtime.as_mut() {
                        rt.enqueue_invocation(p, &pkt, self.sim.pes[p].idle_threads());
                    }
                }
                NodeRole::Memory(_) | NodeRole::Fabric(_) | NodeRole::HwIp(_) => {
                    (self.sim.services).accept(NodeId(node), pkt.tag, pkt.src, now);
                }
                NodeRole::Io(i) => {
                    self.sim.ios[i].transmit();
                }
            }
        }
    }

    fn runtime_dispatch(&mut self, now: Cycles, open: bool) {
        let Some(mut rt) = self.sim.runtime.take() else {
            return;
        };
        let (calls, mut sink) = (&mut self.sim.calls, self.obs.sink.as_deref_mut());
        let on_spawn = |pe, thread: nw_types::ThreadId, object: ObjectId| {
            calls.start_handler(pe, thread.0, object);
            if let Some(s) = sink.as_deref_mut() {
                s.emit(TraceEvent::HandlerStart {
                    cycle: now.0,
                    pe,
                    thread: thread.0,
                    object: object.0,
                });
            }
        };
        let (woken, earliest) =
            rt.dispatch(&mut self.sim.pes, now, &mut self.sim.pe_wake, on_spawn);
        self.sim.pe_due = self.sim.pe_due.min(earliest);
        self.sim.sched_stats.pe_external_wakes += woken;
        if !open {
            rt.note_pes(&self.sim.pes);
        }
        self.sim.runtime = Some(rt);
    }

    /// The application object a synchronous call from thread `(p, tid)` to
    /// `dst` is attributed to for latency telemetry:
    ///
    /// * a call to a **service node** (memory, fabric, hardwired IP) is a
    ///   handler offload — attributed to the object the thread is running
    ///   (the *bound service object* of [`FppaPlatform::bind_service`]);
    /// * a call to a **PE** carries a marshalled DSOC invocation —
    ///   attributed to the invoked (target) object from the wire header,
    ///   so twoway round trips land on the service object that answers
    ///   them, wherever the caller runs.
    ///
    /// `None` (manually spawned programs, no installed application, or an
    /// undecodable payload) records nothing.
    fn call_attribution(
        &self,
        p: usize,
        tid: usize,
        dst: NodeId,
        data: &Payload,
    ) -> Option<ObjectId> {
        match self.sim.fixed.roles.get(dst.0)? {
            NodeRole::Memory(_) | NodeRole::Fabric(_) | NodeRole::HwIp(_) => {
                self.sim.calls.handler(p, tid)
            }
            NodeRole::Pe(_) => MessageHeader::decode(data)
                .ok()
                .filter(|m| m.kind == MessageKind::Invocation)
                .map(|m| m.object),
            NodeRole::Io(_) => None,
        }
    }

    /// Turns the requests PE `p` raised this tick into outgoing packets.
    fn collect_pe_requests(&mut self, p: usize, now: Cycles) {
        let src = self.pe_node(p);
        while let Some((tid, req)) = self.sim.pes[p].pop_request() {
            match req {
                PeRequest::Send {
                    dst,
                    bytes,
                    mut data,
                    tag,
                } => {
                    data.pad_to(bytes as usize);
                    self.sim.outbox.push_back(Outgoing {
                        src,
                        dst,
                        data,
                        tag,
                        on_accept: Some((PeId(p), tid)),
                    });
                }
                PeRequest::Call {
                    dst,
                    bytes,
                    reply_bytes,
                    mut data,
                } => {
                    // The round trip the latency probe times ends when
                    // the reply is delivered back to this thread; under a
                    // retry policy the table keeps the padded payload and
                    // stamps the attempt's token on the tag.
                    let object = self.call_attribution(p, tid.0, dst, &data);
                    data.pad_to(bytes as usize);
                    let tag = RequestTag {
                        pe: PeId(p),
                        tid,
                        token: 0,
                        reply_bytes,
                    };
                    let tag = (self.sim.calls).issue(tag, dst, data, object, now);
                    self.sim.outbox.push_back(Outgoing {
                        src,
                        dst,
                        data,
                        tag: tag.encode(),
                        on_accept: None,
                    });
                }
            }
        }
    }

    fn flush_outbox(&mut self, now: Cycles) {
        // One in-place rotation: each entry is popped once, and the ones
        // the NoC cannot take yet go to the back in their original order.
        for _ in 0..self.sim.outbox.len() {
            let out = self.sim.outbox.pop_front().expect("length was just read");
            // Guard with ni_free so the payload is only moved into the NoC
            // when acceptance is certain; a full NI means retry next cycle.
            if self.sim.noc.ni_free(out.src) == 0 {
                self.sim.outbox.push_back(out);
                continue;
            }
            let bytes = out.data.len();
            (self.sim.noc)
                .try_inject(out.src, out.dst, out.data, out.tag, now)
                .expect("NI space was checked and platform nodes are valid");
            if let Some(s) = self.obs.sink.as_deref_mut() {
                s.emit(TraceEvent::FlitInject {
                    cycle: now.0,
                    src: out.src.0,
                    dst: out.dst.0,
                    bytes,
                });
            }
            if let Some((pe, tid)) = out.on_accept {
                // Data-driven wake: the NI accepted the async send. With
                // faults enabled the issuing PE may have crashed between
                // issue and acceptance — its thread is no longer awaiting,
                // so the wake is skipped (fault-free runs keep the
                // unconditional legacy path, assertion included).
                if self.sim.campaign.is_none() || self.sim.pes[pe.0].is_awaiting(tid) {
                    // The PE phase of this cycle is over: tick next cycle.
                    self.complete_thread(pe.0, tid, Cycles(now.0 + 1));
                }
            }
        }
    }

    /// Sets a per-object deadline budget: every recorded end-to-end round
    /// trip attributed to `object` that exceeds `cycles` counts as a
    /// deadline miss in [`PlatformReport::latency`] (the budget is checked
    /// at reply delivery; already-recorded samples are not re-judged).
    ///
    /// [`PlatformReport::latency`]: crate::report::PlatformReport::latency
    ///
    /// # Errors
    ///
    /// [`crate::runtime::InstallError::NoApp`] without an installed
    /// application; [`crate::runtime::InstallError::UnknownObject`] when
    /// `object` is not part of it.
    pub fn set_latency_deadline(
        &mut self,
        object: ObjectId,
        cycles: u64,
    ) -> Result<(), crate::runtime::InstallError> {
        if self.sim.runtime.is_none() {
            return Err(crate::runtime::InstallError::NoApp);
        }
        let Some(o) = self.sim.calls.object_mut(object) else {
            return Err(crate::runtime::InstallError::UnknownObject(object));
        };
        o.deadline = Some(cycles);
        Ok(())
    }

    /// The end-to-end latency histogram of `object` (empty until its first
    /// recorded round trip; `None` when no application is installed or the
    /// id is out of range). Aggregate across objects with
    /// [`LatencyHistogram::merge`].
    pub fn object_latency(&self, object: ObjectId) -> Option<&LatencyHistogram> {
        self.sim.calls.objects().get(object.0).map(|o| &o.histogram)
    }

    /// Builds the report for the last `elapsed` cycles of activity.
    ///
    /// Takes `&mut self` because the active-set scheduler defers busy/idle
    /// accounting for dormant PEs; reporting settles it first.
    pub fn report(&mut self, elapsed: Cycles) -> PlatformReport {
        self.settle();
        PlatformReport::collect(self, elapsed)
    }

    /// Clock frequency at the configured technology node.
    pub fn clock_hz(&self) -> f64 {
        self.sim.fixed.cfg.tech.nominal_clock_hz()
    }

    /// Total dynamic energy across all components.
    pub fn total_energy(&self) -> Picojoules {
        let pe: Picojoules = self.sim.pes.iter().map(|p| p.stats().energy).sum();
        let services = &self.sim.services;
        let mem: Picojoules = services.memories().map(|(_, m)| m.energy()).sum();
        let fab: Picojoules = services.fabrics().map(|(_, f)| f.energy()).sum();
        let hw: Picojoules = services.hwips().map(|(.., energy)| energy).sum();
        pe + mem + fab + hw
    }
}

#[cfg(test)]
mod tests {
    use crate::scenarios::ipv4_rig;
    use nw_noc::TopologyKind;

    /// Every `next_hop(r, d)` of `p`'s routes, routers outer.
    fn routes(p: &super::FppaPlatform) -> Vec<Option<usize>> {
        let t = p.sim.noc.topology();
        let pairs = (0..t.n_routers()).flat_map(|r| (0..t.n_endpoints()).map(move |d| (r, d)));
        pairs.map(|(r, d)| t.next_hop(r, d)).collect()
    }

    #[test]
    fn a_reroute_on_one_copy_leaves_the_other_alone() {
        // A degraded route table is shared by a fork until one of the two
        // reroutes: whichever does, the other keeps every route and runs
        // as a platform that was never copied.
        let build = || {
            let mut platform = ipv4_rig(4, 8, TopologyKind::Mesh, 2, 10.0).platform;
            drop(platform.run(2_000));
            assert!(platform.fail_noc_link(0, 0));
            platform
        };
        for fork_reroutes in [true, false] {
            let (mut parent, mut reference) = (build(), build());
            let mut fork = parent.fork(7);
            let (rerouted, kept) = match fork_reroutes {
                true => (&mut fork, &mut parent),
                false => (&mut parent, &mut fork),
            };
            let before = routes(kept);
            assert_eq!(routes(&reference), before);
            assert!(rerouted.fail_noc_link(1, 0));
            assert_ne!(
                routes(rerouted),
                before,
                "the second dead link moved no route"
            );
            assert_eq!(routes(kept), before, "fork rerouted: {fork_reroutes}");
            assert_eq!(kept.run(5_000), reference.run(5_000));
        }
    }
}
