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
use crate::report::PlatformReport;
use crate::resilience::{ResilienceStats, RetryPolicy};
use crate::runtime::{nth_tick, Runtime};
use crate::services::Services;
use crate::tags::{is_reply, RequestTag};
use nw_dsoc::{MessageKind, MessageView};
use nw_fabric::Efpga;
use nw_fault::{FabricShape, FaultCampaign, FaultKind};
use nw_hwip::{IoChannel, IoConfigError};
use nw_mem::MemorySpec;
use nw_noc::{Noc, NocWork, PayloadPool, Topology};
use nw_obs::{HostPhase, HostProfiler, NocHeatmap, TraceEvent, TraceSink};
use nw_pe::{Pe, PeRequest};
use nw_sim::{Clock, Clocked, LatencyHistogram};
use nw_types::{AreaMm2, Cycles, NodeId, ObjectId, PeId, Picojoules};
use std::collections::VecDeque;

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
    /// dormancy, I/O channels and entry drives are paced lazily in closed
    /// form, and service nodes tick on the cycles they answer.
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
    /// Hops whose target cycle is an arrival on a bound I/O channel or an
    /// entry drive (ties with a PE wake, NoC event, fault, retry deadline
    /// or the end of the run included): the pacing, not the platform,
    /// ended the quiet span.
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
    pub data: Vec<u8>,
    pub tag: u64,
    /// Thread to complete once the NI accepts the packet (async sends).
    pub on_accept: Option<(PeId, nw_types::ThreadId)>,
}

/// The assembled platform.
///
/// See the [crate-level documentation](crate) for a quickstart.
#[derive(Debug)]
pub struct FppaPlatform {
    cfg: FppaConfig,
    noc: Noc,
    pes: Vec<Pe>,
    /// Memories, fabrics and hardwired IP with their request bookkeeping
    /// and the `Services` agenda entry (see [`crate::services`]).
    services: Services,
    ios: Vec<IoChannel>,
    roles: Vec<NodeRole>,
    clock: Clock,
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
    /// Recycling arena for packet payloads: consumed packet buffers return
    /// here in `route_arrivals`, and every payload producer (service
    /// replies, ingress invocations, handler-synthesized messages, PE
    /// request padding) draws from it instead of the allocator. Purely an
    /// allocation cache — contents and timing are bit-identical either way.
    pool: PayloadPool,
    /// Every in-flight synchronous call — latency probe and retry entry
    /// per hardware thread — with the per-object latency telemetry and the
    /// retry policy (see [`crate::calls`]).
    pub(crate) calls: CallTable,
    /// Sim-domain trace sink (see [`FppaPlatform::set_trace_sink`]). A pure
    /// observer: events are derived from simulation state and never fed
    /// back, so traced runs are bit-identical to untraced ones (pinned by
    /// the scheduler differential suite). `None` costs one branch per
    /// emission site.
    obs_sink: Option<Box<dyn TraceSink>>,
    /// Host-side wall-clock phase profiler (see
    /// [`FppaPlatform::set_host_profiler`]). Host-domain only — its
    /// readings never influence simulation state.
    profiler: Option<HostProfiler>,
    /// Installed fault campaign, drained cycle by cycle at the top of each
    /// step. `None` keeps every fault hook structurally untouched, so
    /// faults-off runs are bit-identical to builds without the subsystem.
    campaign: Option<FaultCampaign>,
    /// Fault counters surfaced through [`FppaPlatform::resilience_stats`]
    /// (the retry counters live in `calls`); all zero when faults are off.
    rstats: ResilienceStats,
    /// The replica seed last applied by [`FppaPlatform::reseed`] /
    /// [`FppaPlatform::fork`] (0 for a freshly built platform).
    seed: u64,
}

/// A plain-old-data checkpoint of a [`FppaPlatform`].
///
/// Captures the complete simulation state — PE/program state, NoC engine
/// state (queues, `busy_until` stamps, event-wheel wakes, the
/// [`PayloadPool`] ledger), runtime dispatch state (pending invocations,
/// retry deadlines, handler table), service/memory state, latency
/// histograms, resilience counters and the replica seed — such that
/// [`FppaPlatform::from_snapshot`] continues bit-identically to the
/// uninterrupted original.
///
/// Deliberately **not** captured (host-side observers, never simulation
/// state): the trace sink and the host profiler. [`FppaPlatform::restore`]
/// keeps the target's own observers across the restore.
#[derive(Debug)]
pub struct PlatformSnapshot {
    /// Full platform state with the host-side observers stripped.
    state: Box<FppaPlatform>,
}

impl PlatformSnapshot {
    /// The simulation cycle the snapshot was taken at.
    pub fn cycle(&self) -> Cycles {
        self.state.clock.now()
    }

    /// The replica seed active at capture time.
    pub fn seed(&self) -> u64 {
        self.state.seed
    }
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
    /// than 64.
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
        Ok(FppaPlatform {
            cfg,
            noc,
            pes,
            services,
            ios,
            roles,
            clock: Clock::new(),
            outbox: VecDeque::new(),
            runtime: None,
            scheduler: SchedulerMode::default(),
            pe_wake: vec![0; n_pes],
            pe_due: 0,
            io_due: NEVER,
            io_synced: 0,
            sched_stats: SchedulerStats::default(),
            pool: PayloadPool::new(),
            calls,
            obs_sink: None,
            profiler: None,
            campaign: None,
            rstats: ResilienceStats::default(),
            seed: 0,
        })
    }

    /// Clones the complete simulation state, stripping the host-side
    /// observers (trace sink, profiler) and their per-PE retire logs. The
    /// exhaustive field list keeps this total: adding a platform field
    /// without deciding its snapshot story is a compile error here.
    fn clone_state(&self) -> FppaPlatform {
        let mut pes = self.pes.clone();
        for pe in &mut pes {
            // Retire logs exist only to feed an installed trace sink; the
            // clone has none, so carrying them would grow unboundedly.
            pe.set_retire_log(false);
        }
        FppaPlatform {
            cfg: self.cfg.clone(),
            noc: self.noc.clone(),
            pes,
            services: self.services.clone(),
            ios: self.ios.clone(),
            roles: self.roles.clone(),
            clock: self.clock.clone(),
            outbox: self.outbox.clone(),
            runtime: self.runtime.clone(),
            scheduler: self.scheduler,
            pe_wake: self.pe_wake.clone(),
            pe_due: self.pe_due,
            io_due: self.io_due,
            io_synced: self.io_synced,
            sched_stats: self.sched_stats,
            pool: self.pool.clone(),
            calls: self.calls.clone(),
            obs_sink: None,
            profiler: None,
            campaign: self.campaign.clone(),
            rstats: self.rstats.clone(),
            seed: self.seed,
        }
    }

    /// Checkpoints the platform. The snapshot owns an independent copy of
    /// every piece of simulation state; the platform is untouched (host
    /// observers included) and can keep running.
    pub fn snapshot(&self) -> PlatformSnapshot {
        PlatformSnapshot {
            state: Box::new(self.clone_state()),
        }
    }

    /// Rebuilds a platform from a snapshot. The result runs bit-identically
    /// to the platform the snapshot was taken from — same reports under
    /// both [`SchedulerMode`]s, with or without an active fault campaign —
    /// and starts with no trace sink or profiler installed.
    pub fn from_snapshot(snap: &PlatformSnapshot) -> FppaPlatform {
        snap.state.clone_state()
    }

    /// Overwrites this platform's simulation state with the snapshot's,
    /// keeping the host-side observers (trace sink, profiler) this
    /// platform already has. Restoring under an installed sink re-enables
    /// the NoC heatmap and PE retire logging on the restored state.
    pub fn restore(&mut self, snap: &PlatformSnapshot) {
        let sink = self.obs_sink.take();
        let profiler = self.profiler.take();
        *self = FppaPlatform::from_snapshot(snap);
        self.profiler = profiler;
        if let Some(s) = sink {
            self.set_trace_sink(s);
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
    /// statistically independent replicas.
    pub fn fork(&self, seed: u64) -> FppaPlatform {
        let mut p = self.clone_state();
        p.reseed(seed);
        p
    }

    /// Records `seed` as the replica seed and redraws the undrained future
    /// of an installed fault campaign from it, keeping all other state
    /// (see [`FppaPlatform::fork`]).
    pub fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        let now = self.clock.now().0;
        if let Some(c) = self.campaign.as_mut() {
            c.reseed(seed, now);
        }
    }

    /// The replica seed last applied by [`FppaPlatform::reseed`] /
    /// [`FppaPlatform::fork`] (0 for a freshly built platform).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Retunes I/O channel `i`'s line rate in place (warm-fork hook: grid
    /// points forked from one warmed platform differ only in offered load
    /// from the fork cycle onward). The channel keeps its accumulated
    /// pacing credit.
    ///
    /// # Errors
    ///
    /// [`IoConfigError::Rate`] for a negative or non-finite rate; the
    /// channel is left as it was.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_io_rate(
        &mut self,
        i: usize,
        rate: nw_types::BitsPerSec,
    ) -> Result<(), IoConfigError> {
        self.sync_io(self.clock.now().0);
        let changed = self.ios[i].set_rate(rate);
        self.post_io();
        changed
    }

    /// Installs a trace sink: from now on the platform reports packet
    /// injections/deliveries, link transfers, handler dispatch/retire,
    /// deadline misses and fast-forward hops to it, and the NoC starts its
    /// heatmap accounting. Tracing is pure observation — a traced run
    /// produces bit-identical reports to an untraced one.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.noc.enable_obs();
        for pe in &mut self.pes {
            pe.set_retire_log(true);
        }
        self.obs_sink = Some(sink);
    }

    /// Removes and returns the installed trace sink (retire logging stops;
    /// NoC heatmap counters keep accumulating once enabled).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        for pe in &mut self.pes {
            pe.set_retire_log(false);
        }
        self.obs_sink.take()
    }

    /// The NoC contention heatmap up to the current cycle (`None` unless a
    /// trace sink was installed at some point).
    pub fn noc_heatmap(&self) -> Option<NocHeatmap> {
        self.noc.heatmap(self.clock.now())
    }

    /// Installs a host-side phase profiler; [`FppaPlatform::run`] arms it,
    /// laps it at every phase boundary, and pauses it on return.
    pub fn set_host_profiler(&mut self, profiler: HostProfiler) {
        self.profiler = Some(profiler);
    }

    /// Removes and returns the host profiler (read it with
    /// [`HostProfiler::report`]).
    pub fn take_host_profiler(&mut self) -> Option<HostProfiler> {
        self.profiler.take()
    }

    /// Closes the host-profiler phase that just finished, if profiling.
    #[inline]
    fn prof_lap(&mut self, phase: HostPhase) {
        if let Some(p) = self.profiler.as_mut() {
            p.lap(phase);
        }
    }

    /// The scheduler in use.
    pub fn scheduler_mode(&self) -> SchedulerMode {
        self.scheduler
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
        let now = self.clock.now().0;
        self.scheduler = mode;
        self.pe_wake.fill(now);
        self.pe_due = now;
        self.services.post(Cycles(now));
        self.sync_io(now);
        self.post_io();
        if let Some(rt) = self.runtime.as_mut() {
            rt.note_pes(&self.pes);
        }
    }

    /// The scheduler's deterministic work counters so far.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        SchedulerStats {
            noc: self.noc.work(),
            ..self.sched_stats
        }
    }

    /// External wake: PE `p` must tick at cycle `at` at the latest. Every
    /// site that changes a PE's state from outside its own tick calls this
    /// with the next cycle the PE phase runs — `now` from phases before
    /// the PE phase, `now + 1` from the outbox flush after it.
    #[inline]
    fn wake_pe(&mut self, p: usize, at: Cycles) {
        self.pe_wake[p] = self.pe_wake[p].min(at.0);
        self.pe_due = self.pe_due.min(at.0);
        self.sched_stats.pe_external_wakes += 1;
    }

    /// Data-driven wake: unblocks thread `tid` of PE `p`, whose PE phase
    /// next runs at cycle `at`, and posts the cycle the PE must tick. That
    /// is `at` when the completion made the only runnable context — but a
    /// PE mid compute burst keeps issuing from its current context
    /// whatever becomes ready behind it, so it is asked again
    /// ([`Pe::quiet_span`], on state caught up to `at`) and goes on
    /// sleeping to the end of the burst.
    fn complete_thread(&mut self, p: usize, tid: nw_types::ThreadId, at: Cycles) {
        let pe = &mut self.pes[p];
        pe.complete(tid);
        pe.settle_accounting(at);
        let wake = pe.wake_cycle(at);
        self.wake_pe(p, Cycles(wake));
    }

    /// The configuration the platform was built from.
    pub fn config(&self) -> &FppaConfig {
        &self.cfg
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycles {
        self.clock.now()
    }

    /// The NoC node hosting PE `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn pe_node(&self, i: usize) -> NodeId {
        assert!(i < self.pes.len(), "no PE {i}");
        pe_endpoint(i)
    }

    /// The NoC node hosting memory `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn memory_node(&self, i: usize) -> NodeId {
        self.services.memories().nth(i).expect("no such memory").0
    }

    /// The NoC node hosting eFPGA fabric `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fabric_node(&self, i: usize) -> NodeId {
        self.services.fabrics().nth(i).expect("no such fabric").0
    }

    /// The NoC node hosting hardwired IP `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn hwip_node(&self, i: usize) -> NodeId {
        self.services.hwips().nth(i).expect("no such hwip").0
    }

    /// The NoC node hosting I/O channel `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn io_node(&self, i: usize) -> NodeId {
        assert!(i < self.ios.len(), "no I/O channel {i}");
        // I/O channels come last in the endpoint order.
        NodeId(self.roles.len() - self.ios.len() + i)
    }

    /// The role at an endpoint.
    pub fn role(&self, node: NodeId) -> Option<NodeRole> {
        self.roles.get(node.0).copied()
    }

    /// Direct access to a PE (inspection, custom program spawning).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn pe(&self, i: usize) -> &Pe {
        &self.pes[i]
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
        let now = self.clock.now();
        self.pes[i].settle_accounting(now);
        self.wake_pe(i, now);
        // The caller may spawn programs the runtime never saw; drop the
        // PE's handler attributions so a manual program's service calls
        // cannot be charged to a stale handler's latency histogram.
        self.calls.forget_handlers(i);
        // And whatever the caller does to the thread contexts, the
        // dispatcher looks at this PE next cycle (an early entry is safe).
        if let Some(rt) = self.runtime.as_mut() {
            rt.note_pe(i, usize::MAX);
        }
        &mut self.pes[i]
    }

    /// Direct access to an eFPGA fabric (configuration).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fabric_mut(&mut self, i: usize) -> &mut Efpga {
        // The caller may load a kernel or submit work: look next cycle.
        (self.services).fabric_mut(self.fabric_node(i), self.clock.now())
    }

    /// Direct access to an I/O channel.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn io(&self, i: usize) -> &IoChannel {
        &self.ios[i]
    }

    /// Payload buffers acquired from the platform's [`PayloadPool`] but not
    /// yet recycled (`taken - returned`). On a quiesced platform with a
    /// finite workload this must be zero: every synthesized or ingress
    /// payload became a packet that was eventually consumed and its buffer
    /// returned. The scheduler differential suite pins that conservation
    /// law; a persistent nonzero residue under quiescence is a buffer leak.
    pub fn payload_outstanding(&self) -> i64 {
        self.pool.outstanding()
    }

    /// NoC hop-distance matrix over all endpoints (input for the MultiFlex
    /// mappers), read from the live routing tables: after a link is
    /// permanently failed ([`FppaPlatform::fail_noc_link`] or a campaign
    /// fault) it answers for the degraded routes, and endpoint pairs
    /// disconnected by dead links read `f64::INFINITY`.
    pub fn hop_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.roles.len();
        let topology = self.noc.topology();
        let hops = |a, b| topology.try_hops(a, b).map_or(f64::INFINITY, |h| h as f64);
        (0..n)
            .map(|a| (0..n).map(|b| hops(a, b)).collect())
            .collect()
    }

    /// Total die area of the declared components (PE cores + memory macros +
    /// fabrics + hardwired IP) at the configured node.
    pub fn area(&self) -> AreaMm2 {
        let pe_area: AreaMm2 = self.cfg.pes.iter().map(|p| p.class.core_area()).sum();
        let mem_area: AreaMm2 = self
            .cfg
            .memories
            .iter()
            .map(|m| MemorySpec::at_node(m.technology, self.cfg.tech).macro_area(m.mbits))
            .sum();
        let kernels = self.services.fabrics().filter_map(|(_, f)| f.kernel());
        let fabric_area: AreaMm2 = kernels.map(|k| k.area).sum();
        let hwip_area: AreaMm2 = self.services.hwips().map(|(_, h)| h.area()).sum();
        pe_area + mem_area + fabric_area + hwip_area
    }

    /// Runs the platform for `cycles` cycles and reports.
    ///
    /// One loop, both schedulers: read the agenda's minimum
    /// ([`FppaPlatform::next_event_cycle`]); if it is later than the clock,
    /// hop there — nothing but the clock moves: sleeping PEs, I/O channels
    /// and entry drives all catch up later, in closed form — else run one
    /// stepped cycle, entering only the phases whose agenda entry is due.
    /// [`SchedulerMode::Dense`] never hops and enters every phase. An entry
    /// may be early (its phase runs as a no-op and re-posts), never late,
    /// so both modes simulate bit-identically. Ends settled
    /// ([`FppaPlatform::settle`]).
    pub fn run(&mut self, cycles: u64) -> PlatformReport {
        let start = self.clock.now();
        if let Some(p) = self.profiler.as_mut() {
            p.arm();
        }
        let dense = self.scheduler == SchedulerMode::Dense;
        let end = start.0 + cycles;
        while self.clock.now().0 < end {
            // The agenda read has no phase of its own: its cost folds into
            // the lap that ends next (FastForward on a hop, IoPacing on a
            // stepped cycle).
            let now = self.clock.now().0;
            let due = if dense { now } else { self.agenda_min(now) };
            if due > now {
                let target = due.min(end);
                let span = target - now;
                let by_io = target == self.io_due
                    || (self.runtime.as_ref()).is_some_and(|rt| rt.drive_due() == target);
                self.clock.advance_by(Cycles(span));
                self.sched_stats.cycles_hopped += span;
                self.sched_stats.hops += 1;
                self.sched_stats.hops_ended_by_io += u64::from(by_io);
                if let Some(s) = self.obs_sink.as_deref_mut() {
                    s.emit(TraceEvent::FastForward { cycle: now, span });
                }
                self.prof_lap(HostPhase::FastForward);
            } else {
                self.step_cycle(dense);
            }
            #[cfg(debug_assertions)]
            self.audit_agenda();
        }
        let report = self.report(self.clock.now().saturating_sub(start));
        self.prof_lap(HostPhase::Settle);
        if let Some(p) = self.profiler.as_mut() {
            p.pause();
        }
        report
    }

    /// Advances the platform by one cycle under the configured scheduler
    /// (a stepped cycle, never a hop), and catches I/O channels and entry
    /// drives up to the new clock, so [`FppaPlatform::io`] and
    /// [`FppaPlatform::next_event_cycle`] read settled state. PE accounting
    /// stays lazy: see [`FppaPlatform::settle`].
    pub fn step(&mut self) {
        self.step_cycle(self.scheduler == SchedulerMode::Dense);
        self.sync_paced();
        #[cfg(debug_assertions)]
        self.audit_agenda();
    }

    /// The minimal fabric description a [`FaultCampaign`] needs to aim
    /// faults at valid targets on this platform.
    pub fn fault_shape(&self) -> FabricShape {
        let topo = self.noc.topology();
        FabricShape {
            n_pes: self.pes.len(),
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
        self.campaign = Some(campaign);
    }

    /// The installed fault campaign, if any.
    pub fn fault_campaign(&self) -> Option<&FaultCampaign> {
        self.campaign.as_ref()
    }

    /// Enables the deterministic retry layer: every synchronous call gets a
    /// deadline, a timed-out call is re-issued with a bumped tag token
    /// (stale replies are detected and dropped), and a call that exhausts
    /// [`RetryPolicy::max_attempts`] releases its blocked thread. Calls
    /// already in flight stay untracked; setting a policy again swaps it
    /// under the tracked calls, which keep their deadlines and tokens.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.calls.set_policy(policy);
    }

    /// Synchronous calls currently tracked by the retry layer.
    pub fn pending_retries(&self) -> usize {
        self.calls.pending_len()
    }

    /// Fault-injection and recovery counters: platform-side events merged
    /// with the NoC's drop/corruption bookkeeping. All zero when faults
    /// were never enabled.
    pub fn resilience_stats(&self) -> ResilienceStats {
        let mut s = self.rstats.clone();
        self.calls.fill_stats(&mut s);
        s.packets_dropped = self.noc.dropped_packets();
        s.flits_dropped = self.noc.dropped_flits();
        s.packets_corrupted = self.noc.corrupted_packets();
        s
    }

    /// Permanently fails output `port` of `router`: routes are recomputed
    /// around the dead link (BFS over the surviving fabric) and stranded
    /// packets are redirected or deterministically dropped. Returns `false`
    /// when the link was already down. This is the degraded-mode hook the
    /// fault phase uses for permanent `LinkDown` events; tests and
    /// experiments may call it directly.
    pub fn fail_noc_link(&mut self, router: usize, port: usize) -> bool {
        let now = self.clock.now();
        if !self.noc.fail_link(router, port, now) {
            return false;
        }
        self.rstats.links_failed += 1;
        self.rstats.reroutes += 1;
        if let Some(s) = self.obs_sink.as_deref_mut() {
            s.emit(TraceEvent::Reroute {
                cycle: now.0,
                router,
                port,
            });
        }
        true
    }

    /// Crashes PE `pe` (fault hook): threads die, owned payload buffers are
    /// recycled into the pool, latency probes and retry entries of the PE
    /// are cancelled. Idempotent while crashed.
    fn crash_pe(&mut self, pe: usize, now: Cycles) {
        if pe >= self.pes.len() || self.pes[pe].is_crashed() {
            return;
        }
        for b in self.pes[pe].crash(now) {
            // Storage-less program payloads (`Op::call` stubs) are only
            // converted to pool buffers by `pad_zeroed` at send time; a
            // crashed PE's unexecuted ones were never taken, so counting
            // them as returns would unbalance the ledger.
            if b.capacity() > 0 {
                self.pool.put(b);
            }
        }
        // One tick on the dead contexts; it posts the PE dormant.
        self.wake_pe(pe, now);
        self.calls.abandon_pe(pe, &mut self.pool);
        if let Some(rt) = self.runtime.as_mut() {
            rt.note_pe(pe, 0);
        }
        self.rstats.pe_crashes += 1;
    }

    /// Drains and applies every campaign event due at `now` (phase 0 of a
    /// stepped cycle; the campaign's next cycle is an agenda entry, so the
    /// active set steps every fault cycle and applies it where dense does).
    fn apply_faults(&mut self, now: Cycles) {
        let Some(mut campaign) = self.campaign.take() else {
            return;
        };
        for ev in campaign.take_due(now.0) {
            self.rstats.faults_injected += 1;
            let (kind, target, arg) = match ev.kind {
                FaultKind::LinkDown {
                    router,
                    port,
                    until: Some(until),
                } => {
                    if router < self.noc.topology().n_routers()
                        && port < self.noc.topology().links_of(router).len()
                    {
                        self.noc.stall_port(router, port, until);
                    }
                    (0, router, port as u64)
                }
                FaultKind::LinkDown {
                    router,
                    port,
                    until: None,
                } => {
                    if router < self.noc.topology().n_routers()
                        && port < self.noc.topology().links_of(router).len()
                    {
                        self.fail_noc_link(router, port);
                    }
                    (1, router, port as u64)
                }
                FaultKind::RouterStall { router, until } => {
                    if router < self.noc.topology().n_routers() {
                        self.noc.stall_router(router, until);
                    }
                    (2, router, until)
                }
                FaultKind::DropNext { router } => {
                    if router < self.noc.topology().n_routers() {
                        self.noc.drop_next(router, now);
                    }
                    (3, router, 0)
                }
                FaultKind::CorruptNext { node } => {
                    if node < self.roles.len() {
                        self.noc.corrupt_next(node);
                    }
                    (4, node, 0)
                }
                FaultKind::PeCrash { pe } => {
                    self.crash_pe(pe, now);
                    (5, pe, 0)
                }
                FaultKind::PeRestart { pe } => {
                    if pe < self.pes.len() && self.pes[pe].is_crashed() {
                        self.pes[pe].restart(now);
                        self.wake_pe(pe, now);
                        if let Some(rt) = self.runtime.as_mut() {
                            rt.note_pe(pe, self.pes[pe].idle_threads());
                        }
                        self.rstats.pe_restarts += 1;
                    }
                    (6, pe, 0)
                }
            };
            if let Some(s) = self.obs_sink.as_deref_mut() {
                s.emit(TraceEvent::FaultInjected {
                    cycle: now.0,
                    kind,
                    target,
                    arg,
                });
            }
        }
        self.campaign = Some(campaign);
    }

    /// Fires due retry deadlines: re-issue with a bumped token and doubled
    /// window, or give up after the attempt budget and release the blocked
    /// thread. Deadlines are plain cycle numbers, so both schedulers fire
    /// them on identical cycles.
    fn check_retries(&mut self, now: Cycles) {
        for expired in self.calls.expire(now.0, &mut self.pool) {
            match expired {
                Expired::GiveUp { pe, tid } => {
                    let t = nw_types::ThreadId(tid);
                    if self.pes[pe].is_awaiting(t) {
                        self.complete_thread(pe, t, now);
                    }
                }
                Expired::Retry {
                    tag,
                    attempt,
                    dst,
                    data,
                } => {
                    self.outbox.push_back(Outgoing {
                        src: self.pe_node(tag.pe.0),
                        dst,
                        data,
                        tag: tag.encode(),
                        on_accept: None,
                    });
                    if let Some(s) = self.obs_sink.as_deref_mut() {
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
    /// ([`FppaPlatform::set_scheduler_mode`] re-posts them).
    fn step_cycle(&mut self, open: bool) {
        let now = self.clock.now();
        let due = |p: &Self, source| open || p.due(source, now.0) <= now.0;

        // 0. Fault injection and retry deadlines; then recycle the payload
        //    buffers of packets the NoC dropped since the last stepped
        //    cycle (injected drops, disconnections).
        let faults = due(self, Source::Faults);
        if faults {
            self.apply_faults(now);
        }
        if self.campaign.is_some() {
            self.recycle_dropped();
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
            self.sched_stats.phases_entered[HostPhase::IoPacing as usize] += 1;
        }
        self.prof_lap(HostPhase::IoPacing);

        // 2. The interconnect, when an arrival, router wake or ready NI
        //    head is due this cycle. A loaded-but-stalled fabric (every
        //    queued packet waiting out multi-cycle link occupancy) is
        //    skipped entirely.
        if open || self.noc.due_now(now) {
            self.noc.tick_traced(now, self.obs_sink.as_deref_mut());
            self.entered(HostPhase::NocTick);
        } else {
            self.sched_stats.noc_ticks_skipped += 1;
        }

        // 3. Route arrivals, when a delivered packet awaits ejection.
        if open || self.noc.eject_pending() > 0 {
            self.route_arrivals(now);
            self.entered(HostPhase::RouteArrivals);
        }

        // 4. Service nodes: memories, fabrics, hardwired IP. Every
        //    completion becomes a reply packet in the outbox.
        if due(self, Source::Services) {
            self.services.tick(now, open, |src, dst, tag| {
                let t = RequestTag::decode(tag);
                self.outbox.push_back(Outgoing {
                    src,
                    dst,
                    data: self.pool.take_zeroed(t.reply_bytes as usize),
                    tag: t.encode_reply(),
                    on_accept: None,
                });
            });
            self.entered(HostPhase::Services);
        }

        // 5. DSOC drives and dispatch.
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
            for p in 0..self.pes.len() {
                if !open && self.pe_wake[p] > now.0 {
                    earliest = earliest.min(self.pe_wake[p]);
                    continue;
                }
                self.pes[p].tick(now);
                self.collect_pe_requests(p, now);
                self.sched_stats.pe_ticks += 1;
                if !open {
                    self.pe_wake[p] = self.pes[p].wake_cycle(next);
                    earliest = earliest.min(self.pe_wake[p]);
                    // A retirement frees a hardware thread for the dispatcher.
                    if let Some(rt) = self.runtime.as_mut() {
                        rt.note_pe(p, self.pes[p].idle_threads());
                    }
                }
            }
            if !open {
                self.pe_due = earliest;
            }
            self.drain_retirements(now);
            self.entered(HostPhase::PeStep);
        }

        // 7. Flush the injection retry queue.
        if due(self, Source::Outbox) {
            self.flush_outbox(now);
            self.entered(HostPhase::Outbox);
        }

        self.sched_stats.cycles_stepped += 1;
        self.clock.advance();
    }

    /// Counts phase `phase` of a stepped cycle as entered and closes its
    /// host-profiler lap.
    #[inline]
    fn entered(&mut self, phase: HostPhase) {
        self.sched_stats.phases_entered[phase as usize] += 1;
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
            Source::Faults => (self.campaign.as_ref())
                .and_then(FaultCampaign::next_cycle)
                .unwrap_or(NEVER),
            Source::Retries => self.calls.next_deadline().unwrap_or(NEVER),
            Source::Io => self.io_due,
            Source::Noc if self.noc.eject_pending() > 0 => now,
            Source::Noc => (self.noc.next_event_cycle(Cycles(now))).map_or(NEVER, |c| c.0),
            Source::Services => self.services.due(),
            Source::Dispatch => (self.runtime.as_ref()).map_or(NEVER, |rt| rt.dispatch_due(now)),
            Source::Pes => self.pe_due,
            Source::Outbox if self.outbox.is_empty() => NEVER,
            Source::Outbox => now,
        }
    }

    /// The earliest agenda entry.
    #[inline]
    fn agenda_min(&self, now: u64) -> u64 {
        use Source::{Dispatch, Faults, Io, Noc, Outbox, Pes, Retries, Services};
        [Faults, Retries, Io, Noc, Services, Dispatch, Pes, Outbox]
            .iter()
            .fold(NEVER, |min, &source| min.min(self.due(source, now)))
    }

    /// Reports handler retirements to the trace sink. Retire logs are only
    /// recorded while a sink is installed, so this is a no-op otherwise; a
    /// PE asleep under the active-set scheduler cannot have retired
    /// anything since its last tick (a compute burst's last cycle is a
    /// real tick), so visiting every PE is exact under both schedulers.
    fn drain_retirements(&mut self, now: Cycles) {
        if self.obs_sink.is_none() {
            return;
        }
        for p in 0..self.pes.len() {
            for tid in self.pes[p].take_retired() {
                if let Some(s) = self.obs_sink.as_deref_mut() {
                    s.emit(TraceEvent::HandlerEnd {
                        cycle: now.0,
                        pe: p,
                        thread: tid.0,
                    });
                }
            }
        }
    }

    /// The earliest cycle `>=` now at which any platform component has work
    /// due — the minimum of the agenda — or `None` when the platform is
    /// completely drained. Spans before the returned cycle are safe to
    /// skip: the dense scheduler would tick through them changing nothing
    /// but pacing credit, unbound channels' line drops and sleeping PEs'
    /// accounting. A bound channel or a drive answers with its true next
    /// arrival; an unbound channel wakes nothing and posts nothing. Reads
    /// settled state after [`FppaPlatform::run`], [`FppaPlatform::step`]
    /// and [`FppaPlatform::settle`]; under dense every PE reads due now.
    pub fn next_event_cycle(&self) -> Option<Cycles> {
        let now = self.clock.now().0;
        let due = self.agenda_min(now);
        (due != NEVER).then(|| Cycles(due.max(now)))
    }

    /// Catches everything that is advanced lazily up to the current cycle:
    /// sleeping PEs' accounting (wake cycles are absolute, so the wake
    /// table is unaffected), I/O channels' and entry drives' pacing credit.
    /// Called automatically by [`FppaPlatform::report`] and so by
    /// [`FppaPlatform::run`]; call it directly before reading
    /// [`Pe::stats`] on a manually stepped platform running the active-set
    /// scheduler.
    pub fn settle(&mut self) {
        let now = self.clock.now();
        for pe in &mut self.pes {
            pe.settle_accounting(now);
        }
        self.sync_paced();
        // Buffers dropped by the NoC on the final cycle (injected drops,
        // disconnections) still belong to the pool.
        self.recycle_dropped();
    }

    /// Returns the payload buffers of NoC-dropped packets to the pool.
    fn recycle_dropped(&mut self) {
        if self.noc.has_dropped_buffers() {
            for b in self.noc.take_dropped_buffers() {
                self.pool.put(b);
            }
        }
    }

    /// Ticks every I/O channel for the cycles before `to` it has not seen
    /// yet, in one closed-form jump ([`IoChannel::advance`]). The agenda
    /// runs the I/O phase on every bound arrival, so between phases only
    /// credit accrues and unbound channels fill and overflow their FIFOs.
    fn sync_io(&mut self, to: u64) {
        if to > self.io_synced {
            for io in &mut self.ios {
                io.advance(to - self.io_synced);
            }
            self.io_synced = to;
        }
    }

    /// [`Self::sync_io`] and the drives' counterpart, up to the clock.
    fn sync_paced(&mut self) {
        let now = self.clock.now().0;
        self.sync_io(now);
        if let Some(rt) = self.runtime.as_mut() {
            rt.sync_drives(now);
        }
    }

    /// Posts the I/O agenda entry: the cycle of the next arrival on a
    /// bound channel — one division per channel per call, and the phase
    /// calls it once per arrival — or the next cycle to run while a bound
    /// channel's RX backlog waits for NI room.
    pub(crate) fn post_io(&mut self) {
        self.io_due = self.io_arrival();
    }

    fn io_arrival(&self) -> u64 {
        let Some(rt) = self.runtime.as_ref() else {
            return NEVER;
        };
        let bound = (self.ios.iter().enumerate()).filter(|&(i, _)| rt.io_has_bindings(i));
        bound
            .map(|(_, io)| match io.rx_backlog() {
                0 => nth_tick(self.io_synced, io.ticks_to_next_rx()),
                _ => self.io_synced,
            })
            .min()
            .unwrap_or(NEVER)
    }

    /// The agenda's oracle, run after every step and hop of a debug build:
    /// no cached entry is later than what a walk over the state it
    /// summarizes answers — the fold the run loop used to make every lap.
    #[cfg(any(test, debug_assertions))]
    fn audit_agenda(&self) {
        if self.scheduler == SchedulerMode::Dense {
            return; // dense neither reads nor posts the agenda
        }
        let now = self.clock.now();
        let pes = self.pe_wake.iter().copied().min().unwrap_or(NEVER);
        assert!(self.pe_due <= pes, "{now}: PE entry {} late", self.pe_due);
        let io = self.io_arrival();
        assert!(self.io_due <= io, "{now}: I/O entry {} late", self.io_due);
        let services = self.services.next_event(now);
        assert!(
            self.services.due() <= services,
            "{now}: services entry {} late, a node is due at {services}",
            self.services.due()
        );
        if let Some(rt) = self.runtime.as_ref() {
            rt.audit_agenda(&self.pes);
        }
    }

    /// Drains line-rate ingress into DSOC invocations (runtime present) or
    /// discards descriptors (no app installed).
    fn io_ingress(&mut self, now: Cycles) {
        for i in 0..self.ios.len() {
            let io_node = self.io_node(i);
            let Some(rt) = self.runtime.as_mut() else {
                return;
            };
            if !rt.io_has_bindings(i) {
                continue;
            }
            // Only drain what the NI can take this cycle; the rest waits in
            // the RX FIFO (and overflows are counted as line drops).
            let io = &mut self.ios[i];
            while self.noc.ni_free(io_node) > 0 {
                let Some(_seq) = io.take_rx() else { break };
                let (dst, data) = rt.ingress_invocation(i, &mut self.pool);
                let bytes = data.len();
                self.noc
                    .try_inject(io_node, dst, data, 0, now)
                    .expect("ni_free was checked");
                if let Some(s) = self.obs_sink.as_deref_mut() {
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
        while let Some((NodeId(node), mut pkt)) = self.noc.eject_next() {
            match self.roles[node] {
                NodeRole::Pe(p) => {
                    if is_reply(pkt.tag) {
                        let t = RequestTag::decode(pkt.tag);
                        let awaiting = self.pes[p].is_awaiting(t.tid);
                        let pool = &mut self.pool;
                        // A duplicate — a superseded attempt's reply, or
                        // one for a thread that gave up or whose PE
                        // crashed — is counted by the table and dropped.
                        if let Reply::Deliver { miss } =
                            (self.calls).reply(p, t.tid.0, t.token, awaiting, now, pool)
                        {
                            if let (Some(miss), Some(s)) = (miss, self.obs_sink.as_deref_mut()) {
                                s.emit(miss);
                            }
                            self.complete_thread(p, t.tid, now);
                        }
                    } else if let Some(rt) = self.runtime.as_mut() {
                        rt.enqueue_invocation(p, &pkt, self.pes[p].idle_threads());
                    }
                }
                NodeRole::Memory(_) | NodeRole::Fabric(_) | NodeRole::HwIp(_) => {
                    self.services.accept(NodeId(node), pkt.tag, pkt.src, now);
                }
                NodeRole::Io(i) => {
                    self.ios[i].transmit(pkt.wire_bytes());
                }
            }
            // Every arm above consumes the packet; its payload buffer
            // goes back to the arena for the next producer.
            self.pool.put(std::mem::take(&mut pkt.data));
        }
    }

    fn runtime_dispatch(&mut self, now: Cycles, open: bool) {
        let Some(mut rt) = self.runtime.take() else {
            return;
        };
        let (calls, mut sink) = (&mut self.calls, self.obs_sink.as_deref_mut());
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
        let (pes, pe_wake, pool) = (&mut self.pes, &mut self.pe_wake, &mut self.pool);
        let (woken, earliest) = rt.dispatch(pes, now, pe_wake, pool, on_spawn);
        self.pe_due = self.pe_due.min(earliest);
        self.sched_stats.pe_external_wakes += woken;
        if !open {
            rt.note_pes(&self.pes);
        }
        self.runtime = Some(rt);
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
    fn call_attribution(&self, p: usize, tid: usize, dst: NodeId, data: &[u8]) -> Option<ObjectId> {
        match self.roles.get(dst.0)? {
            NodeRole::Memory(_) | NodeRole::Fabric(_) | NodeRole::HwIp(_) => {
                self.calls.handler(p, tid)
            }
            NodeRole::Pe(_) => MessageView::decode(data)
                .ok()
                .filter(|m| m.kind == MessageKind::Invocation)
                .map(|m| m.object),
            NodeRole::Io(_) => None,
        }
    }

    /// Turns the requests PE `p` raised this tick into outgoing packets.
    fn collect_pe_requests(&mut self, p: usize, now: Cycles) {
        let src = self.pe_node(p);
        while let Some((tid, req)) = self.pes[p].pop_request() {
            match req {
                PeRequest::Send {
                    dst,
                    bytes,
                    mut data,
                    tag,
                } => {
                    self.pool.pad_zeroed(&mut data, bytes as usize);
                    self.outbox.push_back(Outgoing {
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
                    // retry policy the table keeps a clone of the padded
                    // payload and stamps the attempt's token on the tag.
                    let object = self.call_attribution(p, tid.0, dst, &data);
                    self.pool.pad_zeroed(&mut data, bytes as usize);
                    let tag = RequestTag {
                        pe: PeId(p),
                        tid,
                        token: 0,
                        reply_bytes,
                    };
                    let tag = (self.calls).issue(tag, dst, &data, object, now, &mut self.pool);
                    self.outbox.push_back(Outgoing {
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
        for _ in 0..self.outbox.len() {
            let out = self.outbox.pop_front().expect("length was just read");
            // Guard with ni_free so the payload is only moved into the NoC
            // when acceptance is certain; a full NI means retry next cycle.
            if self.noc.ni_free(out.src) == 0 {
                self.outbox.push_back(out);
                continue;
            }
            let bytes = out.data.len();
            self.noc
                .try_inject(out.src, out.dst, out.data, out.tag, now)
                .expect("NI space was checked and platform nodes are valid");
            if let Some(s) = self.obs_sink.as_deref_mut() {
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
                if self.campaign.is_none() || self.pes[pe.0].is_awaiting(tid) {
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
        if self.runtime.is_none() {
            return Err(crate::runtime::InstallError::NoApp);
        }
        let Some(o) = self.calls.object_mut(object) else {
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
        self.calls.objects().get(object.0).map(|o| &o.histogram)
    }

    /// Builds the report for the last `elapsed` cycles of activity.
    ///
    /// Takes `&mut self` because the active-set scheduler defers busy/idle
    /// accounting for dormant PEs; reporting settles it first.
    pub fn report(&mut self, elapsed: Cycles) -> PlatformReport {
        self.settle();
        PlatformReport::collect(self, elapsed)
    }

    pub(crate) fn pes_slice(&self) -> &[Pe] {
        &self.pes
    }

    pub(crate) fn services_ref(&self) -> &Services {
        &self.services
    }

    pub(crate) fn ios_slice(&self) -> &[IoChannel] {
        &self.ios
    }

    pub(crate) fn noc_ref(&self) -> &Noc {
        &self.noc
    }

    /// Clock frequency at the configured technology node.
    pub fn clock_hz(&self) -> f64 {
        self.cfg.tech.nominal_clock_hz()
    }

    /// Total dynamic energy across all components.
    pub fn total_energy(&self) -> Picojoules {
        let pe: Picojoules = self.pes.iter().map(|p| p.stats().energy).sum();
        let mem: Picojoules = (self.services.memories()).map(|(_, m)| m.energy()).sum();
        let fab: Picojoules = (self.services.fabrics()).map(|(_, f)| f.energy()).sum();
        let hw: Picojoules = (self.services.hwips()).map(|(_, h)| h.energy()).sum();
        pe + mem + fab + hw
    }
}
