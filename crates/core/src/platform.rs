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

use crate::config::{BuildPlatformError, FppaConfig};
use crate::report::PlatformReport;
use crate::resilience::{CloseOutcome, ResilienceState, ResilienceStats, RetryPolicy};
use crate::runtime::Runtime;
use crate::tags::{is_reply, RequestTag};
use nw_dsoc::{MessageKind, MessageView};
use nw_fabric::Efpga;
use nw_fault::{FabricShape, FaultCampaign, FaultKind};
use nw_hwip::{HwIpBlock, IoChannel, IoConfigError};
use nw_mem::{MemRequest, MemoryController, MemorySpec, ReqKind};
use nw_noc::{Noc, NocWork, PayloadPool, Topology};
use nw_obs::{HostPhase, HostProfiler, NocHeatmap, TraceEvent, TraceSink};
use nw_pe::{Pe, PeRequest};
use nw_sim::{Clock, Clocked, LatencyHistogram};
use nw_types::{AreaMm2, Cycles, NodeId, ObjectId, PeId, Picojoules};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::OnceCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};

/// How [`FppaPlatform::step`] visits components each cycle.
///
/// Both schedulers produce **bit-identical** simulations — same reports,
/// same statistics, same packet-level timing. `Dense` is the reference
/// implementation kept for differential testing; `ActiveSet` is the fast
/// path used by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Reference scheduler: every component is ticked every cycle.
    Dense,
    /// Event-driven scheduler: only components that have work due are
    /// ticked. PEs are self-timed — each sleeps through compute bursts,
    /// stalls and dormancy until the cycle it posted in the platform's wake
    /// table, catching up in bulk when it next ticks — quiescent service
    /// nodes and NoC scans are skipped, and [`FppaPlatform::run`]
    /// fast-forwards over cycle spans in which nothing is due at all.
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
    /// What the NoC ticks that did run cost: ticks, arrivals drained,
    /// router wakes scheduled, routers visited, link transfers fired.
    pub noc: NocWork,
}

/// The platform's own share of [`SchedulerStats`]; the NoC keeps its
/// counters itself ([`Noc::work`]).
#[derive(Debug, Clone, Copy, Default)]
struct SchedulerCounters {
    cycles_stepped: u64,
    cycles_hopped: u64,
    hops: u64,
    hops_ended_by_io: u64,
    pe_ticks: u64,
    pe_external_wakes: u64,
    noc_ticks_skipped: u64,
}

/// Process-wide default scheduler: 0 = unset, 1 = dense, 2 = active-set.
// nw-analyze: allow(ND03): configuration knob read once per platform construction; both
// scheduler modes simulate bit-identically (pinned by tests/scheduler_differential.rs).
static DEFAULT_SCHEDULER: AtomicU8 = AtomicU8::new(0);

/// Sets the scheduler mode newly built platforms start in (experiments
/// construct their platforms internally, so differential tests flip this
/// global to compare whole experiment tables across schedulers).
pub fn set_default_scheduler_mode(mode: SchedulerMode) {
    let v = match mode {
        SchedulerMode::Dense => 1,
        SchedulerMode::ActiveSet => 2,
    };
    DEFAULT_SCHEDULER.store(v, Ordering::SeqCst);
}

/// The scheduler mode newly built platforms start in: the value of
/// [`set_default_scheduler_mode`] if set, else the `NANOWALL_SCHED`
/// environment variable (`dense` / `active`), else [`SchedulerMode::ActiveSet`].
pub fn default_scheduler_mode() -> SchedulerMode {
    match DEFAULT_SCHEDULER.load(Ordering::SeqCst) {
        1 => SchedulerMode::Dense,
        2 => SchedulerMode::ActiveSet,
        _ => match std::env::var("NANOWALL_SCHED") {
            Ok(v) if v.eq_ignore_ascii_case("dense") => SchedulerMode::Dense,
            Ok(v) if v.eq_ignore_ascii_case("active") || v.eq_ignore_ascii_case("activeset") => {
                SchedulerMode::ActiveSet
            }
            Ok(v) => {
                eprintln!("NANOWALL_SCHED={v} not recognized (dense|active); using active");
                SchedulerMode::ActiveSet
            }
            Err(_) => SchedulerMode::ActiveSet,
        },
    }
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
    mems: Vec<MemoryController>,
    fabrics: Vec<Efpga>,
    hwips: Vec<HwIpBlock>,
    ios: Vec<IoChannel>,
    roles: Vec<NodeRole>,
    pe_nodes: Vec<NodeId>,
    mem_nodes: Vec<NodeId>,
    fabric_nodes: Vec<NodeId>,
    hwip_nodes: Vec<NodeId>,
    io_nodes: Vec<NodeId>,
    clock: Clock,
    outbox: VecDeque<Outgoing>,
    /// In-flight service requests per memory: request id → (tag, reply-to).
    mem_inflight: Vec<BTreeMap<u64, (u64, NodeId)>>,
    /// Parked memory requests (bank queues full): (request, tag, reply-to).
    mem_parked: Vec<VecDeque<(MemRequest, u64, NodeId)>>,
    fabric_inflight: Vec<BTreeMap<u64, (u64, NodeId)>>,
    fabric_parked: Vec<VecDeque<(u64, NodeId)>>,
    hwip_inflight: Vec<BTreeMap<u64, (u64, NodeId)>>,
    hwip_parked: Vec<VecDeque<(u64, NodeId)>>,
    next_service_id: u64,
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
    /// Scheduler work counters (see [`FppaPlatform::scheduler_stats`]).
    sched_stats: SchedulerCounters,
    /// Lazily computed, cached hop matrix. The topology's link structure is
    /// immutable after construction, but *routes* can change when a link is
    /// permanently failed ([`FppaPlatform::fail_noc_link`] or a campaign
    /// fault) — every such change empties this cache so the next
    /// [`FppaPlatform::hop_matrix`] recomputes against the degraded tables.
    hop_cache: OnceCell<Vec<Vec<f64>>>,
    /// Recycling arena for packet payloads: consumed packet buffers return
    /// here in `route_arrivals`, and every payload producer (service
    /// replies, ingress invocations, handler-synthesized messages, PE
    /// request padding) draws from it instead of the allocator. Purely an
    /// allocation cache — contents and timing are bit-identical either way.
    pool: PayloadPool,
    /// In-flight synchronous round trip per hardware thread
    /// (`call_issue[pe][tid]`): the cycle the `Op::Call` issued and the
    /// application object the latency is attributed to. Stamped in
    /// [`FppaPlatform::collect_pe_requests`], consumed at reply delivery in
    /// `route_arrivals` — the end-to-end (request-issue → reply-delivery)
    /// invocation-latency probe. A blocked thread holds at most one call,
    /// so the slot needs no queue.
    call_issue: Vec<Vec<Option<(Cycles, ObjectId)>>>,
    /// Per-object end-to-end latency histograms, indexed by [`ObjectId`];
    /// sized when an application is installed.
    object_latency: Vec<LatencyHistogram>,
    /// Per-object deadline budgets in cycles (see
    /// [`FppaPlatform::set_latency_deadline`]).
    latency_deadlines: Vec<Option<u64>>,
    /// Recorded round trips that exceeded the object's deadline budget.
    deadline_misses: Vec<u64>,
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
    /// Retry/timeout bookkeeping (see [`FppaPlatform::set_retry_policy`]).
    /// `None` keeps the legacy reply path: tags carry token 0 and replies
    /// complete their thread unconditionally.
    resilience: Option<ResilienceState>,
    /// Fault/recovery counters surfaced through
    /// [`FppaPlatform::resilience_stats`]; all zero when faults are off.
    rstats: ResilienceStats,
    /// The replica seed last applied by [`FppaPlatform::reseed`] /
    /// [`FppaPlatform::fork`] (0 for a freshly built platform).
    seed: u64,
    /// Platform-owned RNG, checkpointed word-for-word by snapshots. The
    /// default simulation path never draws from it — determinism of
    /// existing runs does not depend on it — but forked replicas re-seed
    /// it (and the fault campaign's future) to diverge.
    rng: StdRng,
}

/// A plain-old-data checkpoint of a [`FppaPlatform`].
///
/// Captures the complete simulation state — PE/program state, NoC engine
/// state (queues, `busy_until` stamps, event-wheel wakes, the
/// [`PayloadPool`] ledger), runtime dispatch state (pending invocations,
/// retry deadlines, handler-plan cache), service/memory state, latency
/// histograms, resilience counters, and the RNG state words — such that
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
    /// xoshiro256++ state words, captured via `StdRng::get_state`.
    rng_state: [u64; 4],
    /// Replica seed at capture time.
    seed: u64,
}

impl PlatformSnapshot {
    /// The simulation cycle the snapshot was taken at.
    pub fn cycle(&self) -> Cycles {
        self.state.clock.now()
    }

    /// The replica seed active at capture time.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl FppaPlatform {
    /// Builds the platform from its configuration.
    ///
    /// # Errors
    ///
    /// [`BuildPlatformError::NoPes`] for an empty platform;
    /// [`BuildPlatformError::Topology`] if the NoC cannot be built;
    /// [`BuildPlatformError::Io`] for an I/O channel that cannot be paced
    /// (zero packet size, unusable clock or rate).
    pub fn new(cfg: FppaConfig) -> Result<Self, BuildPlatformError> {
        if cfg.pes.is_empty() {
            return Err(BuildPlatformError::NoPes);
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
        let noc = Noc::new(topo, noc_cfg);

        let mut roles = Vec::with_capacity(n);
        let mut pe_nodes = Vec::new();
        let mut mem_nodes = Vec::new();
        let mut fabric_nodes = Vec::new();
        let mut hwip_nodes = Vec::new();
        let mut io_nodes = Vec::new();

        let pes: Vec<Pe> = cfg.pes.iter().cloned().map(Pe::new).collect();
        for i in 0..pes.len() {
            pe_nodes.push(NodeId(roles.len()));
            roles.push(NodeRole::Pe(i));
        }
        let mems: Vec<MemoryController> = cfg
            .memories
            .iter()
            .map(|m| {
                MemoryController::new(
                    MemorySpec::at_node(m.technology, cfg.tech),
                    m.banks,
                    m.queue_depth,
                )
            })
            .collect();
        for i in 0..mems.len() {
            mem_nodes.push(NodeId(roles.len()));
            roles.push(NodeRole::Memory(i));
        }
        let fabrics: Vec<Efpga> = cfg.fabrics.iter().map(|f| Efpga::new(*f)).collect();
        for i in 0..fabrics.len() {
            fabric_nodes.push(NodeId(roles.len()));
            roles.push(NodeRole::Fabric(i));
        }
        let hwips: Vec<HwIpBlock> = cfg
            .hwip
            .iter()
            .map(|h| HwIpBlock::new(&h.name, h.ii, h.latency, h.area, h.energy_per_item, 64))
            .collect();
        for i in 0..hwips.len() {
            hwip_nodes.push(NodeId(roles.len()));
            roles.push(NodeRole::HwIp(i));
        }
        let ios = cfg
            .io
            .iter()
            .enumerate()
            .map(|(index, c)| {
                IoChannel::new(*c).map_err(|reason| BuildPlatformError::Io { index, reason })
            })
            .collect::<Result<Vec<IoChannel>, _>>()?;
        for i in 0..ios.len() {
            io_nodes.push(NodeId(roles.len()));
            roles.push(NodeRole::Io(i));
        }

        let n_mems = mems.len();
        let n_fabrics = fabrics.len();
        let n_hwips = hwips.len();
        let n_pes = pes.len();
        let call_issue = pes.iter().map(|p| vec![None; p.n_threads()]).collect();
        Ok(FppaPlatform {
            cfg,
            noc,
            pes,
            mems,
            fabrics,
            hwips,
            ios,
            roles,
            pe_nodes,
            mem_nodes,
            fabric_nodes,
            hwip_nodes,
            io_nodes,
            clock: Clock::new(),
            outbox: VecDeque::new(),
            mem_inflight: (0..n_mems).map(|_| BTreeMap::new()).collect(),
            mem_parked: (0..n_mems).map(|_| VecDeque::new()).collect(),
            fabric_inflight: (0..n_fabrics).map(|_| BTreeMap::new()).collect(),
            fabric_parked: (0..n_fabrics).map(|_| VecDeque::new()).collect(),
            hwip_inflight: (0..n_hwips).map(|_| BTreeMap::new()).collect(),
            hwip_parked: (0..n_hwips).map(|_| VecDeque::new()).collect(),
            next_service_id: 0,
            runtime: None,
            scheduler: default_scheduler_mode(),
            pe_wake: vec![0; n_pes],
            sched_stats: SchedulerCounters::default(),
            hop_cache: OnceCell::new(),
            pool: PayloadPool::new(),
            call_issue,
            object_latency: Vec::new(),
            latency_deadlines: Vec::new(),
            deadline_misses: Vec::new(),
            obs_sink: None,
            profiler: None,
            campaign: None,
            resilience: None,
            rstats: ResilienceStats::default(),
            seed: 0,
            rng: StdRng::seed_from_u64(0),
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
            mems: self.mems.clone(),
            fabrics: self.fabrics.clone(),
            hwips: self.hwips.clone(),
            ios: self.ios.clone(),
            roles: self.roles.clone(),
            pe_nodes: self.pe_nodes.clone(),
            mem_nodes: self.mem_nodes.clone(),
            fabric_nodes: self.fabric_nodes.clone(),
            hwip_nodes: self.hwip_nodes.clone(),
            io_nodes: self.io_nodes.clone(),
            clock: self.clock.clone(),
            outbox: self.outbox.clone(),
            mem_inflight: self.mem_inflight.clone(),
            mem_parked: self.mem_parked.clone(),
            fabric_inflight: self.fabric_inflight.clone(),
            fabric_parked: self.fabric_parked.clone(),
            hwip_inflight: self.hwip_inflight.clone(),
            hwip_parked: self.hwip_parked.clone(),
            next_service_id: self.next_service_id,
            runtime: self.runtime.clone(),
            scheduler: self.scheduler,
            pe_wake: self.pe_wake.clone(),
            sched_stats: self.sched_stats,
            hop_cache: self.hop_cache.clone(),
            pool: self.pool.clone(),
            call_issue: self.call_issue.clone(),
            object_latency: self.object_latency.clone(),
            latency_deadlines: self.latency_deadlines.clone(),
            deadline_misses: self.deadline_misses.clone(),
            obs_sink: None,
            profiler: None,
            campaign: self.campaign.clone(),
            resilience: self.resilience.clone(),
            rstats: self.rstats.clone(),
            seed: self.seed,
            rng: self.rng.clone(),
        }
    }

    /// Checkpoints the platform. The snapshot owns an independent copy of
    /// every piece of simulation state; the platform is untouched (host
    /// observers included) and can keep running.
    pub fn snapshot(&self) -> PlatformSnapshot {
        PlatformSnapshot {
            rng_state: self.rng.get_state(),
            seed: self.seed,
            state: Box::new(self.clone_state()),
        }
    }

    /// Rebuilds a platform from a snapshot. The result runs bit-identically
    /// to the platform the snapshot was taken from — same reports under
    /// both [`SchedulerMode`]s, with or without an active fault campaign —
    /// and starts with no trace sink or profiler installed.
    pub fn from_snapshot(snap: &PlatformSnapshot) -> FppaPlatform {
        let mut p = snap.state.clone_state();
        p.seed = snap.seed;
        p.rng = StdRng::from_state(snap.rng_state);
        p
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
    /// applied) but its *future* randomness — the platform RNG stream and
    /// the undrained tail of an installed fault campaign — is redrawn from
    /// `seed`. Forking with the seed the campaign was generated from (or
    /// any seed, when no campaign is installed and the RNG is never drawn)
    /// reproduces the uninterrupted run exactly; distinct seeds give
    /// statistically independent replicas.
    pub fn fork(&self, seed: u64) -> FppaPlatform {
        let mut p = self.clone_state();
        p.reseed(seed);
        p
    }

    /// Re-seeds the platform RNG and redraws the undrained future of an
    /// installed fault campaign from `seed`, keeping all other state (see
    /// [`FppaPlatform::fork`]).
    pub fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.rng = StdRng::seed_from_u64(seed);
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

    /// Direct access to the platform-owned seeded RNG. The built-in
    /// simulation path never draws from it; custom components that want
    /// per-replica randomness should draw here so forked replicas diverge
    /// and snapshots capture their stream position.
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
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
        self.ios[i].set_rate(rate)
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

    /// Switches scheduler. Both modes simulate identically (the active-set
    /// scheduler is verified bit-identical against the dense reference), so
    /// switching is safe at any point — also while PEs sleep mid-burst:
    /// every PE is marked due now, and its next tick (under either mode)
    /// first catches up what it slept through.
    pub fn set_scheduler_mode(&mut self, mode: SchedulerMode) {
        self.scheduler = mode;
        self.pe_wake.fill(self.clock.now().0);
    }

    /// The scheduler's deterministic work counters so far.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        let SchedulerCounters {
            cycles_stepped,
            cycles_hopped,
            hops,
            hops_ended_by_io,
            pe_ticks,
            pe_external_wakes,
            noc_ticks_skipped,
        } = self.sched_stats;
        SchedulerStats {
            cycles_stepped,
            cycles_hopped,
            hops,
            hops_ended_by_io,
            pe_ticks,
            pe_external_wakes,
            noc_ticks_skipped,
            noc: self.noc.work(),
        }
    }

    /// External wake: PE `p` must tick at cycle `at` at the latest. Every
    /// site that changes a PE's state from outside its own tick calls this
    /// with the next cycle the PE phase runs — `now` from phases before
    /// the PE phase, `now + 1` from the outbox flush after it.
    #[inline]
    fn wake_pe(&mut self, p: usize, at: Cycles) {
        self.pe_wake[p] = self.pe_wake[p].min(at.0);
        self.sched_stats.pe_external_wakes += 1;
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
        self.pe_nodes[i]
    }

    /// The NoC node hosting memory `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn memory_node(&self, i: usize) -> NodeId {
        self.mem_nodes[i]
    }

    /// The NoC node hosting eFPGA fabric `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fabric_node(&self, i: usize) -> NodeId {
        self.fabric_nodes[i]
    }

    /// The NoC node hosting hardwired IP `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn hwip_node(&self, i: usize) -> NodeId {
        self.hwip_nodes[i]
    }

    /// The NoC node hosting I/O channel `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn io_node(&self, i: usize) -> NodeId {
        self.io_nodes[i]
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
        // PE's thread → object attributions so a manual program's service
        // calls cannot be charged to a stale handler's latency histogram.
        if let Some(rt) = self.runtime.as_mut() {
            rt.clear_thread_objects(i);
        }
        &mut self.pes[i]
    }

    /// Direct access to an eFPGA fabric (configuration).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fabric_mut(&mut self, i: usize) -> &mut Efpga {
        &mut self.fabrics[i]
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
    /// mappers).
    ///
    /// The matrix is O(n²) `hops` walks to build, and mapper-heavy loops
    /// (DSE sweeps) ask for it repeatedly, so it is computed once and
    /// cached. Permanently failing a link ([`FppaPlatform::fail_noc_link`]
    /// or a campaign fault) invalidates the cache, so the next call
    /// recomputes against the degraded routing tables; endpoint pairs
    /// disconnected by dead links read `f64::INFINITY`.
    pub fn hop_matrix(&self) -> Vec<Vec<f64>> {
        self.hop_cache
            .get_or_init(|| {
                let n = self.roles.len();
                (0..n)
                    .map(|a| {
                        (0..n)
                            .map(|b| {
                                self.noc
                                    .topology()
                                    .try_hops(a, b)
                                    .map_or(f64::INFINITY, |h| h as f64)
                            })
                            .collect()
                    })
                    .collect()
            })
            .clone()
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
        let fabric_area: AreaMm2 = self
            .fabrics
            .iter()
            .filter_map(|f| f.kernel().map(|k| k.area))
            .sum();
        let hwip_area: AreaMm2 = self.hwips.iter().map(|h| h.area()).sum();
        pe_area + mem_area + fabric_area + hwip_area
    }

    /// Runs the platform for `cycles` cycles and reports.
    ///
    /// Under [`SchedulerMode::ActiveSet`] quiet cycle spans are
    /// fast-forwarded: when nothing is due (every PE asleep — dormant, mid
    /// compute burst or stalled — no NoC event due, no busy service node,
    /// no pending dispatch) the clock jumps straight to the next timed
    /// event — the earliest PE wake and the next line-rate or drive
    /// arrival included — instead of stepping cycle by cycle. I/O pacing
    /// is exact integer credit, so the jump leaves every pacer in the
    /// state per-cycle ticking would, and results stay bit-identical to
    /// the dense scheduler.
    pub fn run(&mut self, cycles: u64) -> PlatformReport {
        let start = self.clock.now();
        if let Some(p) = self.profiler.as_mut() {
            p.arm();
        }
        match self.scheduler {
            SchedulerMode::Dense => {
                for _ in 0..cycles {
                    self.step_dense();
                }
            }
            SchedulerMode::ActiveSet => {
                let end = Cycles(start.0 + cycles);
                while self.clock.now() < end {
                    // The quiet-span probe itself has no phase: its cost
                    // folds into the lap of whichever phase ends next
                    // (FastForward on a hop, IoPacing on a normal step).
                    match self.quiet_span(end) {
                        Some((target, ended_by_io)) => {
                            let before = self.clock.now();
                            let span = target.0 - before.0;
                            self.span_hop(span);
                            self.sched_stats.cycles_hopped += span;
                            self.sched_stats.hops += 1;
                            self.sched_stats.hops_ended_by_io += u64::from(ended_by_io);
                            if let Some(s) = self.obs_sink.as_deref_mut() {
                                s.emit(TraceEvent::FastForward {
                                    cycle: before.0,
                                    span,
                                });
                            }
                            self.prof_lap(HostPhase::FastForward);
                        }
                        None => self.step_active(),
                    }
                }
            }
        }
        let report = self.report(self.clock.now().saturating_sub(start));
        self.prof_lap(HostPhase::Settle);
        if let Some(p) = self.profiler.as_mut() {
            p.pause();
        }
        report
    }

    /// Advances the platform by one cycle under the configured scheduler.
    pub fn step(&mut self) {
        match self.scheduler {
            SchedulerMode::Dense => self.step_dense(),
            SchedulerMode::ActiveSet => self.step_active(),
        }
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
    /// [`RetryPolicy::max_attempts`] releases its blocked thread.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.resilience = Some(ResilienceState::new(policy));
    }

    /// Synchronous calls currently tracked by the retry layer.
    pub fn pending_retries(&self) -> usize {
        self.resilience
            .as_ref()
            .map_or(0, ResilienceState::pending_len)
    }

    /// Fault-injection and recovery counters: platform-side events merged
    /// with the NoC's drop/corruption bookkeeping. All zero when faults
    /// were never enabled.
    pub fn resilience_stats(&self) -> ResilienceStats {
        let mut s = self.rstats.clone();
        s.packets_dropped = self.noc.dropped_packets();
        s.flits_dropped = self.noc.dropped_flits();
        s.packets_corrupted = self.noc.corrupted_packets();
        s
    }

    /// Permanently fails output `port` of `router`: routes are recomputed
    /// around the dead link (BFS over the surviving fabric), stranded
    /// packets are redirected or deterministically dropped, and the cached
    /// hop matrix is invalidated. Returns `false` when the link was already
    /// down. This is the degraded-mode hook the fault phase uses for
    /// permanent `LinkDown` events; tests and experiments may call it
    /// directly.
    pub fn fail_noc_link(&mut self, router: usize, port: usize) -> bool {
        let now = self.clock.now();
        if !self.noc.fail_link(router, port, now) {
            return false;
        }
        self.rstats.links_failed += 1;
        self.rstats.reroutes += 1;
        self.hop_cache.take();
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
        for slot in &mut self.call_issue[pe] {
            *slot = None;
        }
        if let Some(rt) = self.runtime.as_mut() {
            rt.clear_thread_objects(pe);
        }
        if let Some(rs) = self.resilience.as_mut() {
            for b in rs.abandon_pe(pe) {
                self.pool.put(b);
            }
        }
        self.rstats.pe_crashes += 1;
    }

    /// Drains and applies every campaign event due at `now`, then recycles
    /// any payload buffers the NoC dropped (injected drops now, or
    /// disconnection drops during earlier ticks). Runs at the top of both
    /// scheduler steps, so fault application lands on identical cycles.
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
        if self.noc.has_dropped_buffers() {
            for b in self.noc.take_dropped_buffers() {
                self.pool.put(b);
            }
        }
    }

    /// Fires due retry deadlines: re-issue with a bumped token and doubled
    /// window, or give up after the attempt budget and release the blocked
    /// thread. Deadlines are plain cycle numbers, so both schedulers fire
    /// them on identical cycles.
    fn check_retries(&mut self, now: Cycles) {
        let Some(mut rs) = self.resilience.take() else {
            return;
        };
        let policy = rs.policy;
        for (p, tid) in rs.due_keys(now.0) {
            let give_up = {
                let Some(entry) = rs.get_mut(p, tid) else {
                    continue;
                };
                u32::from(entry.attempt) + 1 >= u32::from(policy.max_attempts.max(1))
            };
            if give_up {
                if let Some(data) = rs.abandon(p, tid) {
                    self.pool.put(data);
                }
                self.call_issue[p][tid] = None;
                self.rstats.retry_give_ups += 1;
                let t = nw_types::ThreadId(tid);
                if self.pes[p].is_awaiting(t) {
                    self.wake_pe(p, now);
                    self.pes[p].complete(t);
                }
            } else {
                rs.bump(p, tid, now.0);
                let entry = rs.get_mut(p, tid).expect("entry was just bumped");
                let mut fresh = self.pool.take();
                fresh.extend_from_slice(&entry.data);
                let send = std::mem::replace(&mut entry.data, fresh);
                let tag = RequestTag {
                    pe: PeId(p),
                    tid: nw_types::ThreadId(tid),
                    token: entry.token,
                    reply_bytes: entry.reply_bytes,
                }
                .encode();
                let (dst, attempt) = (entry.dst, entry.attempt);
                self.outbox.push_back(Outgoing {
                    src: self.pe_nodes[p],
                    dst,
                    data: send,
                    tag,
                    on_accept: None,
                });
                self.rstats.retries += 1;
                if let Some(s) = self.obs_sink.as_deref_mut() {
                    s.emit(TraceEvent::RetryIssued {
                        cycle: now.0,
                        pe: p,
                        thread: tid,
                        attempt: u32::from(attempt),
                    });
                }
            }
        }
        self.resilience = Some(rs);
    }

    /// The dense reference scheduler: every component ticks every cycle.
    fn step_dense(&mut self) {
        let now = self.clock.now();

        // 0. Fault injection and retry deadlines (no-ops when disabled).
        if self.campaign.is_some() {
            self.apply_faults(now);
        }
        if self.resilience.is_some() {
            self.check_retries(now);
        }

        // 1. I/O pacing and ingress injection.
        for i in 0..self.ios.len() {
            self.ios[i].tick(now);
        }
        self.io_ingress(now);
        self.prof_lap(HostPhase::IoPacing);

        // 2. The interconnect.
        self.noc.tick_traced(now, self.obs_sink.as_deref_mut());
        self.prof_lap(HostPhase::NocTick);

        // 3. Route arrivals.
        self.route_arrivals(now);
        self.prof_lap(HostPhase::RouteArrivals);

        // 4. Service nodes: memories, fabrics, hardwired IP.
        self.tick_services(now, false);
        self.prof_lap(HostPhase::Services);

        // 5. DSOC drives and dispatch.
        self.runtime_dispatch(now);
        self.prof_lap(HostPhase::Dispatch);

        // 6. PEs execute; their requests become packets.
        for p in 0..self.pes.len() {
            self.pes[p].tick(now);
            self.collect_pe_requests(p, now);
        }
        self.sched_stats.pe_ticks += self.pes.len() as u64;
        self.drain_retirements(now);
        self.prof_lap(HostPhase::PeStep);

        // 7. Flush the injection retry queue.
        self.flush_outbox(now);
        self.prof_lap(HostPhase::Outbox);

        self.sched_stats.cycles_stepped += 1;
        self.clock.advance();
    }

    /// The active-set scheduler: the same phase order as the dense step,
    /// but each phase only visits components that can actually do work.
    /// Skipped components would have ticked as no-ops (or, for sleeping
    /// PEs, burst and stall arithmetic that is settled in bulk later), so
    /// the simulation is bit-identical to [`FppaPlatform::step_dense`].
    fn step_active(&mut self) {
        let now = self.clock.now();

        // 0. Fault injection and retry deadlines (no-ops when disabled) —
        //    same phase position as the dense step, so fault application
        //    and retry firing land on identical cycles.
        if self.campaign.is_some() {
            self.apply_faults(now);
        }
        if self.resilience.is_some() {
            self.check_retries(now);
        }

        // 1. I/O pacing: one cycle of line-rate credit per channel.
        for i in 0..self.ios.len() {
            self.ios[i].tick(now);
        }
        self.io_ingress(now);
        self.prof_lap(HostPhase::IoPacing);

        // 2. The interconnect, when an arrival, router wake or ready NI
        //    head is actually due this cycle. A loaded-but-stalled fabric
        //    (every queued packet waiting out multi-cycle link occupancy)
        //    is skipped entirely — the tick would be a no-op.
        if self.noc.due_now(now) {
            self.noc.tick_traced(now, self.obs_sink.as_deref_mut());
        } else {
            self.sched_stats.noc_ticks_skipped += 1;
        }
        self.prof_lap(HostPhase::NocTick);

        // 3. Route arrivals, when a delivered packet awaits ejection.
        if self.noc.eject_pending() > 0 {
            self.route_arrivals(now);
        }
        self.prof_lap(HostPhase::RouteArrivals);

        // 4. Service nodes with work (busy pipelines or parked retries).
        self.tick_services(now, true);
        self.prof_lap(HostPhase::Services);

        // 5. DSOC drives and dispatch.
        self.runtime_dispatch(now);
        self.prof_lap(HostPhase::Dispatch);

        // 6. Due PEs execute, hand over their requests and post their
        //    next wake; the others keep sleeping and catch up in bulk when
        //    they wake or at report time.
        let next = Cycles(now.0 + 1);
        for p in 0..self.pes.len() {
            if self.pe_wake[p] > now.0 {
                continue;
            }
            self.pes[p].tick(now);
            self.collect_pe_requests(p, now);
            let span = self.pes[p].quiet_span(next).unwrap_or(0);
            self.pe_wake[p] = next.0.saturating_add(span);
            self.sched_stats.pe_ticks += 1;
        }
        self.drain_retirements(now);
        self.prof_lap(HostPhase::PeStep);

        // 7. Flush the injection retry queue.
        if !self.outbox.is_empty() {
            self.flush_outbox(now);
        }
        self.prof_lap(HostPhase::Outbox);

        self.sched_stats.cycles_stepped += 1;
        self.clock.advance();
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

    /// The run-loop probe: whether the upcoming span of cycles is provably
    /// skippable, and up to which cycle. `None`: this cycle must be stepped
    /// normally. `Some((target, ended_by_io))`, `target > now`: nothing
    /// except I/O pacing credit, unbound channels' line drops and sleeping
    /// PEs' catch-up arithmetic evolves before `target` — no retirement,
    /// dispatch, injection or bound arrival can occur — so
    /// [`Self::span_hop`] may bulk-advance there. `ended_by_io` says the
    /// target is a paced arrival (see [`SchedulerStats::hops_ended_by_io`]).
    ///
    /// "Due now or every cycle" sources (outbox, dispatch, a bound
    /// channel's RX backlog, a busy or parked service node) veto the hop.
    /// Timed sources bound it: the earliest PE wake (`min(pe_wake)`; all
    /// dormant: unbounded), the next arrival on a bound I/O channel or an
    /// entry drive, the next NoC event, the next campaign fault and the
    /// earliest retry deadline — each vetoes when due now, so an arrival,
    /// fault or timeout is always applied in a normally stepped cycle.
    /// `end` caps the target.
    fn quiet_span(&self, end: Cycles) -> Option<(Cycles, bool)> {
        let now = self.clock.now();
        // Constant-time vetoes first, then the walks.
        if !self.outbox.is_empty() || self.noc.eject_pending() > 0 {
            return None;
        }
        if self
            .runtime
            .as_ref()
            .is_some_and(Runtime::has_dispatch_work)
        {
            return None;
        }
        let mut target = end.0;
        let mut bound = |t: u64| {
            target = target.min(t);
            t > now.0
        };
        let pe_wake = self.pe_wake.iter().copied().min().unwrap_or(u64::MAX);
        if !bound(pe_wake) {
            return None;
        }
        // Paced sources post their next arrival like every other timed
        // source: the n-th coming tick runs in cycle `now + n - 1`.
        // Unbound channels pace and drop; their state never wakes
        // anything, exactly as in a dense step.
        let mut io_next = u64::MAX;
        if let Some(rt) = self.runtime.as_ref() {
            let mut ticks = rt.drive_ticks_to_next();
            for (i, io) in self.ios.iter().enumerate() {
                if !rt.io_has_bindings(i) {
                    continue;
                }
                if io.rx_backlog() > 0 {
                    return None;
                }
                ticks = ticks.min(io.ticks_to_next_rx());
            }
            io_next = now.0.saturating_add(ticks - 1);
            if !bound(io_next) {
                return None;
            }
        }
        if let Some(t) = self.campaign.as_ref().and_then(FaultCampaign::next_cycle) {
            if !bound(t) {
                return None;
            }
        }
        if let Some(d) = self
            .resilience
            .as_ref()
            .and_then(ResilienceState::earliest_deadline)
        {
            if !bound(d) {
                return None;
            }
        }
        if let Some(t) = self.noc.next_event_cycle(now) {
            if !bound(t.0) {
                return None;
            }
        }
        let mems_quiet = self
            .mems
            .iter()
            .zip(&self.mem_parked)
            .all(|(m, parked)| parked.is_empty() && m.is_idle());
        let fabrics_quiet = self
            .fabrics
            .iter()
            .zip(&self.fabric_parked)
            .all(|(f, parked)| parked.is_empty() && f.is_idle());
        let hwips_quiet = self
            .hwips
            .iter()
            .zip(&self.hwip_parked)
            .all(|(h, parked)| parked.is_empty() && h.is_idle());
        if !(mems_quiet && fabrics_quiet && hwips_quiet) {
            return None;
        }
        Some((Cycles(target), io_next == target))
    }

    /// Advances over a quiet span of `span` cycles (to the target of
    /// [`Self::quiet_span`]) in one jump: every pacer — I/O channels and
    /// entry drives — advances by the span in closed form, then the clock.
    /// The probe bounded the span by the next bound arrival, so nothing
    /// falls due that a stepped cycle would have had to act on; unbound
    /// channels fill and overflow their FIFOs as they would tick by tick.
    /// PEs are not touched: each catches up the hopped cycles itself on
    /// its next tick ([`Pe::settle_accounting`]), with counter arithmetic
    /// identical to per-cycle ticking, so the dense scheduler sees the
    /// same state.
    fn span_hop(&mut self, span: u64) {
        debug_assert!(span > 0, "a hop must advance the clock");
        for io in &mut self.ios {
            io.advance(span);
        }
        if let Some(rt) = self.runtime.as_mut() {
            rt.advance_drives(span);
            debug_assert!(!rt.has_dispatch_work(), "a drive fired inside a hop");
        }
        self.clock.advance_by(Cycles(span));
    }

    /// The earliest cycle `>=` now at which any platform component has work
    /// due, or `None` when the platform is completely drained. Spans before
    /// the returned cycle are safe to skip: the dense scheduler would tick
    /// through them changing nothing but pacing credit and sleeping PEs'
    /// accounting. Paced sources answer with their true next arrival — the
    /// cycle a channel's wire (bound or not) delivers its next packet or a
    /// drive queues its next invocation.
    pub fn next_event_cycle(&self) -> Option<Cycles> {
        let now = self.clock.now();
        let mut next: Option<Cycles> = None;
        let mut fold = |c: Option<Cycles>| {
            next = match (next, c) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        };
        // A PE's posted wake is its next event (dense mode never posts,
        // so every entry reads "now" there).
        fold(
            self.pe_wake
                .iter()
                .min()
                .filter(|&&w| w != u64::MAX)
                .map(|&w| Cycles(w).max(now)),
        );
        if !self.outbox.is_empty()
            || self.noc.eject_pending() > 0
            || self
                .runtime
                .as_ref()
                .is_some_and(Runtime::has_dispatch_work)
        {
            fold(Some(now));
        }
        // The n-th coming tick runs in cycle `now + n - 1`; a bound
        // channel's waiting backlog is ingress work due now.
        let arrival =
            |ticks: u64| (ticks != u64::MAX).then(|| Cycles(now.0.saturating_add(ticks - 1)));
        for (i, io) in self.ios.iter().enumerate() {
            fold(arrival(io.ticks_to_next_rx()));
            let bound = self
                .runtime
                .as_ref()
                .is_some_and(|rt| rt.io_has_bindings(i));
            if bound && io.rx_backlog() > 0 {
                fold(Some(now));
            }
        }
        if let Some(rt) = self.runtime.as_ref() {
            fold(arrival(rt.drive_ticks_to_next()));
        }
        fold(self.noc.next_event_cycle(now));
        fold(
            self.campaign
                .as_ref()
                .and_then(FaultCampaign::next_cycle)
                .map(|t| Cycles(t).max(now)),
        );
        fold(
            self.resilience
                .as_ref()
                .and_then(ResilienceState::earliest_deadline)
                .map(|d| Cycles(d).max(now)),
        );
        for (m, parked) in self.mems.iter().zip(&self.mem_parked) {
            if !parked.is_empty() {
                fold(Some(now));
            } else {
                fold(m.next_event_cycle(now));
            }
        }
        for (f, parked) in self.fabrics.iter().zip(&self.fabric_parked) {
            if !parked.is_empty() || !f.is_idle() {
                fold(Some(now));
            }
        }
        for (h, parked) in self.hwips.iter().zip(&self.hwip_parked) {
            if !parked.is_empty() || !h.is_idle() {
                fold(Some(now));
            }
        }
        next
    }

    /// Catches every sleeping PE up to the current cycle (wake cycles are
    /// absolute, so the wake table is unaffected). Called automatically by
    /// [`FppaPlatform::report`]; call it directly before reading
    /// [`Pe::stats`] on a manually stepped platform running the active-set
    /// scheduler.
    pub fn settle(&mut self) {
        let now = self.clock.now();
        for pe in &mut self.pes {
            pe.settle_accounting(now);
        }
        // Buffers dropped by the NoC on the final cycle (injected drops,
        // disconnections) still belong to the pool.
        if self.noc.has_dropped_buffers() {
            for b in self.noc.take_dropped_buffers() {
                self.pool.put(b);
            }
        }
    }

    /// Drains line-rate ingress into DSOC invocations (runtime present) or
    /// discards descriptors (no app installed).
    fn io_ingress(&mut self, now: Cycles) {
        let Some(rt) = self.runtime.as_mut() else {
            return;
        };
        for (i, io) in self.ios.iter_mut().enumerate() {
            if !rt.io_has_bindings(i) {
                continue;
            }
            let io_node = self.io_nodes[i];
            // Only drain what the NI can take this cycle; the rest waits in
            // the RX FIFO (and overflows are counted as line drops).
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
        for node in 0..self.roles.len() {
            while let Some(mut pkt) = self.noc.eject(NodeId(node)) {
                match self.roles[node] {
                    NodeRole::Pe(p) => {
                        if is_reply(pkt.tag) {
                            let t = RequestTag::decode(pkt.tag);
                            match self
                                .resilience
                                .as_mut()
                                .map(|rs| rs.close(p, t.tid.0, t.token))
                            {
                                None => {
                                    // Legacy path (retry layer off).
                                    self.record_reply_latency(p, t.tid, now);
                                    // Data-driven wake: the completion makes
                                    // a blocked thread runnable again.
                                    self.wake_pe(p, now);
                                    self.pes[p].complete(t.tid);
                                }
                                Some(CloseOutcome::Live(stored)) => {
                                    self.pool.put(stored);
                                    self.record_reply_latency(p, t.tid, now);
                                    self.wake_pe(p, now);
                                    self.pes[p].complete(t.tid);
                                }
                                Some(CloseOutcome::Stale) => {
                                    // An earlier attempt's reply arrived
                                    // after its timeout: a newer attempt is
                                    // in flight, so this one is a duplicate.
                                    self.rstats.duplicate_replies_dropped += 1;
                                }
                                Some(CloseOutcome::Unknown) => {
                                    // No tracked call: the thread either
                                    // gave up already or its PE crashed.
                                    if self.pes[p].is_awaiting(t.tid) {
                                        self.record_reply_latency(p, t.tid, now);
                                        self.wake_pe(p, now);
                                        self.pes[p].complete(t.tid);
                                    } else {
                                        self.rstats.duplicate_replies_dropped += 1;
                                    }
                                }
                            }
                        } else if let Some(rt) = self.runtime.as_mut() {
                            rt.enqueue_invocation(p, &pkt);
                        }
                    }
                    NodeRole::Memory(m) => {
                        let t = RequestTag::decode(pkt.tag);
                        let id = self.next_service_id;
                        self.next_service_id += 1;
                        let req = MemRequest {
                            id,
                            kind: ReqKind::Read,
                            addr: id.wrapping_mul(MemoryController::INTERLEAVE),
                            bytes: t.reply_bytes.max(1),
                        };
                        match self.mems[m].submit(req, now) {
                            Ok(()) => {
                                self.mem_inflight[m].insert(id, (pkt.tag, pkt.src));
                            }
                            Err(_) => {
                                self.mem_parked[m].push_back((req, pkt.tag, pkt.src));
                            }
                        }
                    }
                    NodeRole::Fabric(f) => {
                        let id = self.next_service_id;
                        self.next_service_id += 1;
                        match self.fabrics[f].try_submit(id, now) {
                            Ok(()) => {
                                self.fabric_inflight[f].insert(id, (pkt.tag, pkt.src));
                            }
                            Err(_) => {
                                self.fabric_parked[f].push_back((pkt.tag, pkt.src));
                            }
                        }
                    }
                    NodeRole::HwIp(h) => {
                        let id = self.next_service_id;
                        self.next_service_id += 1;
                        match self.hwips[h].try_submit(id, now) {
                            Ok(()) => {
                                self.hwip_inflight[h].insert(id, (pkt.tag, pkt.src));
                            }
                            Err(_) => {
                                self.hwip_parked[h].push_back((pkt.tag, pkt.src));
                            }
                        }
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
    }

    /// Ticks the service nodes. With `active_only`, nodes that are provably
    /// quiescent (idle pipeline, nothing parked) are skipped — their tick
    /// would be a no-op, so both settings simulate identically.
    fn tick_services(&mut self, now: Cycles, active_only: bool) {
        // Memories: retry parked, tick, answer completions.
        for m in 0..self.mems.len() {
            if active_only && self.mem_parked[m].is_empty() && self.mems[m].is_idle() {
                continue;
            }
            while let Some(&(req, tag, src)) = self.mem_parked[m].front() {
                if self.mems[m].submit(req, now).is_ok() {
                    self.mem_inflight[m].insert(req.id, (tag, src));
                    self.mem_parked[m].pop_front();
                } else {
                    break;
                }
            }
            self.mems[m].tick(now);
            while let Some(resp) = self.mems[m].take_response() {
                if let Some((tag, reply_to)) = self.mem_inflight[m].remove(&resp.id) {
                    self.push_service_reply(self.mem_nodes[m], reply_to, tag);
                }
            }
        }
        for f in 0..self.fabrics.len() {
            if active_only && self.fabric_parked[f].is_empty() && self.fabrics[f].is_idle() {
                continue;
            }
            while let Some(&(tag, src)) = self.fabric_parked[f].front() {
                let id = self.next_service_id;
                if self.fabrics[f].try_submit(id, now).is_ok() {
                    self.next_service_id += 1;
                    self.fabric_inflight[f].insert(id, (tag, src));
                    self.fabric_parked[f].pop_front();
                } else {
                    break;
                }
            }
            self.fabrics[f].tick(now);
            while let Some(id) = self.fabrics[f].take_done() {
                if let Some((tag, reply_to)) = self.fabric_inflight[f].remove(&id) {
                    self.push_service_reply(self.fabric_nodes[f], reply_to, tag);
                }
            }
        }
        for h in 0..self.hwips.len() {
            if active_only && self.hwip_parked[h].is_empty() && self.hwips[h].is_idle() {
                continue;
            }
            while let Some(&(tag, src)) = self.hwip_parked[h].front() {
                let id = self.next_service_id;
                if self.hwips[h].try_submit(id, now).is_ok() {
                    self.next_service_id += 1;
                    self.hwip_inflight[h].insert(id, (tag, src));
                    self.hwip_parked[h].pop_front();
                } else {
                    break;
                }
            }
            self.hwips[h].tick(now);
            while let Some(id) = self.hwips[h].take_done() {
                if let Some((tag, reply_to)) = self.hwip_inflight[h].remove(&id) {
                    self.push_service_reply(self.hwip_nodes[h], reply_to, tag);
                }
            }
        }
    }

    /// Closes the latency probe of thread `(p, tid)` at reply delivery:
    /// the elapsed cycles since the call issued land in the attributed
    /// object's histogram, and the object's deadline budget (if any) is
    /// checked. Runs identically under both schedulers — deliveries happen
    /// in normally stepped cycles, never inside a fast-forwarded span.
    fn record_reply_latency(&mut self, p: usize, tid: nw_types::ThreadId, now: Cycles) {
        let Some((issued, obj)) = self
            .call_issue
            .get_mut(p)
            .and_then(|slots| slots.get_mut(tid.0))
            .and_then(Option::take)
        else {
            return;
        };
        let latency = now.saturating_sub(issued);
        if let Some(h) = self.object_latency.get_mut(obj.0) {
            h.record(latency);
            if let Some(budget) = self.latency_deadlines[obj.0] {
                if latency.0 > budget {
                    self.deadline_misses[obj.0] += 1;
                    if let Some(s) = self.obs_sink.as_deref_mut() {
                        s.emit(TraceEvent::DeadlineMiss {
                            cycle: now.0,
                            object: obj.0,
                            latency: latency.0,
                            budget,
                        });
                    }
                }
            }
        }
    }

    fn push_service_reply(&mut self, src: NodeId, dst: NodeId, tag: u64) {
        let t = RequestTag::decode(tag);
        self.outbox.push_back(Outgoing {
            src,
            dst,
            data: self.pool.take_zeroed(t.reply_bytes as usize),
            tag: t.encode_reply(),
            on_accept: None,
        });
    }

    fn runtime_dispatch(&mut self, now: Cycles) {
        let Some(mut rt) = self.runtime.take() else {
            return;
        };
        rt.advance_drives(1);
        self.sched_stats.pe_external_wakes += rt.dispatch(
            &mut self.pes,
            now,
            &mut self.pe_wake,
            &mut self.pool,
            self.obs_sink.as_deref_mut(),
        );
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
            NodeRole::Memory(_) | NodeRole::Fabric(_) | NodeRole::HwIp(_) => self
                .runtime
                .as_ref()
                .and_then(|rt| rt.thread_object(p, tid)),
            NodeRole::Pe(_) => MessageView::decode(data)
                .ok()
                .filter(|m| m.kind == MessageKind::Invocation)
                .map(|m| m.object),
            NodeRole::Io(_) => None,
        }
    }

    /// Turns the requests PE `p` raised this tick into outgoing packets.
    fn collect_pe_requests(&mut self, p: usize, now: Cycles) {
        let src = self.pe_nodes[p];
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
                    // Open the latency probe: the round trip ends when
                    // the reply packet is delivered back to this thread.
                    if let Some(obj) = self
                        .call_attribution(p, tid.0, dst, &data)
                        .filter(|o| o.0 < self.object_latency.len())
                    {
                        self.call_issue[p][tid.0] = Some((now, obj));
                    }
                    self.pool.pad_zeroed(&mut data, bytes as usize);
                    // With the retry layer on, open a pending entry
                    // holding a pool-accounted clone of the payload and
                    // stamp its token on the tag; off, token 0 keeps
                    // the tag bit-identical to the legacy layout.
                    let token = if let Some(rs) = self.resilience.as_mut() {
                        let mut copy = self.pool.take();
                        copy.extend_from_slice(&data);
                        rs.open(p, tid.0, dst, reply_bytes, copy, now.0)
                    } else {
                        0
                    };
                    let tag = RequestTag {
                        pe: PeId(p),
                        tid,
                        token,
                        reply_bytes,
                    }
                    .encode();
                    self.outbox.push_back(Outgoing {
                        src,
                        dst,
                        data,
                        tag,
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
                    self.wake_pe(pe.0, Cycles(now.0 + 1));
                    self.pes[pe.0].complete(tid);
                }
            }
        }
    }

    /// Resizes and clears the latency telemetry for a freshly installed
    /// application of `n_objects` objects.
    pub(crate) fn reset_latency_telemetry(&mut self, n_objects: usize) {
        self.object_latency = vec![LatencyHistogram::new(); n_objects];
        self.latency_deadlines = vec![None; n_objects];
        self.deadline_misses = vec![0; n_objects];
        for slots in &mut self.call_issue {
            slots.fill(None);
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
        let Some(slot) = self.latency_deadlines.get_mut(object.0) else {
            return Err(crate::runtime::InstallError::UnknownObject(object));
        };
        *slot = Some(cycles);
        Ok(())
    }

    /// The end-to-end latency histogram of `object` (empty until its first
    /// recorded round trip; `None` when no application is installed or the
    /// id is out of range). Aggregate across objects with
    /// [`LatencyHistogram::merge`].
    pub fn object_latency(&self, object: ObjectId) -> Option<&LatencyHistogram> {
        self.object_latency.get(object.0)
    }

    pub(crate) fn object_latency_slice(&self) -> &[LatencyHistogram] {
        &self.object_latency
    }

    pub(crate) fn latency_deadlines_slice(&self) -> &[Option<u64>] {
        &self.latency_deadlines
    }

    pub(crate) fn deadline_misses_slice(&self) -> &[u64] {
        &self.deadline_misses
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

    pub(crate) fn mems_slice(&self) -> &[MemoryController] {
        &self.mems
    }

    pub(crate) fn fabrics_slice(&self) -> &[Efpga] {
        &self.fabrics
    }

    pub(crate) fn hwips_slice(&self) -> &[HwIpBlock] {
        &self.hwips
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
        let mem: Picojoules = self.mems.iter().map(|m| m.energy()).sum();
        let fab: Picojoules = self.fabrics.iter().map(|f| f.energy()).sum();
        let hw: Picojoules = self.hwips.iter().map(|h| h.energy()).sum();
        pe + mem + fab + hw
    }
}
