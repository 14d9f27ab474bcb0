//! Prebuilt experiment rigs for the paper's scenarios.
//!
//! These functions assemble the platforms the experiments and examples run
//! on, so benches, tests and examples share one definition of each rig:
//!
//! * [`latency_hiding`] — the F6 rig: one multithreaded PE calling a remote
//!   service across a configurable-latency link; reports core utilization.
//! * [`ipv4_rig`] — the T3/T6 rig: the §7.2 scenario, an IPv4 fast path on
//!   a many-PE FPPA fed by a 10 Gb/s worst-case line.
//! * [`video_rig`] / [`modem_rig`] / [`crypto_rig`] — the T8/T9/T10 rigs:
//!   the §7.1 application workloads from `nw-apps` (frame-sliced video
//!   codec, modem baseband chain, crypto offload); each is a platform
//!   described as data that one assembler places with the greedy mapper.
//! * [`mix_rig`] — the T11 rig: the video codec and an IPv4 fast path
//!   installed together on one shared fabric, with per-workload latency
//!   telemetry and a route-lookup deadline budget.
//! * [`fppa_tour_config`] — the F2 rig: a Figure 2 platform with one of
//!   every component class.
//! * [`BenchRig`] — the four benchmark rigs `BENCHMARK.json` names.
//!
//! The named rigs are collected in the [`ScenarioRegistry`], the
//! name → builder catalog the `expt` binary lists and tests enumerate.

use crate::config::{FppaConfig, HwIpConfig, MemoryBlockConfig};
use crate::fabric::FabricSpec;
use crate::faults::{FaultCampaign, FaultRates};
use crate::io::IoChannelConfig;
use crate::platform::{FppaPlatform, SchedulerMode};
use crate::report::PlatformReport;
use crate::resilience::RetryPolicy;
use nw_apps::{
    crypto_pipeline, modem_pipeline, video_ipv4_mix, video_pipeline, CryptoChannel, CryptoParams,
    MixPacketChain, MixParams, ModemChain, ModemParams, PipelineSpec, ServiceKind, VideoLane,
    VideoParams,
};
use nw_dsoc::Application;
use nw_ipv4::app::{fast_path_app, FastPathWeights};
use nw_mapping::{GreedyLoadMapper, Mapper, MappingProblem, PeSlot};
use nw_noc::TopologyKind;
use nw_pe::{Op, PeClass, PeConfig, Program, SchedPolicy};
use nw_types::{AreaMm2, BitsPerSec, Bytes, MemoryTechnology, NodeId, ObjectId, Picojoules};

/// Result of one latency-hiding measurement point (experiment F6).
#[derive(Debug, Clone, Copy)]
pub struct LatencyHidingPoint {
    /// Hardware threads per PE.
    pub threads: usize,
    /// One-way link latency in cycles (round trip is roughly double plus
    /// serialization and router delays).
    pub link_latency: u64,
    /// Core utilization over the whole run, warm-up included.
    pub utilization: f64,
    /// Tasks completed over the whole run, warm-up included.
    pub tasks: u64,
}

/// Runs the F6 latency-hiding rig: one PE with `threads` contexts executes
/// tasks of `compute_cycles` work plus one synchronous call to a hardwired
/// service across a `link_latency`-cycle link; the PE is kept saturated.
///
/// The rig runs `cycles` plus a warm-up fifth (`cycles / 5`) and reports
/// utilization and tasks over all of them: the counters are cumulative and
/// the warm-up is not subtracted.
///
/// With enough threads to cover the round trip
/// (`threads ≳ 1 + round_trip / compute`), utilization approaches 1.0 —
/// claim C6.
///
/// # Panics
///
/// Panics on internal platform construction failure (fixed valid config).
pub fn latency_hiding(
    threads: usize,
    link_latency: u64,
    compute_cycles: u64,
    policy: SchedPolicy,
    swap_penalty: u64,
    cycles: u64,
) -> LatencyHidingPoint {
    latency_hiding_under(
        SchedulerMode::default(),
        threads,
        link_latency,
        compute_cycles,
        policy,
        swap_penalty,
        cycles,
    )
}

/// [`latency_hiding`] with the rig's scheduler chosen by the caller (the
/// rig builds its platform internally, so this is how a differential run
/// puts it under [`SchedulerMode::Dense`]).
///
/// # Panics
///
/// Panics on internal platform construction failure (fixed valid config).
pub fn latency_hiding_under(
    scheduler: SchedulerMode,
    threads: usize,
    link_latency: u64,
    compute_cycles: u64,
    policy: SchedPolicy,
    swap_penalty: u64,
    cycles: u64,
) -> LatencyHidingPoint {
    let mut cfg = FppaConfig::new("latency-hiding", TopologyKind::Ring);
    cfg.link_latency = Some(link_latency);
    cfg.add_pe(
        PeConfig::new(PeClass::GpRisc, threads)
            .with_policy(policy)
            .with_swap_penalty(swap_penalty),
    );
    cfg.add_hwip(HwIpConfig {
        name: "table-service".to_owned(),
        ii: 1,
        latency: 4,
        area: AreaMm2(0.1),
        energy_per_item: Picojoules(5.0),
    });
    let mut platform = FppaPlatform::new(cfg).expect("valid fixed config");
    platform.set_scheduler_mode(scheduler);
    let service = platform.hwip_node(0);

    let task = Program::straight_line([
        Op::Compute(compute_cycles),
        Op::call(service, 8, 8),
        Op::Compute(compute_cycles.max(2) / 2),
    ]);

    // Saturate the PE by hand (no DSOC app needed) for the window plus
    // its warm-up fifth.
    for _ in 0..cycles + cycles / 5 {
        while platform.pe(0).idle_threads() > 0 {
            platform
                .pe_mut(0)
                .spawn(task.clone())
                .expect("idle thread checked");
        }
        platform.step();
    }
    // The active-set scheduler accounts dormant-PE cycles lazily; settle
    // before reading the utilization counters.
    platform.settle();
    let stats = platform.pe(0).stats();
    LatencyHidingPoint {
        threads,
        link_latency,
        utilization: stats.core_utilization,
        tasks: stats.tasks_completed,
    }
}

/// Builds the T3 rig: `replicas` fast-path worker chains on `replicas + 1`
/// PEs (one per chain plus a dedicated lookup PE), fed at `gbps` worst-case
/// line rate through one I/O channel, with egress bound back to the same
/// channel.
///
/// `threads` is the hardware thread count per PE — the knob that hides the
/// NoC round trip to the shared lookup engine. `link_latency` stresses the
/// interconnect (claim C7 holds it above 100 cycles).
///
/// # Panics
///
/// Panics if `replicas == 0` (the app builder rejects it) or on internal
/// construction failure.
pub fn ipv4_rig(
    replicas: usize,
    threads: usize,
    topology: TopologyKind,
    link_latency: u64,
    gbps: f64,
) -> ScenarioRig {
    ipv4_platform(replicas, threads, topology, link_latency, gbps, None)
}

/// The T6 variant of [`ipv4_rig`]: all `n_pes` PEs are GP-RISC (no lookup
/// ASIP, so mapping quality is the only variable) and `placement` maps each
/// object to one of them.
///
/// # Panics
///
/// Panics if the placement does not match the application or names a PE
/// outside `0..n_pes`.
pub fn ipv4_rig_with_placement(
    replicas: usize,
    n_pes: usize,
    threads: usize,
    topology: TopologyKind,
    link_latency: u64,
    gbps: f64,
    placement: &[usize],
) -> ScenarioRig {
    let explicit = Some((n_pes, placement));
    ipv4_platform(replicas, threads, topology, link_latency, gbps, explicit)
}

/// The body of both IPv4 rigs: with `explicit = Some((n_pes, placement))`
/// the chains run on `n_pes` GP-RISC PEs as placed, otherwise one worker PE
/// per chain and the lookup on its own ASIP.
fn ipv4_platform(
    replicas: usize,
    threads: usize,
    topology: TopologyKind,
    link_latency: u64,
    gbps: f64,
    explicit: Option<(usize, &[usize])>,
) -> ScenarioRig {
    let (app, layouts) =
        fast_path_app(replicas, &FastPathWeights::default()).expect("replicas >= 1");

    let mut cfg = FppaConfig::new("ipv4-fast-path", topology);
    cfg.link_latency = Some(link_latency);
    for _ in 0..explicit.map_or(replicas, |(n_pes, _)| n_pes) {
        cfg.add_pe(PeConfig::new(PeClass::GpRisc, threads));
    }
    let placement = match explicit {
        Some((_, placement)) => placement.to_vec(),
        None => {
            // The lookup engine: a packet-header ASIP run as a barrel
            // processor (zero-overhead thread rotation — the paper's
            // "hardware units that schedule threads and swap them in one
            // cycle"). Chain `r` runs on worker PE `r`.
            let lookup_pe = cfg.add_pe(
                PeConfig::new(
                    PeClass::Asip {
                        domain: nw_pe::KernelDomain::PacketHeader,
                    },
                    threads.max(4),
                )
                .with_policy(SchedPolicy::RoundRobin)
                .with_swap_penalty(0),
            );
            let mut placement = vec![lookup_pe; app.objects().len()];
            for (r, l) in layouts.iter().enumerate() {
                for object in [l.classifier, l.rewriter, l.egress] {
                    placement[object.0] = r;
                }
            }
            placement
        }
    };
    cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Sram, 16.0));
    let mut io = IoChannelConfig::ten_gbe_worst_case();
    io.rate = BitsPerSec::from_gbps(gbps);
    io.clock_hz = cfg.tech.nominal_clock_hz();
    cfg.add_io(io);

    let mut platform = FppaPlatform::new(cfg).expect("valid fixed config");
    platform
        .install_app(&app, &placement)
        .expect("placement must match the application");
    for l in &layouts {
        platform
            .bind_io_entry(0, l.classifier)
            .expect("io 0 exists");
        platform.bind_egress(l.egress, 0, 40).expect("io 0 exists");
    }
    ScenarioRig {
        platform,
        app,
        placement,
    }
}

/// The F2 rig: a Figure 2 FPPA with one of every component class — eight
/// multithreaded PEs, an SRAM and an eDRAM macro, an eFPGA fabric, a
/// hardwired MPEG-style block, and two communication I/O channels.
pub fn fppa_tour_config() -> FppaConfig {
    let mut cfg = FppaConfig::new("fppa-tour", TopologyKind::Mesh);
    for i in 0..8 {
        let class = match i % 4 {
            0 | 1 => PeClass::GpRisc,
            2 => PeClass::Dsp,
            _ => PeClass::Configurable {
                tuned_for: nw_pe::KernelDomain::PacketHeader,
            },
        };
        cfg.add_pe(PeConfig::new(class, 4));
    }
    cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Sram, 4.0));
    cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Edram, 32.0));
    cfg.add_fabric(FabricSpec::default());
    cfg.add_hwip(HwIpConfig {
        name: "mpeg4-codec".to_owned(),
        ii: 2,
        latency: 24,
        area: AreaMm2(1.2),
        energy_per_item: Picojoules(120.0),
    });
    let ten_gbe = IoChannelConfig {
        clock_hz: cfg.tech.nominal_clock_hz(),
        ..IoChannelConfig::ten_gbe_worst_case()
    };
    cfg.add_io(ten_gbe);
    cfg.add_io(IoChannelConfig {
        rate: BitsPerSec::from_gbps(2.5),
        ..ten_gbe
    });
    cfg
}

/// A named, runnable scenario: an assembled platform with its installed
/// application, placement and stage directory — the uniform shape every
/// [`ScenarioRegistry`] builder produces.
#[derive(Debug)]
pub struct ScenarioRig {
    /// The platform (run it to measure).
    pub platform: FppaPlatform,
    /// The installed DSOC application.
    pub app: Application,
    /// Placement used (object → PE index).
    pub placement: Vec<usize>,
}

impl ScenarioRig {
    /// Runs the rig for `cycles` cycles and reports.
    pub fn run(&mut self, cycles: u64) -> PlatformReport {
        self.platform.run(cycles)
    }

    /// Looks up an object id by its name.
    pub fn stage_named(&self, name: &str) -> Option<ObjectId> {
        self.app
            .objects()
            .iter()
            .position(|o| o.name == name)
            .map(ObjectId)
    }
}

/// A pipeline rig described as data: the platform a [`PipelineSpec`] runs
/// on and where its entries meet the I/O channels. [`assemble`] builds it.
struct PipelinePlatform<'a> {
    /// The application; the platform takes its name.
    spec: &'a PipelineSpec,
    pe: PeClass,
    n_pes: usize,
    threads: usize,
    link_latency: u64,
    memory: MemoryBlockConfig,
    /// Hardwired blocks, in the order `HwIp` demands are dealt to them.
    hwips: Vec<HwIpConfig>,
    /// `(Gb/s, bytes per packet)` of each I/O channel.
    channels: Vec<(f64, u64)>,
    /// `(channel, egress stage, egress bytes)` per entry, in
    /// `spec.entries` order.
    entries: Vec<(usize, usize, u64)>,
    /// `(stage, cycles)`: a latency budget on one stage's round trips.
    deadline: Option<(usize, u64)>,
}

/// Turns a [`PipelinePlatform`] into a rig on a mesh: lowers the spec,
/// places it with the MultiFlex greedy mapper at per-entry rates (a
/// channel's packet rate split evenly over the entries it feeds), installs
/// it, binds each entry's ingress and egress, the service demands and the
/// deadline. Returns the rig and the stage → object map.
fn assemble(p: PipelinePlatform) -> (ScenarioRig, Vec<ObjectId>) {
    assert_eq!(p.entries.len(), p.spec.entries.len());
    let (app, layout) = p
        .spec
        .to_application()
        .expect("rig pipelines lower to valid applications");

    let mut cfg = FppaConfig::new(&p.spec.name, TopologyKind::Mesh);
    cfg.link_latency = Some(p.link_latency);
    for _ in 0..p.n_pes {
        cfg.add_pe(PeConfig::new(p.pe, p.threads));
    }
    cfg.add_memory(p.memory);
    let n_hwips = p.hwips.len();
    for h in p.hwips {
        cfg.add_hwip(h);
    }
    let mut packets_per_cycle = Vec::with_capacity(p.channels.len());
    for &(gbps, packet_bytes) in &p.channels {
        let mut io = IoChannelConfig::ten_gbe_worst_case();
        io.rate = BitsPerSec::from_gbps(gbps);
        io.packet_bytes = Bytes(packet_bytes);
        io.clock_hz = cfg.tech.nominal_clock_hz();
        cfg.add_io(io);
        packets_per_cycle.push(io.packets_per_cycle());
    }
    let sharing = |channel| p.entries.iter().filter(|e| e.0 == channel).count() as f64;
    let entry_rates = (p.entries.iter())
        .map(|&(channel, ..)| packets_per_cycle[channel] / sharing(channel))
        .collect();

    let mut platform = FppaPlatform::new(cfg).expect("valid fixed config");
    let problem = MappingProblem::new(
        app.clone(),
        entry_rates,
        (0..p.n_pes).map(|i| PeSlot::new(NodeId(i), 1.0)).collect(),
        platform.hop_matrix(),
    )
    .expect("rig-constructed problems are valid");
    let placement = GreedyLoadMapper.map(&problem).placement;
    platform
        .install_app(&app, &placement)
        .expect("placement built to match");
    for (&entry, &(channel, egress, bytes)) in p.spec.entries.iter().zip(&p.entries) {
        platform
            .bind_io_entry(channel, layout.objects[entry])
            .expect("entry channel exists");
        platform
            .bind_egress(layout.objects[egress], channel, bytes)
            .expect("egress channel exists");
    }
    // Memory demands go to memory 0, fabric demands to fabric 0, and hwip
    // demands are dealt round-robin over the blocks in stage order.
    let mut next_hwip = 0;
    for &(stage, demand) in &layout.services {
        let node = match demand.kind {
            ServiceKind::Memory => platform.memory_node(0),
            ServiceKind::Fabric => platform.fabric_node(0),
            ServiceKind::HwIp => {
                let node = platform.hwip_node(next_hwip % n_hwips);
                next_hwip += 1;
                node
            }
        };
        platform
            .bind_service(
                layout.objects[stage],
                node,
                demand.request_bytes,
                demand.reply_bytes,
                demand.calls_per_item,
            )
            .expect("layout objects are installed and nodes are services");
    }
    if let Some((stage, cycles)) = p.deadline {
        platform
            .set_latency_deadline(layout.objects[stage], cycles)
            .expect("deadline stage is installed");
    }
    let rig = ScenarioRig {
        platform,
        app,
        placement,
    };
    (rig, layout.objects)
}

/// Builds the T8 rig: the frame-sliced video codec pipeline on `n_pes`
/// multithreaded PEs, its reference-frame store on a shared eDRAM macro,
/// fed slices at `gbps` through one I/O channel with the packed bitstream
/// bound back to the same channel. Placement is computed by the greedy
/// MultiFlex mapper from the line rate.
///
/// # Panics
///
/// Panics on internal construction failure (fixed valid configs) or
/// `params.lanes == 0`.
pub fn video_rig(
    params: &VideoParams,
    n_pes: usize,
    threads: usize,
    link_latency: u64,
    gbps: f64,
) -> ScenarioRig {
    let workload = video_pipeline(params);
    let entry = |lane: &VideoLane| (0, lane.pack, params.slice_bytes / 2);
    assemble(PipelinePlatform {
        spec: &workload.spec,
        pe: PeClass::Dsp,
        n_pes,
        threads,
        link_latency,
        // The shared reference-frame store the motion estimators hammer.
        memory: MemoryBlockConfig::new(MemoryTechnology::Edram, 64.0),
        hwips: Vec::new(),
        channels: vec![(gbps, params.slice_bytes)],
        entries: workload.lanes.iter().map(entry).collect(),
        deadline: None,
    })
    .0
}

/// Builds the T9 rig: the modem baseband chain on `n_pes` multithreaded
/// PEs, symbol bursts arriving at `mbps` through one I/O channel and
/// decoded MAC payloads bound back to it. Twoway channel-estimate and
/// link-adaptation round trips ride the NoC at `link_latency` cycles per
/// hop — the latency the threads must hide.
///
/// Every demodulator query to the shared channel estimator carries the
/// air-interface budget [`modem_est_deadline`]; round trips beyond it count
/// as deadline misses in `PlatformReport::latency` (T9/T11's observable).
///
/// # Panics
///
/// Panics on internal construction failure or `params.carriers == 0`.
pub fn modem_rig(
    params: &ModemParams,
    n_pes: usize,
    threads: usize,
    link_latency: u64,
    mbps: f64,
) -> ScenarioRig {
    let workload = modem_pipeline(params);
    let entry = |chain: &ModemChain| (0, chain.mac_out, params.burst_bytes / 2);
    assemble(PipelinePlatform {
        spec: &workload.spec,
        pe: PeClass::Dsp,
        n_pes,
        threads,
        link_latency,
        memory: MemoryBlockConfig::new(MemoryTechnology::Sram, 8.0),
        hwips: Vec::new(),
        channels: vec![(mbps / 1000.0, params.burst_bytes)],
        entries: workload.chains.iter().map(entry).collect(),
        deadline: Some((workload.channel_est, modem_est_deadline(link_latency))),
    })
    .0
}

/// The channel-estimate deadline budget of [`modem_rig`] for a given
/// per-hop link latency. The unloaded round trip on this rig measures
/// ≈ 80 + 2·link cycles (two NoC traversals plus the estimator's 90-cycle
/// handler at DSP speedup), so the budget allows roughly 1.5× that: met
/// comfortably at nominal load, blown when dispatcher queueing stretches
/// the reply path.
pub fn modem_est_deadline(link_latency: u64) -> u64 {
    130 + 2 * link_latency
}

/// Builds the T10 rig: the crypto offload pipeline on `n_pes` PEs with a
/// hardwired AES engine and hash engine behind the NoC. Bulk payloads
/// arrive at `gbps`; every cipher/auth stage streams its blocks through
/// the shared engines (one synchronous call per block) before the
/// authenticated payload leaves through the same channel.
///
/// # Panics
///
/// Panics on internal construction failure or `params.channels == 0`.
pub fn crypto_rig(
    params: &CryptoParams,
    n_pes: usize,
    threads: usize,
    link_latency: u64,
    gbps: f64,
) -> ScenarioRig {
    let workload = crypto_pipeline(params);
    let entry = |ch: &CryptoChannel| (0, ch.egress, params.payload_bytes);
    assemble(PipelinePlatform {
        spec: &workload.spec,
        pe: PeClass::GpRisc,
        n_pes,
        threads,
        link_latency,
        memory: MemoryBlockConfig::new(MemoryTechnology::Sram, 4.0),
        // Dealt in stage order, cipher demands land on the AES engine and
        // auth demands on the hash engine.
        hwips: vec![
            HwIpConfig {
                name: "aes-engine".to_owned(),
                ii: 2,
                latency: 16,
                area: AreaMm2(0.6),
                energy_per_item: Picojoules(55.0),
            },
            HwIpConfig {
                name: "hash-engine".to_owned(),
                ii: 2,
                latency: 12,
                area: AreaMm2(0.4),
                energy_per_item: Picojoules(35.0),
            },
        ],
        channels: vec![(gbps, params.payload_bytes)],
        entries: workload.channels.iter().map(entry).collect(),
        deadline: None,
    })
    .0
}

/// Builds the T11 rig: the video + IPv4 *mix* — both workloads installed
/// as one application on a shared pool of `n_pes` multithreaded PEs, placed
/// together by the greedy MultiFlex mapper so they compete for the same
/// fabric. Video slices arrive at `video_gbps` on I/O channel 0 (packed
/// bitstream bound back to it); minimum-size IPv4 packets arrive at
/// `ipv4_gbps` on channel 1 (rewritten packets bound back to it). The
/// motion estimators share the frame-store macro; the packet chains share
/// the twoway route-lookup object, which carries a deadline budget
/// ([`mix_lookup_deadline`]) so interference from the video half shows up
/// as measured deadline misses, not just throughput loss.
///
/// # Panics
///
/// Panics on internal construction failure (fixed valid configs),
/// `params.video.lanes == 0` or `params.ipv4_workers == 0`.
pub fn mix_rig(
    params: &MixParams,
    n_pes: usize,
    threads: usize,
    link_latency: u64,
    video_gbps: f64,
    ipv4_gbps: f64,
) -> ScenarioRig {
    mix_rig_detailed(params, n_pes, threads, link_latency, video_gbps, ipv4_gbps).rig
}

/// A mix rig together with its workload directory: the stage graph the
/// platform was built from and the stage → object mapping, so callers
/// (experiment T11) can aggregate per-workload latency without rebuilding
/// the workload or assuming stage indices equal object ids.
#[derive(Debug)]
pub struct MixRig {
    /// The assembled rig (registry-compatible).
    pub rig: ScenarioRig,
    /// The combined workload with its per-workload stage directories.
    pub workload: nw_apps::MixWorkload,
    /// `objects[stage index]` → installed [`ObjectId`] (the lowering's
    /// [`nw_apps::PipelineLayout::objects`]).
    pub objects: Vec<ObjectId>,
}

/// [`mix_rig`] returning the full [`MixRig`] directory.
///
/// # Panics
///
/// See [`mix_rig`].
pub fn mix_rig_detailed(
    params: &MixParams,
    n_pes: usize,
    threads: usize,
    link_latency: u64,
    video_gbps: f64,
    ipv4_gbps: f64,
) -> MixRig {
    let workload = video_ipv4_mix(params);
    // Entries in `spec.entries` order: the absorbed video lanes first, then
    // one classifier per packet chain.
    let lane = |lane: &VideoLane| (0, lane.pack, params.video.slice_bytes / 2);
    let chain = |chain: &MixPacketChain| (1, chain.emit, params.packet_bytes);
    let video = workload.video_lanes.iter().map(lane);
    let ipv4 = workload.ipv4_chains.iter().map(chain);
    let (rig, objects) = assemble(PipelinePlatform {
        spec: &workload.spec,
        pe: PeClass::GpRisc,
        n_pes,
        threads,
        link_latency,
        // The video half's shared reference-frame store.
        memory: MemoryBlockConfig::new(MemoryTechnology::Edram, 64.0),
        hwips: Vec::new(),
        // Channel 0: video slices. Channel 1: worst-case minimum-size packets.
        channels: vec![
            (video_gbps, params.video.slice_bytes),
            (ipv4_gbps, params.packet_bytes),
        ],
        entries: video.chain(ipv4).collect(),
        deadline: Some((workload.route_lookup, mix_lookup_deadline(link_latency))),
    });
    MixRig {
        rig,
        workload,
        objects,
    }
}

/// The standard PE-pool size for a mix rig: two PEs per video lane (the
/// five-stage lane plus its share of rate control), one per packet chain,
/// and one spare — the sizing every mix consumer (the scenario registry,
/// experiment T11, the bench row) shares so they simulate the same
/// platform shape.
pub fn mix_pe_pool(params: &MixParams) -> usize {
    2 * params.video.lanes + params.ipv4_workers + 1
}

/// The demo-sized [`MixParams`] shared by the scenario registry, the T11
/// experiment and the bench row: 4 video lanes × 4 packet chains at full
/// size, halved under `fast`.
pub fn mix_demo_params(fast: bool) -> MixParams {
    MixParams {
        video: VideoParams {
            lanes: if fast { 2 } else { 4 },
            ..VideoParams::default()
        },
        ipv4_workers: if fast { 2 } else { 4 },
        ..MixParams::default()
    }
}

/// The route-lookup deadline budget of [`mix_rig`]: the classifier's
/// per-packet lookup round trip must fit roughly 3× the unloaded round
/// trip (≈ 107 cycles at 4-cycle links, scaling with the per-hop link
/// latency) — the packet workload's line-rate processing window,
/// independent of offered load. Queueing inflicted by a saturated video
/// half pushes the lookup tail past this budget.
pub fn mix_lookup_deadline(link_latency: u64) -> u64 {
    240 + 16 * link_latency
}

/// The four rigs `BENCHMARK.json` names, one value each, so that every
/// harness that pins or times them (`expt identity`, nwbench) builds the
/// same platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchRig {
    /// `ipv4-sat`: 16 IPv4 worker chains at 9.5 Gb/s, every cycle stepped.
    Ipv4Sat,
    /// `video-knee`: the video codec at 8 Gb/s, memory service nodes busy.
    VideoKnee,
    /// `modem-idle`: the modem chain at 40 Mb/s; hops carry the run.
    ModemIdle,
    /// `mix-fork-faults`: video + IPv4 on one fabric under a fault campaign.
    MixForkFaults,
}

impl BenchRig {
    /// Every rig, in `BENCHMARK.json` order.
    pub const ALL: [BenchRig; 4] = [
        BenchRig::Ipv4Sat,
        BenchRig::VideoKnee,
        BenchRig::ModemIdle,
        BenchRig::MixForkFaults,
    ];

    /// Seed of the campaign a faulted rig arms.
    pub const CAMPAIGN_SEED: u64 = 11;

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            BenchRig::Ipv4Sat => "ipv4-sat",
            BenchRig::VideoKnee => "video-knee",
            BenchRig::ModemIdle => "modem-idle",
            BenchRig::MixForkFaults => "mix-fork-faults",
        }
    }

    /// Whether [`BenchRig::build`] arms a fault campaign and the default
    /// retry policy.
    pub fn faulted(self) -> bool {
        self == BenchRig::MixForkFaults
    }

    /// Builds the platform at cycle 0. A faulted rig also gets the level-1.0
    /// campaign [`BenchRig::CAMPAIGN_SEED`] draws over `campaign_horizon`
    /// cycles and the default [`RetryPolicy`]; the others ignore the horizon.
    pub fn build(self, campaign_horizon: u64) -> FppaPlatform {
        let mut platform = match self {
            BenchRig::Ipv4Sat => ipv4_rig(16, 8, TopologyKind::Mesh, 4, 9.5).platform,
            BenchRig::VideoKnee => video_rig(&VideoParams::default(), 9, 4, 4, 8.0).platform,
            BenchRig::ModemIdle => modem_rig(&ModemParams::default(), 6, 4, 50, 40.0).platform,
            BenchRig::MixForkFaults => {
                let params = mix_demo_params(false);
                mix_rig(&params, mix_pe_pool(&params), 4, 4, 6.0, 3.0).platform
            }
        };
        if self.faulted() {
            let shape = platform.fault_shape();
            platform.install_fault_campaign(FaultCampaign::generate(
                Self::CAMPAIGN_SEED,
                campaign_horizon,
                &FaultRates::scaled(1.0),
                &shape,
            ));
            platform.set_retry_policy(RetryPolicy::default());
        }
        platform
    }
}

/// One registry entry: a named rig with a one-line summary and a builder.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Registry key (`expt list` prints it).
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Builds the rig; `fast` shrinks the instance for CI-speed runs.
    pub build: fn(fast: bool) -> ScenarioRig,
}

/// The standard catalog, in `expt list` order: the four application rigs
/// (IPv4 fast path, video codec, modem baseband, crypto offload) plus the
/// `mix` interference rig (video + IPv4 on one fabric).
const STANDARD: &[ScenarioSpec] = &[
    ScenarioSpec {
        name: "ipv4",
        summary: "IPv4 fast path at line rate on worker chains + shared lookup ASIP (§7.2)",
        build: |fast| {
            let replicas = if fast { 4 } else { 8 };
            ipv4_rig(replicas, 8, TopologyKind::Mesh, 4, replicas as f64 * 0.6)
        },
    },
    ScenarioSpec {
        name: "video",
        summary: "frame-sliced video codec: memory-bound motion search + entropy coding (§7.1)",
        build: |fast| {
            let params = VideoParams {
                lanes: if fast { 2 } else { 4 },
                ..VideoParams::default()
            };
            let gbps = if fast { 3.0 } else { 6.0 };
            video_rig(&params, 2 * params.lanes + 1, 4, 4, gbps)
        },
    },
    ScenarioSpec {
        name: "modem",
        summary: "modem baseband chain: twoway-heavy channel-estimate/link-adapt round trips",
        build: |fast| {
            let params = ModemParams::default();
            let mbps = if fast { 400.0 } else { 800.0 };
            modem_rig(&params, 6, 4, 4, mbps)
        },
    },
    ScenarioSpec {
        name: "crypto",
        summary: "crypto offload: bulk payloads streamed through shared AES/hash engines",
        build: |fast| {
            let params = CryptoParams::default();
            let gbps = if fast { 2.0 } else { 4.0 };
            crypto_rig(&params, 4, 8, 4, gbps)
        },
    },
    ScenarioSpec {
        name: "mix",
        summary: "interference mix: video codec + IPv4 fast path sharing one fabric (T11)",
        build: |fast| {
            let params = mix_demo_params(fast);
            let (video_gbps, ipv4_gbps) = if fast { (2.0, 1.0) } else { (4.0, 2.0) };
            mix_rig(&params, mix_pe_pool(&params), 4, 4, video_gbps, ipv4_gbps)
        },
    },
];

/// The name → rig-builder catalog of the paper's scenarios: a view of one
/// `const` table.
///
/// # Examples
///
/// ```
/// use nanowall::scenarios::ScenarioRegistry;
///
/// let reg = ScenarioRegistry::standard();
/// assert!(reg.names().contains(&"video"));
/// let mut rig = reg.build("crypto", true).expect("registered");
/// let report = rig.run(5_000);
/// assert!(report.tasks_completed > 0);
/// ```
#[derive(Debug)]
pub struct ScenarioRegistry {
    specs: &'static [ScenarioSpec],
}

impl ScenarioRegistry {
    /// The standard catalog: `ipv4`, `video`, `modem`, `crypto`, `mix`.
    pub fn standard() -> Self {
        ScenarioRegistry { specs: STANDARD }
    }

    /// All specs in catalog order.
    pub fn specs(&self) -> &[ScenarioSpec] {
        self.specs
    }

    /// The names in catalog order.
    pub fn names(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.name).collect()
    }

    /// Looks up a spec by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// Builds the named rig, or `None` for an unknown name.
    pub fn build(&self, name: &str, fast: bool) -> Option<ScenarioRig> {
        self.get(name).map(|s| (s.build)(fast))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_hiding_threads_recover_utilization() {
        let one = latency_hiding(1, 50, 40, SchedPolicy::SwitchOnStall, 1, 20_000);
        let eight = latency_hiding(8, 50, 40, SchedPolicy::SwitchOnStall, 1, 20_000);
        assert!(
            one.utilization < 0.6,
            "single thread should stall hard: {}",
            one.utilization
        );
        assert!(
            eight.utilization > 0.85,
            "8 threads should hide a 50-cycle link: {}",
            eight.utilization
        );
        assert!(eight.tasks > one.tasks * 2);
    }

    #[test]
    fn ipv4_rig_shapes() {
        let rig = ipv4_rig(2, 4, TopologyKind::Mesh, 2, 10.0);
        assert_eq!(rig.placement.len(), rig.app.objects().len());
        let pe_of = |name: &str| rig.placement[rig.stage_named(name).expect("object exists").0];
        // A chain keeps to its worker PE, chains differ, the lookup has the ASIP.
        assert_eq!(pe_of("classifier-1"), pe_of("egress-1"));
        assert_ne!(pe_of("classifier-0"), pe_of("classifier-1"));
        assert_eq!(pe_of("route-lookup"), 2);
    }

    #[test]
    fn ipv4_rig_forwards_packets_at_sustainable_rate() {
        // 4 workers sustain ~2.5 Gb/s (the 10 Gb/s point of claim C7 needs
        // ~3x more workers and is exercised by the T3 experiment sweep).
        let mut rig = ipv4_rig(4, 8, TopologyKind::Mesh, 2, 2.5);
        let report = rig.run(40_000);
        assert!(report.io[0].generated > 500, "line should generate packets");
        assert!(
            report.io[0].transmitted as f64 > report.io[0].generated as f64 * 0.8,
            "a sustainable rate should forward most packets: {:?}",
            report.io[0]
        );
        assert!(report.tasks_completed > 0);
    }

    #[test]
    fn ipv4_rig_oversubscribed_saturates_workers() {
        // At 10 Gb/s with only 4 workers, the workers pin near 100%
        // utilization and the dispatcher backlog grows — the failure mode
        // multithreading alone cannot fix (you need more PEs).
        let mut rig = ipv4_rig(4, 8, TopologyKind::Mesh, 2, 10.0);
        let report = rig.run(20_000);
        let worker_util: f64 = report.pe_utilization[..4].iter().sum::<f64>() / 4.0;
        assert!(worker_util > 0.9, "workers should saturate: {worker_util}");
        assert!(report.queued_invocations > 100, "backlog should grow");
    }

    #[test]
    fn video_rig_delivers_slices_and_hits_the_frame_store() {
        let params = VideoParams {
            lanes: 2,
            ..VideoParams::default()
        };
        let mut rig = video_rig(&params, 5, 4, 2, 3.0);
        let report = rig.run(40_000);
        assert!(report.io[0].generated > 20, "{:?}", report.io[0]);
        assert!(
            report.io[0].transmitted as f64 > report.io[0].generated as f64 * 0.7,
            "sustainable rate should deliver most slices: {:?}",
            report.io[0]
        );
        // Memory-bound: the reference fetches land on the frame store.
        assert!(
            report.mem_accesses >= report.io[0].transmitted * params.ref_fetches as u64,
            "mem {} vs slices {}",
            report.mem_accesses,
            report.io[0].transmitted
        );
        assert!(report.energy.0 > 0.0);
        // Per-stage accounting reaches the pipeline tail.
        let pack = rig.stage_named("pack-0").unwrap();
        assert!(report.object_invocations[pack.0] > 0);
    }

    #[test]
    fn modem_rig_is_twoway_heavy_and_holds_the_air_rate() {
        let mut rig = modem_rig(&ModemParams::default(), 6, 4, 2, 400.0);
        let report = rig.run(40_000);
        assert!(report.io[0].generated > 10, "{:?}", report.io[0]);
        assert!(
            report.io[0].transmitted as f64 > report.io[0].generated as f64 * 0.7,
            "{:?}",
            report.io[0]
        );
        // The shared estimator answers every carrier's queries: its rate is
        // chan_queries × the per-chain burst rate.
        let est = rig.stage_named("channel-est").unwrap();
        let fe = rig.stage_named("rf-frontend-0").unwrap();
        assert!(
            report.object_invocations[est.0] >= report.object_invocations[fe.0],
            "estimator {} vs frontend {}",
            report.object_invocations[est.0],
            report.object_invocations[fe.0]
        );
    }

    #[test]
    fn crypto_rig_streams_blocks_through_the_engines() {
        let params = CryptoParams::default();
        let mut rig = crypto_rig(&params, 4, 8, 2, 2.0);
        let report = rig.run(40_000);
        assert!(report.io[0].generated > 10, "{:?}", report.io[0]);
        assert!(
            report.io[0].transmitted as f64 > report.io[0].generated as f64 * 0.7,
            "{:?}",
            report.io[0]
        );
        // Hwip-bound: each payload makes 2 × blocks_per_payload engine
        // calls (cipher pass + auth pass).
        assert!(
            report.hwip_served >= report.io[0].transmitted * params.blocks_per_payload() as u64,
            "hwip {} vs payloads {}",
            report.hwip_served,
            report.io[0].transmitted
        );
        assert!(report.energy_per_transmitted(0).unwrap().0 > 0.0);
    }

    #[test]
    fn registry_builds_every_standard_rig() {
        let reg = ScenarioRegistry::standard();
        assert_eq!(reg.names(), vec!["ipv4", "video", "modem", "crypto", "mix"]);
        for spec in reg.specs() {
            let mut rig = (spec.build)(true);
            assert_eq!(
                rig.placement.len(),
                rig.app.objects().len(),
                "{}",
                spec.name
            );
            let report = rig.run(8_000);
            assert!(report.tasks_completed > 0, "{} must do work", spec.name);
            assert!(report.energy.0 > 0.0, "{} must burn energy", spec.name);
        }
        assert!(reg.build("nope", true).is_none());
    }

    #[test]
    fn latency_telemetry_records_service_and_twoway_round_trips() {
        // Service offloads: the crypto cipher stages call the AES engine;
        // their histograms must fill and stay ordered.
        let mut rig = crypto_rig(&CryptoParams::default(), 4, 8, 2, 2.0);
        let report = rig.run(40_000);
        let cipher = rig.stage_named("cipher-0").unwrap();
        let lat = report.object_latency(cipher.0).expect("app installed");
        assert!(lat.count > 0, "cipher offloads must record: {lat:?}");
        assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99, "{lat:?}");
        assert!(lat.p99 <= lat.max, "{lat:?}");
        assert!(lat.mean > 0.0, "{lat:?}");
        assert!(lat.deadline.is_none(), "crypto sets no budget");

        // Twoway invocations: the modem's channel estimator answers the
        // demodulators; its round trips carry the rig's deadline budget.
        let mut rig = modem_rig(&ModemParams::default(), 6, 4, 2, 400.0);
        let est = rig.stage_named("channel-est").unwrap();
        let report = rig.run(40_000);
        let lat = report.object_latency(est.0).expect("app installed");
        assert!(lat.count > 0, "estimate queries must record: {lat:?}");
        assert_eq!(lat.deadline, Some(modem_est_deadline(2)), "{lat:?}");
        assert!(lat.miss_rate() < 0.05, "nominal load meets the budget");
        // The full histogram is reachable for cross-object aggregation.
        let hist = rig.platform.object_latency(est).expect("tracked");
        assert_eq!(hist.count(), lat.count);
    }

    #[test]
    fn set_latency_deadline_validates_its_object() {
        let mut rig = crypto_rig(&CryptoParams::default(), 4, 8, 2, 2.0);
        let n = rig.app.objects().len();
        let err = rig
            .platform
            .set_latency_deadline(ObjectId(n + 5), 100)
            .unwrap_err();
        assert_eq!(
            err,
            crate::runtime::InstallError::UnknownObject(ObjectId(n + 5))
        );
        assert!(rig.platform.set_latency_deadline(ObjectId(0), 100).is_ok());
    }

    #[test]
    fn mix_rig_places_both_workloads_and_tracks_their_latency() {
        let params = mix_demo_params(true);
        let mut rig = mix_rig(&params, mix_pe_pool(&params), 4, 4, 2.0, 1.0);
        let report = rig.run(40_000);
        // Both lines deliver through their own channels.
        assert!(
            report.io[0].transmitted > 0,
            "video egress: {:?}",
            report.io
        );
        assert!(report.io[1].transmitted > 0, "ipv4 egress: {:?}", report.io);
        // Per-workload latency: the shared route lookup and a video
        // motion estimator both record round trips.
        let lookup = rig.stage_named("route-lookup").unwrap();
        let me = rig.stage_named("motion-est-0").unwrap();
        assert!(report.object_latency(lookup.0).unwrap().count > 0);
        assert!(report.object_latency(me.0).unwrap().count > 0);
        assert_eq!(
            report.object_latency(lookup.0).unwrap().deadline,
            Some(mix_lookup_deadline(4))
        );
    }

    #[test]
    fn mix_entries_split_only_their_own_channels_rate() {
        // One video lane beside four packet chains: the lane takes all of
        // channel 0's rate and each chain a quarter of channel 1's.
        let mut params = MixParams::default();
        params.video.lanes = 1;
        let rig = mix_rig(&params, mix_pe_pool(&params), 4, 4, 4.0, 2.0);
        let io = &rig.platform.config().io;
        let mut rates = vec![io[0].packets_per_cycle()];
        rates.extend([io[1].packets_per_cycle() / 4.0; 4]);
        let slots = (0..mix_pe_pool(&params)).map(|i| PeSlot::new(NodeId(i), 1.0));
        let hops = rig.platform.hop_matrix();
        let problem = MappingProblem::new(rig.app.clone(), rates, slots.collect(), hops);
        let greedy = GreedyLoadMapper.map(&problem.expect("valid problem"));
        assert_eq!(rig.placement, greedy.placement);
    }

    #[test]
    fn bind_service_rejects_non_service_nodes() {
        let mut rig = crypto_rig(&CryptoParams::default(), 4, 8, 2, 2.0);
        let pe_node = rig.platform.pe_node(0);
        let err = rig
            .platform
            .bind_service(ObjectId(0), pe_node, 8, 8, 1)
            .unwrap_err();
        assert_eq!(err, crate::runtime::InstallError::NotAServiceNode(pe_node));
    }

    #[test]
    fn every_channel_paces_at_its_platform_clock() {
        let tour = FppaPlatform::new(fppa_tour_config()).expect("tour config is valid");
        let registry = STANDARD.iter().map(|s| (s.name, (s.build)(true).platform));
        let bench = BenchRig::ALL.map(|rig| (rig.name(), rig.build(1_000)));
        for (name, p) in registry.chain(bench).chain([("fppa-tour", tour)]) {
            for (i, io) in p.sim.ios.iter().enumerate() {
                assert_eq!(io.config().clock_hz, p.clock_hz(), "{name} io{i}");
            }
        }
    }

    #[test]
    fn fppa_tour_has_every_component_class() {
        let cfg = fppa_tour_config();
        assert_eq!(cfg.pes.len(), 8);
        assert_eq!(cfg.memories.len(), 2);
        assert_eq!(cfg.fabrics.len(), 1);
        assert_eq!(cfg.hwip.len(), 1);
        assert_eq!(cfg.io.len(), 2);
        assert!(FppaPlatform::new(cfg).is_ok());
    }
}
