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
//!   codec, modem baseband chain, crypto offload), auto-placed by the
//!   MultiFlex greedy mapper.
//! * [`mix_rig`] — the T11 rig: the video codec and an IPv4 fast path
//!   installed together on one shared fabric, with per-workload latency
//!   telemetry and a route-lookup deadline budget.
//! * [`fppa_tour_config`] — the F2 rig: a Figure 2 platform with one of
//!   every component class.
//!
//! The named rigs are collected in the [`ScenarioRegistry`], the
//! name → builder catalog the `expt` binary lists and tests enumerate.

use crate::config::{FppaConfig, HwIpConfig, MemoryBlockConfig};
use crate::platform::{FppaPlatform, SchedulerMode};
use crate::report::PlatformReport;
use nw_apps::{
    crypto_pipeline, modem_pipeline, video_ipv4_mix, video_pipeline, CryptoParams, MixParams,
    ModemParams, PipelineLayout, ServiceKind, VideoParams,
};
use nw_dsoc::Application;
use nw_fabric::FabricSpec;
use nw_hwip::IoChannelConfig;
use nw_ipv4::app::{fast_path_app, FastPathLayout, FastPathWeights};
use nw_mapping::{GreedyLoadMapper, Mapper, MappingProblem, PeSlot};
use nw_mem::MemoryTechnology;
use nw_noc::TopologyKind;
use nw_pe::{Op, PeClass, PeConfig, Program, SchedPolicy};
use nw_types::{AreaMm2, NodeId, ObjectId, Picojoules};

/// Result of one latency-hiding measurement point (experiment F6).
#[derive(Debug, Clone, Copy)]
pub struct LatencyHidingPoint {
    /// Hardware threads per PE.
    pub threads: usize,
    /// One-way link latency in cycles (round trip is roughly double plus
    /// serialization and router delays).
    pub link_latency: u64,
    /// Measured core utilization.
    pub utilization: f64,
    /// Tasks completed in the measurement window.
    pub tasks: u64,
}

/// Runs the F6 latency-hiding rig: one PE with `threads` contexts executes
/// tasks of `compute_cycles` work plus one synchronous call to a hardwired
/// service across a `link_latency`-cycle link; the PE is kept saturated.
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

    // Warm up and measure with manual saturation (no DSOC app needed).
    let warmup = cycles / 5;
    for c in 0..cycles + warmup {
        while platform.pe(0).idle_threads() > 0 {
            platform
                .pe_mut(0)
                .spawn(task.clone())
                .expect("idle thread checked");
        }
        platform.step();
        if c == warmup {
            // Statistics are cumulative; capture deltas via a fresh window
            // would need resetting, so the short warmup is simply accepted
            // as measurement noise on long runs.
        }
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

/// The assembled IPv4 rig.
#[derive(Debug)]
pub struct Ipv4Rig {
    /// The platform (run it to measure).
    pub platform: FppaPlatform,
    /// The DSOC application.
    pub app: Application,
    /// Object layout per replica.
    pub layouts: Vec<FastPathLayout>,
    /// Placement used (object → PE).
    pub placement: Vec<usize>,
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
) -> Ipv4Rig {
    let weights = FastPathWeights::default();
    let (app, layouts) = fast_path_app(replicas, &weights).expect("replicas >= 1");

    let mut cfg = FppaConfig::new("ipv4-fast-path", topology);
    cfg.link_latency = Some(link_latency);
    // One worker PE per replica chain + one packet-header ASIP for lookups.
    for _ in 0..replicas {
        cfg.add_pe(PeConfig::new(PeClass::GpRisc, threads));
    }
    // The lookup engine: a packet-header ASIP run as a barrel processor
    // (zero-overhead thread rotation — the paper's "hardware units that
    // schedule threads and swap them in one cycle").
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
    cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Sram, 16.0));
    let mut io = IoChannelConfig::ten_gbe_worst_case();
    io.rate = nw_types::BitsPerSec::from_gbps(gbps);
    io.clock_hz = cfg.tech.nominal_clock_hz();
    cfg.add_io(io);

    let mut platform = FppaPlatform::new(cfg).expect("valid fixed config");
    let mut placement = vec![0usize; app.objects().len()];
    for (r, l) in layouts.iter().enumerate() {
        placement[l.classifier.0] = r;
        placement[l.rewriter.0] = r;
        placement[l.egress.0] = r;
        placement[l.lookup.0] = lookup_pe;
    }
    platform
        .install_app(&app, &placement)
        .expect("placement built to match");
    for l in &layouts {
        platform
            .bind_io_entry(0, l.classifier)
            .expect("io 0 exists");
        platform.bind_egress(l.egress, 0, 40).expect("io 0 exists");
    }
    Ipv4Rig {
        platform,
        app,
        layouts,
        placement,
    }
}

/// The T6 variant of [`ipv4_rig`]: an explicit `placement` (object → PE
/// index over `n_pes` identical PEs plus a trailing lookup-class ASIP is
/// **not** assumed — all `n_pes` PEs are GP-RISC so mapping quality is the
/// only variable).
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
) -> Ipv4Rig {
    let weights = FastPathWeights::default();
    let (app, layouts) = fast_path_app(replicas, &weights).expect("replicas >= 1");

    let mut cfg = FppaConfig::new("ipv4-fast-path", topology);
    cfg.link_latency = Some(link_latency);
    for _ in 0..n_pes {
        cfg.add_pe(PeConfig::new(PeClass::GpRisc, threads));
    }
    cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Sram, 16.0));
    let mut io = IoChannelConfig::ten_gbe_worst_case();
    io.rate = nw_types::BitsPerSec::from_gbps(gbps);
    io.clock_hz = cfg.tech.nominal_clock_hz();
    cfg.add_io(io);

    let mut platform = FppaPlatform::new(cfg).expect("valid fixed config");
    platform
        .install_app(&app, placement)
        .expect("placement must match the application");
    for l in &layouts {
        platform
            .bind_io_entry(0, l.classifier)
            .expect("io 0 exists");
        platform.bind_egress(l.egress, 0, 40).expect("io 0 exists");
    }
    Ipv4Rig {
        platform,
        app,
        layouts,
        placement: placement.to_vec(),
    }
}

/// Measures an IPv4 rig for `cycles` cycles and reports.
pub fn run_ipv4(rig: &mut Ipv4Rig, cycles: u64) -> PlatformReport {
    rig.platform.run(cycles)
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
    cfg.add_io(IoChannelConfig::ten_gbe_worst_case());
    cfg.add_io(IoChannelConfig {
        rate: nw_types::BitsPerSec::from_gbps(2.5),
        ..IoChannelConfig::ten_gbe_worst_case()
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

    /// `(object name, id)` pairs in object order — the stage directory for
    /// per-stage reporting.
    pub fn stages(&self) -> Vec<(String, ObjectId)> {
        self.app
            .objects()
            .iter()
            .enumerate()
            .map(|(i, o)| (o.name.clone(), ObjectId(i)))
            .collect()
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

/// Places `app` on the first `n_pes` endpoints of `platform` with the
/// MultiFlex greedy load mapper (entry rates in items per cycle).
fn auto_place(
    platform: &FppaPlatform,
    app: &Application,
    n_pes: usize,
    entry_rates: &[f64],
) -> Vec<usize> {
    let problem = MappingProblem::new(
        app.clone(),
        entry_rates.to_vec(),
        (0..n_pes).map(|i| PeSlot::new(NodeId(i), 1.0)).collect(),
        platform.hop_matrix(),
    )
    .expect("rig-constructed problems are valid");
    GreedyLoadMapper.map(&problem).placement
}

/// Binds every [`ServiceKind::Memory`] demand of `layout` to memory 0 and
/// partitions [`ServiceKind::HwIp`] demands across the platform's hwip
/// blocks in declaration order (fabric demands go to fabric 0).
fn bind_layout_services(platform: &mut FppaPlatform, layout: &PipelineLayout) {
    let mut next_hwip = 0usize;
    let n_hwips = platform.config().hwip.len();
    for &(stage, demand) in &layout.services {
        let node = match demand.kind {
            ServiceKind::Memory => platform.memory_node(0),
            ServiceKind::Fabric => platform.fabric_node(0),
            ServiceKind::HwIp => {
                let node = platform.hwip_node(next_hwip % n_hwips.max(1));
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
}

/// Builds the T8 rig: the frame-sliced video codec pipeline on `n_pes`
/// multithreaded PEs, its reference-frame store on a shared SRAM macro,
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
    let (app, layout) = workload
        .spec
        .to_application()
        .expect("video pipeline lowers to a valid application");

    let mut cfg = FppaConfig::new("video-codec", TopologyKind::Mesh);
    cfg.link_latency = Some(link_latency);
    for _ in 0..n_pes {
        cfg.add_pe(PeConfig::new(PeClass::Dsp, threads));
    }
    // The shared reference-frame store the motion estimators hammer.
    cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Edram, 64.0));
    let mut io = IoChannelConfig::ten_gbe_worst_case();
    io.rate = nw_types::BitsPerSec::from_gbps(gbps);
    io.packet_bytes = nw_types::Bytes(params.slice_bytes);
    io.clock_hz = cfg.tech.nominal_clock_hz();
    cfg.add_io(io);
    let slices_per_cycle = io.packets_per_cycle();

    let mut platform = FppaPlatform::new(cfg).expect("valid fixed config");
    let per_entry = slices_per_cycle / params.lanes as f64;
    let placement = auto_place(&platform, &app, n_pes, &vec![per_entry; params.lanes]);
    platform
        .install_app(&app, &placement)
        .expect("placement built to match");
    for lane in &workload.lanes {
        platform
            .bind_io_entry(0, layout.objects[lane.ingest])
            .expect("io 0 exists");
        platform
            .bind_egress(layout.objects[lane.pack], 0, params.slice_bytes / 2)
            .expect("io 0 exists");
    }
    bind_layout_services(&mut platform, &layout);
    ScenarioRig {
        platform,
        app,
        placement,
    }
}

/// Builds the T9 rig: the modem baseband chain on `n_pes` multithreaded
/// PEs, symbol bursts arriving at `mbps` through one I/O channel and
/// decoded MAC payloads bound back to it. Twoway channel-estimate and
/// link-adaptation round trips ride the NoC at `link_latency` cycles per
/// hop — the latency the threads must hide.
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
    let (app, layout) = workload
        .spec
        .to_application()
        .expect("modem pipeline lowers to a valid application");

    let mut cfg = FppaConfig::new("modem-baseband", TopologyKind::Mesh);
    cfg.link_latency = Some(link_latency);
    for _ in 0..n_pes {
        cfg.add_pe(PeConfig::new(PeClass::Dsp, threads));
    }
    cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Sram, 8.0));
    let mut io = IoChannelConfig::ten_gbe_worst_case();
    io.rate = nw_types::BitsPerSec::from_gbps(mbps / 1000.0);
    io.packet_bytes = nw_types::Bytes(params.burst_bytes);
    io.clock_hz = cfg.tech.nominal_clock_hz();
    cfg.add_io(io);
    let bursts_per_cycle = io.packets_per_cycle();

    let mut platform = FppaPlatform::new(cfg).expect("valid fixed config");
    let per_entry = bursts_per_cycle / params.carriers as f64;
    let placement = auto_place(&platform, &app, n_pes, &vec![per_entry; params.carriers]);
    platform
        .install_app(&app, &placement)
        .expect("placement built to match");
    for chain in &workload.chains {
        platform
            .bind_io_entry(0, layout.objects[chain.frontend])
            .expect("io 0 exists");
        platform
            .bind_egress(layout.objects[chain.mac_out], 0, params.burst_bytes / 2)
            .expect("io 0 exists");
    }
    // The air-interface deadline budget on the shared channel estimator:
    // every demodulator query must return within a fixed multiple of the
    // unloaded NoC round trip (per-hop wire time scales with the link
    // latency; the constant covers serialization, the estimator's compute
    // and a bounded queueing allowance). Round trips beyond the budget
    // count as deadline misses in `PlatformReport::latency` — the "does
    // the modem meet its deadline" observable of experiments T9/T11.
    platform
        .set_latency_deadline(
            layout.objects[workload.channel_est],
            modem_est_deadline(link_latency),
        )
        .expect("estimator object is installed");
    ScenarioRig {
        platform,
        app,
        placement,
    }
}

/// The channel-estimate deadline budget of [`modem_rig`] for a given
/// per-hop link latency (see the comment at its use site). The unloaded
/// round trip on this rig measures ≈ 80 + 2·link cycles (two NoC
/// traversals plus the estimator's 90-cycle handler at DSP speedup), so
/// the budget allows roughly 1.5× that: met comfortably at nominal load,
/// blown when dispatcher queueing stretches the reply path.
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
    let (app, layout) = workload
        .spec
        .to_application()
        .expect("crypto pipeline lowers to a valid application");

    let mut cfg = FppaConfig::new("crypto-offload", TopologyKind::Mesh);
    cfg.link_latency = Some(link_latency);
    for _ in 0..n_pes {
        cfg.add_pe(PeConfig::new(PeClass::GpRisc, threads));
    }
    cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Sram, 4.0));
    cfg.add_hwip(HwIpConfig {
        name: "aes-engine".to_owned(),
        ii: 2,
        latency: 16,
        area: AreaMm2(0.6),
        energy_per_item: Picojoules(55.0),
    });
    cfg.add_hwip(HwIpConfig {
        name: "hash-engine".to_owned(),
        ii: 2,
        latency: 12,
        area: AreaMm2(0.4),
        energy_per_item: Picojoules(35.0),
    });
    let mut io = IoChannelConfig::ten_gbe_worst_case();
    io.rate = nw_types::BitsPerSec::from_gbps(gbps);
    io.packet_bytes = nw_types::Bytes(params.payload_bytes);
    io.clock_hz = cfg.tech.nominal_clock_hz();
    cfg.add_io(io);
    let payloads_per_cycle = io.packets_per_cycle();

    let mut platform = FppaPlatform::new(cfg).expect("valid fixed config");
    let per_entry = payloads_per_cycle / params.channels as f64;
    let placement = auto_place(&platform, &app, n_pes, &vec![per_entry; params.channels]);
    platform
        .install_app(&app, &placement)
        .expect("placement built to match");
    for ch in &workload.channels {
        platform
            .bind_io_entry(0, layout.objects[ch.ingest])
            .expect("io 0 exists");
        platform
            .bind_egress(layout.objects[ch.egress], 0, params.payload_bytes)
            .expect("io 0 exists");
    }
    // Cipher blocks stream through the AES engine, digests through the
    // hash engine — the round-robin hwip partition in declaration order
    // (cipher stages were declared before auth stages per channel).
    bind_layout_services(&mut platform, &layout);
    ScenarioRig {
        platform,
        app,
        placement,
    }
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
    /// [`PipelineLayout::objects`]).
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
    let (app, layout) = workload
        .spec
        .to_application()
        .expect("mix lowers to a valid application");

    let mut cfg = FppaConfig::new("mix-video-ipv4", TopologyKind::Mesh);
    cfg.link_latency = Some(link_latency);
    for _ in 0..n_pes {
        cfg.add_pe(PeConfig::new(PeClass::GpRisc, threads));
    }
    // The video half's shared reference-frame store.
    cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Edram, 64.0));
    // Channel 0: video slices. Channel 1: worst-case minimum-size packets.
    let mut video_io = IoChannelConfig::ten_gbe_worst_case();
    video_io.rate = nw_types::BitsPerSec::from_gbps(video_gbps);
    video_io.packet_bytes = nw_types::Bytes(params.video.slice_bytes);
    video_io.clock_hz = cfg.tech.nominal_clock_hz();
    cfg.add_io(video_io);
    let mut ip_io = IoChannelConfig::ten_gbe_worst_case();
    ip_io.rate = nw_types::BitsPerSec::from_gbps(ipv4_gbps);
    ip_io.packet_bytes = nw_types::Bytes(params.packet_bytes);
    ip_io.clock_hz = cfg.tech.nominal_clock_hz();
    cfg.add_io(ip_io);
    let slices_per_cycle = video_io.packets_per_cycle();
    let packets_per_cycle = ip_io.packets_per_cycle();

    let mut platform = FppaPlatform::new(cfg).expect("valid fixed config");
    // Entry rates in `spec.entries` order: the absorbed video lanes first,
    // then one classifier per packet chain.
    let mut entry_rates = vec![slices_per_cycle / params.video.lanes as f64; params.video.lanes];
    entry_rates.extend(vec![
        packets_per_cycle / params.ipv4_workers as f64;
        params.ipv4_workers
    ]);
    let placement = auto_place(&platform, &app, n_pes, &entry_rates);
    platform
        .install_app(&app, &placement)
        .expect("placement built to match");
    for lane in &workload.video_lanes {
        platform
            .bind_io_entry(0, layout.objects[lane.ingest])
            .expect("io 0 exists");
        platform
            .bind_egress(layout.objects[lane.pack], 0, params.video.slice_bytes / 2)
            .expect("io 0 exists");
    }
    for chain in &workload.ipv4_chains {
        platform
            .bind_io_entry(1, layout.objects[chain.classify])
            .expect("io 1 exists");
        platform
            .bind_egress(layout.objects[chain.emit], 1, params.packet_bytes)
            .expect("io 1 exists");
    }
    bind_layout_services(&mut platform, &layout);
    platform
        .set_latency_deadline(
            layout.objects[workload.route_lookup],
            mix_lookup_deadline(link_latency),
        )
        .expect("lookup object is installed");
    MixRig {
        rig: ScenarioRig {
            platform,
            app,
            placement,
        },
        workload,
        objects: layout.objects,
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
            let rig = ipv4_rig(replicas, 8, TopologyKind::Mesh, 4, replicas as f64 * 0.6);
            ScenarioRig {
                platform: rig.platform,
                app: rig.app,
                placement: rig.placement,
            }
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
    fn every_platform_starts_under_the_default_scheduler() {
        let tour = FppaPlatform::new(fppa_tour_config()).expect("tour config is valid");
        assert_eq!(tour.scheduler_mode(), SchedulerMode::default());
        for spec in ScenarioRegistry::standard().specs() {
            let mode = (spec.build)(true).platform.scheduler_mode();
            assert_eq!(mode, SchedulerMode::default(), "{}", spec.name);
        }
    }

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
        assert_eq!(rig.layouts.len(), 2);
        assert_eq!(rig.placement.len(), rig.app.objects().len());
        // Lookup object shares one PE; replicas use distinct worker PEs.
        assert_ne!(
            rig.placement[rig.layouts[0].classifier.0],
            rig.placement[rig.layouts[1].classifier.0]
        );
    }

    #[test]
    fn ipv4_rig_forwards_packets_at_sustainable_rate() {
        // 4 workers sustain ~2.5 Gb/s (the 10 Gb/s point of claim C7 needs
        // ~3x more workers and is exercised by the T3 experiment sweep).
        let mut rig = ipv4_rig(4, 8, TopologyKind::Mesh, 2, 2.5);
        let report = run_ipv4(&mut rig, 40_000);
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
        let report = run_ipv4(&mut rig, 20_000);
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
        let params = MixParams {
            video: VideoParams {
                lanes: 2,
                ..VideoParams::default()
            },
            ipv4_workers: 2,
            ..MixParams::default()
        };
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
