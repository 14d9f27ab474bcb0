//! The traced run: what single layers did.
//!
//! Everything is taken from outside, through public functions of the
//! crates: a repetition with the host profiler installed gives the
//! scheduler phases, the reports give exact event counts, and short timing
//! loops give the cost of one operation of the layers that can run alone.
//! Phase seconds divided by event counts give the per-unit costs, so
//! "where did the time go" has an arithmetic answer printed with both of
//! its terms.

use crate::catalog::Metrics;
use crate::harness::{check_rep, dense_vs_active, grown, run_rep, set_up, Ops, Rep, Warmed};
use crate::stats::{median, micro_ns, per_call_us, timed};
use crate::workloads::Workload;
use nanowall::scenarios::latency_hiding;
use nanowall::{
    FaultCampaign, FaultRates, FppaPlatform, HostPhase, PlatformReport, RingBufferSink,
};
use nw_dsoc::{Message, MessageKind, MessageView, MethodId};
use nw_ipv4::{
    synthetic_table, BinaryTrie, CamTable, Ipv4Header, LinearTable, LpmTable, MultibitTrie,
    PacketGenerator, RouteTableConfig, TrafficMix,
};
use nw_mapping::{GreedyLoadMapper, Mapper, MappingProblem, PeSlot, SimulatedAnnealingMapper};
use nw_noc::{run_open_loop, OpenLoopConfig, TopologyKind};
use nw_pe::SchedPolicy;
use nw_sim::{parallel_map_with, EventQueue, LatencyHistogram};
use nw_types::{Cycles, NodeId, ObjectId};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls per checkpoint-cost sample set (build, snapshot, restore, fork).
const CHECKPOINT_CALLS: usize = 30;

/// Replicas of the parallel-map and trace-sink side runs, and the divisor
/// of their window: together they cost about one repetition each.
const SIDE_REPLICAS: u64 = 8;

/// Measures every per-layer metric of `w`. Six tenths of `seconds` go to
/// alternating unprofiled and profiled repetitions; the side runs and
/// timing loops after them take about as long again at 15 s.
pub fn run(w: &Workload, seed: u64, seconds: f64, ops: &mut Ops) -> Metrics {
    let mut m = Metrics::default();
    let warmed = set_up(w);
    let seeds = w.replica_seeds(seed);

    // Unprofiled and profiled repetitions alternate, so drift in the host's
    // speed lands on both sides of the overhead ratio.
    let budget = Duration::from_secs_f64(seconds * 0.6);
    let started = Instant::now();
    let first = run_rep(w, &warmed.platform, &seeds, false);
    let expected = first.digests();
    let mut untraced = vec![first.secs];
    let mut traced: Vec<Rep> = Vec::new();
    loop {
        let rep = run_rep(w, &warmed.platform, &seeds, true);
        check_rep(
            ops,
            &rep,
            &expected,
            "profiled repetition (the profiler must be inert)",
        );
        traced.push(rep);
        let pair = started.elapsed().div_f64(traced.len() as f64);
        if started.elapsed() + pair > budget {
            break;
        }
        let rep = run_rep(w, &warmed.platform, &seeds, false);
        check_rep(ops, &rep, &expected, "repetition");
        untraced.push(rep.secs);
    }
    phases(&mut m, &traced, median(&untraced));
    counts(&mut m, &first, &warmed.report);
    per_unit_costs(&mut m);

    checkpoints(&mut m, w, seed, &warmed);
    let (same, dense_secs, active_secs) = dense_vs_active(w);
    ops.check(
        same,
        "oracle: dense and active-set reports differ on the prefix window",
    );
    m.put_ratio(
        "core.dense_cycles_per_s",
        w.oracle_prefix as f64,
        dense_secs,
        "prefix cycles / host seconds under the dense scheduler",
    );
    m.put_ratio(
        "core.active_over_dense",
        dense_secs,
        active_secs,
        "dense seconds / active-set seconds on the prefix",
    );
    trace_sink(&mut m, w, seed, &warmed, ops);
    parallel_speedup(&mut m, w, seed, &warmed, ops);

    let min_sample = Duration::from_secs_f64(seconds / 1000.0);
    open_loop(&mut m, seed);
    let (point, secs) =
        timed(|| latency_hiding(8, 50, 40, SchedPolicy::SwitchOnStall, 1, 2_000_000));
    black_box(point);
    m.put_ratio(
        "pe.latency_hiding.ns_per_cycle",
        secs * 1e9,
        2_400_000.0,
        "host ns / stepped cycles of the PE-only rig",
    );
    dsoc_wire(&mut m, min_sample);
    ipv4_datapath(&mut m, seed, min_sample);
    mapping(&mut m, min_sample);
    sim_kernel(&mut m, min_sample);
    fault_generation(&mut m, seed, &warmed.platform, min_sample);
    m
}

/// Phase seconds and laps of the profiled repetition with the median
/// wall-clock (one consistent set, so the shares add up), the share of its
/// wall-clock the phases account for, and the profiler's overhead.
fn phases(m: &mut Metrics, traced: &[Rep], untraced_secs: f64) {
    let mut by_secs: Vec<&Rep> = traced.iter().collect();
    by_secs.sort_by(|a, b| a.secs.total_cmp(&b.secs));
    let rep = by_secs[by_secs.len() / 2];
    let mut attributed = 0.0;
    for phase in HostPhase::ALL {
        let slices = rep
            .profiles
            .iter()
            .flat_map(|p| p.phases.iter().filter(|s| s.phase == phase));
        let (secs, laps) = slices.fold((0.0, 0u64), |(s, l), x| (s + x.secs, l + x.laps));
        attributed += secs;
        m.put(format!("core.phase.{}_s", phase.name()), secs);
        m.put(format!("core.phase.{}_laps", phase.name()), laps as f64);
    }
    m.put_ratio(
        "core.attributed_share",
        attributed,
        rep.secs,
        "seconds attributed to phases / wall-clock seconds of the profiled repetition",
    );
    println!(
        "phase shares of the profiled repetition ({} profiled, median wall {:.4} s):",
        traced.len(),
        rep.secs
    );
    for phase in HostPhase::ALL {
        let secs = m
            .get(&format!("core.phase.{}_s", phase.name()))
            .unwrap_or(0.0);
        println!(
            "  {:<16} {:>5.1} %",
            phase.name(),
            secs / attributed * 100.0
        );
    }
    m.put_ratio(
        "obs.profiler_overhead_ratio",
        median(&traced.iter().map(|r| r.secs).collect::<Vec<_>>()),
        untraced_secs,
        "median profiled seconds / median unprofiled seconds of a repetition",
    );
}

/// Exact event counts of one repetition (growth since the warm-up, summed
/// over replicas).
fn counts(m: &mut Metrics, rep: &Rep, warm: &PlatformReport) {
    let mut put = |name: &str, f: &dyn Fn(&PlatformReport) -> u64| {
        m.put(name, grown(rep, warm, f) as f64);
    };
    put("core.runtime.dispatches", &|r| {
        r.object_invocations.iter().sum()
    });
    put("core.latency.deadline_misses", &|r| {
        r.latency.iter().map(|l| l.deadline_misses).sum()
    });
    put("core.resilience.faults_injected", &|r| {
        r.resilience.faults_injected
    });
    put("core.resilience.retries", &|r| r.resilience.retries);
    put("core.resilience.retry_give_ups", &|r| {
        r.resilience.retry_give_ups
    });
    put("core.resilience.duplicate_replies_dropped", &|r| {
        r.resilience.duplicate_replies_dropped
    });
    put("core.resilience.reroutes", &|r| r.resilience.reroutes);
    put("noc.injected", &|r| r.noc.injected);
    put("noc.delivered", &|r| r.noc.delivered);
    put("noc.refused", &|r| r.noc.refused);
    put("noc.flit_hops", &|r| r.noc.flit_hops);
    put("pe.tasks_completed", &|r| r.tasks_completed);
    put("mem.accesses", &|r| r.mem_accesses);
    put("fabric.served", &|r| r.fabric_served);
    put("hwip.served", &|r| r.hwip_served);
    put("hwip.io.generated", &|r| {
        r.io.iter().map(|c| c.generated).sum()
    });
    put("hwip.io.dropped", &|r| r.io.iter().map(|c| c.dropped).sum());
    put("hwip.io.transmitted", &|r| {
        r.io.iter().map(|c| c.transmitted).sum()
    });

    // Levels, not counters: read at the end of the window.
    let n = rep.reports.len() as f64;
    let queued: usize = rep.reports.iter().map(|r| r.queued_invocations).sum();
    m.put("core.runtime.queued_invocations", queued as f64);
    let mean = |f: &dyn Fn(&PlatformReport) -> f64| rep.reports.iter().map(f).sum::<f64>() / n;
    m.put("pe.mean_utilization", mean(&|r| r.mean_pe_utilization()));
    m.put("noc.mean_latency_cycles", mean(&|r| r.noc.latency.mean()));
    let (injected, refused) = (m.get("noc.injected"), m.get("noc.refused"));
    let (injected, refused) = (injected.unwrap_or(0.0), refused.unwrap_or(0.0));
    m.put_ratio(
        "noc.refused_share",
        refused,
        injected + refused,
        "refused / attempted injections",
    );
}

/// Phase seconds over event counts: the host cost of one unit of each
/// layer's work inside the platform loop.
fn per_unit_costs(m: &mut Metrics) {
    let get = |m: &Metrics, name: &str| m.get(name).unwrap_or(0.0);
    let served = get(m, "mem.accesses") + get(m, "fabric.served") + get(m, "hwip.served");
    for (name, phase, den, what) in [
        (
            "dsoc.phase_ns_per_dispatch",
            "dispatch",
            get(m, "core.runtime.dispatches"),
            "dispatch phase ns / invocations dispatched",
        ),
        (
            "noc.phase_ns_per_flit_hop",
            "noc_tick",
            get(m, "noc.flit_hops"),
            "noc_tick phase ns / flit hops",
        ),
        (
            "pe.phase_ns_per_task",
            "pe_step",
            get(m, "pe.tasks_completed"),
            "pe_step phase ns / tasks completed",
        ),
        (
            "services.phase_ns_per_item",
            "services",
            served,
            "services phase ns / items served by memories, fabrics and hardware IP",
        ),
    ] {
        let ns = get(m, &format!("core.phase.{phase}_s")) * 1e9;
        m.put_ratio(name, ns, den, what);
    }
}

/// Set-up and checkpoint costs on the warmed platform.
fn checkpoints(m: &mut Metrics, w: &Workload, seed: u64, warmed: &Warmed) {
    let platform = &warmed.platform;
    let snap = platform.snapshot();
    let mut target = FppaPlatform::from_snapshot(&snap);
    m.put("core.build_us", per_call_us(CHECKPOINT_CALLS, || w.build()));
    m.put(
        "core.snapshot_us",
        per_call_us(CHECKPOINT_CALLS, || platform.snapshot()),
    );
    m.put(
        "core.from_snapshot_us",
        per_call_us(CHECKPOINT_CALLS, || FppaPlatform::from_snapshot(&snap)),
    );
    m.put(
        "core.restore_us",
        per_call_us(CHECKPOINT_CALLS, || target.restore(&snap)),
    );
    m.put(
        "core.fork_us",
        per_call_us(CHECKPOINT_CALLS, || platform.fork(seed)),
    );
}

/// Host cost of a ring-buffer trace sink over an eighth of the window, and
/// the check that it changes nothing that is simulated.
fn trace_sink(m: &mut Metrics, w: &Workload, seed: u64, warmed: &Warmed, ops: &mut Ops) {
    let cycles = w.window / SIDE_REPLICAS;
    let mut plain = warmed.platform.fork(seed);
    let mut sunk = warmed.platform.fork(seed);
    sunk.set_trace_sink(Box::new(RingBufferSink::new(1 << 16)));
    let (plain_report, plain_secs) = timed(|| plain.run(cycles));
    let (sunk_report, sunk_secs) = timed(|| sunk.run(cycles));
    ops.check(
        plain_report == sunk_report,
        "trace sink: the report changed when a sink was installed",
    );
    m.put_ratio(
        "obs.trace_sink_overhead_ratio",
        sunk_secs,
        plain_secs,
        "seconds with a RingBufferSink / seconds without, same window",
    );
}

/// Eight forks run for an eighth of the window each, on one worker and on
/// `min(nproc, 2)`. Reported, never an end-to-end number: with one core it
/// is 1 by construction.
fn parallel_speedup(m: &mut Metrics, w: &Workload, seed: u64, warmed: &Warmed, ops: &mut Ops) {
    let cycles = w.window / SIDE_REPLICAS;
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);
    let run = |threads: usize| {
        let forks: Vec<FppaPlatform> = (0..SIDE_REPLICAS)
            .map(|i| warmed.platform.fork(seed.wrapping_add(101 * i)))
            .collect();
        timed(|| parallel_map_with(threads, forks, |mut p| p.run(cycles)))
    };
    let (serial, serial_secs) = run(1);
    let (parallel, parallel_secs) = run(workers);
    ops.check(
        serial == parallel,
        "parallel_map: replicas report differently on two workers than on one",
    );
    m.put_ratio(
        "sim.parallel_map.speedup",
        serial_secs,
        parallel_secs,
        &format!("seconds on 1 worker / seconds on {workers}"),
    );
}

/// `nw-noc` alone: open-loop uniform traffic on 16 endpoints, idle and
/// saturated, 200 k measured cycles, traffic seeded from `--seed`.
fn open_loop(m: &mut Metrics, seed: u64) {
    let topologies = [
        ("mesh", TopologyKind::Mesh),
        ("ring", TopologyKind::Ring),
        ("crossbar", TopologyKind::Crossbar),
        ("fattree", TopologyKind::FatTree),
        ("bus", TopologyKind::SharedBus),
    ];
    for (name, kind) in topologies {
        for (regime, offered_load) in [("idle", 0.02), ("sat", 0.60)] {
            let cfg = OpenLoopConfig {
                offered_load,
                warmup: 2_000,
                measure: 200_000,
                seed,
                ..OpenLoopConfig::default()
            };
            let (result, secs) = timed(|| {
                run_open_loop(kind, 16, &cfg).expect("16 endpoints build on every topology")
            });
            let cycles = (cfg.warmup + cfg.measure) as f64;
            let flits = result.accepted * result.n_endpoints as f64 * cfg.measure as f64;
            m.put_ratio(
                format!("noc.openloop.{name}.{regime}.ns_per_flit"),
                secs * 1e9,
                flits,
                "host ns / flits delivered in the measured window",
            );
            m.put_ratio(
                format!("noc.openloop.{name}.{regime}.ns_per_cycle"),
                secs * 1e9,
                cycles,
                "host ns / simulated cycles",
            );
        }
    }
}

/// DSOC marshalling of a 40-byte body.
fn dsoc_wire(m: &mut Metrics, min_sample: Duration) {
    let msg = Message::invocation(ObjectId(7), MethodId(2), 99, vec![0xAB; 40]);
    let bytes = msg.encode();
    let mut buf = Vec::with_capacity(bytes.len());
    m.put("dsoc.encode_ns", micro_ns(min_sample, || msg.encode()));
    m.put(
        "dsoc.encode_zeroed_into_ns",
        micro_ns(min_sample, || {
            buf.clear();
            Message::encode_zeroed_into(
                MessageKind::Invocation,
                ObjectId(7),
                MethodId(2),
                99,
                40,
                &mut buf,
            );
            buf.len()
        }),
    );
    m.put(
        "dsoc.decode_ns",
        micro_ns(min_sample, || {
            Message::decode(black_box(&bytes)).expect("round trip")
        }),
    );
    m.put(
        "dsoc.view_decode_ns",
        micro_ns(min_sample, || {
            MessageView::decode(black_box(&bytes))
                .expect("round trip")
                .seq
        }),
    );
}

/// LPM lookups (16 384 routes, 1 024 probes) and header handling; table
/// and packets seeded from `--seed`.
fn ipv4_datapath(m: &mut Metrics, seed: u64, min_sample: Duration) {
    let cfg = RouteTableConfig {
        routes: 16_384,
        seed,
    };
    let mut linear = LinearTable::new();
    let prefixes = synthetic_table(&mut linear, &cfg);
    let probes: Vec<u32> = prefixes.iter().take(1024).map(|p| p.addr | 1).collect();
    let mut lookups = |name: &str, table: &mut dyn LpmTable| {
        synthetic_table(table, &cfg);
        let per_pass = micro_ns(min_sample, || {
            probes
                .iter()
                .filter(|&&a| table.lookup(a).is_some())
                .count()
        });
        m.put_ratio(
            format!("ipv4.lpm.{name}.lookup_ns"),
            per_pass,
            probes.len() as f64,
            "ns per pass / probes per pass",
        );
    };
    lookups("binary", &mut BinaryTrie::new());
    lookups("mb4", &mut MultibitTrie::new(4));
    lookups("mb8", &mut MultibitTrie::new(8));
    lookups("cam", &mut CamTable::new());

    let mut gen = PacketGenerator::new(prefixes, TrafficMix::WorstCase, seed);
    let packets: Vec<Vec<u8>> = (0..1024).map(|_| gen.next_packet()).collect();
    let per_pass = micro_ns(min_sample, || {
        packets
            .iter()
            .filter(|p| Ipv4Header::parse(p).is_ok())
            .count()
    });
    m.put_ratio(
        "ipv4.parse_ns",
        per_pass,
        packets.len() as f64,
        "ns per pass / packets per pass",
    );
    let per_pass = micro_ns(min_sample, || {
        packets
            .iter()
            .filter(|p| {
                let mut h = Ipv4Header::parse(p).expect("generated packets are valid");
                h.decrement_ttl().is_ok() && h.to_bytes()[8] > 0
            })
            .count()
    });
    m.put_ratio(
        "ipv4.ttl_rewrite_ns",
        per_pass,
        packets.len() as f64,
        "ns per pass / packets per pass",
    );
}

/// The mappers the rig constructors call, on the four-replica fast path
/// over eight PEs in a line.
fn mapping(m: &mut Metrics, min_sample: Duration) {
    let (app, _) = nw_ipv4::app::fast_path_app(4, &nw_ipv4::app::FastPathWeights::default())
        .expect("four replicas are a valid application");
    let n = 8usize;
    let hops: Vec<Vec<f64>> = (0..n)
        .map(|a| (0..n).map(|b| a.abs_diff(b) as f64).collect())
        .collect();
    let slots = (0..n).map(|i| PeSlot::new(NodeId(i), 1.0)).collect();
    let problem = MappingProblem::new(app, vec![0.002; 4], slots, hops).expect("valid problem");
    m.put(
        "mapping.greedy_us",
        micro_ns(min_sample, || GreedyLoadMapper.map(&problem)) / 1e3,
    );
    let annealer = SimulatedAnnealingMapper {
        iterations: 5_000,
        ..SimulatedAnnealingMapper::default()
    };
    m.put(
        "mapping.sa5k_ms",
        micro_ns(min_sample, || annealer.map(&problem)) / 1e6,
    );
}

/// The simulation kernel's queue and histogram.
fn sim_kernel(m: &mut Metrics, min_sample: Duration) {
    // A queue holding 1 024 pending events; one operation is a pop of the
    // earliest and a schedule behind the latest.
    let mut queue = EventQueue::new();
    for c in 0..1024u64 {
        queue.schedule(Cycles(c), c);
    }
    let mut now = 0u64;
    let per_pair = micro_ns(min_sample, || {
        let popped = queue.pop_due(Cycles(now));
        queue.schedule(Cycles(now + 1024), now);
        now += 1;
        popped
    });
    m.put_ratio(
        "sim.eventqueue.ns_per_op",
        per_pair,
        2.0,
        "ns per pop+schedule / 2",
    );
    let mut hist = LatencyHistogram::new();
    let mut v = 1u64;
    m.put(
        "sim.latency_hist.record_ns",
        micro_ns(min_sample, || {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(Cycles(v >> 44));
        }),
    );
    black_box(hist.count());
}

/// Campaign generation at the nominal fault level on this platform's
/// fabric, over a horizon long enough to hold a few thousand events.
fn fault_generation(m: &mut Metrics, seed: u64, platform: &FppaPlatform, min_sample: Duration) {
    const HORIZON: u64 = 50_000_000;
    let shape = platform.fault_shape();
    let rates = FaultRates::scaled(1.0);
    let events = FaultCampaign::generate(seed, HORIZON, &rates, &shape)
        .events()
        .len();
    m.put("fault.events", events as f64);
    let per_call = micro_ns(min_sample, || {
        FaultCampaign::generate(seed, HORIZON, &rates, &shape)
    });
    m.put_ratio(
        "fault.generate_us_per_kevent",
        per_call / 1e3,
        events as f64 / 1e3,
        "us per campaign / thousand events in it",
    );
}
