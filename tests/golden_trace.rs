//! Golden trace digests: every [`TraceEvent`] the four nwbench rigs emit,
//! in order, hashed, recorded at commit c149cd4 — the last one whose
//! NoC-only spans ran event by event in the platform.
//!
//! Observers stay inert, and the trace stream is itself an observable:
//! a change to the run loop that moves where a hop is announced, which
//! cycle a transfer is stamped with, or the order of two events in one
//! cycle changes what a trace consumer sees even when every report is
//! equal. These constants do not move with the loop; a change that means
//! to be bookkeeping must leave them equal.
//!
//! The rigs are built exactly as `tests/golden_sched.rs` builds them and
//! run traced from cycle 0, under the default scheduler, for windows a
//! debug build covers in seconds. Each digest is FNV-1a over every event
//! as its variant index followed by its fields, in declaration order. The
//! run must also account for every hop in its `FastForward` events: one
//! event per hop, their spans summing to the cycles hopped. On a mismatch
//! the test prints the table as it reads now, ready to paste — which is
//! only the right thing to do for a change that means to alter the trace.

use nanowall::scenarios::{ipv4_rig, mix_demo_params, mix_pe_pool, mix_rig, modem_rig, video_rig};
use nanowall::{FaultCampaign, FaultRates, FppaPlatform, RetryPolicy, TraceEvent, TraceSink};
use nw_apps::{ModemParams, VideoParams};
use nw_noc::TopologyKind;

/// nwbench's `mix-fork-faults` campaign horizon: its warm-up plus one
/// replica window.
const MIX_CAMPAIGN_HORIZON: u64 = 900_000 + 600_000;

type Build = fn() -> FppaPlatform;

/// `(workload, cycles run traced from cycle 0, platform builder)`.
const RIGS: [(&str, u64, Build); 4] = [
    ("ipv4-sat", 50_000, || {
        ipv4_rig(16, 8, TopologyKind::Mesh, 4, 9.5).platform
    }),
    ("video-knee", 1_000_000, || {
        video_rig(&VideoParams::default(), 9, 4, 4, 8.0).platform
    }),
    ("modem-idle", 10_000_000, || {
        modem_rig(&ModemParams::default(), 6, 4, 50, 40.0).platform
    }),
    ("mix-fork-faults", 300_000, || {
        let params = mix_demo_params(false);
        let mut p = mix_rig(&params, mix_pe_pool(&params), 4, 4, 6.0, 3.0).platform;
        let shape = p.fault_shape();
        p.install_fault_campaign(FaultCampaign::generate(
            11,
            MIX_CAMPAIGN_HORIZON,
            &FaultRates::scaled(1.0),
            &shape,
        ));
        p.set_retry_policy(RetryPolicy::default());
        p
    }),
];

/// `(workload, events, digest)` recorded at c149cd4.
const GOLDEN: [(&str, u64, u64); 4] = [
    ("ipv4-sat", 155728, 0x9705608db5764f4a),
    ("video-knee", 403651, 0x30b6424c3ff02507),
    ("modem-idle", 48349, 0x97672be27fadea7f),
    ("mix-fork-faults", 169104, 0xf9a5be28e181fe13),
];

/// Hashes every event it receives and tallies the `FastForward` ones.
#[derive(Debug)]
struct DigestSink {
    fnv: u64,
    events: u64,
    fast_forwards: u64,
    cycles_fast_forwarded: u64,
}

impl DigestSink {
    fn new() -> Self {
        DigestSink {
            fnv: 0xcbf2_9ce4_8422_2325,
            events: 0,
            fast_forwards: 0,
            cycles_fast_forwarded: 0,
        }
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.fnv = (self.fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl TraceSink for DigestSink {
    fn emit(&mut self, ev: TraceEvent) {
        self.events += 1;
        let u = |i: usize| i as u64;
        let words: Vec<u64> = match ev {
            TraceEvent::FlitInject {
                cycle,
                src,
                dst,
                bytes,
            } => vec![0, cycle, u(src), u(dst), u(bytes)],
            TraceEvent::FlitDeliver {
                cycle,
                src,
                dst,
                latency,
            } => vec![1, cycle, u(src), u(dst), latency],
            TraceEvent::LinkTransfer {
                cycle,
                router,
                port,
                to,
                flits,
                ser,
            } => vec![2, cycle, u(router), u(port), u(to), flits, ser],
            TraceEvent::HandlerStart {
                cycle,
                pe,
                thread,
                object,
            } => vec![3, cycle, u(pe), u(thread), u(object)],
            TraceEvent::HandlerEnd { cycle, pe, thread } => vec![4, cycle, u(pe), u(thread)],
            TraceEvent::DeadlineMiss {
                cycle,
                object,
                latency,
                budget,
            } => vec![5, cycle, u(object), latency, budget],
            TraceEvent::FastForward { cycle, span } => {
                self.fast_forwards += 1;
                self.cycles_fast_forwarded += span;
                vec![6, cycle, span]
            }
            TraceEvent::FaultInjected {
                cycle,
                kind,
                target,
                arg,
            } => vec![7, cycle, u64::from(kind), u(target), arg],
            TraceEvent::RetryIssued {
                cycle,
                pe,
                thread,
                attempt,
            } => vec![8, cycle, u(pe), u(thread), u64::from(attempt)],
            TraceEvent::Reroute {
                cycle,
                router,
                port,
            } => vec![9, cycle, u(router), u(port)],
        };
        for w in words {
            self.word(w);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Runs `build`'s platform traced for `cycles` and checks that its
/// `FastForward` events account for every hop. Returns `(events, digest)`.
fn traced(name: &str, build: Build, cycles: u64) -> (u64, u64) {
    let mut p = build();
    p.set_trace_sink(Box::new(DigestSink::new()));
    let _ = p.run(cycles);
    let mut sink = p.take_trace_sink().expect("installed above");
    let sink = (sink.as_any_mut().downcast_mut::<DigestSink>()).expect("a DigestSink");
    let stats = p.scheduler_stats();
    assert_eq!(
        sink.fast_forwards, stats.hops,
        "{name}: one FastForward per hop"
    );
    assert_eq!(
        sink.cycles_fast_forwarded, stats.cycles_hopped,
        "{name}: FastForward spans sum to the cycles hopped"
    );
    (sink.events, sink.fnv)
}

#[test]
fn trace_digests_match_the_recorded_table() {
    let now: Vec<(&str, u64, u64)> = RIGS
        .iter()
        .map(|&(name, cycles, build)| {
            let (events, digest) = traced(name, build, cycles);
            (name, events, digest)
        })
        .collect();
    let table: String = now
        .iter()
        .map(|(name, events, digest)| format!("    (\"{name}\", {events}, {digest:#018x}),\n"))
        .collect();
    let moved: Vec<&str> = (now.iter().zip(&GOLDEN))
        .filter(|(got, want)| got != want)
        .map(|(got, _)| got.0)
        .collect();
    assert!(
        moved.is_empty(),
        "the trace left the recorded digests ({}); the table reads now:\n{table}",
        moved.join(", ")
    );
}
