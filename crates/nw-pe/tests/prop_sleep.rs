//! Property tests for the self-timed PE.
//!
//! A scheduler may leave a PE unticked over any span [`Pe::quiet_span`]
//! promises — a compute burst, a whole-PE stall, dormancy — provided it
//! ticks the PE at every external event (spawn, completion, crash,
//! restart). These properties pin the contract that makes that safe: a PE
//! ticked only at such wake cycles ends in **exactly** the state of a PE
//! ticked every cycle — same statistics to the last f64 bit, same thread
//! states, same request stream at the same cycles — under random programs,
//! both scheduling policies, swap penalties 0–3, 1–16 contexts (and 64, the
//! most the PE's context sets hold) and a random external spawn / complete /
//! crash / restart / report schedule.

use nw_pe::{KernelDomain, Op, Pe, PeClass, PeConfig, PeStats, Program, SchedPolicy};
use nw_sim::Clocked;
use nw_types::{Cycles, NodeId, ThreadId};
use proptest::prelude::*;

const HORIZON: u64 = 600;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..90).prop_map(Op::Compute),
        (1u64..90).prop_map(Op::Compute),
        (any::<bool>(), 1u64..300).prop_map(|(write, bytes)| Op::LocalMem { write, bytes }),
        (0usize..8, 1u64..64).prop_map(|(dst, bytes)| Op::Send {
            dst: NodeId(dst),
            bytes,
            data: vec![7; (bytes % 5) as usize],
            tag: bytes,
        }),
        (0usize..8, 1u64..64).prop_map(|(dst, bytes)| Op::Call {
            dst: NodeId(dst),
            bytes,
            reply_bytes: bytes * 2,
            data: vec![9; (bytes % 3) as usize],
        }),
    ]
}

fn program_strategy() -> impl Strategy<Value = Program> {
    (prop::collection::vec(op_strategy(), 0..7), any::<bool>()).prop_map(|(ops, header)| {
        let domain = if header {
            KernelDomain::PacketHeader
        } else {
            KernelDomain::Generic
        };
        Program::new(ops, domain)
    })
}

fn config_strategy() -> impl Strategy<Value = PeConfig> {
    (1usize..17, 0u64..4, any::<bool>(), any::<bool>()).prop_map(
        |(n_threads, swap, round_robin, asip)| {
            let class = if asip {
                PeClass::Asip {
                    domain: KernelDomain::PacketHeader,
                }
            } else {
                PeClass::GpRisc
            };
            let policy = if round_robin {
                SchedPolicy::RoundRobin
            } else {
                SchedPolicy::SwitchOnStall
            };
            PeConfig::new(class, n_threads)
                .with_swap_penalty(swap)
                .with_policy(policy)
        },
    )
}

/// What the PE's owner does to it from outside, before the tick of a cycle.
#[derive(Debug, Clone)]
enum External {
    Spawn(Program),
    Crash,
    Restart,
    /// A mid-run report: catch the sleeping PE up and read its statistics.
    Report,
}

fn external_strategy() -> impl Strategy<Value = External> {
    prop_oneof![
        program_strategy().prop_map(External::Spawn),
        program_strategy().prop_map(External::Spawn),
        program_strategy().prop_map(External::Spawn),
        program_strategy().prop_map(External::Spawn),
        Just(External::Report),
        Just(External::Report),
        Just(External::Crash),
        Just(External::Restart),
    ]
}

fn schedule_strategy() -> impl Strategy<Value = Vec<(u64, External)>> {
    prop::collection::vec((0..HORIZON, external_strategy()), 1..40)
}

fn assert_same_stats(a: &PeStats, b: &PeStats, at: u64) {
    assert_eq!(a.tasks_completed, b.tasks_completed, "cycle {at}");
    assert_eq!(a.swaps, b.swaps, "cycle {at}");
    assert_eq!(
        a.core_utilization.to_bits(),
        b.core_utilization.to_bits(),
        "cycle {at}"
    );
    assert_eq!(a.energy.0.to_bits(), b.energy.0.to_bits(), "cycle {at}");
    assert_eq!(a.thread_occupancy.len(), b.thread_occupancy.len());
    for (x, y) in a.thread_occupancy.iter().zip(&b.thread_occupancy) {
        assert_eq!(x.to_bits(), y.to_bits(), "cycle {at}");
    }
}

/// Runs `dense` ticked every cycle beside `lazy` ticked only at its wake
/// cycles, applying the same external schedule to both, and checks they
/// never differ. `delays` times the completion of each raised request.
/// Returns the number of ticks the lazy PE took.
fn run_pair(cfg: PeConfig, schedule: &[(u64, External)], delays: &[u64]) -> u64 {
    let mut dense = Pe::new(cfg.clone());
    let mut lazy = Pe::new(cfg);
    // Completions in flight: (due cycle, thread).
    let mut completions: Vec<(u64, ThreadId)> = Vec::new();
    let mut raised = 0usize;
    let mut wake = 0u64;
    let mut lazy_ticks = 0u64;
    for c in 0..HORIZON {
        let now = Cycles(c);
        let mut woken = false;
        for (_, ev) in schedule.iter().filter(|(at, _)| *at == c) {
            match ev {
                External::Spawn(prog) => {
                    // The owner's protocol: catch up, then mutate.
                    lazy.settle_accounting(now);
                    assert_eq!(dense.spawn(prog.clone()), lazy.spawn(prog.clone()));
                    woken = true;
                }
                External::Crash => {
                    assert_eq!(dense.crash(now), lazy.crash(now), "harvested buffers");
                    woken = true;
                }
                External::Restart => {
                    dense.restart(now);
                    lazy.restart(now);
                    woken = true;
                }
                External::Report => {
                    lazy.settle_accounting(now);
                    assert_same_stats(&dense.stats(), &lazy.stats(), c);
                }
            }
        }
        completions.retain(|&(due, tid)| {
            if due != c {
                return true;
            }
            // A crash in between killed the waiting thread: the reply is
            // discarded, as the platform's fault path does.
            assert_eq!(dense.is_awaiting(tid), lazy.is_awaiting(tid));
            if dense.is_awaiting(tid) {
                dense.complete(tid);
                lazy.complete(tid);
                woken = true;
            }
            false
        });
        if woken {
            wake = wake.min(c);
        }
        dense.tick(now);
        let ticked = wake <= c;
        if ticked {
            lazy.tick(now);
            lazy_ticks += 1;
        }
        // Same requests at the same cycle; a sleeping PE raises none.
        loop {
            let (a, b) = (dense.pop_request(), lazy.pop_request());
            assert_eq!(a, b, "request stream diverged at cycle {c}");
            let Some((tid, _)) = a else { break };
            let delay = delays[raised % delays.len()];
            raised += 1;
            completions.push((c + 1 + delay, tid));
        }
        if ticked {
            let next = c + 1;
            wake = next.saturating_add(lazy.quiet_span(Cycles(next)).unwrap_or(0));
        }
    }
    lazy.settle_accounting(Cycles(HORIZON));
    assert_same_stats(&dense.stats(), &lazy.stats(), HORIZON);
    // Everything else — thread states, burst counters, program counters,
    // the issuing context, context sets, occupancy intervals — through
    // `Debug`.
    assert_eq!(format!("{dense:?}"), format!("{lazy:?}"));
    lazy_ticks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sleeping_pe_matches_a_pe_ticked_every_cycle(
        cfg in config_strategy(),
        schedule in schedule_strategy(),
        delays in prop::collection::vec(0u64..120, 1..8),
    ) {
        let ticks = run_pair(cfg, &schedule, &delays);
        prop_assert!(ticks <= HORIZON);
    }
}

/// The property above would hold vacuously if `quiet_span` never promised
/// anything: pin that bursts, stalls and dormancy really are slept through.
#[test]
fn bursts_stalls_and_dormancy_are_slept_through() {
    let cfg = PeConfig::new(PeClass::GpRisc, 2);
    let schedule = [
        (
            0,
            External::Spawn(Program::straight_line([
                Op::Compute(200),
                Op::call(NodeId(1), 8, 8),
                Op::LocalMem {
                    write: false,
                    bytes: 256,
                },
                Op::Compute(100),
            ])),
        ),
        (450, External::Report),
    ];
    let ticks = run_pair(cfg, &schedule, &[50]);
    assert!(
        ticks < 20,
        "lazy PE ticked {ticks} times in {HORIZON} cycles"
    );
}

/// 64 contexts, spawned into faster than they retire: picks reach bit 63
/// and wrap, under both policies.
#[test]
fn a_full_set_word_of_contexts_wraps_around() {
    let task = |c: u64| {
        Program::straight_line([
            Op::Compute(1 + c % 7),
            Op::call(NodeId(1), 8, 8),
            Op::LocalMem {
                write: false,
                bytes: 64,
            },
            Op::Compute(3),
        ])
    };
    let schedule: Vec<_> = (0..200)
        .flat_map(|c| {
            [
                (c, External::Spawn(task(c))),
                (c, External::Spawn(task(c + 3))),
            ]
        })
        .chain([(150, External::Crash), (160, External::Restart)])
        .chain((0..HORIZON).step_by(97).map(|c| (c, External::Report)))
        .collect();
    for policy in [SchedPolicy::SwitchOnStall, SchedPolicy::RoundRobin] {
        let cfg = PeConfig::new(PeClass::GpRisc, 64).with_policy(policy);
        let mut probe = Pe::new(cfg.clone());
        while probe.spawn(task(0)).is_ok() {}
        assert!(!probe.thread_is_idle(ThreadId(63)), "context 63 exists");
        run_pair(cfg, &schedule, &[40, 90, 5]);
    }
}

/// Spawning into a sleeping PE without settling first is a misuse, but one
/// every `platform.pe_mut(p).spawn(..)` caller commits, so its arithmetic is
/// pinned: the occupancy interval opens where the accounting stands, so the
/// context is charged the unaccounted gap on top of what a PE ticked every
/// cycle counts for it — and nothing else moves.
#[test]
fn an_unsettled_spawn_is_charged_the_gap_and_nothing_else_moves() {
    const SPAWN_AT: u64 = 100;
    const END: u64 = 400;
    for policy in [SchedPolicy::SwitchOnStall, SchedPolicy::RoundRobin] {
        // `first` decides what the lazy PE sleeps through: a compute burst
        // (switch-on-stall only), a whole-PE scratchpad stall, dormancy.
        for first in [
            Op::Compute(300),
            Op::LocalMem {
                write: true,
                bytes: 4000,
            },
            Op::call(NodeId(1), 8, 8),
        ] {
            let cfg = PeConfig::new(PeClass::GpRisc, 3).with_policy(policy);
            let mut dense = Pe::new(cfg.clone());
            let mut lazy = Pe::new(cfg);
            let long = Program::straight_line([first.clone(), Op::Compute(2)]);
            dense.spawn(long.clone()).unwrap();
            lazy.spawn(long).unwrap();
            let (mut wake, mut accounted_to, mut gap) = (0, 0, 0);
            for c in 0..END {
                if c == SPAWN_AT {
                    let task = Program::straight_line([Op::Compute(20)]);
                    assert_eq!(dense.spawn(task.clone()), Ok(ThreadId(1)));
                    assert_eq!(lazy.spawn(task), Ok(ThreadId(1)));
                    gap = c - accounted_to;
                    wake = c;
                }
                dense.tick(Cycles(c));
                if wake <= c {
                    lazy.tick(Cycles(c));
                    accounted_to = c + 1;
                    wake = lazy.wake_cycle(Cycles(c + 1));
                }
                assert_eq!(dense.pop_request(), lazy.pop_request());
            }
            lazy.settle_accounting(Cycles(END));
            let slept = policy == SchedPolicy::SwitchOnStall || !matches!(first, Op::Compute(_));
            assert_eq!(gap > 1, slept, "{policy:?} {first:?}: gap {gap}");
            let (mut d, l) = (dense.stats(), lazy.stats());
            let held = (d.thread_occupancy[1] * END as f64).round() as u64;
            assert_eq!(d.thread_occupancy[1], held as f64 / END as f64);
            d.thread_occupancy[1] = (held + gap) as f64 / END as f64;
            assert_same_stats(&d, &l, END);
        }
    }
}
