//! Golden PE schedules: what a [`Pe`] raised, retired and reported, cycle by
//! cycle, pinned as digests recorded at commit 3ed2340 — the last one whose
//! `Pe::tick` walked every context for occupancy and a per-thread issue
//! counter, and picked the next context with a modulo scan.
//!
//! `prop_sleep` compares a PE ticked every cycle with one ticked only at its
//! wake cycles, but both are the same `Pe`, so a mistake in what they share
//! (a context set out of step with the states, an occupancy interval opened
//! at the wrong cycle, a rotation that skips a context) moves both alike and
//! they still agree. These constants come from a different implementation
//! of that bookkeeping and do not move with it.
//!
//! Each digest is FNV-1a over, per cycle, every external action's outcome
//! and every raised request, and per tick the retired threads, the idle and
//! awaiting context maps, `tasks_completed`, `is_live` and the next
//! `quiet_span`; every report and the end of the run add the [`PeStats`]
//! bits. On a mismatch the test prints the table as it reads now, ready to
//! paste — which is only the right thing to do for a change that means to
//! alter the PE's timing or accounting.

use nw_pe::{KernelDomain, Op, Pe, PeClass, PeConfig, PeRequest, PeStats, Program, SchedPolicy};
use nw_sim::Clocked;
use nw_types::{Cycles, NodeId, ThreadId};

const HORIZON: u64 = 600;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn stats(&mut self, s: &PeStats) {
        self.word(s.core_utilization.to_bits());
        self.word(s.thread_occupancy.len() as u64);
        for o in &s.thread_occupancy {
            self.word(o.to_bits());
        }
        self.word(s.tasks_completed);
        self.word(s.energy.0.to_bits());
        self.word(s.swaps);
    }
}

/// SplitMix64: the whole schedule is a function of one literal seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.next().is_multiple_of(n)
    }
}

/// How the PE's owner drives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drive {
    /// Ticked every cycle.
    Dense,
    /// Ticked only at external events and at the wake cycle `quiet_span`
    /// gave, settled before every spawn (the platform's protocol).
    Lazy,
    /// As `Lazy`, but spawning into a sleeping PE without settling first:
    /// the misuse every `platform.pe_mut(p).spawn(..)` caller commits. The
    /// unaccounted gap is charged to the state the next settle finds.
    LazyUnsettled,
}

/// Schedule `s`: both policies, swap penalties 0–3 and the three drives
/// every 24 schedules, every context count 1–16 every 16; from 48 on, 64
/// contexts under a spawn rate that fills the high ones.
fn case(s: u64) -> (PeConfig, Drive, u64) {
    let policy = if s.is_multiple_of(2) {
        SchedPolicy::SwitchOnStall
    } else {
        SchedPolicy::RoundRobin
    };
    let drive = [Drive::Dense, Drive::Lazy, Drive::LazyUnsettled][(s / 8 % 3) as usize];
    let class = if s % 3 == 1 {
        PeClass::Asip {
            domain: KernelDomain::PacketHeader,
        }
    } else {
        PeClass::GpRisc
    };
    let (n_threads, spawns_per_8_cycles) = if s < 48 {
        (1 + (s * 5 % 16) as usize, 1 + s % 4)
    } else {
        (64, 16)
    };
    let cfg = PeConfig::new(class, n_threads)
        .with_swap_penalty(s / 2 % 4)
        .with_policy(policy);
    (cfg, drive, spawns_per_8_cycles)
}

fn program(rng: &mut Rng) -> Program {
    let ops = (0..rng.range(0, 7))
        .map(|_| match rng.range(0, 5) {
            0 | 1 => Op::Compute(rng.range(1, 90)),
            2 => Op::LocalMem {
                write: rng.one_in(2),
                bytes: rng.range(1, 300),
            },
            3 => {
                let bytes = rng.range(1, 64);
                Op::Send {
                    dst: NodeId(rng.range(0, 8) as usize),
                    bytes,
                    data: vec![7; (bytes % 5) as usize],
                    tag: bytes,
                }
            }
            _ => {
                let bytes = rng.range(1, 64);
                Op::Call {
                    dst: NodeId(rng.range(0, 8) as usize),
                    bytes,
                    reply_bytes: bytes * 2,
                    data: vec![9; (bytes % 3) as usize],
                }
            }
        })
        .collect::<Vec<_>>();
    let domain = if rng.one_in(2) {
        KernelDomain::PacketHeader
    } else {
        KernelDomain::Generic
    };
    Program::new(ops, domain)
}

fn hash_request(h: &mut Fnv, tid: ThreadId, req: &PeRequest) {
    h.word(tid.0 as u64);
    match req {
        PeRequest::Send {
            dst,
            bytes,
            data,
            tag,
        } => {
            for v in [0, dst.0 as u64, *bytes, *tag, data.len() as u64] {
                h.word(v);
            }
            h.bytes(data);
        }
        PeRequest::Call {
            dst,
            bytes,
            reply_bytes,
            data,
        } => {
            for v in [1, dst.0 as u64, *bytes, *reply_bytes, data.len() as u64] {
                h.word(v);
            }
            h.bytes(data);
        }
    }
}

/// Which arms a schedule reached, so the coverage test can say so.
#[derive(Debug, Default)]
struct Reach {
    highest_context: usize,
    refused_spawns: u64,
    crashes_with_buffers: u64,
    restarts_of_a_crashed_pe: u64,
    completions: u64,
    cycles_slept: u64,
    /// Spawns into a PE left unticked and unsettled since before last cycle.
    spawns_over_a_gap: u64,
}

fn run(s: u64) -> (u64, Reach) {
    let (cfg, drive, spawns_per_8_cycles) = case(s);
    let mut reach = Reach::default();
    let n = cfg.n_threads;
    let mut rng = Rng(0x0DAC_2003_5EED_0024 ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut pe = Pe::new(cfg);
    pe.set_retire_log(true);
    let mut h = Fnv::new();
    // Completions in flight: (due cycle, thread).
    let mut completions: Vec<(u64, ThreadId)> = Vec::new();
    let mut wake = 0u64;
    // Exclusive end of the last tick or settle.
    let mut caught_up_to = 0u64;
    for c in 0..HORIZON {
        let now = Cycles(c);
        let mut woken = false;
        for _ in 0..2 {
            if rng.range(0, 16) >= spawns_per_8_cycles {
                continue;
            }
            if drive != Drive::LazyUnsettled {
                pe.settle_accounting(now);
                caught_up_to = c;
            }
            match pe.spawn(program(&mut rng)) {
                Ok(tid) => {
                    reach.spawns_over_a_gap += u64::from(caught_up_to < c);
                    reach.highest_context = reach.highest_context.max(tid.0);
                    h.word(tid.0 as u64);
                }
                Err(_) => {
                    reach.refused_spawns += 1;
                    h.word(u64::MAX);
                }
            }
            woken = true;
        }
        if rng.one_in(200) {
            let harvested = pe.crash(now);
            caught_up_to = c;
            reach.crashes_with_buffers += u64::from(!harvested.is_empty());
            h.word(harvested.len() as u64);
            for buf in &harvested {
                h.word(buf.len() as u64);
                h.bytes(buf);
            }
            woken = true;
        }
        if rng.one_in(50) {
            reach.restarts_of_a_crashed_pe += u64::from(pe.is_crashed());
            pe.restart(now);
            woken = true;
        }
        if rng.one_in(40) {
            // A mid-run report: catch the sleeping PE up and read it.
            pe.settle_accounting(now);
            caught_up_to = c;
            h.stats(&pe.stats());
        }
        completions.retain(|&(due, tid)| {
            if due != c {
                return true;
            }
            // A crash in between killed the waiting thread: the reply is
            // discarded, as the platform's fault path does.
            if pe.is_awaiting(tid) {
                pe.complete(tid);
                reach.completions += 1;
                woken = true;
            }
            false
        });
        if woken {
            wake = wake.min(c);
        }
        let ticked = drive == Drive::Dense || wake <= c;
        if ticked {
            pe.tick(now);
            caught_up_to = c + 1;
        } else {
            reach.cycles_slept += 1;
        }
        h.word(c);
        while let Some((tid, req)) = pe.pop_request() {
            hash_request(&mut h, tid, &req);
            completions.push((c + 1 + rng.range(0, 120), tid));
        }
        if ticked {
            for tid in pe.take_retired() {
                h.word(tid.0 as u64);
            }
            for t in 0..n {
                let tid = ThreadId(t);
                h.bytes(&[u8::from(pe.thread_is_idle(tid)) | u8::from(pe.is_awaiting(tid)) << 1]);
            }
            h.word(pe.idle_threads() as u64);
            h.word(pe.tasks_completed());
            h.word(u64::from(pe.is_live()));
            let span = pe.quiet_span(Cycles(c + 1));
            h.word(span.map_or(0, |k| k.saturating_add(1)));
            wake = (c + 1).saturating_add(span.unwrap_or(0));
        }
    }
    pe.settle_accounting(Cycles(HORIZON));
    h.stats(&pe.stats());
    (h.0, reach)
}

/// `(schedule, digest)` recorded at 3ed2340.
const GOLDEN: [(u64, u64); 52] = [
    (0, 0x840871066573fdd0),
    (1, 0xa3a242aa76299653),
    (2, 0x73404c6b3236b630),
    (3, 0x15975069690d475d),
    (4, 0xdd013005d12a8b2a),
    (5, 0x87d46bea2c268523),
    (6, 0x3bdf3ca7a6cd6a3f),
    (7, 0xe8d22dd4cad9bfb1),
    (8, 0x6f4d900a226ee5da),
    (9, 0xc42d1f3461d667a5),
    (10, 0x3d14080c7b42876c),
    (11, 0xb8899b6887558bd0),
    (12, 0x0e3a6ea4b5400d46),
    (13, 0xb609278192797368),
    (14, 0x955e2c3c455537be),
    (15, 0x32bd4ed0c64354c1),
    (16, 0x80479202e5ad557a),
    (17, 0x5b12a7bc46bb4428),
    (18, 0x7bb874b1b1ff0725),
    (19, 0xba838b4f8ee079cc),
    (20, 0x9fe2351fed70b3b1),
    (21, 0x6f7bced641f14e42),
    (22, 0x446c17e2b59d31b4),
    (23, 0x344ed337a0bcbf7a),
    (24, 0xe024e6033ea5f73a),
    (25, 0xdab5849e38436779),
    (26, 0x8335aee393dbf24d),
    (27, 0x0506134cb82b0e65),
    (28, 0x4dcddd2a70aa7469),
    (29, 0x64599bc31b88bd1c),
    (30, 0xb18cdc5986d9131e),
    (31, 0x7bab8fea9179ad89),
    (32, 0xc322d6885e1635b9),
    (33, 0xb117e4a6c6ad5f8e),
    (34, 0x10505d5f928e2ca4),
    (35, 0x7f7050524b5c66a2),
    (36, 0x41f122b2a20b3e04),
    (37, 0x510b58ff93542cc2),
    (38, 0x83816bb33f18d010),
    (39, 0x6667a6f3b7ced3d0),
    (40, 0x228fe7b22ae627d4),
    (41, 0x53fb6ff4ea56e79f),
    (42, 0x325f5a4b0e19f47a),
    (43, 0x1a505fd6536b00f1),
    (44, 0xc8834e742bfbeee6),
    (45, 0xcc50ef58ab4cd602),
    (46, 0xb80654f8b46e588d),
    (47, 0x40b914f06790b3ea),
    (48, 0xfed35dde64f4eb5f),
    (49, 0x754a2f4b05922a8c),
    (50, 0xd8b0536df1a87628),
    (51, 0xea2ecc2d143d8bc4),
];

#[test]
fn schedules_match_the_recorded_digests() {
    let now: Vec<(u64, u64)> = GOLDEN.iter().map(|&(s, _)| (s, run(s).0)).collect();
    let table: String = now
        .iter()
        .map(|(s, d)| format!("    ({s}, {d:#018x}),\n"))
        .collect();
    assert!(
        now == GOLDEN,
        "the PE left the recorded schedules; the table reads now:\n{table}"
    );
}

/// The digests would pin little if the schedules never reached the arms
/// they are there for.
#[test]
fn schedules_reach_what_they_claim() {
    let cases: Vec<_> = GOLDEN.iter().map(|&(s, _)| case(s)).collect();
    for drive in [Drive::Dense, Drive::Lazy, Drive::LazyUnsettled] {
        for policy in [SchedPolicy::SwitchOnStall, SchedPolicy::RoundRobin] {
            for swap in 0..4 {
                assert!(
                    cases.iter().any(|(cfg, d, _)| *d == drive
                        && cfg.policy == policy
                        && cfg.swap_penalty == swap),
                    "{drive:?} {policy:?} swap {swap}"
                );
            }
        }
    }
    for n in (1..=16).chain([64]) {
        assert!(cases.iter().any(|(cfg, _, _)| cfg.n_threads == n), "{n}");
    }
    let mut total = Reach::default();
    for &(s, _) in &GOLDEN {
        let (cfg, drive, _) = case(s);
        let reach = run(s).1;
        assert!(reach.completions > 0, "schedule {s}: {reach:?}");
        assert_eq!(
            reach.cycles_slept > 0,
            drive != Drive::Dense,
            "schedule {s}"
        );
        assert_eq!(
            reach.spawns_over_a_gap > 0,
            drive == Drive::LazyUnsettled,
            "schedule {s}: {reach:?}"
        );
        if cfg.n_threads == 64 {
            assert_eq!(reach.highest_context, 63, "schedule {s}");
        }
        total.refused_spawns += reach.refused_spawns;
        total.crashes_with_buffers += reach.crashes_with_buffers;
        total.restarts_of_a_crashed_pe += reach.restarts_of_a_crashed_pe;
    }
    assert!(total.refused_spawns > 0, "{total:?}");
    assert!(total.crashes_with_buffers > 8, "{total:?}");
    assert!(total.restarts_of_a_crashed_pe > 8, "{total:?}");
}
