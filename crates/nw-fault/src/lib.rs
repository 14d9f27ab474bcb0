//! Deterministic fault campaigns for the nanowall platform.
//!
//! A [`FaultCampaign`] is a pre-generated, cycle-sorted timeline of fault
//! events — transient and permanent link faults, router stalls, packet
//! drop/corruption, and PE crash/restart pairs — produced as a **pure
//! function** of `(seed, horizon, rates, shape)`. Nothing here reads
//! wall-clock time or OS entropy: the only randomness source is the
//! vendored seeded xoshiro generator, so the same inputs always yield the
//! same timeline, which is what makes fault runs bit-identical across
//! scheduler modes and across repeats.
//!
//! The campaign itself is platform-agnostic plain data. `core::platform`
//! drains due events each cycle and applies them through explicit hooks in
//! the NoC engine and the PE array; [`FaultCampaign::next_cycle`] feeds the
//! scheduler fast-forward paths so a quiet span never skips over a pending
//! fault.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled fault, applied at a specific cycle.
///
/// Targets are raw indices into the fabric (router, output-port position,
/// endpoint, PE); the platform validates them against its own shape when
/// applying. "Next"-style events (drop/corrupt) bind to whatever the
/// target's head-of-line traffic is at the scheduled cycle — both
/// scheduler modes hold bit-identical state at cycle boundaries, so the
/// selection is still deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Take link `port` of `router` down. `until: Some(c)` restores it at
    /// cycle `c` (transient glitch); `None` is a permanent hard fault that
    /// triggers degraded-mode rerouting.
    LinkDown {
        router: usize,
        port: usize,
        until: Option<u64>,
    },
    /// Stall every output of `router` (control-plane hiccup) until `until`.
    RouterStall { router: usize, until: u64 },
    /// Drop the head-of-line packet queued at `router`, if any.
    DropNext { router: usize },
    /// Flip bits in the head-of-line packet awaiting injection at endpoint
    /// `node`, if any (surfaces downstream as a DSOC decode error).
    CorruptNext { node: usize },
    /// Crash PE `pe`: kill all threads, harvest owned buffers.
    PeCrash { pe: usize },
    /// Restart a previously crashed PE with cold (idle) threads.
    PeRestart { pe: usize },
}

/// A fault bound to its injection cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    pub cycle: u64,
    pub kind: FaultKind,
}

/// Expected fault intensities for campaign generation.
///
/// Rate fields are expected event counts per 100 000 cycles; count fields
/// are absolute totals over the whole horizon. The fractional part of an
/// expected count is resolved by one seeded Bernoulli draw, so intensity
/// scales smoothly with the horizon while staying deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRates {
    /// Transient link glitches per 100k cycles.
    pub transient_link_per_100k: f64,
    /// Duration range (cycles, inclusive) of a transient link glitch.
    pub transient_len: (u64, u64),
    /// Whole-router stalls per 100k cycles.
    pub router_stall_per_100k: f64,
    /// Duration range (cycles, inclusive) of a router stall.
    pub stall_len: (u64, u64),
    /// Head-of-line packet drops per 100k cycles.
    pub drop_per_100k: f64,
    /// Payload corruptions per 100k cycles.
    pub corrupt_per_100k: f64,
    /// Permanent link kills over the whole horizon.
    pub permanent_links: u32,
    /// PE crash/restart pairs over the whole horizon.
    pub pe_crashes: u32,
    /// Downtime range (cycles, inclusive) between a crash and its restart.
    pub pe_downtime: (u64, u64),
}

impl FaultRates {
    /// No faults at all: `generate` yields an empty timeline.
    pub fn quiet() -> Self {
        FaultRates {
            transient_link_per_100k: 0.0,
            transient_len: (0, 0),
            router_stall_per_100k: 0.0,
            stall_len: (0, 0),
            drop_per_100k: 0.0,
            corrupt_per_100k: 0.0,
            permanent_links: 0,
            pe_crashes: 0,
            pe_downtime: (0, 0),
        }
    }

    /// Reference intensity: the baseline mix used by `expt parity` and the
    /// t12 resilience grid, scaled by `level` (0.0 = quiet, 1.0 = the
    /// nominal "unreliable fabric" operating point, >1.0 = harsher).
    ///
    /// Permanent-link and crash counts step in at higher levels so low
    /// levels probe transient behavior only.
    pub fn scaled(level: f64) -> Self {
        assert!(level >= 0.0, "fault level must be non-negative");
        FaultRates {
            transient_link_per_100k: 4.0 * level,
            transient_len: (20, 200),
            router_stall_per_100k: 1.0 * level,
            stall_len: (50, 400),
            drop_per_100k: 2.0 * level,
            corrupt_per_100k: 1.0 * level,
            permanent_links: if level >= 1.0 { level as u32 } else { 0 },
            pe_crashes: if level >= 1.0 { level as u32 } else { 0 },
            pe_downtime: (2_000, 10_000),
        }
    }

    fn is_quiet(&self) -> bool {
        self.transient_link_per_100k == 0.0
            && self.router_stall_per_100k == 0.0
            && self.drop_per_100k == 0.0
            && self.corrupt_per_100k == 0.0
            && self.permanent_links == 0
            && self.pe_crashes == 0
    }
}

/// The minimal fabric description campaign generation needs to aim faults
/// at valid targets. Plain data so `nw-fault` depends on nothing but the
/// vendored RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricShape {
    /// Number of processing elements (crash/restart targets).
    pub n_pes: usize,
    /// Output-port count per router, indexed by router id. Routers with
    /// zero ports are never chosen as link-fault targets.
    pub router_ports: Vec<usize>,
    /// Number of NoC endpoints (corruption targets).
    pub n_endpoints: usize,
}

/// A seeded, cycle-sorted fault timeline with a drain cursor.
///
/// Generation is a pure function of its inputs (see module docs); the
/// cursor is the only mutable state, advanced by [`take_due`].
///
/// [`take_due`]: FaultCampaign::take_due
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaign {
    seed: u64,
    horizon: u64,
    rates: FaultRates,
    shape: FabricShape,
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultCampaign {
    /// Generate the full timeline for `horizon` cycles.
    ///
    /// Events land on cycles `1..horizon`. Per category the event count is
    /// `floor(rate * horizon / 100k)` plus one Bernoulli draw on the
    /// fractional part; cycles and targets are then drawn uniformly. The
    /// final timeline is sorted by `(cycle, generation order)` so draining
    /// order is total and stable.
    pub fn generate(seed: u64, horizon: u64, rates: &FaultRates, shape: &FabricShape) -> Self {
        let mut events: Vec<FaultEvent> = Vec::new();
        if horizon >= 2 && !rates.is_quiet() {
            let mut rng = StdRng::seed_from_u64(seed);
            let linky: Vec<usize> = (0..shape.router_ports.len())
                .filter(|&r| shape.router_ports[r] > 0)
                .collect();

            let n_transient = draw_count(&mut rng, rates.transient_link_per_100k, horizon);
            for _ in 0..n_transient {
                if linky.is_empty() {
                    break;
                }
                let cycle = rng.gen_range(1..horizon);
                let router = linky[rng.gen_range(0..linky.len())];
                let port = rng.gen_range(0..shape.router_ports[router]);
                let len = range_draw(&mut rng, rates.transient_len).max(1);
                events.push(FaultEvent {
                    cycle,
                    kind: FaultKind::LinkDown {
                        router,
                        port,
                        until: Some(cycle + len),
                    },
                });
            }

            let n_stall = draw_count(&mut rng, rates.router_stall_per_100k, horizon);
            for _ in 0..n_stall {
                if linky.is_empty() {
                    break;
                }
                let cycle = rng.gen_range(1..horizon);
                let router = linky[rng.gen_range(0..linky.len())];
                let len = range_draw(&mut rng, rates.stall_len).max(1);
                events.push(FaultEvent {
                    cycle,
                    kind: FaultKind::RouterStall {
                        router,
                        until: cycle + len,
                    },
                });
            }

            let n_drop = draw_count(&mut rng, rates.drop_per_100k, horizon);
            for _ in 0..n_drop {
                if linky.is_empty() {
                    break;
                }
                let cycle = rng.gen_range(1..horizon);
                let router = linky[rng.gen_range(0..linky.len())];
                events.push(FaultEvent {
                    cycle,
                    kind: FaultKind::DropNext { router },
                });
            }

            let n_corrupt = draw_count(&mut rng, rates.corrupt_per_100k, horizon);
            for _ in 0..n_corrupt {
                if shape.n_endpoints == 0 {
                    break;
                }
                let cycle = rng.gen_range(1..horizon);
                let node = rng.gen_range(0..shape.n_endpoints);
                events.push(FaultEvent {
                    cycle,
                    kind: FaultKind::CorruptNext { node },
                });
            }

            for _ in 0..rates.permanent_links {
                if linky.is_empty() {
                    break;
                }
                let cycle = rng.gen_range(1..horizon);
                let router = linky[rng.gen_range(0..linky.len())];
                let port = rng.gen_range(0..shape.router_ports[router]);
                events.push(FaultEvent {
                    cycle,
                    kind: FaultKind::LinkDown {
                        router,
                        port,
                        until: None,
                    },
                });
            }

            for _ in 0..rates.pe_crashes {
                if shape.n_pes == 0 {
                    break;
                }
                let cycle = rng.gen_range(1..horizon);
                let pe = rng.gen_range(0..shape.n_pes);
                let downtime = range_draw(&mut rng, rates.pe_downtime).max(1);
                events.push(FaultEvent {
                    cycle,
                    kind: FaultKind::PeCrash { pe },
                });
                let restart = cycle + downtime;
                if restart < horizon {
                    events.push(FaultEvent {
                        cycle: restart,
                        kind: FaultKind::PeRestart { pe },
                    });
                }
            }
        }

        // Stable sort keeps generation order as the tie-break, making the
        // drain order a pure function of the inputs.
        events.sort_by_key(|e| e.cycle);
        FaultCampaign {
            seed,
            horizon,
            rates: rates.clone(),
            shape: shape.clone(),
            events,
            cursor: 0,
        }
    }

    /// An empty campaign (no events, any horizon).
    pub fn empty(seed: u64) -> Self {
        FaultCampaign {
            seed,
            horizon: 0,
            rates: FaultRates::quiet(),
            shape: FabricShape {
                n_pes: 0,
                router_ports: Vec::new(),
                n_endpoints: 0,
            },
            events: Vec::new(),
            cursor: 0,
        }
    }

    /// The seed the timeline was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generation horizon in cycles.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The full timeline, independent of the drain cursor.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Cycle of the earliest undrained event — the value the scheduler
    /// fast-forward paths fold into their next-event computation.
    pub fn next_cycle(&self) -> Option<u64> {
        self.events.get(self.cursor).map(|e| e.cycle)
    }

    /// Drain and return every event scheduled at or before `now`.
    pub fn take_due(&mut self, now: u64) -> &[FaultEvent] {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].cycle <= now {
            self.cursor += 1;
        }
        &self.events[start..self.cursor]
    }

    /// Undrained events remaining.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Rewind the drain cursor to replay the same timeline.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// Advance the drain cursor to the first event at or after `cycle`
    /// without applying anything. On a campaign whose events up to
    /// `cycle - 1` have been drained by [`take_due`], this is a no-op —
    /// which is exactly what makes a same-seed [`reseed`] at a snapshot
    /// boundary continue the original timeline bit-identically.
    ///
    /// [`take_due`]: FaultCampaign::take_due
    /// [`reseed`]: FaultCampaign::reseed
    pub fn skip_until(&mut self, cycle: u64) {
        self.cursor = self.events.partition_point(|e| e.cycle < cycle);
    }

    /// Regenerates the timeline from `seed` over the original horizon,
    /// rates and shape, then skips every event before `from_cycle`. A
    /// forked measurement replica calls this at the fork point: its
    /// already-applied fault history (shared with the parent) stays as
    /// platform state, while the undrained future is redrawn from the new
    /// seed. Reseeding with the original seed reproduces the original
    /// future exactly.
    pub fn reseed(&mut self, seed: u64, from_cycle: u64) {
        *self = FaultCampaign::generate(seed, self.horizon, &self.rates, &self.shape);
        self.skip_until(from_cycle);
    }
}

/// Expected-count draw: floor of the expectation plus one Bernoulli trial
/// on the fractional remainder.
fn draw_count(rng: &mut StdRng, per_100k: f64, horizon: u64) -> u64 {
    if per_100k <= 0.0 {
        return 0;
    }
    let expected = per_100k * horizon as f64 / 100_000.0;
    let base = expected.floor();
    let frac = expected - base;
    base as u64 + u64::from(frac > 0.0 && rng.gen_bool(frac))
}

/// Uniform draw from an inclusive `(lo, hi)` pair; degenerate pairs return
/// `lo` without consuming entropy asymmetrically.
fn range_draw(rng: &mut StdRng, (lo, hi): (u64, u64)) -> u64 {
    if hi <= lo {
        lo
    } else {
        rng.gen_range(lo..=hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> FabricShape {
        FabricShape {
            n_pes: 8,
            router_ports: vec![3, 4, 4, 3, 2, 0],
            n_endpoints: 12,
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let rates = FaultRates::scaled(2.0);
        let a = FaultCampaign::generate(77, 200_000, &rates, &shape());
        let b = FaultCampaign::generate(77, 200_000, &rates, &shape());
        assert_eq!(a, b);
        let c = FaultCampaign::generate(78, 200_000, &rates, &shape());
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn timeline_is_sorted_and_in_horizon() {
        let rates = FaultRates::scaled(3.0);
        let c = FaultCampaign::generate(5, 150_000, &rates, &shape());
        assert!(!c.events().is_empty());
        let mut last = 0;
        for e in c.events() {
            assert!(e.cycle >= last, "timeline must be cycle-sorted");
            assert!(e.cycle >= 1);
            last = e.cycle;
        }
    }

    #[test]
    fn targets_are_valid_for_shape() {
        let s = shape();
        let rates = FaultRates::scaled(4.0);
        let c = FaultCampaign::generate(9, 300_000, &rates, &s);
        for e in c.events() {
            match e.kind {
                FaultKind::LinkDown { router, port, .. } => {
                    assert!(port < s.router_ports[router]);
                }
                FaultKind::RouterStall { router, .. } | FaultKind::DropNext { router } => {
                    assert!(s.router_ports[router] > 0);
                }
                FaultKind::CorruptNext { node } => assert!(node < s.n_endpoints),
                FaultKind::PeCrash { pe } | FaultKind::PeRestart { pe } => assert!(pe < s.n_pes),
            }
        }
    }

    #[test]
    fn quiet_rates_yield_empty_timeline() {
        let c = FaultCampaign::generate(1, 1_000_000, &FaultRates::quiet(), &shape());
        assert!(c.events().is_empty());
        assert_eq!(c.next_cycle(), None);
        assert!(FaultRates::scaled(0.0).is_quiet());
        let z = FaultCampaign::generate(1, 1_000_000, &FaultRates::scaled(0.0), &shape());
        assert!(z.events().is_empty());
    }

    #[test]
    fn take_due_drains_in_order() {
        let rates = FaultRates::scaled(2.0);
        let mut c = FaultCampaign::generate(42, 100_000, &rates, &shape());
        let total = c.events().len();
        assert!(total > 0);
        let mut drained = 0;
        let mut now = 0;
        while let Some(next) = c.next_cycle() {
            assert!(next > now);
            now = next;
            let due = c.take_due(now);
            assert!(!due.is_empty());
            assert!(due.iter().all(|e| e.cycle == now || e.cycle <= now));
            drained += due.len();
        }
        assert_eq!(drained, total);
        assert_eq!(c.remaining(), 0);
        c.reset();
        assert_eq!(c.remaining(), total);
    }

    #[test]
    fn skip_until_matches_a_take_due_drain() {
        let rates = FaultRates::scaled(2.0);
        let mut drained = FaultCampaign::generate(21, 120_000, &rates, &shape());
        let mut skipped = drained.clone();
        let boundary = 60_000;
        let _ = drained.take_due(boundary - 1);
        skipped.skip_until(boundary);
        assert_eq!(drained, skipped);
        assert_eq!(drained.next_cycle(), skipped.next_cycle());
    }

    #[test]
    fn same_seed_reseed_is_a_no_op_at_the_drain_boundary() {
        let rates = FaultRates::scaled(2.0);
        let mut c = FaultCampaign::generate(33, 120_000, &rates, &shape());
        let _ = c.take_due(49_999);
        let reference = c.clone();
        c.reseed(33, 50_000);
        assert_eq!(c, reference);
    }

    #[test]
    fn reseed_redraws_the_future_only() {
        let rates = FaultRates::scaled(2.0);
        let mut c = FaultCampaign::generate(33, 120_000, &rates, &shape());
        let _ = c.take_due(49_999);
        let before = c.clone();
        c.reseed(34, 50_000);
        assert_ne!(c.events(), before.events());
        assert_eq!(c.seed(), 34);
        assert_eq!(c.horizon(), before.horizon());
        // Every undrained event sits at or after the fork point.
        assert!(c
            .events()
            .iter()
            .skip(c.events().len() - c.remaining())
            .all(|e| e.cycle >= 50_000));
    }

    #[test]
    fn crash_restart_pairs_are_ordered() {
        let mut rates = FaultRates::quiet();
        rates.pe_crashes = 5;
        rates.pe_downtime = (100, 500);
        let c = FaultCampaign::generate(3, 50_000, &rates, &shape());
        let crashes: Vec<_> = c
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::PeCrash { .. }))
            .collect();
        assert_eq!(crashes.len(), 5);
        // Every restart follows some crash of the same PE.
        for e in c.events() {
            if let FaultKind::PeRestart { pe } = e.kind {
                assert!(c.events().iter().any(|c2| {
                    matches!(c2.kind, FaultKind::PeCrash { pe: p } if p == pe) && c2.cycle < e.cycle
                }));
            }
        }
    }
}
