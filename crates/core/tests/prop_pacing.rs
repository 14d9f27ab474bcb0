//! Property tests for the exact integer line-rate pacer.
//!
//! The active-set scheduler advances an [`IoChannel`] over a quiet span in
//! one jump and bounds the span by the channel's next arrival; the dense
//! scheduler ticks it every cycle. These properties pin what makes the two
//! agree to the last bit: `advance(k)` leaves **exactly** the state `k`
//! ticks leave (full `Debug` state: credit, FIFO contents, sequence
//! numbers, counters), `ticks_to_next_rx` names the first emitting tick,
//! and no remainder is ever lost however long the run — over random rates
//! (0, below one bit per cycle, several packets per cycle), clocks, packet
//! sizes and FIFO depths, with `take_rx` interleaved.

use nanowall::prelude::{Cycles, IoChannel, IoChannelConfig};
use nw_types::{BitsPerSec, Bytes};
use proptest::prelude::*;

/// Clocks whose ratio to round line rates is awkward (N130's 548.8 MHz),
/// plus a fractional one that the pacer rounds to whole Hz.
const CLOCKS: [f64; 5] = [500e6, 548.8e6, 1e9, 333_333_333.4, 7.0];

#[derive(Debug, Clone, Copy)]
struct Shape {
    clock_hz: f64,
    packet_bytes: u64,
    rx_fifo: usize,
}

impl Shape {
    /// The line rate that delivers `packets_per_cycle`.
    fn rate(&self, packets_per_cycle: f64) -> BitsPerSec {
        BitsPerSec(packets_per_cycle * (self.packet_bytes * 8) as f64 * self.clock_hz)
    }

    fn channel(&self, rate: BitsPerSec) -> IoChannel {
        let cfg = IoChannelConfig {
            rate,
            packet_bytes: Bytes(self.packet_bytes),
            rx_fifo: self.rx_fifo,
        };
        IoChannel::new(cfg, self.clock_hz).expect("generated shapes are valid")
    }

    /// The pacer's integer operands, recomputed independently.
    fn credit_per_cycle_and_cost(&self, rate: BitsPerSec) -> (u128, u128) {
        let cost = u128::from(self.packet_bytes * 8) * self.clock_hz.round() as u128;
        (rate.0.round() as u128, cost)
    }
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (0usize..CLOCKS.len(), 1u64..1600, 0usize..40).prop_map(|(clock, packet_bytes, rx_fifo)| {
        Shape {
            clock_hz: CLOCKS[clock],
            packet_bytes,
            rx_fifo,
        }
    })
}

/// Packets per cycle: idle, below one bit per cycle, the usual fraction of
/// a packet, and several packets every cycle.
fn load_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        (0.0..1.0f64).prop_map(|x| x / 13_000.0),
        0.001..1.0f64,
        0.001..1.0f64,
        1.0..6.0f64,
    ]
}

#[derive(Debug, Clone)]
enum Step {
    Span(u64),
    TakeRx(usize),
}

fn steps_strategy() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        (1u64..400).prop_map(Step::Span),
        (1u64..400).prop_map(Step::Span),
        (1u64..3_000).prop_map(Step::Span),
        (0usize..50).prop_map(Step::TakeRx),
    ];
    prop::collection::vec(step, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_jump_leaves_the_state_of_single_ticks(
        shape in shape_strategy(),
        first_load in load_strategy(),
        steps in steps_strategy(),
        burst_load in 1.0..4.0f64,
    ) {
        // Every case ends on a second pair at a burst load, whose span emits
        // at least two packets and overruns the FIFO, so neither path of
        // `advance` goes untested.
        let first = shape.channel(shape.rate(first_load));
        let burst = shape.channel(shape.rate(burst_load));
        let forced = [Step::Span(shape.rx_fifo as u64 + 3)];
        let (mut emitted_two_in_a_span, mut overflowed_in_a_span) = (false, false);
        for (mut ticked, steps) in [(first, &steps[..]), (burst, &forced[..])] {
            let mut jumped = ticked.clone();
            let mut now = 0u64;
            for step in steps {
                match *step {
                    Step::Span(k) => {
                        let (generated, dropped) = (jumped.generated(), jumped.dropped());
                        for _ in 0..k {
                            ticked.tick(Cycles(now));
                            now += 1;
                        }
                        jumped.advance(k);
                        emitted_two_in_a_span |= jumped.generated() - generated >= 2;
                        overflowed_in_a_span |= jumped.dropped() > dropped;
                    }
                    Step::TakeRx(n) => {
                        for _ in 0..n {
                            prop_assert_eq!(ticked.take_rx(), jumped.take_rx());
                        }
                    }
                }
                prop_assert_eq!(format!("{ticked:?}"), format!("{jumped:?}"));
            }
        }
        prop_assert!(emitted_two_in_a_span, "no span emitted two packets");
        prop_assert!(overflowed_in_a_span, "no span overflowed the FIFO");
    }

    #[test]
    fn ticks_to_next_rx_is_the_first_emitting_tick(
        shape in shape_strategy(),
        load in load_strategy(),
        warm in 0u64..5_000,
    ) {
        let mut ch = shape.channel(shape.rate(load));
        ch.advance(warm);
        let n = ch.ticks_to_next_rx();
        let before = ch.generated();
        if n == u64::MAX {
            prop_assert_eq!(ch.config().rate.0.round(), 0.0, "only a dead wire never delivers");
            ch.advance(1 << 40);
            prop_assert_eq!(ch.generated(), before);
        } else {
            prop_assert!(n >= 1);
            // Tick by tick where that is affordable, in one jump otherwise.
            if n <= 20_000 {
                for c in 0..n - 1 {
                    ch.tick(Cycles(c));
                    prop_assert_eq!(ch.generated(), before, "tick {} of {} emitted", c + 1, n);
                }
            } else {
                ch.advance(n - 1);
                prop_assert_eq!(ch.generated(), before);
            }
            prop_assert_eq!(ch.ticks_to_next_rx(), 1);
            ch.tick(Cycles(n - 1));
            prop_assert!(ch.generated() > before, "tick {} did not emit", n);
        }
    }

    #[test]
    fn a_trillion_cycles_in_hops_lose_no_remainder(
        shape in shape_strategy(),
        load in load_strategy(),
        hops in prop::collection::vec((1u64..1 << 37, 0usize..60), 24..40),
    ) {
        let rate = shape.rate(load);
        let (per_cycle, cost) = shape.credit_per_cycle_and_cost(rate);
        let mut ch = shape.channel(rate);
        let mut cycles = 0u128;
        // Random hops, then equal ones until the soak is long enough.
        let filler = std::iter::repeat((1u64 << 36, 1usize));
        for (k, drain) in hops.into_iter().chain(filler) {
            if cycles >= 1_000_000_000_000 {
                break;
            }
            ch.advance(k);
            cycles += u128::from(k);
            for _ in 0..drain {
                ch.take_rx();
            }
            prop_assert_eq!(u128::from(ch.generated()), cycles * per_cycle / cost);
        }
        prop_assert!(cycles >= 1_000_000_000_000);
    }
}
