//! Line-rate-paced I/O channels.
//!
//! An [`IoChannel`] models a standardized network interface (SPI-4-class
//! for the paper's 10 Gb/s NPU scenario): a receive side that produces
//! packet descriptors at exactly the configured line rate, and a transmit
//! side that absorbs and counts them. Worst-case traffic is minimum-size
//! packets back to back — at 10 Gb/s and 40-byte packets that is 31.25 Mpps,
//! the load of claim C7.
//!
//! Pacing is exact integer arithmetic ([`nw_sim::Pacer`]) in the unit
//! bit·Hz: one core cycle adds the line rate rounded to whole bit/s, one
//! packet costs `packet bits × clock` rounded to whole Hz. Advancing `k`
//! cycles in one jump ([`IoChannel::advance`]) therefore equals `k` single
//! ticks to the last bit, and the next arrival has a closed form
//! ([`IoChannel::ticks_to_next_rx`]).

use nw_sim::{Clocked, Counter, Pacer};
use nw_types::{BitsPerSec, Bytes, Cycles};
use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroU64;

/// Configuration of a line-rate channel.
#[derive(Debug, Clone, Copy)]
pub struct IoChannelConfig {
    /// Line rate.
    pub rate: BitsPerSec,
    /// Core clock frequency (converts the line rate to bits per cycle).
    pub clock_hz: f64,
    /// Size of each generated packet.
    pub packet_bytes: Bytes,
    /// Receive FIFO depth in packets (packets arriving into a full FIFO are
    /// dropped and counted — line interfaces cannot back-pressure the wire).
    pub rx_fifo: usize,
}

impl IoChannelConfig {
    /// A 10 Gb/s worst-case channel: 40-byte packets at a 500 MHz core.
    pub fn ten_gbe_worst_case() -> Self {
        IoChannelConfig {
            rate: BitsPerSec::from_gbps(10.0),
            clock_hz: 500e6,
            packet_bytes: Bytes(40),
            rx_fifo: 128,
        }
    }

    /// Bits arriving per core cycle.
    pub fn bits_per_cycle(&self) -> f64 {
        self.rate.0 / self.clock_hz
    }

    /// Packets arriving per core cycle.
    pub fn packets_per_cycle(&self) -> f64 {
        self.bits_per_cycle() / self.packet_bytes.bits() as f64
    }
}

/// Why an [`IoChannelConfig`] (or a retuned rate) cannot be paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IoConfigError {
    /// `packet_bytes` is zero: every cycle would owe infinitely many packets.
    ZeroPacket,
    /// The core clock is not a finite frequency of at least half a hertz.
    Clock(f64),
    /// The line rate is negative, not finite, or beyond `u64` bit/s.
    Rate(f64),
    /// `packet bits × clock` does not fit the 64-bit credit word.
    CostOverflow,
}

impl fmt::Display for IoConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoConfigError::ZeroPacket => write!(f, "packet size is zero"),
            IoConfigError::Clock(hz) => write!(f, "clock {hz} Hz is not a positive frequency"),
            IoConfigError::Rate(r) => write!(f, "line rate {r} bit/s is not a non-negative rate"),
            IoConfigError::CostOverflow => write!(f, "packet bits x clock overflows 64 bits"),
        }
    }
}

impl std::error::Error for IoConfigError {}

/// The line rate as pacing credit per cycle: whole bit/s.
fn rate_credit(rate: BitsPerSec) -> Result<u64, IoConfigError> {
    Pacer::whole_credit(rate.0).ok_or(IoConfigError::Rate(rate.0))
}

/// One packet as pacing credit: packet bits × whole Hz.
fn packet_cost(cfg: &IoChannelConfig) -> Result<NonZeroU64, IoConfigError> {
    if cfg.packet_bytes.0 == 0 {
        return Err(IoConfigError::ZeroPacket);
    }
    let hz = Pacer::whole_credit(cfg.clock_hz)
        .filter(|&hz| hz > 0)
        .ok_or(IoConfigError::Clock(cfg.clock_hz))?;
    let cost = u128::from(cfg.packet_bytes.0) * 8 * u128::from(hz);
    u64::try_from(cost)
        .ok()
        .and_then(NonZeroU64::new)
        .ok_or(IoConfigError::CostOverflow)
}

/// A paced packet source (RX) and sink (TX) at one NoC node.
///
/// # Examples
///
/// ```
/// use nw_hwip::{IoChannel, IoChannelConfig};
/// use nw_sim::Clocked;
/// use nw_types::Cycles;
///
/// let mut ch = IoChannel::new(IoChannelConfig::ten_gbe_worst_case())?;
/// for c in 0..1000 { ch.tick(Cycles(c)); }
/// // 10 Gb/s at 500 MHz = 20 bits/cycle = 1 packet per 16 cycles.
/// let rx: Vec<u64> = std::iter::from_fn(|| ch.take_rx()).collect();
/// assert_eq!(rx.len(), 62); // 1000/16 = 62.5 → 62 whole packets
/// // The next packet completes 8 cycles on; jumping there is one step.
/// assert_eq!(ch.ticks_to_next_rx(), 8);
/// ch.advance(8);
/// assert_eq!(ch.take_rx(), Some(62));
/// # Ok::<(), nw_hwip::IoConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IoChannel {
    cfg: IoChannelConfig,
    pacer: Pacer,
    next_seq: u64,
    rx_fifo: VecDeque<u64>,
    generated: Counter,
    dropped: Counter,
    transmitted: Counter,
    tx_bytes: Counter,
}

impl IoChannel {
    /// Creates a channel.
    ///
    /// # Errors
    ///
    /// [`IoConfigError`] when the configuration cannot be paced: a zero
    /// packet size, a clock or rate that is not a usable number, or a
    /// per-packet cost beyond 64 bits.
    pub fn new(cfg: IoChannelConfig) -> Result<Self, IoConfigError> {
        Ok(IoChannel {
            pacer: Pacer::new(rate_credit(cfg.rate)?, packet_cost(&cfg)?),
            cfg,
            next_seq: 0,
            rx_fifo: VecDeque::new(),
            generated: Counter::new(),
            dropped: Counter::new(),
            transmitted: Counter::new(),
            tx_bytes: Counter::new(),
        })
    }

    /// The channel configuration.
    pub fn config(&self) -> &IoChannelConfig {
        &self.cfg
    }

    /// Retunes the line rate in place, keeping FIFO contents, sequence
    /// numbers, counters and the accumulated credit (bit·Hz, a unit that
    /// does not depend on the rate). This is the warm-fork hook: a forked
    /// replica inherits a warmed channel and only the pacing changes from
    /// the retune cycle onward, deterministically.
    ///
    /// # Errors
    ///
    /// [`IoConfigError::Rate`] for a negative or non-finite rate; the
    /// channel is left as it was.
    pub fn set_rate(&mut self, rate: BitsPerSec) -> Result<(), IoConfigError> {
        self.pacer.set_rate(rate_credit(rate)?);
        self.cfg.rate = rate;
        Ok(())
    }

    /// Takes the next received packet descriptor (its sequence number).
    pub fn take_rx(&mut self) -> Option<u64> {
        self.rx_fifo.pop_front()
    }

    /// Packets currently waiting in the RX FIFO.
    pub fn rx_backlog(&self) -> usize {
        self.rx_fifo.len()
    }

    /// How many ticks from now the wire delivers its next packet: the
    /// `n`-th coming [`IoChannel::tick`] is the first to emit, so
    /// `advance(n - 1)` emits nothing and `n == 1` means the coming cycle
    /// carries ingress traffic. `u64::MAX` at rate 0.
    #[inline]
    pub fn ticks_to_next_rx(&self) -> u64 {
        self.pacer.ticks_to_next()
    }

    /// Advances the wire by `k` cycles in one jump: exactly the state `k`
    /// calls of [`IoChannel::tick`] leave behind. The packets falling due
    /// arrive in sequence order; those past the FIFO's free room are
    /// dropped and counted, as they would be one by one.
    pub fn advance(&mut self, k: u64) {
        let n = self.pacer.advance(k);
        if n == 0 {
            return;
        }
        let room = self.cfg.rx_fifo.saturating_sub(self.rx_fifo.len()) as u64;
        let kept = n.min(room);
        self.rx_fifo.extend(self.next_seq..self.next_seq + kept);
        self.next_seq += n;
        self.generated.add(n);
        self.dropped.add(n - kept);
    }

    /// Accepts a packet for transmission (egress side is rate-unconstrained
    /// in this model; the bottleneck under study is processing).
    pub fn transmit(&mut self, bytes: Bytes) {
        self.transmitted.incr();
        self.tx_bytes.add(bytes.0);
    }

    /// Packets generated by the wire so far (including dropped ones).
    pub fn generated(&self) -> u64 {
        self.generated.count()
    }

    /// Packets dropped at the RX FIFO (processing fell behind line rate).
    pub fn dropped(&self) -> u64 {
        self.dropped.count()
    }

    /// Packets transmitted.
    pub fn transmitted(&self) -> u64 {
        self.transmitted.count()
    }

    /// Achieved egress rate over `elapsed` cycles.
    pub fn tx_rate(&self, elapsed: Cycles) -> BitsPerSec {
        if elapsed == Cycles::ZERO {
            return BitsPerSec(0.0);
        }
        BitsPerSec(self.tx_bytes.count() as f64 * 8.0 / elapsed.to_seconds(self.cfg.clock_hz))
    }
}

impl Clocked for IoChannel {
    #[inline]
    fn tick(&mut self, _now: Cycles) {
        self.advance(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel(cfg: IoChannelConfig) -> IoChannel {
        IoChannel::new(cfg).expect("test config is valid")
    }

    #[test]
    fn pacing_matches_line_rate() {
        let cfg = IoChannelConfig::ten_gbe_worst_case();
        // 10e9 / 500e6 = 20 bits/cycle; 40B packet = 320 bits → every 16 cyc.
        assert!((cfg.bits_per_cycle() - 20.0).abs() < 1e-9);
        assert!((cfg.packets_per_cycle() - 1.0 / 16.0).abs() < 1e-12);
        let mut ch = channel(cfg);
        for c in 0..16_000 {
            ch.tick(Cycles(c));
            while ch.take_rx().is_some() {}
        }
        assert_eq!(ch.generated(), 1000);
        assert_eq!(ch.dropped(), 0);
    }

    #[test]
    fn fifo_overflow_drops() {
        let cfg = IoChannelConfig {
            rx_fifo: 4,
            ..IoChannelConfig::ten_gbe_worst_case()
        };
        let mut ch = channel(cfg);
        // Never drain: FIFO fills, then everything else drops.
        for c in 0..16_000 {
            ch.tick(Cycles(c));
        }
        assert_eq!(ch.rx_backlog(), 4);
        assert_eq!(ch.dropped(), ch.generated() - 4);
    }

    #[test]
    fn sequence_numbers_are_consecutive() {
        let mut ch = channel(IoChannelConfig::ten_gbe_worst_case());
        let mut last = None;
        for c in 0..1000 {
            ch.tick(Cycles(c));
            while let Some(s) = ch.take_rx() {
                if let Some(l) = last {
                    assert_eq!(s, l + 1);
                }
                last = Some(s);
            }
        }
        assert!(last.is_some());
    }

    #[test]
    fn tx_accounting() {
        let mut ch = channel(IoChannelConfig::ten_gbe_worst_case());
        for _ in 0..100 {
            ch.transmit(Bytes(40));
        }
        assert_eq!(ch.transmitted(), 100);
        // 100 * 320 bits over 1600 cycles at 500 MHz = 10 Gb/s.
        let rate = ch.tx_rate(Cycles(1600));
        assert!((rate.gbps() - 10.0).abs() < 1e-9, "rate {rate}");
    }

    #[test]
    fn slower_line_rate_paces_slower() {
        let cfg = IoChannelConfig {
            rate: BitsPerSec::from_gbps(2.5),
            ..IoChannelConfig::ten_gbe_worst_case()
        };
        let mut ch = channel(cfg);
        for c in 0..16_000 {
            ch.tick(Cycles(c));
            while ch.take_rx().is_some() {}
        }
        assert_eq!(ch.generated(), 250);
    }

    #[test]
    fn one_jump_equals_single_ticks_through_a_fifo_overflow() {
        // 3 Gb/s of 40-byte packets at the N130 clock: the rate does not
        // divide the cost, and a depth-4 FIFO overflows inside the span.
        let cfg = IoChannelConfig {
            rate: BitsPerSec::from_gbps(3.0),
            clock_hz: 548.8e6,
            rx_fifo: 4,
            ..IoChannelConfig::ten_gbe_worst_case()
        };
        let mut ticked = channel(cfg);
        let mut jumped = channel(cfg);
        for c in 0..1_000 {
            ticked.tick(Cycles(c));
        }
        jumped.advance(1_000);
        assert_eq!(format!("{ticked:?}"), format!("{jumped:?}"));
        assert!(ticked.dropped() > 0 && ticked.rx_backlog() == 4);
    }

    #[test]
    fn ticks_to_next_rx_names_the_first_emitting_tick() {
        let mut ch = channel(IoChannelConfig::ten_gbe_worst_case());
        let n = ch.ticks_to_next_rx();
        assert_eq!(n, 16);
        ch.advance(n - 1);
        assert_eq!((ch.generated(), ch.ticks_to_next_rx()), (0, 1));
        ch.tick(Cycles(n - 1));
        assert_eq!(ch.generated(), 1);
    }

    #[test]
    fn set_rate_keeps_credit_and_rejects_bad_rates() {
        let mut ch = channel(IoChannelConfig::ten_gbe_worst_case());
        ch.advance(15); // one tick short of a packet
        ch.set_rate(BitsPerSec::from_gbps(1.0)).expect("valid rate");
        assert_eq!(ch.ticks_to_next_rx(), 10, "20 bits short at 2 bits/cycle");
        for bad in [-1.0, f64::NAN, f64::INFINITY, 1e30] {
            assert_eq!(
                ch.set_rate(BitsPerSec(bad)).map_err(|e| e.to_string()),
                Err(IoConfigError::Rate(bad).to_string())
            );
        }
        assert_eq!(ch.ticks_to_next_rx(), 10, "a rejected rate changes nothing");
        ch.set_rate(BitsPerSec(0.0)).expect("zero is a valid rate");
        assert_eq!(ch.ticks_to_next_rx(), u64::MAX);
    }

    #[test]
    fn unpaceable_configs_are_errors() {
        let ok = IoChannelConfig::ten_gbe_worst_case();
        let err = |cfg| IoChannel::new(cfg).expect_err("config must be rejected");
        assert_eq!(
            err(IoChannelConfig {
                packet_bytes: Bytes(0),
                ..ok
            }),
            IoConfigError::ZeroPacket
        );
        for clock_hz in [0.0, -500e6, f64::INFINITY, 0.4] {
            assert_eq!(
                err(IoChannelConfig { clock_hz, ..ok }),
                IoConfigError::Clock(clock_hz)
            );
        }
        assert!(matches!(
            err(IoChannelConfig {
                clock_hz: f64::NAN,
                ..ok
            }),
            IoConfigError::Clock(_)
        ));
        assert_eq!(
            err(IoChannelConfig {
                rate: BitsPerSec(-1.0),
                ..ok
            }),
            IoConfigError::Rate(-1.0)
        );
        assert!(matches!(
            err(IoChannelConfig {
                rate: BitsPerSec(f64::NAN),
                ..ok
            }),
            IoConfigError::Rate(_)
        ));
        assert_eq!(
            err(IoChannelConfig {
                packet_bytes: Bytes(1 << 40),
                ..ok
            }),
            IoConfigError::CostOverflow
        );
    }
}
