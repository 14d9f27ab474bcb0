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
//! ([`IoChannel::ticks_to_next_rx`]). The clock is not part of the
//! configuration: a platform paces every channel at its own core clock
//! ([`nw_types::TechNode::nominal_clock_hz`]).

use nw_sim::Pacer;
use nw_types::{BitsPerSec, Bytes, Cycles};
use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroU64;

/// Configuration of a line-rate channel.
#[derive(Debug, Clone, Copy)]
pub struct IoChannelConfig {
    /// Line rate.
    pub rate: BitsPerSec,
    /// Size of each generated packet.
    pub packet_bytes: Bytes,
    /// Receive FIFO depth in packets (packets arriving into a full FIFO are
    /// dropped and counted — line interfaces cannot back-pressure the wire).
    pub rx_fifo: usize,
}

impl IoChannelConfig {
    /// A 10 Gb/s worst-case channel: 40-byte packets into a FIFO of 128.
    pub fn ten_gbe_worst_case() -> Self {
        IoChannelConfig {
            rate: BitsPerSec::from_gbps(10.0),
            packet_bytes: Bytes(40),
            rx_fifo: 128,
        }
    }

    /// Packets arriving per cycle of a `clock_hz` core.
    pub fn packets_per_cycle(&self, clock_hz: f64) -> f64 {
        self.rate.0 / clock_hz / self.packet_bytes.bits() as f64
    }
}

/// Why an [`IoChannelConfig`] cannot be paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IoConfigError {
    /// `packet_bytes` is zero: every cycle would owe infinitely many packets.
    ZeroPacket,
    /// The core clock is not a finite frequency that rounds to at least
    /// 1 Hz and fits 64 bits.
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
            IoConfigError::Clock(hz) => write!(
                f,
                "clock {hz} Hz is not a finite frequency that rounds to at least 1 Hz and fits 64 bits"
            ),
            IoConfigError::Rate(r) => write!(f, "line rate {r} bit/s is not a non-negative rate"),
            IoConfigError::CostOverflow => write!(f, "packet bits x clock overflows 64 bits"),
        }
    }
}

impl std::error::Error for IoConfigError {}

/// One packet as pacing credit: packet bits × whole Hz.
fn packet_cost(cfg: &IoChannelConfig, clock_hz: f64) -> Result<NonZeroU64, IoConfigError> {
    if cfg.packet_bytes.0 == 0 {
        return Err(IoConfigError::ZeroPacket);
    }
    let hz = Pacer::whole_credit(clock_hz)
        .filter(|&hz| hz > 0)
        .ok_or(IoConfigError::Clock(clock_hz))?;
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
/// use nanowall::prelude::{Cycles, IoChannel, IoChannelConfig};
///
/// let mut ch = IoChannel::new(IoChannelConfig::ten_gbe_worst_case(), 500e6)?;
/// for c in 0..1000 { ch.tick(Cycles(c)); }
/// // 10 Gb/s at 500 MHz = 20 bits/cycle = 1 packet per 16 cycles.
/// let rx: Vec<u64> = std::iter::from_fn(|| ch.take_rx()).collect();
/// assert_eq!(rx.len(), 62); // 1000/16 = 62.5 → 62 whole packets
/// // The next packet completes 8 cycles on; jumping there is one step.
/// assert_eq!(ch.ticks_to_next_rx(), 8);
/// ch.advance(8);
/// assert_eq!(ch.take_rx(), Some(62));
/// # Ok::<(), nanowall::IoConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IoChannel {
    cfg: IoChannelConfig,
    pacer: Pacer,
    next_seq: u64,
    rx_fifo: VecDeque<u64>,
    generated: u64,
    dropped: u64,
    transmitted: u64,
}

impl IoChannel {
    /// Creates a channel paced by a `clock_hz` core.
    ///
    /// # Errors
    ///
    /// [`IoConfigError`] when the channel cannot be paced: a zero packet
    /// size, a clock or rate that is not a usable number, or a per-packet
    /// cost beyond 64 bits.
    pub fn new(cfg: IoChannelConfig, clock_hz: f64) -> Result<Self, IoConfigError> {
        // The line rate as pacing credit per cycle: whole bit/s.
        let rate = Pacer::whole_credit(cfg.rate.0).ok_or(IoConfigError::Rate(cfg.rate.0))?;
        Ok(IoChannel {
            pacer: Pacer::new(rate, packet_cost(&cfg, clock_hz)?),
            cfg,
            next_seq: 0,
            rx_fifo: VecDeque::new(),
            generated: 0,
            dropped: 0,
            transmitted: 0,
        })
    }

    /// The channel configuration.
    pub fn config(&self) -> &IoChannelConfig {
        &self.cfg
    }

    /// Takes the next received packet descriptor (its sequence number).
    #[inline]
    pub fn take_rx(&mut self) -> Option<u64> {
        self.rx_fifo.pop_front()
    }

    /// Packets currently waiting in the RX FIFO.
    #[inline]
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
    #[inline]
    pub fn advance(&mut self, k: u64) {
        let n = self.pacer.advance(k);
        if n == 0 {
            return;
        }
        let room = self.cfg.rx_fifo.saturating_sub(self.rx_fifo.len()) as u64;
        let kept = n.min(room);
        self.rx_fifo.extend(self.next_seq..self.next_seq + kept);
        self.next_seq += n;
        self.generated += n;
        self.dropped += n - kept;
    }

    /// Accepts a packet for transmission (egress side is rate-unconstrained
    /// in this model; the bottleneck under study is processing).
    #[inline]
    pub fn transmit(&mut self) {
        self.transmitted += 1;
    }

    /// Packets generated by the wire so far (including dropped ones).
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Packets dropped at the RX FIFO (processing fell behind line rate).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Packets transmitted.
    pub fn transmitted(&self) -> u64 {
        self.transmitted
    }

    /// Advances the wire by one clock cycle: `advance(1)`.
    #[inline]
    pub fn tick(&mut self, _now: Cycles) {
        self.advance(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The channel at a 500 MHz core.
    fn channel(cfg: IoChannelConfig) -> IoChannel {
        IoChannel::new(cfg, 500e6).expect("test config is valid")
    }

    #[test]
    fn pacing_matches_line_rate() {
        let cfg = IoChannelConfig::ten_gbe_worst_case();
        // 10e9 / 500e6 = 20 bits/cycle; 40B packet = 320 bits → every 16 cyc.
        assert!((cfg.packets_per_cycle(500e6) - 1.0 / 16.0).abs() < 1e-12);
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
            ch.transmit();
        }
        assert_eq!(ch.transmitted(), 100);
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
            rx_fifo: 4,
            ..IoChannelConfig::ten_gbe_worst_case()
        };
        let n130 = || IoChannel::new(cfg, 548.8e6).expect("test config is valid");
        let mut ticked = n130();
        let mut jumped = n130();
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
    fn unpaceable_configs_are_errors() {
        let ok = IoChannelConfig::ten_gbe_worst_case();
        let err = |cfg| IoChannel::new(cfg, 500e6).expect_err("config must be rejected");
        assert_eq!(
            err(IoChannelConfig {
                packet_bytes: Bytes(0),
                ..ok
            }),
            IoConfigError::ZeroPacket
        );
        let clock_err = |hz| IoChannel::new(ok, hz).expect_err("clock must be rejected");
        for clock_hz in [0.0, -500e6, f64::INFINITY, 0.4, 2e19] {
            assert_eq!(clock_err(clock_hz), IoConfigError::Clock(clock_hz));
        }
        assert!(matches!(clock_err(f64::NAN), IoConfigError::Clock(_)));
        // 0.4 Hz is positive, yet it rounds to no whole hertz.
        assert_eq!(
            clock_err(0.4).to_string(),
            "clock 0.4 Hz is not a finite frequency that rounds to at least 1 Hz and fits 64 bits"
        );
        // Above the pacer's `u64` credit word as well as below zero.
        for rate in [-1.0, 1e30] {
            assert_eq!(
                err(IoChannelConfig {
                    rate: BitsPerSec(rate),
                    ..ok
                }),
                IoConfigError::Rate(rate)
            );
        }
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
