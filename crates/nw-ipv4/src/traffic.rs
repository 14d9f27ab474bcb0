//! Packet generators producing real, checksum-valid IPv4 bytes.
//!
//! Claim C7's scenario is "worst-case traffic at a 10 Gbit line rate":
//! minimum-size packets whose destinations all hit the route table. The
//! generator draws destinations from the installed prefixes (optionally with
//! a miss fraction) and emits complete packets the parser in [`header`]
//! accepts.
//!
//! [`header`]: crate::header

use crate::header::Ipv4Header;
use crate::lpm::Prefix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Packet-size mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficMix {
    /// All packets at the worst-case minimum size (40 bytes: 20 header +
    /// 20 payload, the classic TCP-ACK-sized datagram).
    WorstCase,
    /// The classic simple IMIX: 40 B (58.3%), 576 B (33.3%), 1500 B (8.3%)
    /// in the 7:4:1 ratio.
    Imix,
    /// Fixed size in bytes (>= 20).
    Fixed(u16),
}

impl TrafficMix {
    fn pick_size<R: Rng>(&self, rng: &mut R) -> u16 {
        match *self {
            TrafficMix::WorstCase => 40,
            TrafficMix::Fixed(s) => s.max(Ipv4Header::LEN as u16),
            TrafficMix::Imix => {
                let r = rng.gen_range(0..12);
                if r < 7 {
                    40
                } else if r < 11 {
                    576
                } else {
                    1500
                }
            }
        }
    }
}

/// A deterministic generator of routed IPv4 packets.
///
/// # Examples
///
/// ```
/// use nw_ipv4::{PacketGenerator, TrafficMix, Prefix, Ipv4Header};
///
/// let prefixes = vec![Prefix::new(u32::from_be_bytes([10, 0, 0, 0]), 8)];
/// let mut gen = PacketGenerator::new(prefixes, TrafficMix::WorstCase, 42);
/// let pkt = gen.next_packet();
/// assert_eq!(pkt.len(), 40);
/// let h = Ipv4Header::parse(&pkt)?; // parses and checksum-verifies
/// assert_eq!(h.ttl, 64);
/// # Ok::<(), nw_ipv4::ParseHeaderError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PacketGenerator {
    prefixes: Vec<Prefix>,
    mix: TrafficMix,
    rng: StdRng,
    next_id: u16,
}

impl PacketGenerator {
    /// Creates a generator drawing destinations from `prefixes`.
    ///
    /// # Panics
    ///
    /// Panics if `prefixes` is empty.
    pub fn new(prefixes: Vec<Prefix>, mix: TrafficMix, seed: u64) -> Self {
        assert!(!prefixes.is_empty(), "need at least one destination prefix");
        PacketGenerator {
            prefixes,
            mix,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// Generates the next packet's bytes (header + zero payload).
    pub fn next_packet(&mut self) -> Vec<u8> {
        let p = self.prefixes[self.rng.gen_range(0..self.prefixes.len())];
        let host_bits = 32 - p.len;
        let host: u32 = if host_bits == 0 {
            0
        } else {
            self.rng.gen::<u32>() & ((1u32 << host_bits) - 1)
        };
        let dst = p.addr | host;
        let size = self.mix.pick_size(&mut self.rng);
        let mut h = Ipv4Header {
            dscp_ecn: 0,
            total_length: size,
            identification: self.next_id,
            flags_fragment: 0x4000, // don't fragment
            ttl: 64,
            protocol: 17, // UDP
            checksum: 0,
            src: u32::from_be_bytes([10, 0, 0, 1]) + u32::from(self.next_id % 251),
            dst,
        };
        self.next_id = self.next_id.wrapping_add(1);
        h.refresh_checksum();
        let mut pkt = vec![0u8; size as usize];
        pkt[..Ipv4Header::LEN].copy_from_slice(&h.to_bytes());
        pkt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpm::{LinearTable, LpmTable};

    fn prefixes() -> Vec<Prefix> {
        vec![
            Prefix::new(u32::from_be_bytes([10, 0, 0, 0]), 8),
            Prefix::new(u32::from_be_bytes([172, 16, 0, 0]), 12),
            Prefix::new(u32::from_be_bytes([192, 168, 7, 0]), 24),
        ]
    }

    #[test]
    fn all_packets_parse_and_route() {
        let mut table = LinearTable::new();
        for (i, p) in prefixes().iter().enumerate() {
            table.insert(*p, i as u32);
        }
        let mut g = PacketGenerator::new(prefixes(), TrafficMix::WorstCase, 1);
        for _ in 0..500 {
            let pkt = g.next_packet();
            assert_eq!(pkt.len(), 40);
            let h = Ipv4Header::parse(&pkt).expect("generated packets must be valid");
            assert!(table.lookup(h.dst).is_some(), "dst must be routable");
        }
    }

    #[test]
    fn imix_has_three_sizes_in_ratio() {
        let mut g = PacketGenerator::new(prefixes(), TrafficMix::Imix, 3);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..12_000 {
            *counts.entry(g.next_packet().len()).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 3);
        let small = counts[&40] as f64 / 12_000.0;
        assert!((small - 7.0 / 12.0).abs() < 0.03, "small fraction {small}");
        assert!(counts[&576] > counts[&1500]);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = PacketGenerator::new(prefixes(), TrafficMix::Imix, 9);
        let mut b = PacketGenerator::new(prefixes(), TrafficMix::Imix, 9);
        for _ in 0..50 {
            assert_eq!(a.next_packet(), b.next_packet());
        }
    }

    #[test]
    fn fixed_size_respects_minimum() {
        let mut g = PacketGenerator::new(prefixes(), TrafficMix::Fixed(10), 4);
        assert_eq!(g.next_packet().len(), 20);
    }

    #[test]
    #[should_panic(expected = "at least one destination prefix")]
    fn empty_prefixes_panics() {
        let _ = PacketGenerator::new(vec![], TrafficMix::WorstCase, 0);
    }
}
