//! Memory technology parameters: the paper's "embedded memory
//! architecture tradeoffs (embedded SRAM, eDRAM and eFlash, vs. external
//! memories)" (§3).
//!
//! The absolute numbers are order-of-magnitude values representative of the
//! 0.13 µm generation the paper calls "today" (they are documented so that
//! experiments depending on *ratios* — SRAM vs eDRAM density, on-chip vs
//! off-chip latency — reproduce the paper's qualitative tradeoffs):
//!
//! * SRAM: fastest, largest cell (6T).
//! * eDRAM: ~3× denser than SRAM, several times slower, needs refresh.
//! * eFlash: dense and non-volatile, reads OK, *writes three orders of
//!   magnitude slower* (program/erase).
//! * External DRAM: effectively unlimited capacity, tens of cycles away
//!   across the chip boundary, high I/O energy per byte.
//!
//! ```
//! use nw_types::{MemorySpec, MemoryTechnology};
//!
//! let sram = MemorySpec::of(MemoryTechnology::Sram);
//! let edram = MemorySpec::of(MemoryTechnology::Edram);
//! // SRAM is faster, eDRAM is denser — the §3 tradeoff.
//! assert!(sram.read_latency < edram.read_latency);
//! assert!(sram.area_mm2_per_mbit.0 > edram.area_mm2_per_mbit.0);
//! ```

use crate::{AreaMm2, Cycles, Picojoules, TechNode};
use std::fmt;

/// The memory technologies of the paper's §3 tradeoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryTechnology {
    /// On-chip static RAM (6T cell).
    Sram,
    /// Embedded DRAM.
    Edram,
    /// Embedded Flash (non-volatile; slow writes).
    Eflash,
    /// External (off-chip) DRAM behind an I/O interface.
    ExternalDram,
}

impl MemoryTechnology {
    /// All four technologies.
    pub const ALL: [MemoryTechnology; 4] = [
        MemoryTechnology::Sram,
        MemoryTechnology::Edram,
        MemoryTechnology::Eflash,
        MemoryTechnology::ExternalDram,
    ];
}

impl fmt::Display for MemoryTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemoryTechnology::Sram => "SRAM",
            MemoryTechnology::Edram => "eDRAM",
            MemoryTechnology::Eflash => "eFlash",
            MemoryTechnology::ExternalDram => "ext-DRAM",
        };
        f.write_str(s)
    }
}

/// Timing, energy and area parameters of one memory technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySpec {
    /// Technology these parameters describe.
    pub technology: MemoryTechnology,
    /// Random-access read latency.
    pub read_latency: Cycles,
    /// Write (program) latency.
    pub write_latency: Cycles,
    /// Data width the array can stream after the access, bytes per cycle.
    pub bytes_per_cycle: u64,
    /// Read energy per byte.
    pub read_pj_per_byte: Picojoules,
    /// Write energy per byte.
    pub write_pj_per_byte: Picojoules,
    /// Die area per megabit at the 0.13 µm reference node (0 for external).
    pub area_mm2_per_mbit: AreaMm2,
    /// Whether contents survive power-down.
    pub non_volatile: bool,
}

impl MemorySpec {
    /// Reference parameters for a technology at the 0.13 µm node.
    pub const fn of(tech: MemoryTechnology) -> MemorySpec {
        match tech {
            MemoryTechnology::Sram => MemorySpec {
                technology: tech,
                read_latency: Cycles(2),
                write_latency: Cycles(2),
                bytes_per_cycle: 8,
                read_pj_per_byte: Picojoules(0.5),
                write_pj_per_byte: Picojoules(0.6),
                area_mm2_per_mbit: AreaMm2(0.90),
                non_volatile: false,
            },
            MemoryTechnology::Edram => MemorySpec {
                technology: tech,
                read_latency: Cycles(8),
                write_latency: Cycles(8),
                bytes_per_cycle: 8,
                read_pj_per_byte: Picojoules(1.0),
                write_pj_per_byte: Picojoules(1.2),
                area_mm2_per_mbit: AreaMm2(0.30),
                non_volatile: false,
            },
            MemoryTechnology::Eflash => MemorySpec {
                technology: tech,
                read_latency: Cycles(12),
                write_latency: Cycles(12_000),
                bytes_per_cycle: 4,
                read_pj_per_byte: Picojoules(2.0),
                write_pj_per_byte: Picojoules(150.0),
                area_mm2_per_mbit: AreaMm2(0.25),
                non_volatile: true,
            },
            MemoryTechnology::ExternalDram => MemorySpec {
                technology: tech,
                read_latency: Cycles(60),
                write_latency: Cycles(60),
                bytes_per_cycle: 4,
                read_pj_per_byte: Picojoules(20.0),
                write_pj_per_byte: Picojoules(20.0),
                area_mm2_per_mbit: AreaMm2::ZERO,
                non_volatile: false,
            },
        }
    }

    /// Same parameters scaled to another technology node: area shrinks with
    /// density; latencies in cycles stay constant (arrays and clocks scale
    /// together to first order).
    pub fn at_node(tech: MemoryTechnology, node: TechNode) -> MemorySpec {
        let mut s = Self::of(tech);
        let shrink = TechNode::N130.density_vs_350() / node.density_vs_350();
        s.area_mm2_per_mbit = s.area_mm2_per_mbit * shrink;
        s
    }

    /// Area of a macro holding `mbits` megabits.
    pub fn macro_area(&self, mbits: f64) -> AreaMm2 {
        self.area_mm2_per_mbit * mbits
    }

    /// Total service time for an access of `bytes` bytes: access latency
    /// plus streaming time.
    pub fn service_time(&self, write: bool, bytes: u64) -> Cycles {
        let base = if write {
            self.write_latency
        } else {
            self.read_latency
        };
        base + Cycles(bytes.div_ceil(self.bytes_per_cycle.max(1)))
    }

    /// Energy of an access of `bytes` bytes.
    pub fn access_energy(&self, write: bool, bytes: u64) -> Picojoules {
        let per = if write {
            self.write_pj_per_byte
        } else {
            self.read_pj_per_byte
        };
        per * bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ordering_matches_physics() {
        let s = MemorySpec::of(MemoryTechnology::Sram);
        let e = MemorySpec::of(MemoryTechnology::Edram);
        let f = MemorySpec::of(MemoryTechnology::Eflash);
        let x = MemorySpec::of(MemoryTechnology::ExternalDram);
        assert!(s.read_latency < e.read_latency);
        assert!(e.read_latency < f.read_latency);
        assert!(f.read_latency < x.read_latency);
    }

    #[test]
    fn density_ordering_matches_physics() {
        let s = MemorySpec::of(MemoryTechnology::Sram);
        let e = MemorySpec::of(MemoryTechnology::Edram);
        let f = MemorySpec::of(MemoryTechnology::Eflash);
        assert!(s.area_mm2_per_mbit.0 > e.area_mm2_per_mbit.0);
        assert!(e.area_mm2_per_mbit.0 > f.area_mm2_per_mbit.0);
    }

    #[test]
    fn flash_writes_are_catastrophically_slow() {
        let f = MemorySpec::of(MemoryTechnology::Eflash);
        assert!(f.write_latency.0 >= 1000 * f.read_latency.0);
        assert!(f.non_volatile);
    }

    #[test]
    fn service_time_includes_streaming() {
        let s = MemorySpec::of(MemoryTechnology::Sram);
        // 2-cycle access + 64/8 = 8 cycles of streaming.
        assert_eq!(s.service_time(false, 64), Cycles(10));
        assert_eq!(s.service_time(false, 0), Cycles(2));
        assert_eq!(s.service_time(false, 1), Cycles(3));
    }

    #[test]
    fn energy_scales_with_bytes() {
        let s = MemorySpec::of(MemoryTechnology::Sram);
        let e64 = s.access_energy(false, 64);
        let e128 = s.access_energy(false, 128);
        assert!((e128.0 - 2.0 * e64.0).abs() < 1e-9);
        assert!(s.access_energy(true, 64).0 > e64.0);
    }

    #[test]
    fn node_scaling_shrinks_area() {
        let at130 = MemorySpec::at_node(MemoryTechnology::Sram, TechNode::N130);
        let at65 = MemorySpec::at_node(MemoryTechnology::Sram, TechNode::N65);
        assert!((at130.area_mm2_per_mbit.0 / at65.area_mm2_per_mbit.0 - 4.0).abs() < 1e-9);
        assert_eq!(at130.read_latency, at65.read_latency);
    }

    #[test]
    fn macro_area() {
        let s = MemorySpec::of(MemoryTechnology::Sram);
        assert!((s.macro_area(2.0).0 - 1.8).abs() < 1e-9);
    }

    #[test]
    fn display_names() {
        assert_eq!(MemoryTechnology::Edram.to_string(), "eDRAM");
        assert_eq!(MemoryTechnology::ALL.len(), 4);
    }
}
