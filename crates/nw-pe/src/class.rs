//! The processor-specialization continuum of the paper's Figure 1.
//!
//! Figure 1 plots processor classes on two axes: time-to-market (ease of
//! use, flexibility) against product differentiation (power, performance,
//! cost). The parameters here encode that continuum with early-2000s
//! magnitudes: moving from general-purpose RISC toward application-specific
//! hardware buys roughly an order of magnitude in energy efficiency and
//! per-area performance on *matched* kernels, at the price of development
//! effort and loss of generality.

use nw_types::{AreaMm2, Picojoules};
use std::fmt;

/// Application domain of a kernel, used to decide whether a specialized
/// processor's speedup applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelDomain {
    /// Control-dominated code (protocol upper layers, OS services).
    Control,
    /// Signal-processing kernels (filters, transforms).
    Signal,
    /// Packet-header processing (parsing, lookup, classification).
    PacketHeader,
    /// Generic integer compute.
    Generic,
}

impl fmt::Display for KernelDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelDomain::Control => "control",
            KernelDomain::Signal => "signal",
            KernelDomain::PacketHeader => "packet-header",
            KernelDomain::Generic => "generic",
        };
        f.write_str(s)
    }
}

/// Processor classes along the Figure 1 continuum (software-programmable
/// part; the eFPGA and hardwired points are `nanowall`'s fabric and
/// hardwired-IP service nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeClass {
    /// General-purpose 32-bit RISC: runs everything, differentiates nothing.
    GpRisc,
    /// Digital signal processor: strong on signal kernels.
    Dsp,
    /// Configurable processor (Arc/Tensilica style): RISC plus tuned
    /// instruction extensions, moderate speedup on its configured domain.
    Configurable {
        /// The domain its extensions were configured for.
        tuned_for: KernelDomain,
    },
    /// Application-specific instruction-set processor: large speedup on its
    /// domain, RISC-like elsewhere.
    Asip {
        /// The domain it was designed for.
        domain: KernelDomain,
    },
}

impl PeClass {
    /// Cycle-count speedup over the GP-RISC baseline for a kernel in
    /// `domain`. Specialization only pays on matched domains.
    pub fn speedup(&self, domain: KernelDomain) -> f64 {
        match *self {
            PeClass::GpRisc => 1.0,
            PeClass::Dsp => {
                if domain == KernelDomain::Signal {
                    4.0
                } else {
                    0.8 // DSPs are awkward for control code
                }
            }
            PeClass::Configurable { tuned_for } => {
                if domain == tuned_for {
                    3.0
                } else {
                    1.0
                }
            }
            PeClass::Asip { domain: d } => {
                if domain == d {
                    8.0
                } else {
                    1.0
                }
            }
        }
    }

    /// Dynamic energy per active cycle. Specialized datapaths do more per
    /// cycle for similar power, so energy *per task* drops with the speedup.
    pub fn energy_per_cycle(&self) -> Picojoules {
        match self {
            PeClass::GpRisc => Picojoules(40.0),
            PeClass::Dsp => Picojoules(55.0),
            PeClass::Configurable { .. } => Picojoules(45.0),
            PeClass::Asip { .. } => Picojoules(50.0),
        }
    }

    /// Core area (logic + register banks, excluding local memories) at the
    /// 0.13 µm reference node.
    pub fn core_area(&self) -> AreaMm2 {
        match self {
            PeClass::GpRisc => AreaMm2(0.8),
            PeClass::Dsp => AreaMm2(1.5),
            PeClass::Configurable { .. } => AreaMm2(1.1),
            PeClass::Asip { .. } => AreaMm2(1.0),
        }
    }

    /// Software development effort multiplier versus GP-RISC (the
    /// time-to-market axis of Figure 1): specialized targets need tool
    /// retargeting and manual tuning.
    pub fn dev_effort(&self) -> f64 {
        match self {
            PeClass::GpRisc => 1.0,
            PeClass::Configurable { .. } => 1.8,
            PeClass::Dsp => 2.5,
            PeClass::Asip { .. } => 4.0,
        }
    }
}

impl fmt::Display for PeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeClass::GpRisc => write!(f, "gp-risc"),
            PeClass::Dsp => write!(f, "dsp"),
            PeClass::Configurable { tuned_for } => write!(f, "configurable({tuned_for})"),
            PeClass::Asip { domain } => write!(f, "asip({domain})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gp_risc_is_the_flexibility_baseline() {
        for d in [
            KernelDomain::Control,
            KernelDomain::Signal,
            KernelDomain::PacketHeader,
            KernelDomain::Generic,
        ] {
            assert_eq!(PeClass::GpRisc.speedup(d), 1.0);
        }
        assert_eq!(PeClass::GpRisc.dev_effort(), 1.0);
    }

    #[test]
    fn specialization_pays_only_on_matched_domain() {
        let asip = PeClass::Asip {
            domain: KernelDomain::PacketHeader,
        };
        assert!(asip.speedup(KernelDomain::PacketHeader) > 4.0);
        assert_eq!(asip.speedup(KernelDomain::Signal), 1.0);
    }

    #[test]
    fn figure1_ordering_speedup_vs_effort() {
        // Moving right on Figure 1: more speedup on domain, more effort.
        let domain = KernelDomain::Signal;
        let ladder = [
            PeClass::GpRisc,
            PeClass::Configurable { tuned_for: domain },
            PeClass::Dsp,
            PeClass::Asip { domain },
        ];
        for w in ladder.windows(2) {
            assert!(w[1].speedup(domain) >= w[0].speedup(domain));
            assert!(w[1].dev_effort() > w[0].dev_effort());
        }
    }

    #[test]
    fn energy_per_matched_task_drops_with_specialization() {
        // Same kernel, 1000 baseline cycles.
        let domain = KernelDomain::PacketHeader;
        let task_energy = |c: PeClass| {
            let cycles = 1000.0 / c.speedup(domain);
            c.energy_per_cycle().0 * cycles
        };
        let risc = task_energy(PeClass::GpRisc);
        let asip = task_energy(PeClass::Asip { domain });
        assert!(asip < risc / 4.0, "ASIP task energy {asip} vs RISC {risc}");
    }

    #[test]
    fn dsp_is_poor_at_control() {
        assert!(PeClass::Dsp.speedup(KernelDomain::Control) < 1.0);
    }

    #[test]
    fn display() {
        assert_eq!(PeClass::GpRisc.to_string(), "gp-risc");
        assert_eq!(
            PeClass::Asip {
                domain: KernelDomain::PacketHeader
            }
            .to_string(),
            "asip(packet-header)"
        );
    }
}
