//! F1 — Figure 1: the processor-specialization continuum.
//!
//! Time-to-market (development effort) versus product differentiation
//! (throughput and energy per task on the matched kernel), from GP-RISC
//! through configurable processors, DSP and ASIP to eFPGA and hardwired
//! logic.

use crate::Table;
use nanowall::fabric::{FabricSpec, KernelSpec, MappedKernel};
use nw_pe::{KernelDomain, PeClass};

/// One point on the Figure 1 continuum.
#[derive(Debug, Clone)]
pub struct ContinuumPoint {
    /// Implementation name.
    pub name: String,
    /// Development-effort multiplier vs GP-RISC software.
    pub dev_effort: f64,
    /// Items per kilocycle on the matched kernel.
    pub throughput: f64,
    /// Energy per item in picojoules.
    pub energy_per_item: f64,
}

/// Structured result.
#[derive(Debug)]
pub struct F1Result {
    /// The continuum, most flexible first.
    pub points: Vec<ContinuumPoint>,
    /// Rendered table.
    pub table: String,
}

/// Runs F1 on the header-classification kernel.
pub fn run() -> F1Result {
    let kernel = KernelSpec::header_classify();
    let domain = KernelDomain::PacketHeader;

    let mut points = Vec::new();
    // Software points: one item takes sw_cycles / speedup.
    for class in [
        PeClass::GpRisc,
        PeClass::Configurable { tuned_for: domain },
        PeClass::Dsp,
        PeClass::Asip { domain },
    ] {
        let cycles = kernel.sw_cycles_per_item as f64 / class.speedup(domain);
        points.push(ContinuumPoint {
            name: class.to_string(),
            dev_effort: class.dev_effort(),
            throughput: 1000.0 / cycles,
            energy_per_item: class.energy_per_cycle().0 * cycles,
        });
    }
    // eFPGA point.
    let mapped = MappedKernel::map(&kernel, &FabricSpec::default());
    points.push(ContinuumPoint {
        name: "efpga".into(),
        dev_effort: 6.0, // RTL + P&R flow
        throughput: 1000.0 / mapped.ii as f64,
        energy_per_item: mapped.energy_per_item.0,
    });
    // Hardwired point.
    points.push(ContinuumPoint {
        name: "hardwired".into(),
        dev_effort: 10.0, // full ASIC design + verification
        throughput: 1000.0 / kernel.hw_ii as f64,
        energy_per_item: kernel.hw_energy_per_item.0,
    });

    let mut t = Table::new(&[
        "implementation",
        "dev effort",
        "items/kcycle",
        "energy/item",
    ]);
    for p in &points {
        t.row_owned(vec![
            p.name.clone(),
            format!("{:.1}x", p.dev_effort),
            format!("{:.1}", p.throughput),
            format!("{:.0}pJ", p.energy_per_item),
        ]);
    }
    F1Result {
        points,
        table: format!(
            "F1  Figure 1 continuum on the header-classify kernel: time-to-market vs power/performance\n{}",
            t.render()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_and_differentiation_both_rise() {
        let r = run();
        assert_eq!(r.points.len(), 6);
        for w in r.points.windows(2) {
            assert!(
                w[1].dev_effort > w[0].dev_effort,
                "{} vs {}",
                w[0].name,
                w[1].name
            );
        }
        // Hardwired is the throughput and energy champion; GP-RISC the worst.
        let first = &r.points[0];
        let last = r.points.last().unwrap();
        assert!(last.throughput > 50.0 * first.throughput);
        assert!(last.energy_per_item < first.energy_per_item / 50.0);
        // The eFPGA sits strictly between ASIP software and hardwired on
        // energy (its 10x penalty, claim C8).
        let efpga = r.points.iter().find(|p| p.name == "efpga").unwrap();
        assert!(efpga.energy_per_item > last.energy_per_item * 5.0);
    }
}
