//! T4 — the eFPGA penalty (claim C8, paper §6.3).
//!
//! "Embedded FPGA's will complement the processors, but only with limited
//! scope (less than 5% of the IC functionality). The 10X cost and power
//! penalty of eFPGA's will restrict their further use."
//!
//! Each kernel is costed three ways — software on a GP-RISC PE, mapped on
//! the eFPGA, hardwired — and the functionality-share analysis checks what
//! fraction of a realistic FPPA's area an eFPGA can justify.

use crate::Table;
use nanowall::fabric::{FabricSpec, KernelSpec, MappedKernel};
use nw_pe::PeClass;

/// One implementation point of a kernel.
#[derive(Debug, Clone)]
pub struct ImplPoint {
    /// "software" / "efpga" / "hardwired".
    pub style: &'static str,
    /// Items per kilocycle.
    pub throughput: f64,
    /// Area in mm².
    pub area_mm2: f64,
    /// Energy per item (pJ).
    pub energy_pj: f64,
}

/// Structured result.
#[derive(Debug)]
pub struct T4Result {
    /// (kernel name, [software, efpga, hardwired]).
    pub kernels: Vec<(String, [ImplPoint; 3])>,
    /// eFPGA area / hardwired area (the "10X cost").
    pub area_penalty: f64,
    /// eFPGA energy / hardwired energy (the "10X power").
    pub energy_penalty: f64,
    /// Rendered table.
    pub table: String,
}

/// Runs T4 over the three reference kernels.
pub fn run() -> T4Result {
    let fabric = FabricSpec::default();
    let risc = PeClass::GpRisc;
    let mut t = Table::new(&[
        "kernel",
        "impl",
        "items/kcycle",
        "area",
        "energy/item",
        "vs hardwired",
    ]);
    let mut kernels = Vec::new();
    for k in [
        KernelSpec::checksum_offload(),
        KernelSpec::header_classify(),
        KernelSpec::crypto_round(),
    ] {
        let m = MappedKernel::map(&k, &fabric);
        let sw = ImplPoint {
            style: "software",
            throughput: 1000.0 / k.sw_cycles_per_item as f64,
            area_mm2: risc.core_area().0,
            energy_pj: risc.energy_per_cycle().0 * k.sw_cycles_per_item as f64,
        };
        let fp = ImplPoint {
            style: "efpga",
            throughput: 1000.0 / m.ii as f64,
            area_mm2: m.area.0,
            energy_pj: m.energy_per_item.0,
        };
        let hw = ImplPoint {
            style: "hardwired",
            throughput: 1000.0 / k.hw_ii as f64,
            area_mm2: k.hw_area.0,
            energy_pj: k.hw_energy_per_item.0,
        };
        for p in [&sw, &fp, &hw] {
            t.row_owned(vec![
                k.name.clone(),
                p.style.into(),
                format!("{:.1}", p.throughput),
                format!("{:.2}mm²", p.area_mm2),
                format!("{:.0}pJ", p.energy_pj),
                format!(
                    "area x{:.1}, energy x{:.1}",
                    p.area_mm2 / hw.area_mm2,
                    p.energy_pj / hw.energy_pj
                ),
            ]);
        }
        kernels.push((k.name.clone(), [sw, fp, hw]));
    }

    // Functionality share: an FPPA with 16 PEs + memories is ~25 mm² of
    // logic; the default 20k-LUT fabric holds one kernel of ~1.2 mm²
    // hardwired-equivalent at 10x = ~1.2mm² actual... compute directly.
    let fabric_area: f64 = MappedKernel::map(&KernelSpec::header_classify(), &fabric)
        .area
        .0;
    let platform_area = 16.0 * PeClass::GpRisc.core_area().0 + 12.0;
    let share = fabric_area / (platform_area + fabric_area);

    T4Result {
        kernels,
        area_penalty: fabric.area_penalty,
        energy_penalty: fabric.energy_penalty,
        table: format!(
            "T4  Kernel implementation comparison (paper §6.3: eFPGA 10x cost & power penalty)\n{}\neFPGA functionality share of a 16-PE FPPA: {:.1}% (paper: <5%)\n",
            t.render(),
            share * 100.0
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_x_penalty_and_ordering() {
        let r = run();
        assert!((r.area_penalty - 10.0).abs() < 1e-9);
        assert!((r.energy_penalty - 10.0).abs() < 1e-9);
        for (name, [sw, fp, hw]) in &r.kernels {
            // Throughput: hardwired >= efpga >> software.
            assert!(hw.throughput >= fp.throughput, "{name}");
            assert!(fp.throughput > 5.0 * sw.throughput, "{name}");
            // Energy: hardwired << efpga << software (for these kernels).
            assert!(fp.energy_pj > 5.0 * hw.energy_pj, "{name}");
            assert!(sw.energy_pj > fp.energy_pj, "{name}");
        }
        assert!(r.table.contains("<5%"));
    }
}
