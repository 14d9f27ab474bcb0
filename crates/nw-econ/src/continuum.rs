//! The NRE–flexibility continuum.
//!
//! §1 of the paper surveys the implementation-style spectrum: FPGAs ("higher
//! power and cost preclude high-volume and low-power applications"),
//! "gate-array style fabric and top metal-level configuration" structured
//! parts as "an intermediate point on the NRE-flexibility continuum",
//! software-programmable platform SoCs (the paper's thesis), and full cell
//! ASICs. Experiment T7 tabulates the continuum and the volume crossovers
//! between neighboring styles.

use crate::nre::{design_nre, mask_set_nre};
use nw_types::{Dollars, TechNode};
use std::fmt;

/// Implementation styles on the continuum, ordered from most flexible /
/// lowest NRE to least flexible / highest NRE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImplStyle {
    /// Off-the-shelf FPGA: zero mask NRE, big unit-cost and power penalty.
    Fpga,
    /// Structured array (gate-array fabric, top-metal configuration only):
    /// a fraction of the mask set, moderate unit penalty.
    StructuredArray,
    /// Software-programmable platform SoC (the paper's FPPA direction):
    /// full mask set amortized over a product family, small unit penalty
    /// versus a dedicated ASIC.
    PlatformSoc,
    /// Full cell-based ASIC: full mask + design NRE, unit-cost baseline.
    CellAsic,
}

impl ImplStyle {
    /// All four styles, most flexible first.
    pub const ALL: [ImplStyle; 4] = [
        ImplStyle::Fpga,
        ImplStyle::StructuredArray,
        ImplStyle::PlatformSoc,
        ImplStyle::CellAsic,
    ];

    /// Up-front NRE for a product using this style at `node`.
    ///
    /// Platform SoCs amortize their (large) platform NRE over
    /// `platform_products` derivative products, per the paper's "a SoC
    /// design platform needs to be amortized over many variants and
    /// generations of a product family".
    pub fn product_nre(&self, node: TechNode, platform_products: f64) -> Dollars {
        let mask = mask_set_nre(node);
        match self {
            // FPGA: no masks; modest board/tool NRE.
            ImplStyle::Fpga => Dollars::from_millions(0.1),
            // Top-metal configuration: ~25% of the mask set plus a light
            // design effort.
            ImplStyle::StructuredArray => mask * 0.25 + Dollars::from_millions(1.0),
            // Full platform (masks + flagship design NRE) amortized, plus a
            // small per-product software/configuration effort.
            ImplStyle::PlatformSoc => {
                let platform = mask + design_nre(node, 0.8);
                platform * (1.0 / platform_products.max(1.0)) + Dollars::from_millions(2.0)
            }
            // Dedicated chip: everything, alone.
            ImplStyle::CellAsic => mask + design_nre(node, 0.5),
        }
    }

    /// Unit-cost multiplier versus the cell-ASIC baseline (silicon area and
    /// speed/power overheads folded into cost).
    pub fn unit_cost_factor(&self) -> f64 {
        match self {
            ImplStyle::Fpga => 8.0,
            ImplStyle::StructuredArray => 2.5,
            ImplStyle::PlatformSoc => 1.3,
            ImplStyle::CellAsic => 1.0,
        }
    }

    /// Post-fabrication flexibility score in `[0, 1]` (what fraction of
    /// product behaviour can change after silicon).
    pub fn flexibility(&self) -> f64 {
        match self {
            ImplStyle::Fpga => 1.0,
            ImplStyle::StructuredArray => 0.15,
            ImplStyle::PlatformSoc => 0.85,
            ImplStyle::CellAsic => 0.02,
        }
    }
}

impl fmt::Display for ImplStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ImplStyle::Fpga => "FPGA",
            ImplStyle::StructuredArray => "structured-array",
            ImplStyle::PlatformSoc => "platform-SoC",
            ImplStyle::CellAsic => "cell-ASIC",
        };
        f.write_str(s)
    }
}

/// Volume at which style `b` becomes cheaper than style `a` (where `a` has
/// lower NRE and higher unit cost). Returns `None` when the curves do not
/// cross (one style dominates).
pub fn crossover_volume(
    a: ImplStyle,
    b: ImplStyle,
    node: TechNode,
    platform_products: f64,
    unit_base: Dollars,
) -> Option<f64> {
    let d_nre = b.product_nre(node, platform_products).0 - a.product_nre(node, platform_products).0;
    let d_unit = (a.unit_cost_factor() - b.unit_cost_factor()) * unit_base.0;
    if d_unit <= 0.0 || d_nre <= 0.0 {
        return None;
    }
    Some(d_nre / d_unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODE: TechNode = TechNode::N90;
    const FAMILY: f64 = 10.0;

    #[test]
    fn nre_ordering_matches_the_continuum() {
        let nres: Vec<f64> = ImplStyle::ALL
            .iter()
            .map(|s| s.product_nre(NODE, FAMILY).0)
            .collect();
        for w in nres.windows(2) {
            assert!(
                w[0] < w[1],
                "NRE must increase along the continuum: {nres:?}"
            );
        }
    }

    #[test]
    fn unit_cost_ordering_is_inverse() {
        let units: Vec<f64> = ImplStyle::ALL
            .iter()
            .map(|s| s.unit_cost_factor())
            .collect();
        for w in units.windows(2) {
            assert!(w[0] > w[1], "unit cost must fall along the continuum");
        }
    }

    #[test]
    fn platform_soc_keeps_most_flexibility() {
        assert!(ImplStyle::PlatformSoc.flexibility() > 0.5);
        assert!(ImplStyle::CellAsic.flexibility() < 0.1);
        assert_eq!(ImplStyle::Fpga.flexibility(), 1.0);
    }

    #[test]
    fn low_volume_favors_fpga_high_volume_favors_asic() {
        let unit = Dollars(5.0);
        // Total cost of shipping `v` units: NRE plus unit cost.
        let total = |s: ImplStyle, v: f64| {
            (s.product_nre(NODE, FAMILY) + unit * s.unit_cost_factor() * v).0
        };
        // 10k units: FPGA wins despite 8x unit cost.
        assert!(total(ImplStyle::Fpga, 10e3) < total(ImplStyle::CellAsic, 10e3));
        // 10M units: ASIC wins.
        assert!(total(ImplStyle::CellAsic, 10e6) < total(ImplStyle::Fpga, 10e6));
    }

    #[test]
    fn crossovers_exist_between_neighbors() {
        let unit = Dollars(5.0);
        let mut last = 0.0;
        for w in ImplStyle::ALL.windows(2) {
            let v = crossover_volume(w[0], w[1], NODE, FAMILY, unit)
                .unwrap_or_else(|| panic!("{} vs {} must cross", w[0], w[1]));
            assert!(
                v > last,
                "crossovers must move to higher volumes: {v} after {last}"
            );
            last = v;
        }
    }

    #[test]
    fn platform_amortization_lowers_product_nre() {
        let solo = ImplStyle::PlatformSoc.product_nre(NODE, 1.0);
        let family = ImplStyle::PlatformSoc.product_nre(NODE, 10.0);
        assert!(family.0 < solo.0 / 3.0);
    }

    #[test]
    fn no_crossover_when_dominated() {
        // Comparing a style with itself: no crossing.
        assert!(
            crossover_volume(ImplStyle::Fpga, ImplStyle::Fpga, NODE, FAMILY, Dollars(5.0))
                .is_none()
        );
    }
}
