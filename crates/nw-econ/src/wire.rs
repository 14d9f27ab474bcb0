//! Cross-chip wire delay versus technology node.
//!
//! §6.1 of the paper, citing Benini & De Micheli \[12\]: "In 50 nm
//! technologies, it is predicted that the intra-chip propagation delay will
//! be between six and ten clock cycles." The model here reproduces that
//! prediction: per-mm wire delay worsens inversely with feature size (RC of
//! minimum-pitch global wires), while the core clock speeds up ~1.4× per
//! generation — multiplying into the cycle counts that motivated
//! networks-on-chip in the first place.

// WR01: a truncating `as` on an encode/decode path drops wire bits
// silently; `try_from` fails loudly instead.
#![deny(clippy::cast_possible_truncation)]

use nw_types::TechNode;

/// Propagation delay of a repeated global wire, in picoseconds per mm.
///
/// Calibrated so the 50 nm node lands inside the paper's 6–10 cycle window
/// for a 20 mm cross-chip route: ~46 ps/mm at 0.35 µm growing as
/// `350 / feature`.
pub fn wire_delay_ps_per_mm(node: TechNode) -> f64 {
    46.0 * 350.0 / f64::from(node.feature_nm())
}

/// Cross-chip propagation delay in clock cycles at the node's nominal clock
/// for a route of `distance_mm`.
///
/// # Examples
///
/// ```
/// use nw_econ::cross_chip_delay_cycles;
/// use nw_types::TechNode;
///
/// let c50 = cross_chip_delay_cycles(TechNode::N50, 20.0);
/// assert!(c50 >= 6.0 && c50 <= 10.0, "the paper's 6-10 cycle window");
/// ```
pub fn cross_chip_delay_cycles(node: TechNode, distance_mm: f64) -> f64 {
    let delay_s = wire_delay_ps_per_mm(node) * distance_mm * 1e-12;
    delay_s * node.nominal_clock_hz()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifty_nm_hits_the_papers_window() {
        let c = cross_chip_delay_cycles(TechNode::N50, TechNode::N50.die_edge_mm());
        assert!((6.0..=10.0).contains(&c), "50nm cross-chip = {c} cycles");
    }

    #[test]
    fn old_nodes_cross_in_under_a_cycle() {
        // In the 0.35 µm era, wires were effectively free.
        let c = cross_chip_delay_cycles(TechNode::N350, 20.0);
        assert!(c < 0.5, "350nm cross-chip = {c} cycles");
    }

    #[test]
    fn delay_cycles_grow_monotonically_down_the_ladder() {
        let mut last = 0.0;
        for n in TechNode::LADDER {
            let c = cross_chip_delay_cycles(n, 20.0);
            assert!(c > last, "{n}: {c} after {last}");
            last = c;
        }
    }

    #[test]
    fn delay_scales_linearly_with_distance() {
        let one = cross_chip_delay_cycles(TechNode::N90, 1.0);
        let twenty = cross_chip_delay_cycles(TechNode::N90, 20.0);
        assert!((twenty / one - 20.0).abs() < 1e-9);
    }

    #[test]
    fn per_mm_delay_worsens_with_scaling() {
        assert!(wire_delay_ps_per_mm(TechNode::N50) > wire_delay_ps_per_mm(TechNode::N350));
    }
}
