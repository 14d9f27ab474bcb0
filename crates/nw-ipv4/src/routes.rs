//! Synthetic route tables.
//!
//! Real early-2000s BGP tables are not redistributable inputs, so T5 runs on
//! synthetic tables whose *prefix-length distribution* matches the
//! well-known shape of backbone tables of the period: almost no very short
//! prefixes, a bump at /16, and the dominant mass at /24 (>50%). The LPM
//! engines' memory and energy costs depend on exactly this shape plus the
//! route count, which is what the substitution preserves.

use crate::lpm::{LpmTable, Prefix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a synthetic table.
#[derive(Debug, Clone, Copy)]
pub struct RouteTableConfig {
    /// Number of routes to generate.
    pub routes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RouteTableConfig {
    fn default() -> Self {
        RouteTableConfig {
            routes: 16_384,
            seed: 0xB6B_5EED,
        }
    }
}

/// Cumulative prefix-length distribution (length, cumulative probability),
/// shaped like a 2003 backbone table.
const LENGTH_CDF: [(u8, f64); 9] = [
    (8, 0.005),
    (12, 0.02),
    (16, 0.12),
    (18, 0.17),
    (19, 0.24),
    (20, 0.32),
    (21, 0.40),
    (22, 0.50),
    (24, 1.00),
];

fn pick_length<R: Rng>(rng: &mut R) -> u8 {
    let x: f64 = rng.gen();
    for &(len, cum) in &LENGTH_CDF {
        if x <= cum {
            return len;
        }
    }
    24
}

/// Generates `cfg.routes` distinct synthetic prefixes and inserts them into
/// `table`; returns the prefixes (for building matching traffic).
///
/// Next hops are assigned round-robin over 16 egress ports.
pub fn synthetic_table<T: LpmTable + ?Sized>(table: &mut T, cfg: &RouteTableConfig) -> Vec<Prefix> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    #[expect(
        clippy::disallowed_types,
        reason = "ND01: membership tests only, never iterated; Prefix is not Ord"
    )]
    let mut seen = std::collections::HashSet::with_capacity(cfg.routes);
    let mut prefixes = Vec::with_capacity(cfg.routes);
    while prefixes.len() < cfg.routes {
        let len = pick_length(&mut rng);
        // Keep the space publicly-routable-looking: first octet 1..=223.
        let a = rng.gen_range(1u32..=223);
        let rest: u32 = rng.gen();
        let p = Prefix::new((a << 24) | (rest & 0x00FF_FFFF), len);
        if seen.insert(p) {
            table.insert(p, (prefixes.len() % 16) as u32);
            prefixes.push(p);
        }
    }
    prefixes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpm::LinearTable;

    #[test]
    fn generates_requested_count() {
        let mut t = LinearTable::new();
        let cfg = RouteTableConfig {
            routes: 500,
            seed: 1,
        };
        let ps = synthetic_table(&mut t, &cfg);
        assert_eq!(ps.len(), 500);
        assert_eq!(t.route_count(), 500);
    }

    #[test]
    fn distribution_peaks_at_24() {
        let mut t = LinearTable::new();
        let cfg = RouteTableConfig {
            routes: 4000,
            seed: 2,
        };
        let ps = synthetic_table(&mut t, &cfg);
        let n24 = ps.iter().filter(|p| p.len == 24).count();
        let n16 = ps.iter().filter(|p| p.len == 16).count();
        let frac24 = n24 as f64 / ps.len() as f64;
        assert!(frac24 > 0.40 && frac24 < 0.60, "/24 fraction {frac24}");
        assert!(n16 > 0, "some /16s expected");
        assert!(ps.iter().all(|p| p.len >= 8 && p.len <= 24));
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = |seed| {
            let mut t = LinearTable::new();
            synthetic_table(&mut t, &RouteTableConfig { routes: 100, seed })
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn lookups_hit_generated_prefixes() {
        let mut t = LinearTable::new();
        let ps = synthetic_table(
            &mut t,
            &RouteTableConfig {
                routes: 200,
                seed: 3,
            },
        );
        for p in ps.iter().take(50) {
            assert!(t.lookup(p.addr).is_some(), "prefix {p} must be routable");
        }
    }
}
