//! T10 — the crypto offload rig: hwip-bound bulk transfer.
//!
//! §6.4's standardized hardwired IP behind the NoC, measured: bulk
//! payloads stream block-by-block through a shared AES engine and hash
//! engine, so throughput is set by engine initiation intervals and the
//! per-block NoC round trips — the PEs just orchestrate. The line-rate
//! sweep finds the offload ceiling; the block-size ablation shows the
//! trade between per-call overhead (small blocks → more round trips) and
//! engine occupancy.

use super::Ctx;
use crate::Table;
use nanowall::scenarios::crypto_rig;
use nw_apps::CryptoParams;
use nw_sim::parallel_map_with;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct CryptoPoint {
    /// Offered bulk rate in Gb/s.
    pub gbps: f64,
    /// Cipher/auth block size in bytes.
    pub block_bytes: u64,
    /// Fraction of generated payloads authenticated and returned.
    pub delivered_ratio: f64,
    /// Achieved egress rate in Gb/s.
    pub egress_gbps: f64,
    /// Engine calls per delivered payload (cipher pass + auth pass).
    pub engine_calls_per_payload: f64,
    /// Energy per delivered payload in picojoules.
    pub energy_per_payload_pj: f64,
}

/// Structured result.
#[derive(Debug)]
pub struct T10Result {
    /// Line-rate sweep at the default 128 B block.
    pub sweep: Vec<CryptoPoint>,
    /// Block-size ablation at the knee rate.
    pub block_ablation: Vec<CryptoPoint>,
    /// Rendered table.
    pub table: String,
}

fn measure(ctx: Ctx, gbps: f64, block_bytes: u64, cycles: u64) -> CryptoPoint {
    let params = CryptoParams {
        block_bytes,
        ..CryptoParams::default()
    };
    let mut rig = crypto_rig(&params, 4, 8, 4, gbps);
    rig.platform.set_scheduler_mode(ctx.scheduler);
    let report = rig.run(cycles);
    let io = &report.io[0];
    let delivered_ratio = if io.generated == 0 {
        0.0
    } else {
        io.transmitted as f64 / io.generated as f64
    };
    CryptoPoint {
        gbps,
        block_bytes,
        delivered_ratio,
        egress_gbps: report.egress_pps(0) * params.payload_bytes as f64 * 8.0 / 1e9,
        engine_calls_per_payload: if io.transmitted == 0 {
            0.0
        } else {
            report.hwip_served as f64 / io.transmitted as f64
        },
        energy_per_payload_pj: report.energy_per_transmitted(0).map_or(0.0, |e| e.0),
    }
}

/// Runs T10: line-rate sweep, then the block-size ablation.
pub fn run(ctx: Ctx) -> T10Result {
    let cycles = if ctx.fast { 40_000 } else { 120_000 };

    // Sweep points build independent platforms — run them on the sweep
    // pool (input-order results keep the tables byte-identical).
    let sweep: Vec<CryptoPoint> =
        parallel_map_with(ctx.threads, vec![1.0, 2.0, 4.0, 6.0], |gbps| {
            measure(ctx, gbps, 128, cycles)
        });
    let mut t = Table::new(&[
        "line rate",
        "block",
        "delivered",
        "egress",
        "engine calls/payload",
        "pJ/payload",
    ]);
    for p in &sweep {
        t.row_owned(vec![
            format!("{:.1} Gb/s", p.gbps),
            format!("{} B", p.block_bytes),
            format!("{:.0}%", p.delivered_ratio * 100.0),
            format!("{:.2} Gb/s", p.egress_gbps),
            format!("{:.1}", p.engine_calls_per_payload),
            format!("{:.0}", p.energy_per_payload_pj),
        ]);
    }

    let block_ablation: Vec<CryptoPoint> =
        parallel_map_with(ctx.threads, vec![64u64, 128, 256, 512], |block| {
            measure(ctx, 4.0, block, cycles)
        });
    let mut at = Table::new(&["block", "delivered", "egress", "engine calls/payload"]);
    for p in &block_ablation {
        at.row_owned(vec![
            format!("{} B", p.block_bytes),
            format!("{:.0}%", p.delivered_ratio * 100.0),
            format!("{:.2} Gb/s", p.egress_gbps),
            format!("{:.1}", p.engine_calls_per_payload),
        ]);
    }

    T10Result {
        sweep,
        block_ablation,
        table: format!(
            "T10  Crypto offload: bulk payloads through shared AES/hash engines (paper §6.4)\n{}\nBlock-size ablation at 4 Gb/s:\n{}",
            t.render(),
            at.render()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_is_hwip_bound_and_nondegenerate() {
        let r = run(Ctx::new(true));
        let easy = &r.sweep[0];
        assert!(easy.delivered_ratio > 0.8, "{easy:?}");
        assert!(easy.energy_per_payload_pj > 0.0, "{easy:?}");
        // Both passes run: ≥ 2 × blocks_per_payload engine calls (8 + 8
        // at 1024 B payloads with 128 B blocks).
        assert!(easy.engine_calls_per_payload > 14.0, "{easy:?}");
        // Bigger blocks mean fewer calls per payload.
        let small = &r.block_ablation[0];
        let big = r.block_ablation.last().unwrap();
        assert!(
            small.engine_calls_per_payload > big.engine_calls_per_payload,
            "{small:?} vs {big:?}"
        );
        // Throughput rises with offered load (within noise).
        assert!(
            r.sweep.last().unwrap().egress_gbps > easy.egress_gbps,
            "{:?}",
            r.sweep
        );
    }
}
