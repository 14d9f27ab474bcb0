//! The crypto offload rig: hwip-bound bulk transfer.
//!
//! Bulk payloads (IPsec-style 1 KiB datagrams) flow dma-ingest → cipher →
//! auth → dma-egress. The cipher and auth stages do almost no PE compute —
//! they stream blocks through hardwired engines (an AES core and a hash
//! core) with one synchronous NoC call per block. Throughput is therefore
//! set by the engines' initiation intervals and by how well the threads
//! cover the per-block round trips, not by PE arithmetic: the paper's
//! argument for standardized hardwired IP behind the NoC.

use crate::stage::{PipelineSpec, ServiceDemand, ServiceKind, StageDef};
use nw_dsoc::Domain;

/// Tunable parameters of the crypto-offload workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CryptoParams {
    /// Parallel DMA channels.
    pub channels: usize,
    /// Bytes per bulk payload.
    pub payload_bytes: u64,
    /// Cipher-block size (one hwip call per block).
    pub block_bytes: u64,
}

impl Default for CryptoParams {
    fn default() -> Self {
        CryptoParams {
            channels: 2,
            payload_bytes: 1024,
            block_bytes: 128,
        }
    }
}

impl CryptoParams {
    /// Hwip calls per payload for one full pass over the data.
    pub fn blocks_per_payload(&self) -> u32 {
        self.payload_bytes.div_ceil(self.block_bytes).max(1) as u32
    }
}

/// Stage indices of one DMA channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryptoChannel {
    /// DMA ingest (entry stage).
    pub ingest: usize,
    /// Cipher stage (AES hwip-bound).
    pub cipher: usize,
    /// Authentication stage (hash hwip-bound).
    pub auth: usize,
    /// DMA egress stage.
    pub egress: usize,
}

/// The built crypto workload.
#[derive(Debug, Clone)]
pub struct CryptoWorkload {
    /// The stage graph.
    pub spec: PipelineSpec,
    /// Per-channel stages.
    pub channels: Vec<CryptoChannel>,
}

/// Builds the crypto offload pipeline with `params.channels` DMA channels.
/// All cipher stages share one AES engine and all auth stages share one
/// hash engine (the rig maps the two [`ServiceKind::HwIp`] demands onto
/// two distinct hardwired blocks).
///
/// # Panics
///
/// Panics if `params.channels == 0`.
pub fn crypto_pipeline(params: &CryptoParams) -> CryptoWorkload {
    assert!(params.channels > 0, "crypto needs at least one channel");
    let blocks = params.blocks_per_payload();
    let mut p = PipelineSpec::new("crypto-offload");
    let mut channels = Vec::with_capacity(params.channels);
    for c in 0..params.channels {
        let ingest = p.add_stage(
            StageDef::new(&format!("dma-ingest-{c}"), params.payload_bytes)
                .with_compute(60)
                .with_working_set(256)
                .with_state(16 * 1024)
                .with_domain(Domain::Control),
        );
        let cipher = p.add_stage(
            StageDef::new(&format!("cipher-{c}"), params.payload_bytes)
                .with_compute(90)
                .with_working_set(512)
                .with_state(8 * 1024)
                .with_domain(Domain::Generic)
                .with_service(ServiceDemand {
                    kind: ServiceKind::HwIp,
                    request_bytes: params.block_bytes,
                    reply_bytes: params.block_bytes,
                    calls_per_item: blocks,
                }),
        );
        let auth = p.add_stage(
            StageDef::new(&format!("auth-{c}"), params.payload_bytes)
                .with_compute(70)
                .with_working_set(256)
                .with_state(8 * 1024)
                .with_domain(Domain::Generic)
                .with_service(ServiceDemand {
                    kind: ServiceKind::HwIp,
                    request_bytes: params.block_bytes,
                    reply_bytes: 32,
                    calls_per_item: blocks,
                }),
        );
        let egress = p.add_stage(
            StageDef::new(&format!("dma-egress-{c}"), params.payload_bytes)
                .with_compute(50)
                .with_working_set(128)
                .with_state(16 * 1024)
                .with_domain(Domain::Control),
        );
        p.link(ingest, cipher, 1.0)
            .link(cipher, auth, 1.0)
            .link(auth, egress, 1.0)
            .entry(ingest);
        channels.push(CryptoChannel {
            ingest,
            cipher,
            auth,
            egress,
        });
    }
    CryptoWorkload { spec: p, channels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape() {
        let w = crypto_pipeline(&CryptoParams::default());
        assert_eq!(w.channels.len(), 2);
        assert_eq!(w.spec.n_stages(), 2 * 4);
        let (_, layout) = w.spec.to_application().unwrap();
        // Two hwip-bound stages per channel.
        assert_eq!(layout.services.len(), 4);
        assert!(layout
            .services
            .iter()
            .all(|(_, d)| d.kind == ServiceKind::HwIp));
    }

    #[test]
    fn hwip_traffic_dominates_compute_traffic() {
        let p = CryptoParams::default();
        let w = crypto_pipeline(&p);
        let (_, layout) = w.spec.to_application().unwrap();
        let hwip_bytes: u64 = layout
            .services
            .iter()
            .map(|(_, d)| (d.request_bytes + d.reply_bytes) * u64::from(d.calls_per_item))
            .sum();
        // Per payload the engines move more bytes than the payload itself:
        // a full cipher pass each way plus the auth pass.
        assert!(hwip_bytes > 2 * p.payload_bytes * w.channels.len() as u64);
    }

    #[test]
    fn block_count_rounds_up() {
        let p = CryptoParams {
            payload_bytes: 1000,
            block_bytes: 128,
            ..CryptoParams::default()
        };
        assert_eq!(p.blocks_per_payload(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_panics() {
        crypto_pipeline(&CryptoParams {
            channels: 0,
            ..CryptoParams::default()
        });
    }
}
