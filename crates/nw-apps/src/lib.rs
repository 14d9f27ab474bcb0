//! nw-apps — application workloads for the FPPA platform.
//!
//! The paper's platform argument (§7.1) rests on running *real application
//! pipelines* on the fabric, not just the IPv4 case study. This crate is
//! the workload-modeling subsystem: a stage-graph model over the `nw-dsoc`
//! object layer plus three characterized workloads, each stressing a
//! different traffic shape:
//!
//! * [`video`] — the frame-sliced video codec pipeline: memory-bound
//!   (reference-frame fetches from a shared frame store), mostly oneway
//!   streaming flow with 2:1 compression at the entropy coder.
//! * [`modem`] — the modem baseband chain: latency-critical and
//!   twoway-heavy (channel-estimate and link-adaptation round trips on the
//!   burst critical path).
//! * [`crypto`] — the crypto offload rig: hwip-bound bulk transfer (block
//!   streaming through shared AES/hash engines behind the NoC).
//! * [`mix`] — mixed-workload scenarios: independent workloads absorbed
//!   into one application graph ([`PipelineSpec::absorb`]) so they share a
//!   fabric and interfere only through platform resources — the video +
//!   IPv4 interference family of experiment T11.
//!
//! [`stage`] holds the model ([`PipelineSpec`] lowering onto
//! [`nw_dsoc::Application`]). The platform rigs that execute these
//! pipelines live in `nanowall::scenarios` (this crate stays
//! platform-independent, like `nw-ipv4`).

pub mod crypto;
pub mod mix;
pub mod modem;
pub mod stage;
pub mod video;

pub use crypto::{crypto_pipeline, CryptoChannel, CryptoParams, CryptoWorkload};
pub use mix::{video_ipv4_mix, MixPacketChain, MixParams, MixWorkload};
pub use modem::{modem_pipeline, ModemChain, ModemParams, ModemWorkload};
pub use stage::{
    BuildPipelineError, PipelineLayout, PipelineSpec, ServiceDemand, ServiceKind, StageDef,
    StageLink,
};
pub use video::{video_pipeline, VideoLane, VideoParams, VideoWorkload};
