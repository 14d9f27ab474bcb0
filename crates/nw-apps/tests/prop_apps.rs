//! Property tests for the workload subsystem: flow conservation of the
//! analytic stage rates.

use nw_apps::{
    crypto_pipeline, modem_pipeline, video_pipeline, CryptoParams, ModemParams, VideoParams,
};
use proptest::prelude::*;

proptest! {
    // Pinned effort for CI determinism; override with PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The three shipped workloads lower to valid applications whose
    /// analytic rates conserve flow: every lane/chain/channel entry item
    /// reaches the pipeline tail exactly once.
    #[test]
    fn workload_rates_conserve_flow(rate in 0.0005f64..0.01) {
        let v = video_pipeline(&VideoParams::default());
        let rates = v.spec.stage_rates(&vec![rate; v.lanes.len()]);
        for lane in &v.lanes {
            prop_assert!((rates[lane.ingest] - rate).abs() < 1e-12);
            prop_assert!((rates[lane.pack] - rate).abs() < 1e-12);
        }

        let m = modem_pipeline(&ModemParams::default());
        let rates = m.spec.stage_rates(&vec![rate; m.chains.len()]);
        for chain in &m.chains {
            prop_assert!((rates[chain.mac_out] - rate).abs() < 1e-12);
        }

        let c = crypto_pipeline(&CryptoParams::default());
        let rates = c.spec.stage_rates(&vec![rate; c.channels.len()]);
        for ch in &c.channels {
            prop_assert!((rates[ch.egress] - rate).abs() < 1e-12);
        }
    }
}
