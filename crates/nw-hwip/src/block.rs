//! Fixed-function hardwired IP blocks.

use nw_sim::{Clocked, PipelinedServer, ServerFull};
use nw_types::{AreaMm2, Cycles, Picojoules};

/// A hardwired accelerator: a pipelined datapath with fixed function,
/// the far-right point of the paper's Figure 1 continuum (maximum
/// power/performance, zero post-silicon flexibility).
///
/// # Examples
///
/// ```
/// use nw_hwip::HwIpBlock;
/// use nw_sim::Clocked;
/// use nw_types::{AreaMm2, Cycles, Picojoules};
///
/// let mut ip = HwIpBlock::new("mpeg-idct", 1, 12, AreaMm2(0.3), Picojoules(25.0), 32);
/// ip.try_submit(1, Cycles(0)).unwrap();
/// for c in 0..20 { ip.tick(Cycles(c)); }
/// assert_eq!(ip.take_done(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct HwIpBlock {
    name: String,
    server: PipelinedServer,
    area: AreaMm2,
    energy_per_item: Picojoules,
    energy: Picojoules,
}

impl HwIpBlock {
    /// Creates a block accepting one item every `ii` cycles with pipeline
    /// `latency`, occupying `area` and spending `energy_per_item` per item.
    ///
    /// # Panics
    ///
    /// Panics if `ii`, `latency` or `queue_cap` is zero (see
    /// [`PipelinedServer::new`]).
    pub fn new(
        name: &str,
        ii: u64,
        latency: u64,
        area: AreaMm2,
        energy_per_item: Picojoules,
        queue_cap: usize,
    ) -> Self {
        HwIpBlock {
            name: name.to_owned(),
            server: PipelinedServer::new(ii, latency, queue_cap),
            area,
            energy_per_item,
            energy: Picojoules::ZERO,
        }
    }

    /// Block name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Die area of the block.
    pub fn area(&self) -> AreaMm2 {
        self.area
    }

    /// Offers an item.
    ///
    /// # Errors
    ///
    /// [`ServerFull`] when the input queue is at capacity.
    pub fn try_submit(&mut self, id: u64, now: Cycles) -> Result<(), ServerFull> {
        self.server.try_submit(id, now)
    }

    /// Takes the next completed item cookie.
    pub fn take_done(&mut self) -> Option<u64> {
        let r = self.server.take_done();
        if r.is_some() {
            self.energy += self.energy_per_item;
        }
        r
    }

    /// Items completed.
    pub fn served(&self) -> u64 {
        self.server.served()
    }

    /// Total dynamic energy.
    pub fn energy(&self) -> Picojoules {
        self.energy
    }

    /// Whether nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.server.is_idle()
    }

    /// The earliest cycle `>= now` at which ticking the block or taking
    /// its completions can change anything (`None`: drained) — see
    /// [`PipelinedServer::next_event_cycle`].
    pub fn next_event_cycle(&self, now: Cycles) -> Option<Cycles> {
        self.server.next_event_cycle(now)
    }
}

impl Clocked for HwIpBlock {
    fn tick(&mut self, now: Cycles) {
        self.server.tick(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processes_with_fixed_timing() {
        let mut ip = HwIpBlock::new("crc", 2, 6, AreaMm2(0.1), Picojoules(10.0), 8);
        for id in 0..3 {
            ip.try_submit(id, Cycles(0)).unwrap();
        }
        let mut done = Vec::new();
        for c in 0..30 {
            ip.tick(Cycles(c));
            while let Some(id) = ip.take_done() {
                done.push((c, id));
            }
        }
        assert_eq!(done.len(), 3);
        assert_eq!(done[1].0 - done[0].0, 2, "II must pace completions");
        assert!((ip.energy().0 - 30.0).abs() < 1e-9);
        assert_eq!(ip.name(), "crc");
        assert!(ip.is_idle());
    }

    #[test]
    fn ticking_only_at_answered_cycles_equals_ticking_every_cycle() {
        let visit = |tick_on: &dyn Fn(&HwIpBlock, Cycles) -> bool| {
            let mut ip = HwIpBlock::new("fft", 3, 11, AreaMm2(0.1), Picojoules(2.0), 4);
            let mut out = Vec::new();
            for c in 0..400 {
                for k in 0..[4, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0][c % 17] {
                    let _ = ip.try_submit((c * 4 + k) as u64, Cycles(c as u64));
                }
                if tick_on(&ip, Cycles(c as u64)) {
                    ip.tick(Cycles(c as u64));
                    out.extend(ip.take_done().map(|id| (c, id)));
                }
            }
            (out, ip.served(), format!("{:?}", ip.energy()))
        };
        let every = visit(&|_, _| true);
        assert_eq!(every, visit(&|ip, c| ip.next_event_cycle(c) == Some(c)));
        assert!(every.1 > 80, "{} items", every.1);
    }

    #[test]
    fn backpressure_when_queue_full() {
        let mut ip = HwIpBlock::new("x", 1, 1, AreaMm2(0.1), Picojoules(1.0), 1);
        ip.try_submit(0, Cycles(0)).unwrap();
        assert!(ip.try_submit(1, Cycles(0)).is_err());
    }
}
