//! Embedded FPGA fabric model.
//!
//! The paper's §6.3 is blunt about embedded FPGAs: they "will complement the
//! processors, but only with limited scope (less than 5% of the IC
//! functionality). The 10X cost and power penalty of eFPGA's will restrict
//! their further use" — yet "for high-speed and simple functions, or highly
//! parallel and regular computations, eFPGA's can play an important role."
//!
//! This module encodes that tradeoff:
//!
//! * [`FabricSpec`] — a LUT-array fabric with the canonical ~10× area and
//!   energy penalty versus hardwired logic and a slower achievable clock.
//! * [`MappedKernel`] — a kernel implemented on the fabric, derived from the
//!   same [`KernelSpec`] a hardwired block would implement, so experiment T4
//!   can compare processor / eFPGA / hardwired points of the continuum.
//! * [`Efpga`] — a cycle-stepped accelerator node: a pipelined server plus
//!   run-time reconfiguration (loading a new bitstream stalls the pipeline,
//!   which is why §6.3 notes eFPGAs are "not well-suited to small scale time
//!   division multiplexing of different tasks").
//!
//! # Examples
//!
//! ```
//! use nanowall::fabric::{FabricSpec, KernelSpec, MappedKernel};
//!
//! let kernel = KernelSpec::checksum_offload();
//! let on_fabric = MappedKernel::map(&kernel, &FabricSpec::default());
//! // The 10x penalties of §6.3.
//! assert!(on_fabric.area.0 > 9.0 * kernel.hw_area.0);
//! assert!(on_fabric.energy_per_item.0 > 9.0 * kernel.hw_energy_per_item.0);
//! ```

use nw_sim::{PipelinedServer, ServerFull};
use nw_types::{AreaMm2, Bytes, Cycles, Picojoules};
use std::fmt;

/// Parameters of an embedded FPGA fabric.
#[derive(Debug, Clone, Copy)]
pub struct FabricSpec {
    /// LUT capacity of the fabric.
    pub luts: u32,
    /// Area penalty versus hardwired logic (the paper's "10X cost").
    pub area_penalty: f64,
    /// Energy penalty versus hardwired logic (the paper's "10X power").
    pub energy_penalty: f64,
    /// Clock slowdown versus hardwired logic (routing fabric overhead).
    pub clock_slowdown: f64,
    /// Configuration port bandwidth in bytes per cycle.
    pub config_bytes_per_cycle: u64,
    /// Bitstream bytes per LUT (determines reconfiguration time).
    pub bitstream_bytes_per_lut: u64,
}

impl Default for FabricSpec {
    fn default() -> Self {
        FabricSpec {
            luts: 20_000,
            area_penalty: 10.0,
            energy_penalty: 10.0,
            clock_slowdown: 3.0,
            config_bytes_per_cycle: 8,
            bitstream_bytes_per_lut: 12,
        }
    }
}

impl FabricSpec {
    /// Cycles to load a full-fabric bitstream of `luts` LUTs.
    pub fn reconfig_cycles(&self, luts: u32) -> Cycles {
        let bytes = luts as u64 * self.bitstream_bytes_per_lut;
        Cycles(bytes.div_ceil(self.config_bytes_per_cycle.max(1)))
    }

    /// Bitstream size for a kernel occupying `luts` LUTs.
    pub fn bitstream_bytes(&self, luts: u32) -> Bytes {
        Bytes(luts as u64 * self.bitstream_bytes_per_lut)
    }
}

/// A fixed-function kernel characterized by its *hardwired* implementation;
/// fabric and processor implementations are derived from it.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Human-readable name.
    pub name: String,
    /// Cycles one item takes on a GP-RISC processor (software baseline).
    pub sw_cycles_per_item: u64,
    /// Hardwired implementation: initiation interval (items accepted every
    /// `hw_ii` cycles).
    pub hw_ii: u64,
    /// Hardwired pipeline latency.
    pub hw_latency: u64,
    /// Hardwired die area.
    pub hw_area: AreaMm2,
    /// Hardwired energy per item.
    pub hw_energy_per_item: Picojoules,
    /// LUTs the kernel occupies when mapped to fabric.
    pub luts: u32,
}

impl KernelSpec {
    /// An IP checksum/CRC offload kernel (simple, regular — an eFPGA sweet
    /// spot per §6.3).
    pub fn checksum_offload() -> KernelSpec {
        KernelSpec {
            name: "checksum-offload".to_owned(),
            sw_cycles_per_item: 120,
            hw_ii: 1,
            hw_latency: 4,
            hw_area: AreaMm2(0.05),
            hw_energy_per_item: Picojoules(15.0),
            luts: 1_500,
        }
    }

    /// A header-field extraction/classification kernel.
    pub fn header_classify() -> KernelSpec {
        KernelSpec {
            name: "header-classify".to_owned(),
            sw_cycles_per_item: 200,
            hw_ii: 2,
            hw_latency: 8,
            hw_area: AreaMm2(0.12),
            hw_energy_per_item: Picojoules(35.0),
            luts: 4_000,
        }
    }

    /// A symmetric crypto round kernel (highly parallel and regular).
    pub fn crypto_round() -> KernelSpec {
        KernelSpec {
            name: "crypto-round".to_owned(),
            sw_cycles_per_item: 600,
            hw_ii: 2,
            hw_latency: 20,
            hw_area: AreaMm2(0.25),
            hw_energy_per_item: Picojoules(90.0),
            luts: 9_000,
        }
    }
}

/// Errors from mapping a kernel onto a fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapKernelError {
    /// The kernel needs more LUTs than the fabric provides.
    DoesNotFit {
        /// LUTs required.
        needed: u32,
        /// LUTs available.
        available: u32,
    },
}

impl fmt::Display for MapKernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapKernelError::DoesNotFit { needed, available } => {
                write!(f, "kernel needs {needed} LUTs, fabric has {available}")
            }
        }
    }
}

impl std::error::Error for MapKernelError {}

/// A kernel as implemented on an eFPGA fabric.
#[derive(Debug, Clone)]
pub struct MappedKernel {
    /// Kernel name.
    pub name: String,
    /// Effective initiation interval (slower fabric clock).
    pub ii: u64,
    /// Effective pipeline latency.
    pub latency: u64,
    /// Fabric area consumed (hardwired area × penalty).
    pub area: AreaMm2,
    /// Energy per item (hardwired energy × penalty).
    pub energy_per_item: Picojoules,
    /// LUTs occupied.
    pub luts: u32,
}

impl MappedKernel {
    /// Derives the fabric implementation of a kernel (infallible variant
    /// that ignores capacity; use [`MappedKernel::try_map`] to check fit).
    pub fn map(k: &KernelSpec, f: &FabricSpec) -> MappedKernel {
        MappedKernel {
            name: k.name.clone(),
            ii: ((k.hw_ii as f64 * f.clock_slowdown).ceil() as u64).max(1),
            latency: ((k.hw_latency as f64 * f.clock_slowdown).ceil() as u64).max(1),
            area: k.hw_area * f.area_penalty,
            energy_per_item: k.hw_energy_per_item * f.energy_penalty,
            luts: k.luts,
        }
    }

    /// Maps a kernel, checking LUT capacity.
    ///
    /// # Errors
    ///
    /// [`MapKernelError::DoesNotFit`] when the kernel exceeds the fabric.
    pub fn try_map(k: &KernelSpec, f: &FabricSpec) -> Result<MappedKernel, MapKernelError> {
        if k.luts > f.luts {
            return Err(MapKernelError::DoesNotFit {
                needed: k.luts,
                available: f.luts,
            });
        }
        Ok(Self::map(k, f))
    }
}

/// A cycle-stepped eFPGA accelerator node.
///
/// Holds at most one configured kernel; [`Efpga::reconfigure`] loads a new
/// one, stalling the pipeline for the bitstream load time.
#[derive(Debug, Clone)]
pub struct Efpga {
    spec: FabricSpec,
    kernel: Option<MappedKernel>,
    server: PipelinedServer,
    energy: Picojoules,
}

impl Efpga {
    /// Creates an unconfigured fabric (submissions fail until a kernel is
    /// loaded).
    pub fn new(spec: FabricSpec) -> Self {
        Efpga {
            spec,
            kernel: None,
            server: PipelinedServer::new(1, 1, 1),
            energy: Picojoules::ZERO,
        }
    }

    /// The fabric parameters.
    pub fn spec(&self) -> &FabricSpec {
        &self.spec
    }

    /// The currently configured kernel, if any.
    pub fn kernel(&self) -> Option<&MappedKernel> {
        self.kernel.as_ref()
    }

    /// Loads `kernel` onto the fabric at cycle `now`; the pipeline stalls
    /// for the bitstream load.
    ///
    /// # Errors
    ///
    /// [`MapKernelError::DoesNotFit`] when the kernel exceeds capacity.
    pub fn reconfigure(&mut self, kernel: &KernelSpec, now: Cycles) -> Result<(), MapKernelError> {
        let mapped = MappedKernel::try_map(kernel, &self.spec)?;
        let downtime = self.spec.reconfig_cycles(mapped.luts);
        let mut server = PipelinedServer::new(mapped.ii, mapped.latency, 64);
        server.stall_until(now + downtime);
        self.server = server;
        self.kernel = Some(mapped);
        Ok(())
    }

    /// Offers an item to the configured kernel.
    ///
    /// # Errors
    ///
    /// [`ServerFull`] when unconfigured or the input queue is full.
    pub fn try_submit(&mut self, id: u64, now: Cycles) -> Result<(), ServerFull> {
        if self.kernel.is_none() {
            return Err(ServerFull);
        }
        self.server.try_submit(id, now)
    }

    /// Takes the next completed item cookie.
    pub fn take_done(&mut self) -> Option<u64> {
        let r = self.server.take_done();
        if r.is_some() {
            if let Some(k) = &self.kernel {
                self.energy += k.energy_per_item;
            }
        }
        r
    }

    /// Items processed so far.
    pub fn served(&self) -> u64 {
        self.server.served()
    }

    /// Total dynamic energy consumed.
    pub fn energy(&self) -> Picojoules {
        self.energy
    }

    /// The earliest cycle `>= now` at which ticking the fabric or taking
    /// its completions can change anything (`None`: drained) — see
    /// [`PipelinedServer::next_event_cycle`]. Reconfiguration downtime
    /// counts: queued items are due when the bitstream load ends.
    pub fn next_event_cycle(&self, now: Cycles) -> Option<Cycles> {
        self.server.next_event_cycle(now)
    }

    /// Advances the fabric by one clock cycle.
    pub fn tick(&mut self, now: Cycles) {
        self.server.tick(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(e: &mut Efpga, from: u64, upto: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for c in from..upto {
            e.tick(Cycles(c));
            while let Some(id) = e.take_done() {
                out.push((c, id));
            }
        }
        out
    }

    #[test]
    fn ten_x_penalties_hold() {
        let f = FabricSpec::default();
        for k in [
            KernelSpec::checksum_offload(),
            KernelSpec::header_classify(),
            KernelSpec::crypto_round(),
        ] {
            let m = MappedKernel::map(&k, &f);
            assert!((m.area.0 / k.hw_area.0 - 10.0).abs() < 1e-9, "{}", k.name);
            assert!(
                (m.energy_per_item.0 / k.hw_energy_per_item.0 - 10.0).abs() < 1e-9,
                "{}",
                k.name
            );
            assert!(m.ii >= k.hw_ii, "fabric cannot be faster than hardwired");
        }
    }

    #[test]
    fn fabric_still_beats_software_on_throughput() {
        // §6.3: "for high-speed and simple functions ... eFPGA's can play an
        // important role": items per cycle on fabric >> software.
        let k = KernelSpec::checksum_offload();
        let m = MappedKernel::map(&k, &FabricSpec::default());
        let fabric_rate = 1.0 / m.ii as f64;
        let sw_rate = 1.0 / k.sw_cycles_per_item as f64;
        assert!(fabric_rate > 10.0 * sw_rate);
    }

    #[test]
    fn kernel_too_big_is_rejected() {
        let small = FabricSpec {
            luts: 1_000,
            ..FabricSpec::default()
        };
        let k = KernelSpec::crypto_round();
        let err = MappedKernel::try_map(&k, &small).unwrap_err();
        assert_eq!(
            err,
            MapKernelError::DoesNotFit {
                needed: 9_000,
                available: 1_000
            }
        );
        let mut e = Efpga::new(small);
        assert!(e.reconfigure(&k, Cycles(0)).is_err());
    }

    #[test]
    fn unconfigured_fabric_rejects_work() {
        let mut e = Efpga::new(FabricSpec::default());
        assert!(e.try_submit(1, Cycles(0)).is_err());
    }

    #[test]
    fn reconfiguration_stalls_processing() {
        let mut e = Efpga::new(FabricSpec::default());
        let k = KernelSpec::checksum_offload();
        e.reconfigure(&k, Cycles(0)).unwrap();
        let downtime = e.spec().reconfig_cycles(k.luts).0;
        assert!(
            downtime > 1_000,
            "bitstream load should be slow: {downtime}"
        );
        e.try_submit(1, Cycles(0)).unwrap();
        // Nothing completes before the bitstream finishes loading.
        let early = drive(&mut e, 0, downtime / 2);
        assert!(early.is_empty());
        let late = drive(&mut e, downtime / 2, downtime + 100);
        assert_eq!(late.len(), 1);
    }

    #[test]
    fn pipelined_throughput_after_configuration() {
        let mut e = Efpga::new(FabricSpec::default());
        let k = KernelSpec::checksum_offload(); // hw_ii=1 → fabric ii=3
        e.reconfigure(&k, Cycles(0)).unwrap();
        let start = e.spec().reconfig_cycles(k.luts).0 + 10;
        for id in 0..8 {
            e.try_submit(id, Cycles(start)).unwrap();
        }
        let done = drive(&mut e, 0, start + 100);
        assert_eq!(done.len(), 8);
        // Completions 3 cycles apart (fabric clock slowdown).
        assert_eq!(done[1].0 - done[0].0, 3);
        assert!(e.energy().0 > 0.0);
    }

    /// Visits a fabric on cycles `0..upto`: a kernel loaded at cycle 0 and
    /// another at cycle 2600 (mid-stream: the queue is lost, the pipeline
    /// stalls for the load), submissions every 7th cycle, ticking and
    /// draining on the cycles `tick_on` selects.
    fn visit(upto: u64, tick_on: impl Fn(&Efpga, Cycles) -> bool) -> (Vec<(u64, u64)>, String) {
        let mut e = Efpga::new(FabricSpec::default());
        let mut out = Vec::new();
        for c in 0..upto {
            if c == 0 {
                e.reconfigure(&KernelSpec::checksum_offload(), Cycles(c))
                    .unwrap();
            } else if c == 2_600 {
                e.reconfigure(&KernelSpec::header_classify(), Cycles(c))
                    .unwrap();
            }
            if c % 7 == 0 {
                let _ = e.try_submit(c, Cycles(c));
            }
            if tick_on(&e, Cycles(c)) {
                e.tick(Cycles(c));
                while let Some(id) = e.take_done() {
                    out.push((c, id));
                }
            }
        }
        (out, format!("{} {:?}", e.served(), e.energy()))
    }

    #[test]
    fn ticking_only_at_answered_cycles_equals_ticking_every_cycle() {
        // 2250 and 6000 cycles of bitstream load: both downtimes, the
        // backlog that builds behind each and its drain are inside the run.
        let every = visit(12_000, |_, _| true);
        let answered = visit(12_000, |e, c| e.next_event_cycle(c) == Some(c));
        assert_eq!(every, answered);
        assert!(every.0.len() > 400, "{} items", every.0.len());
        let mut e = Efpga::new(FabricSpec::default());
        e.reconfigure(&KernelSpec::checksum_offload(), Cycles(0))
            .unwrap();
        assert_eq!(e.next_event_cycle(Cycles(5)), None, "nothing queued");
        e.try_submit(1, Cycles(5)).unwrap();
        assert_eq!(e.next_event_cycle(Cycles(5)), Some(Cycles(2_250)));
    }

    #[test]
    fn second_reconfig_replaces_kernel() {
        let mut e = Efpga::new(FabricSpec::default());
        e.reconfigure(&KernelSpec::checksum_offload(), Cycles(0))
            .unwrap();
        e.reconfigure(&KernelSpec::header_classify(), Cycles(100))
            .unwrap();
        assert_eq!(e.kernel().unwrap().name, "header-classify");
    }
}
