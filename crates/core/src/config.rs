//! Platform configuration: declaring an FPPA instance.

use crate::fabric::FabricSpec;
use crate::io::{IoChannelConfig, IoConfigError};
use nw_noc::{NocConfig, TopologyKind};
use nw_pe::PeConfig;
use nw_types::{AreaMm2, MemoryTechnology, Picojoules, TechNode};
use std::fmt;

/// A memory macro attached to the NoC.
#[derive(Debug, Clone, Copy)]
pub struct MemoryBlockConfig {
    /// Memory technology.
    pub technology: MemoryTechnology,
    /// Number of banks.
    pub banks: usize,
    /// Per-bank request queue depth.
    pub queue_depth: usize,
    /// Capacity in megabits (area accounting).
    pub mbits: f64,
}

impl MemoryBlockConfig {
    /// A 4-bank macro of the given technology and capacity.
    pub fn new(technology: MemoryTechnology, mbits: f64) -> Self {
        MemoryBlockConfig {
            technology,
            banks: 4,
            queue_depth: 16,
            mbits,
        }
    }
}

/// A hardwired IP block attached to the NoC.
#[derive(Debug, Clone)]
pub struct HwIpConfig {
    /// Block name.
    pub name: String,
    /// Initiation interval (cycles per accepted item).
    pub ii: u64,
    /// Pipeline latency.
    pub latency: u64,
    /// Die area.
    pub area: AreaMm2,
    /// Energy per item.
    pub energy_per_item: Picojoules,
}

/// Error from [`FppaPlatform::new`](crate::FppaPlatform::new).
#[derive(Debug, Clone, PartialEq)]
pub enum BuildPlatformError {
    /// The configuration declares no processing elements.
    NoPes,
    /// Topology construction failed.
    Topology(nw_noc::BuildTopologyError),
    /// The NoC timing configuration cannot move traffic.
    Noc(nw_noc::NocConfigError),
    /// I/O channel `index` (declaration order) cannot be paced.
    Io {
        /// Index into [`FppaConfig::io`].
        index: usize,
        /// What is wrong with it.
        reason: IoConfigError,
    },
    /// PE `index` (declaration order) has a context count no [`Pe`] can
    /// be built with.
    ///
    /// [`Pe`]: nw_pe::Pe
    Pe {
        /// Index into [`FppaConfig::pes`].
        index: usize,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// Memory `index` (declaration order) has no bank or no bank queue.
    Memory {
        /// Index into [`FppaConfig::memories`].
        index: usize,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// Hardwired block `index` (declaration order) has a zero initiation
    /// interval or latency.
    HwIp {
        /// Index into [`FppaConfig::hwip`].
        index: usize,
        /// What is wrong with it.
        reason: &'static str,
    },
}

impl fmt::Display for BuildPlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildPlatformError::NoPes => write!(f, "platform needs at least one PE"),
            BuildPlatformError::Topology(e) => write!(f, "topology: {e}"),
            BuildPlatformError::Noc(e) => write!(f, "NoC configuration: {e}"),
            BuildPlatformError::Io { index, reason } => write!(f, "I/O channel {index}: {reason}"),
            BuildPlatformError::Pe { index, reason } => write!(f, "PE {index}: {reason}"),
            BuildPlatformError::Memory { index, reason } => write!(f, "memory {index}: {reason}"),
            BuildPlatformError::HwIp { index, reason } => {
                write!(f, "hardwired IP {index}: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildPlatformError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildPlatformError::Topology(e) => Some(e),
            BuildPlatformError::Noc(e) => Some(e),
            BuildPlatformError::Io { reason, .. } => Some(reason),
            BuildPlatformError::NoPes
            | BuildPlatformError::Pe { .. }
            | BuildPlatformError::Memory { .. }
            | BuildPlatformError::HwIp { .. } => None,
        }
    }
}

impl From<nw_noc::BuildTopologyError> for BuildPlatformError {
    fn from(e: nw_noc::BuildTopologyError) -> Self {
        BuildPlatformError::Topology(e)
    }
}

/// Declarative description of an FPPA platform instance (Figure 2).
///
/// Components are assigned NoC endpoints in declaration order: all PEs
/// first, then memories, eFPGA fabrics, hardwired IP, and I/O channels.
#[derive(Debug, Clone)]
pub struct FppaConfig {
    /// Platform name (reports).
    pub name: String,
    /// NoC topology family.
    pub topology: TopologyKind,
    /// Technology node (sets the link latency via the wire-delay model when
    /// `link_latency` is `None`).
    pub tech: TechNode,
    /// NoC timing configuration.
    pub noc: NocConfig,
    /// Per-hop link latency override in cycles.
    pub link_latency: Option<u64>,
    /// Processing elements.
    pub pes: Vec<PeConfig>,
    /// Shared memory macros.
    pub memories: Vec<MemoryBlockConfig>,
    /// Embedded FPGA fabrics.
    pub fabrics: Vec<FabricSpec>,
    /// Hardwired IP blocks.
    pub hwip: Vec<HwIpConfig>,
    /// I/O channels.
    pub io: Vec<IoChannelConfig>,
}

impl FppaConfig {
    /// A platform at the paper's 0.13 µm "today" node with default NoC
    /// timing and no components (add PEs before building).
    pub fn new(name: &str, topology: TopologyKind) -> Self {
        FppaConfig {
            name: name.to_owned(),
            topology,
            tech: TechNode::N130,
            noc: NocConfig::default(),
            link_latency: None,
            pes: Vec::new(),
            memories: Vec::new(),
            fabrics: Vec::new(),
            hwip: Vec::new(),
            io: Vec::new(),
        }
    }

    /// Adds a PE, returning its index.
    pub fn add_pe(&mut self, pe: PeConfig) -> usize {
        self.pes.push(pe);
        self.pes.len() - 1
    }

    /// Adds a memory macro, returning its index.
    pub fn add_memory(&mut self, m: MemoryBlockConfig) -> usize {
        self.memories.push(m);
        self.memories.len() - 1
    }

    /// Adds an eFPGA fabric, returning its index.
    pub fn add_fabric(&mut self, f: FabricSpec) -> usize {
        self.fabrics.push(f);
        self.fabrics.len() - 1
    }

    /// Adds a hardwired IP block, returning its index.
    pub fn add_hwip(&mut self, h: HwIpConfig) -> usize {
        self.hwip.push(h);
        self.hwip.len() - 1
    }

    /// Adds an I/O channel, returning its index.
    pub fn add_io(&mut self, io: IoChannelConfig) -> usize {
        self.io.push(io);
        self.io.len() - 1
    }

    /// Total NoC endpoints the platform occupies.
    pub fn n_endpoints(&self) -> usize {
        self.pes.len() + self.memories.len() + self.fabrics.len() + self.hwip.len() + self.io.len()
    }

    /// Effective per-hop link latency: the override if set, otherwise the
    /// wire-delay model at this node for a die-edge/8 hop (mesh-scale hop
    /// length), at least 1 cycle.
    pub fn effective_link_latency(&self) -> u64 {
        self.link_latency.unwrap_or_else(|| {
            let hop_mm = self.tech.die_edge_mm() / 8.0;
            (nw_econ::cross_chip_delay_cycles(self.tech, hop_mm).ceil() as u64).max(1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_pe::PeClass;

    #[test]
    fn endpoint_counting() {
        let mut c = FppaConfig::new("t", TopologyKind::Mesh);
        c.add_pe(PeConfig::new(PeClass::GpRisc, 2));
        c.add_pe(PeConfig::new(PeClass::GpRisc, 2));
        c.add_memory(MemoryBlockConfig::new(MemoryTechnology::Sram, 2.0));
        c.add_io(IoChannelConfig::ten_gbe_worst_case());
        assert_eq!(c.n_endpoints(), 4);
    }

    #[test]
    fn link_latency_override_and_model() {
        let mut c = FppaConfig::new("t", TopologyKind::Ring);
        assert!(c.effective_link_latency() >= 1);
        c.link_latency = Some(25);
        assert_eq!(c.effective_link_latency(), 25);
    }

    #[test]
    fn newer_node_raises_model_link_latency() {
        let mut a = FppaConfig::new("a", TopologyKind::Ring);
        a.tech = TechNode::N180;
        let mut b = FppaConfig::new("b", TopologyKind::Ring);
        b.tech = TechNode::N50;
        assert!(b.effective_link_latency() >= a.effective_link_latency());
    }

    #[test]
    fn unpaceable_io_channels_are_build_errors_naming_the_channel() {
        use crate::FppaPlatform;
        use nw_types::{BitsPerSec, Bytes};
        let ok = IoChannelConfig::ten_gbe_worst_case();
        let build = |bad: IoChannelConfig| {
            let mut c = FppaConfig::new("t", TopologyKind::Ring);
            c.add_pe(PeConfig::new(PeClass::GpRisc, 2));
            c.add_io(ok);
            c.add_io(bad);
            FppaPlatform::new(c).map(|_| ())
        };
        let io = |reason| Err(BuildPlatformError::Io { index: 1, reason });
        assert_eq!(build(ok), Ok(()));
        assert_eq!(
            build(IoChannelConfig {
                packet_bytes: Bytes(0),
                ..ok
            }),
            io(IoConfigError::ZeroPacket)
        );
        for clock_hz in [0.0, -1.0, f64::INFINITY] {
            assert_eq!(
                build(IoChannelConfig { clock_hz, ..ok }),
                io(IoConfigError::Clock(clock_hz))
            );
        }
        for rate in [-1.0, f64::INFINITY] {
            assert_eq!(
                build(IoChannelConfig {
                    rate: BitsPerSec(rate),
                    ..ok
                }),
                io(IoConfigError::Rate(rate))
            );
        }
        // NaN never compares equal, so match on the shape.
        for bad in [
            IoChannelConfig {
                clock_hz: f64::NAN,
                ..ok
            },
            IoChannelConfig {
                rate: BitsPerSec(f64::NAN),
                ..ok
            },
        ] {
            assert!(matches!(
                build(bad),
                Err(BuildPlatformError::Io { index: 1, .. })
            ));
        }
        assert_eq!(
            build(IoChannelConfig {
                packet_bytes: Bytes(u64::MAX / 8),
                ..ok
            }),
            io(IoConfigError::CostOverflow)
        );
        let err = build(IoChannelConfig {
            packet_bytes: Bytes(0),
            ..ok
        })
        .expect_err("rejected above");
        assert_eq!(err.to_string(), "I/O channel 1: packet size is zero");
    }

    #[test]
    fn a_pe_without_contexts_is_a_build_error_naming_the_pe() {
        use crate::FppaPlatform;
        let mut c = FppaConfig::new("t", TopologyKind::Ring);
        c.add_pe(PeConfig::new(PeClass::GpRisc, 2));
        c.add_pe(PeConfig::new(PeClass::GpRisc, 2));
        c.pes[1].n_threads = 0;
        let err = FppaPlatform::new(c)
            .map(|_| ())
            .expect_err("nothing to tick");
        assert!(matches!(err, BuildPlatformError::Pe { index: 1, .. }));
        assert_eq!(err.to_string(), "PE 1: no thread contexts");
    }

    /// Builds a ring with one PE, a good memory and hardwired block, then
    /// `mem` and `hwip`: the error, if any.
    fn build_services(mem: MemoryBlockConfig, hwip: HwIpConfig) -> Result<(), BuildPlatformError> {
        let mut c = FppaConfig::new("t", TopologyKind::Ring);
        c.add_pe(PeConfig::new(PeClass::GpRisc, 2));
        c.add_memory(MemoryBlockConfig::new(MemoryTechnology::Sram, 1.0));
        c.add_memory(mem);
        c.add_hwip(good_hwip());
        c.add_hwip(hwip);
        crate::FppaPlatform::new(c).map(|_| ())
    }

    fn good_hwip() -> HwIpConfig {
        HwIpConfig {
            name: "crc".into(),
            ii: 1,
            latency: 4,
            area: AreaMm2(0.1),
            energy_per_item: Picojoules(1.0),
        }
    }

    #[test]
    fn a_memory_without_banks_is_a_build_error_naming_it() {
        let mem = MemoryBlockConfig::new(MemoryTechnology::Edram, 2.0);
        assert_eq!(build_services(mem, good_hwip()), Ok(()));
        let err = build_services(MemoryBlockConfig { banks: 0, ..mem }, good_hwip());
        let err = err.expect_err("no bank to serve from");
        assert!(matches!(err, BuildPlatformError::Memory { index: 1, .. }));
        assert_eq!(err.to_string(), "memory 1: no banks");
    }

    #[test]
    fn a_memory_without_queue_depth_is_a_build_error_naming_it() {
        let mem = MemoryBlockConfig::new(MemoryTechnology::Edram, 2.0);
        let err = build_services(
            MemoryBlockConfig {
                queue_depth: 0,
                ..mem
            },
            good_hwip(),
        );
        let err = err.expect_err("no room for a request");
        assert!(matches!(err, BuildPlatformError::Memory { index: 1, .. }));
        assert_eq!(err.to_string(), "memory 1: no bank queue capacity");
    }

    #[test]
    fn a_hwip_with_zero_initiation_interval_is_a_build_error_naming_it() {
        let mem = MemoryBlockConfig::new(MemoryTechnology::Sram, 1.0);
        let hwip = HwIpConfig {
            ii: 0,
            ..good_hwip()
        };
        let err = build_services(mem, hwip).expect_err("unbounded issue rate");
        assert!(matches!(err, BuildPlatformError::HwIp { index: 1, .. }));
        assert_eq!(err.to_string(), "hardwired IP 1: zero initiation interval");
    }

    #[test]
    fn a_hwip_with_zero_latency_is_a_build_error_naming_it() {
        let mem = MemoryBlockConfig::new(MemoryTechnology::Sram, 1.0);
        let hwip = HwIpConfig {
            latency: 0,
            ..good_hwip()
        };
        let err = build_services(mem, hwip).expect_err("an item done before it starts");
        assert!(matches!(err, BuildPlatformError::HwIp { index: 1, .. }));
        assert_eq!(err.to_string(), "hardwired IP 1: zero pipeline latency");
    }

    #[test]
    fn a_pe_with_more_contexts_than_a_set_word_is_a_build_error_naming_the_pe() {
        use crate::FppaPlatform;
        let build = |n_threads| {
            let mut c = FppaConfig::new("t", TopologyKind::Ring);
            c.add_pe(PeConfig::new(PeClass::GpRisc, 2));
            c.pes[0].n_threads = n_threads;
            FppaPlatform::new(c).map(|_| ())
        };
        // The bound is the PE's own: 64 builds there too.
        assert_eq!(build(64), Ok(()));
        let err = build(65).expect_err("one more than the sets hold");
        assert!(matches!(err, BuildPlatformError::Pe { index: 0, .. }));
        assert_eq!(err.to_string(), "PE 0: more than 64 thread contexts");
    }

    #[test]
    fn unusable_noc_timing_is_a_build_error() {
        use crate::FppaPlatform;
        use nw_noc::NocConfigError;
        let build = |noc: NocConfig| {
            let mut c = FppaConfig::new("t", TopologyKind::Ring);
            c.noc = noc;
            c.add_pe(PeConfig::new(PeClass::GpRisc, 2));
            FppaPlatform::new(c).map(|_| ())
        };
        let ok = NocConfig::default();
        assert_eq!(build(ok), Ok(()));
        assert_eq!(
            build(NocConfig {
                flit_bytes: 0,
                ..ok
            }),
            Err(BuildPlatformError::Noc(NocConfigError::ZeroFlitBytes))
        );
        let err = build(NocConfig {
            ni_capacity: 0,
            ..ok
        })
        .expect_err("no NI could accept a packet");
        assert_eq!(err, BuildPlatformError::Noc(NocConfigError::ZeroNiCapacity));
        assert_eq!(
            err.to_string(),
            "NoC configuration: NI queue depth is zero: every injection is refused"
        );
        // The platform sizes the pool to the credit round trip itself, so
        // an undersized `input_buffer` is raised, not rejected.
        assert_eq!(
            build(NocConfig {
                input_buffer: 0,
                ..ok
            }),
            Ok(())
        );
    }
}
