//! Hardwired IP blocks and communication-oriented I/O channels.
//!
//! §6.4 of the paper: "Of course, hardware will not disappear! But
//! increasingly, it will exist in the form of highly standardized functions,
//! which communicate via a standard protocol" — plus "the I/O component",
//! the standardized line interfaces (SPI-x, PCI evolutions, HyperTransport…)
//! whose integration "will be facilitated by the network-on-chip's
//! standardized protocol".
//!
//! * [`HwIpBlock`] — a fixed-function pipelined accelerator at a NoC node
//!   (the hardwired end of the Figure 1 continuum).
//! * [`IoChannel`] — a line-rate-paced packet source/sink, the component
//!   that drives the 10 Gbit/s worst-case traffic of claim C7.

pub mod block;
pub mod io;

pub use block::HwIpBlock;
pub use io::{IoChannel, IoChannelConfig, IoConfigError};
