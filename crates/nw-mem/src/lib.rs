//! Embedded memory subsystem models.
//!
//! The paper names "embedded memory architecture tradeoffs (embedded SRAM,
//! eDRAM and eFlash, vs. external memories)" as one of the two main design
//! issues of multi-level SoC design (§3), and §8 describes an embeddable
//! Flash subsystem for code, data and eFPGA bitstreams. This crate models
//! the four memory technologies with early-2000s timing/energy/area
//! parameters and provides a banked, cycle-stepped [`MemoryController`]
//! that platform nodes attach to the NoC.
//!
//! # Examples
//!
//! ```
//! use nw_mem::{MemoryTechnology, MemorySpec};
//!
//! let sram = MemorySpec::of(MemoryTechnology::Sram);
//! let edram = MemorySpec::of(MemoryTechnology::Edram);
//! // SRAM is faster, eDRAM is denser — the §3 tradeoff.
//! assert!(sram.read_latency < edram.read_latency);
//! assert!(sram.area_mm2_per_mbit.0 > edram.area_mm2_per_mbit.0);
//! ```

pub mod controller;
pub mod model;

pub use controller::{MemRequest, MemResponse, MemoryController, ReqKind, SubmitError};
pub use model::{MemorySpec, MemoryTechnology};
