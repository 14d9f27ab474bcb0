//! Shared vocabulary types for the nanowall MP-SoC reproduction.
//!
//! Every other crate in the workspace builds on the newtypes defined here:
//! identifiers for platform resources ([`NodeId`], [`PeId`], [`ThreadId`]),
//! simulated time ([`Cycles`]), physical quantities ([`Bytes`],
//! [`Picojoules`], [`AreaMm2`], [`BitsPerSec`]), the message [`Payload`]
//! the NoC carries, the semiconductor technology ladder ([`TechNode`])
//! the paper's scaling arguments run over, and the embedded-memory
//! technologies ([`MemoryTechnology`], [`MemorySpec`]) PEs and memory
//! nodes are built from.
//!
//! Newtypes are used instead of bare integers so that, for example, a NoC
//! node index can never be confused with a hardware-thread index — exactly
//! the class of mix-up that cycle-level simulators are prone to.
//!
//! # Examples
//!
//! ```
//! use nw_types::{Cycles, TechNode};
//!
//! let latency = Cycles(100) + Cycles(12);
//! assert_eq!(latency.0, 112);
//! assert_eq!(TechNode::N90.feature_nm(), 90);
//! assert_eq!(TechNode::N130.generations_until(TechNode::N45), 3);
//! ```

pub mod ids;
mod model;
pub mod payload;
pub mod tech;
pub mod time;
pub mod units;

pub use ids::{LinkId, NodeId, ObjectId, PeId, PortId, TaskId, ThreadId};
pub use model::{MemorySpec, MemoryTechnology};
pub use payload::Payload;
pub use tech::TechNode;
pub use time::Cycles;
pub use units::{AreaMm2, BitsPerSec, Bytes, Dollars, Picojoules};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_are_usable_together() {
        let n = NodeId(3);
        let c = Cycles(7);
        let b = Bytes(64);
        assert_eq!(format!("{n} {c} {b}"), "node3 7cyc 64B");
    }

    #[test]
    fn types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NodeId>();
        assert_send_sync::<Cycles>();
        assert_send_sync::<TechNode>();
        assert_send_sync::<Picojoules>();
    }
}
