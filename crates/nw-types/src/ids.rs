//! Identifier newtypes for platform resources.
//!
//! All identifiers are plain `usize` indices wrapped for type safety. They
//! are `Copy`, ordered, hashable and displayable, so they can be used as map
//! keys and in log lines without ceremony.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub usize);

        impl $name {
            /// Returns the raw index.
            #[inline]
            pub fn index(self) -> usize {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                $name(v)
            }
        }

        impl From<$name> for usize {
            fn from(v: $name) -> usize {
                v.0
            }
        }
    };
}

id_type!(
    /// Index of a node (router endpoint) on the network-on-chip.
    ///
    /// Every platform component that talks on the NoC — processor, memory
    /// controller, eFPGA, hardwired IP, I/O channel — occupies exactly one
    /// node.
    NodeId,
    "node"
);

id_type!(
    /// Index of a processing element within the platform.
    PeId,
    "pe"
);

id_type!(
    /// Index of a hardware thread context within one processing element.
    ThreadId,
    "thr"
);

id_type!(
    /// Index of a DSOC object within an application graph.
    ObjectId,
    "obj"
);

id_type!(
    /// Index of a directed link in a NoC topology graph.
    LinkId,
    "link"
);

id_type!(
    /// Index of a router port.
    PortId,
    "port"
);

id_type!(
    /// Index of a schedulable task (used by mapping and the PE VM).
    TaskId,
    "task"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(NodeId(0).to_string(), "node0");
        assert_eq!(PeId(12).to_string(), "pe12");
        assert_eq!(ThreadId(3).to_string(), "thr3");
        assert_eq!(ObjectId(9).to_string(), "obj9");
    }

    #[test]
    fn conversions_roundtrip() {
        let n: NodeId = 42usize.into();
        let raw: usize = n.into();
        assert_eq!(raw, 42);
        assert_eq!(n.index(), 42);
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "ND01: the test pins the Hash derive; nothing iterates the set"
    )]
    fn ids_are_ordered_and_hashable() {
        assert!(NodeId(1) < NodeId(2));
        let set: std::collections::HashSet<PeId> =
            [PeId(1), PeId(1), PeId(2)].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId(0));
    }
}
