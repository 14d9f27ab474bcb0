//! Micro-op programs: the PE's ISA abstraction.
//!
//! The reproduction does not interpret a concrete instruction set — the
//! paper's claims depend only on *timing* behaviour (how long a handler
//! computes, when it stalls on the NoC or memory). A [`Program`] is a
//! straight-line sequence of timed micro-ops, typically synthesized by the
//! DSOC runtime from an object's method descriptor and dispatched onto an
//! idle hardware thread per invocation.

use crate::class::KernelDomain;
use nw_types::{NodeId, Payload};

/// One micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Busy-compute for this many GP-RISC-baseline cycles (scaled by the
    /// executing PE's class speedup for the program's domain).
    Compute(u64),
    /// Access the PE-local scratchpad memory; the thread stalls for the
    /// scratchpad's service time but nothing crosses the NoC.
    LocalMem {
        /// Write if true, read otherwise.
        write: bool,
        /// Access size.
        bytes: u64,
    },
    /// Fire-and-forget message to another node (packet forward, async
    /// reply). The thread stalls only until the NI accepts the packet.
    Send {
        /// Destination endpoint.
        dst: NodeId,
        /// Payload size on the wire.
        bytes: u64,
        /// Marshalled payload carried verbatim (may be empty), padded with
        /// zeros to `bytes` on the wire.
        data: Payload,
        /// Opaque NoC tag (the DSOC runtime uses it to flag replies).
        tag: u64,
    },
    /// Synchronous request/response to another node (remote memory read,
    /// DSOC method call). The thread blocks until the response returns —
    /// this is the latency that hardware multithreading hides.
    Call {
        /// Destination endpoint.
        dst: NodeId,
        /// Request payload size on the wire.
        bytes: u64,
        /// Expected response size.
        reply_bytes: u64,
        /// Marshalled request payload (may be empty), padded with zeros
        /// to `bytes` on the wire.
        data: Payload,
    },
}

// A PE keeps every thread's program and its retired op buffers: the heap
// footprint's `PEs` column of a fork grows by any growth per op.
const _: () = assert!(std::mem::size_of::<Op>() <= 48);

impl Op {
    /// Shorthand for a call with no marshalled payload.
    pub fn call(dst: NodeId, bytes: u64, reply_bytes: u64) -> Op {
        Op::Call {
            dst,
            bytes,
            reply_bytes,
            data: Payload::EMPTY,
        }
    }
}

/// A straight-line micro-op program with a kernel domain annotation.
///
/// # Examples
///
/// ```
/// use nw_pe::{Program, Op, KernelDomain};
/// use nw_types::NodeId;
///
/// let p = Program::new(
///     [Op::Compute(50), Op::call(NodeId(3), 16, 64), Op::Compute(30)],
///     KernelDomain::PacketHeader,
/// );
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.call_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    ops: Vec<Op>,
    domain: KernelDomain,
}

impl Program {
    /// Creates a program from ops and a domain annotation.
    pub fn new(ops: impl IntoIterator<Item = Op>, domain: KernelDomain) -> Self {
        Program {
            ops: ops.into_iter().collect(),
            domain,
        }
    }

    /// Creates a program that owns `ops` as they are: unlike
    /// [`Program::new`], it keeps the buffer, so a program built in a
    /// recycled one ([`crate::Pe::take_spare_ops`]) allocates nothing.
    pub fn from_ops(ops: Vec<Op>, domain: KernelDomain) -> Self {
        Program { ops, domain }
    }

    /// Creates a generic-domain program.
    pub fn straight_line(ops: impl IntoIterator<Item = Op>) -> Self {
        Self::new(ops, KernelDomain::Generic)
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Consumes the program, yielding its op buffer (a retiring PE keeps
    /// it for the next program, [`crate::Pe::take_spare_ops`]).
    pub fn into_ops(self) -> Vec<Op> {
        self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The kernel domain (decides specialization speedups).
    pub fn domain(&self) -> KernelDomain {
        self.domain
    }

    /// Number of synchronous calls (round trips) in the program.
    pub fn call_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::Call { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = Program::new(
            [
                Op::Compute(10),
                Op::Send {
                    dst: NodeId(1),
                    bytes: 8,
                    data: Payload::EMPTY,
                    tag: 0,
                },
                Op::call(NodeId(2), 8, 8),
            ],
            KernelDomain::Signal,
        );
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.domain(), KernelDomain::Signal);
        assert_eq!(p.call_count(), 1);
        assert!(matches!(p.ops()[0], Op::Compute(10)));
    }

    #[test]
    fn an_inline_payload_keeps_an_op_at_56_bytes() {
        assert!(std::mem::size_of::<Op>() <= 56);
    }

    #[test]
    fn empty_program() {
        let p = Program::straight_line([]);
        assert!(p.is_empty());
    }

    #[test]
    fn op_shorthands_have_empty_data() {
        match Op::call(NodeId(1), 8, 16) {
            Op::Call {
                data, reply_bytes, ..
            } => {
                assert!(data.is_empty());
                assert_eq!(reply_bytes, 16);
            }
            _ => unreachable!(),
        }
    }
}
