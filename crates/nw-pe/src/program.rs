//! Micro-op programs: the PE's ISA abstraction.
//!
//! The reproduction does not interpret a concrete instruction set — the
//! paper's claims depend only on *timing* behaviour (how long a handler
//! computes, when it stalls on the NoC or memory). A [`Program`] is a
//! straight-line sequence of timed micro-ops, typically synthesized by the
//! DSOC runtime from an object's method descriptor and dispatched onto an
//! idle hardware thread per invocation.

use crate::class::KernelDomain;
use nw_types::{Cycles, NodeId};

/// One micro-op.
#[derive(Debug, Clone, PartialEq, Eq)]
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
        /// Marshalled payload carried verbatim (may be empty).
        data: Vec<u8>,
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
        /// Marshalled request payload (may be empty).
        data: Vec<u8>,
    },
}

impl Op {
    /// Shorthand for a send with no marshalled payload.
    pub fn send(dst: NodeId, bytes: u64) -> Op {
        Op::Send {
            dst,
            bytes,
            data: Vec::new(),
            tag: 0,
        }
    }

    /// Shorthand for a call with no marshalled payload.
    pub fn call(dst: NodeId, bytes: u64, reply_bytes: u64) -> Op {
        Op::Call {
            dst,
            bytes,
            reply_bytes,
            data: Vec::new(),
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
/// assert_eq!(p.baseline_compute_cycles(), nw_types::Cycles(80));
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

    /// Consumes the program, yielding its ops — the fault layer harvests
    /// marshalled payload buffers from unexecuted ops when a PE crashes,
    /// so pooled buffers are recycled instead of leaked.
    pub fn into_ops(self) -> Vec<Op> {
        self.ops
    }

    /// The op at `pc` for issue: scalar fields are copied and a marshalled
    /// payload is moved out, leaving an empty one in the slot — an issued
    /// `Send`/`Call` hands its buffer on to the request stream instead of
    /// cloning it. The slot is never read again: the pc only advances.
    pub fn take_op(&mut self, pc: usize) -> Option<Op> {
        Some(match self.ops.get_mut(pc)? {
            Op::Compute(n) => Op::Compute(*n),
            Op::LocalMem { write, bytes } => Op::LocalMem {
                write: *write,
                bytes: *bytes,
            },
            Op::Send {
                dst,
                bytes,
                data,
                tag,
            } => Op::Send {
                dst: *dst,
                bytes: *bytes,
                data: std::mem::take(data),
                tag: *tag,
            },
            Op::Call {
                dst,
                bytes,
                reply_bytes,
                data,
            } => Op::Call {
                dst: *dst,
                bytes: *bytes,
                reply_bytes: *reply_bytes,
                data: std::mem::take(data),
            },
        })
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

    /// Total `Compute` cycles at GP-RISC baseline speed.
    pub fn baseline_compute_cycles(&self) -> Cycles {
        Cycles(
            self.ops
                .iter()
                .map(|op| match op {
                    Op::Compute(n) => *n,
                    _ => 0,
                })
                .sum(),
        )
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
                Op::send(NodeId(1), 8),
                Op::call(NodeId(2), 8, 8),
            ],
            KernelDomain::Signal,
        );
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.domain(), KernelDomain::Signal);
        assert_eq!(p.call_count(), 1);
        assert_eq!(p.baseline_compute_cycles(), Cycles(10));
        assert!(matches!(p.ops()[0], Op::Compute(10)));
    }

    #[test]
    fn take_op_copies_scalars_and_moves_the_payload_out() {
        let mut p = Program::straight_line([
            Op::Compute(7),
            Op::Send {
                dst: NodeId(1),
                bytes: 8,
                data: vec![4, 5],
                tag: 3,
            },
        ]);
        assert_eq!(p.take_op(0), Some(Op::Compute(7)));
        assert_eq!(p.ops()[0], Op::Compute(7));
        let sent = p.take_op(1).expect("pc 1 is in the program");
        assert!(matches!(&sent, Op::Send { data, tag: 3, .. } if data == &[4, 5]));
        assert!(matches!(&p.ops()[1], Op::Send { data, tag: 3, .. } if data.is_empty()));
        assert_eq!(p.take_op(2), None);
    }

    #[test]
    fn empty_program() {
        let p = Program::straight_line([]);
        assert!(p.is_empty());
        assert_eq!(p.baseline_compute_cycles(), Cycles::ZERO);
    }

    #[test]
    fn op_shorthands_have_empty_data() {
        match Op::send(NodeId(1), 8) {
            Op::Send { data, .. } => assert!(data.is_empty()),
            _ => unreachable!(),
        }
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
