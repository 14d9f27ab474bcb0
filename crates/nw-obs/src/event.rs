//! The event taxonomy and the sink contract.
//!
//! Events are small `Copy` records stamped with the simulation cycle they
//! occurred in. Emitters produce them in simulation order, so a sink's
//! buffer is chronologically sorted by construction — the Perfetto
//! exporter relies on that instead of re-sorting.

use std::collections::VecDeque;

/// One cycle-stamped structured event from the simulation domain.
///
/// Identifiers are plain indexes (endpoint, router, PE, thread, object) —
/// the trace consumer resolves them against the platform it traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet was accepted into a source network interface.
    FlitInject {
        /// Cycle of acceptance.
        cycle: u64,
        /// Source endpoint.
        src: usize,
        /// Destination endpoint.
        dst: usize,
        /// Payload bytes carried.
        bytes: usize,
    },
    /// A packet reached its destination eject queue.
    FlitDeliver {
        /// Cycle of delivery.
        cycle: u64,
        /// Source endpoint.
        src: usize,
        /// Destination endpoint.
        dst: usize,
        /// End-to-end cycles since NI acceptance.
        latency: u64,
    },
    /// A router output port started serializing a packet onto a link.
    LinkTransfer {
        /// Cycle the transfer started.
        cycle: u64,
        /// Upstream router.
        router: usize,
        /// Output port index at that router.
        port: usize,
        /// Downstream router.
        to: usize,
        /// Flits transported.
        flits: u64,
        /// Serialization cycles the link stays occupied.
        ser: u64,
    },
    /// The runtime dispatched a handler program onto a hardware thread.
    HandlerStart {
        /// Dispatch cycle.
        cycle: u64,
        /// Hosting PE.
        pe: usize,
        /// Hardware thread index.
        thread: usize,
        /// Application object the handler belongs to.
        object: usize,
    },
    /// A handler program retired (its hardware thread went idle).
    HandlerEnd {
        /// Retirement cycle.
        cycle: u64,
        /// Hosting PE.
        pe: usize,
        /// Hardware thread index.
        thread: usize,
    },
    /// A recorded round trip exceeded its object's deadline budget.
    DeadlineMiss {
        /// Reply-delivery cycle (when the miss was judged).
        cycle: u64,
        /// Object the latency was attributed to.
        object: usize,
        /// Measured end-to-end latency.
        latency: u64,
        /// The budget it blew.
        budget: u64,
    },
    /// The active-set scheduler fast-forwarded over a quiet span.
    FastForward {
        /// Cycle the span started.
        cycle: u64,
        /// Cycles skipped in one hop.
        span: u64,
    },
    /// A fault campaign applied one scheduled fault.
    FaultInjected {
        /// Injection cycle.
        cycle: u64,
        /// Fault class discriminant (see `nanowall::FaultKind`; the
        /// trace layer keeps it opaque): 0 = transient link, 1 = permanent
        /// link, 2 = router stall, 3 = drop, 4 = corrupt, 5 = PE crash,
        /// 6 = PE restart.
        kind: u8,
        /// Primary target index (router, endpoint, or PE per `kind`).
        target: usize,
        /// Secondary argument (port index, recovery cycle, or 0).
        arg: u64,
    },
    /// The resilience layer re-issued a timed-out invocation.
    RetryIssued {
        /// Re-issue cycle.
        cycle: u64,
        /// Requesting PE.
        pe: usize,
        /// Requesting hardware thread.
        thread: usize,
        /// Attempt number (1 = first retry).
        attempt: u32,
    },
    /// Degraded-mode rerouting recomputed routes around a dead link.
    Reroute {
        /// Recomputation cycle.
        cycle: u64,
        /// Router whose link died.
        router: usize,
        /// Dead output-port index at that router.
        port: usize,
    },
}

impl TraceEvent {
    /// The cycle the event is stamped with.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::FlitInject { cycle, .. }
            | TraceEvent::FlitDeliver { cycle, .. }
            | TraceEvent::LinkTransfer { cycle, .. }
            | TraceEvent::HandlerStart { cycle, .. }
            | TraceEvent::HandlerEnd { cycle, .. }
            | TraceEvent::DeadlineMiss { cycle, .. }
            | TraceEvent::FastForward { cycle, .. }
            | TraceEvent::FaultInjected { cycle, .. }
            | TraceEvent::RetryIssued { cycle, .. }
            | TraceEvent::Reroute { cycle, .. } => cycle,
        }
    }
}

/// Receives simulation trace events.
///
/// The contract: a sink is a pure observer. `emit` must not panic on any
/// event sequence and must not feed anything back into the simulation
/// (the platform only ever hands it events, never reads it). Emitters
/// thread sinks as `Option<&mut dyn TraceSink>`, so the disabled path is
/// one branch and zero allocation. Sinks are `Send` so a platform owning
/// one can move across sweep-worker threads (forked replicas run under
/// `parallel_map`).
pub trait TraceSink: std::fmt::Debug + Send {
    /// Receives one event, in simulation order.
    fn emit(&mut self, ev: TraceEvent);
    /// Downcast support so owners of a boxed sink can recover the concrete
    /// type (e.g. drain a [`RingBufferSink`] after a traced run).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// A bounded FIFO of the most recent events.
///
/// When full, the *oldest* event is dropped and counted — the tail of a
/// run is usually the interesting part, and the exporter knows how to
/// skip span ends whose begins were evicted.
#[derive(Debug)]
pub struct RingBufferSink {
    cap: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingBufferSink {
    /// A ring holding at most `cap` events (`cap` is clamped to >= 1).
    pub fn new(cap: usize) -> Self {
        RingBufferSink {
            cap: cap.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Takes the buffered events (oldest first), leaving the ring empty.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }
}

impl TraceSink for RingBufferSink {
    fn emit(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut s = RingBufferSink::new(2);
        for c in 0..5 {
            s.emit(TraceEvent::FastForward { cycle: c, span: 1 });
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let evs = s.drain();
        assert_eq!(evs[0].cycle(), 3);
        assert_eq!(evs[1].cycle(), 4);
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 3, "drain does not reset the drop counter");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut s = RingBufferSink::new(0);
        s.emit(TraceEvent::FastForward { cycle: 7, span: 2 });
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn downcast_recovers_concrete_sink() {
        let mut boxed: Box<dyn TraceSink> = Box::new(RingBufferSink::new(8));
        boxed.emit(TraceEvent::FlitInject {
            cycle: 1,
            src: 0,
            dst: 3,
            bytes: 40,
        });
        let ring = boxed
            .as_any_mut()
            .downcast_mut::<RingBufferSink>()
            .expect("concrete type is RingBufferSink");
        assert_eq!(ring.len(), 1);
    }
}
