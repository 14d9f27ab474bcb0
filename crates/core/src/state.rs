//! The simulation state of a platform and its rules: the agenda, the PE
//! wake table, lazy I/O pacing and the bookkeeping of PE requests,
//! completions and crashes. Nothing here watches the run; the observers,
//! the run loop and the phases that report to them are in
//! [`crate::platform`].

use crate::calls::CallTable;
use crate::config::FppaConfig;
use crate::faults::FaultCampaign;
use crate::io::IoChannel;
use crate::platform::{pe_endpoint, NodeRole, SchedulerMode, SchedulerStats};
use crate::resilience::ResilienceStats;
use crate::runtime::Runtime;
use crate::services::Services;
use crate::tags::RequestTag;
use nw_dsoc::{MessageHeader, MessageKind};
use nw_noc::Noc;
use nw_pe::{Pe, PeRequest};
use nw_types::{Cycles, NodeId, ObjectId, Payload, PeId, ThreadId};
use std::collections::VecDeque;
use std::sync::Arc;

/// A source of platform work. Each has one entry in the agenda
/// ([`State::due`]): the cycle its phase must next run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    Faults,
    Retries,
    Io,
    Noc,
    Services,
    Dispatch,
    Pes,
    Outbox,
}

/// Every source but the NoC: the entries a NoC-only span's limit is read
/// from ([`State::agenda_min_but_noc`]).
pub(crate) const NOT_NOC: [Source; 7] = [
    Source::Faults,
    Source::Retries,
    Source::Io,
    Source::Services,
    Source::Dispatch,
    Source::Pes,
    Source::Outbox,
];

/// An agenda entry with nothing scheduled.
pub(crate) const NEVER: u64 = u64::MAX;

/// What never changes after the platform is built: every copy of a state
/// shares one.
#[derive(Debug)]
pub(crate) struct Fixed {
    pub(crate) cfg: FppaConfig,
    pub(crate) roles: Vec<NodeRole>,
}

/// A packet queued for injection (with retry-on-backpressure).
#[derive(Debug, Clone)]
pub(crate) struct Outgoing {
    pub src: NodeId,
    pub dst: NodeId,
    pub data: Payload,
    pub tag: u64,
    /// Thread to complete once the NI accepts the packet (async sends).
    pub on_accept: Option<(PeId, ThreadId)>,
}

/// The simulation state of a platform: every field a run reads or
/// changes, and nothing that only watches it. A snapshot, a restore and a
/// fork each clone it; the tables that never change after build or
/// install sit behind `Arc`s, which the clone shares.
#[derive(Debug, Clone)]
pub(crate) struct State {
    pub(crate) fixed: Arc<Fixed>,
    pub(crate) noc: Noc,
    pub(crate) pes: Vec<Pe>,
    /// Memories, fabrics and hardwired IP with their request bookkeeping
    /// and the `Services` agenda entry (see [`crate::services`]).
    pub(crate) services: Services,
    pub(crate) ios: Vec<IoChannel>,
    /// The cycle currently executing.
    pub(crate) now: Cycles,
    pub(crate) outbox: VecDeque<Outgoing>,
    pub(crate) runtime: Option<Runtime>,
    pub(crate) scheduler: SchedulerMode,
    /// Active-set scheduling: the next cycle each PE must tick
    /// (`u64::MAX`: dormant until an external event). An early entry is
    /// conservative (a tick first catches up, then runs normally); a later
    /// one is the PE's own [`Pe::quiet_span`] promise that leaving it
    /// unticked until then and settling in bulk is bit-identical. Posted
    /// only by [`State::tick_pe`] and [`State::wake_pe`]; a scheduler
    /// switch marks every PE due now. The dense step never reads or posts
    /// it, so under dense every entry stays at or before `now`.
    pub(crate) pe_wake: Vec<u64>,
    /// Agenda entry of the PE phase: a cycle at or before `min(pe_wake)`.
    /// Lowered with the table ([`State::wake_pe`]), recomputed by the PE
    /// phase, which walks the table anyway.
    pub(crate) pe_due: u64,
    /// Agenda entry of the I/O phase: the cycle the next packet arrives on
    /// a bound channel (the coming cycle while one holds an RX backlog).
    /// Posted by [`State::post_io`].
    pub(crate) io_due: u64,
    /// I/O channels are advanced lazily, in closed form: every channel has
    /// been ticked for the cycles before this one. Behind the clock only
    /// between an I/O phase and the next phase or a settle.
    pub(crate) io_synced: u64,
    /// Scheduler work counters (`noc` is filled in on read).
    pub(crate) sched_stats: SchedulerStats,
    /// Every in-flight synchronous call — latency probe and retry entry
    /// per hardware thread — with the per-object latency telemetry and the
    /// retry policy (see [`crate::calls`]).
    pub(crate) calls: CallTable,
    /// The due retries the retry phase is handling, kept between calls so
    /// that a steady run of timeouts allocates nothing; empty outside it,
    /// so a copy allocates nothing for it.
    pub(crate) expired: Vec<crate::calls::Expired>,
    /// Installed fault campaign, drained cycle by cycle at the top of each
    /// step. `None` keeps every fault hook structurally untouched, so
    /// faults-off runs are bit-identical to builds without the subsystem.
    pub(crate) campaign: Option<FaultCampaign>,
    /// Fault counters surfaced through the platform's resilience stats
    /// (the retry counters live in `calls`); all zero when faults are off.
    pub(crate) rstats: ResilienceStats,
}

impl State {
    /// The agenda: the cycle source `source`'s phase must next run
    /// ([`NEVER`]: nothing scheduled). One rule: an entry may be early —
    /// the phase runs as a no-op and re-posts — never late. Sources that
    /// own an ordered structure are read in place (the campaign cursor, the
    /// retry index, the NoC wheels, the outbox); the others keep a cached
    /// word that every state change posts into.
    #[inline]
    pub(crate) fn due(&self, source: Source, now: u64) -> u64 {
        match source {
            Source::Faults => (self.campaign.as_ref())
                .and_then(FaultCampaign::next_cycle)
                .unwrap_or(NEVER),
            Source::Retries => self.calls.next_deadline().unwrap_or(NEVER),
            Source::Io => self.io_due,
            Source::Noc if self.noc.eject_pending() > 0 => now,
            Source::Noc => (self.noc.next_event_cycle(Cycles(now))).map_or(NEVER, |c| c.0),
            Source::Services => self.services.due(),
            Source::Dispatch => (self.runtime.as_ref()).map_or(NEVER, |rt| rt.dispatch_due(now)),
            Source::Pes => self.pe_due,
            Source::Outbox if self.outbox.is_empty() => NEVER,
            Source::Outbox => now,
        }
    }

    /// The earliest agenda entry.
    #[inline]
    pub(crate) fn agenda_min(&self, now: u64) -> u64 {
        self.due(Source::Noc, now).min(self.agenda_min_but_noc(now))
    }

    /// The earliest of the seven agenda entries other than the NoC's, read
    /// one by one: the limit of a NoC-only span.
    #[inline]
    pub(crate) fn agenda_min_but_noc(&self, now: u64) -> u64 {
        (NOT_NOC.iter()).fold(NEVER, |min, &source| min.min(self.due(source, now)))
    }

    /// The agenda's oracle, run after every step and hop of a debug build:
    /// no cached entry is later than what a walk over the state it
    /// summarizes answers — the fold the run loop used to make every lap.
    #[cfg(debug_assertions)]
    pub(crate) fn audit_agenda(&self) {
        if self.scheduler == SchedulerMode::Dense {
            return; // dense neither reads nor posts the agenda
        }
        let now = self.now;
        let pes = self.pe_wake.iter().copied().min().unwrap_or(NEVER);
        assert!(self.pe_due <= pes, "{now}: PE entry {} late", self.pe_due);
        let io = self.io_arrival();
        assert!(self.io_due <= io, "{now}: I/O entry {} late", self.io_due);
        let services = self.services.next_event(now);
        assert!(
            self.services.due() <= services,
            "{now}: services entry {} late, a node is due at {services}",
            self.services.due()
        );
        if let Some(rt) = self.runtime.as_ref() {
            rt.audit_agenda(&self.pes);
        }
    }

    /// Ticks every I/O channel for the cycles before `to` it has not seen
    /// yet, in one closed-form jump ([`IoChannel::advance`]). The agenda
    /// runs the I/O phase on every bound arrival, so between phases only
    /// credit accrues and unbound channels fill and overflow their FIFOs.
    #[inline]
    pub(crate) fn sync_io(&mut self, to: u64) {
        if to > self.io_synced {
            for io in &mut self.ios {
                io.advance(to - self.io_synced);
            }
            self.io_synced = to;
        }
    }

    /// Posts the I/O agenda entry: the cycle of the next arrival on a
    /// bound channel — one division per channel per call, and the phase
    /// calls it once per arrival — or the next cycle to run while a bound
    /// channel's RX backlog waits for NI room.
    pub(crate) fn post_io(&mut self) {
        self.io_due = self.io_arrival();
    }

    /// The cycle of the next arrival on a bound channel: every channel has
    /// been ticked for the cycles before `io_synced`, and the `n`-th tick
    /// from there is the first to emit (never stays never). A channel
    /// with an RX backlog answers `io_synced`.
    fn io_arrival(&self) -> u64 {
        let Some(rt) = self.runtime.as_ref() else {
            return NEVER;
        };
        let bound = (self.ios.iter().enumerate()).filter(|&(i, _)| rt.io_has_bindings(i));
        bound
            .map(|(_, io)| match (io.rx_backlog(), io.ticks_to_next_rx()) {
                (0, NEVER) => NEVER,
                (0, n) => self.io_synced.saturating_add(n - 1),
                _ => self.io_synced,
            })
            .min()
            .unwrap_or(NEVER)
    }

    /// External wake: PE `p` must tick at cycle `at` at the latest. Every
    /// site that changes a PE's state from outside its own tick calls this
    /// with the next cycle the PE phase runs — `now` from phases before
    /// the PE phase, `now + 1` from the outbox flush after it — or, for a
    /// dispatch spawn, with the cycle the PE then reports
    /// ([`Pe::wake_cycle`]).
    #[inline]
    pub(crate) fn wake_pe(&mut self, p: usize, at: Cycles) {
        self.pe_wake[p] = self.pe_wake[p].min(at.0);
        self.pe_due = self.pe_due.min(at.0);
        self.sched_stats.pe_external_wakes += 1;
    }

    /// Data-driven wake: unblocks thread `tid` of PE `p`, whose PE phase
    /// next runs at cycle `at`, and posts the cycle the PE must tick. That
    /// is `at` when the completion made the only runnable context — but a
    /// PE mid compute burst keeps issuing from its current context
    /// whatever becomes ready behind it, so it is asked again
    /// ([`Pe::quiet_span`], on state caught up to `at`) and goes on
    /// sleeping to the end of the burst.
    pub(crate) fn complete_thread(&mut self, p: usize, tid: ThreadId, at: Cycles) {
        let pe = &mut self.pes[p];
        pe.complete(tid);
        pe.settle_accounting(at);
        let wake = pe.wake_cycle(at);
        self.wake_pe(p, Cycles(wake));
    }

    /// Ticks PE `p` at `now` and turns the requests it raised into
    /// outgoing packets; unless the step is `open` (dense), posts the
    /// cycle it must next tick and refreshes its dispatcher ready bit, as
    /// a retirement frees a hardware thread. Returns the thread whose task
    /// retired.
    #[inline]
    pub(crate) fn tick_pe(&mut self, p: usize, now: Cycles, open: bool) -> Option<ThreadId> {
        let retired = self.pes[p].tick(now);
        self.collect_pe_requests(p, now);
        self.sched_stats.pe_ticks += 1;
        if !open {
            self.pe_wake[p] = self.pes[p].wake_cycle(Cycles(now.0 + 1));
            if let Some(rt) = self.runtime.as_mut() {
                rt.note_pe(p, self.pes[p].idle_threads());
            }
        }
        retired
    }

    /// Crashes PE `pe` (fault hook): threads die, latency probes and retry
    /// entries of the PE are cancelled. Idempotent while crashed.
    pub(crate) fn crash_pe(&mut self, pe: usize, now: Cycles) {
        if pe >= self.pes.len() || self.pes[pe].is_crashed() {
            return;
        }
        self.pes[pe].crash(now);
        // One tick on the dead contexts; it posts the PE dormant.
        self.wake_pe(pe, now);
        self.calls.abandon_pe(pe);
        if let Some(rt) = self.runtime.as_mut() {
            rt.note_pe(pe, 0);
        }
        self.rstats.pe_crashes += 1;
    }

    /// The application object a synchronous call from thread `(p, tid)` to
    /// `dst` is attributed to for latency telemetry:
    ///
    /// * a call to a **service node** (memory, fabric, hardwired IP) is a
    ///   handler offload — attributed to the object the thread is running
    ///   (the *bound service object* of
    ///   [`FppaPlatform::bind_service`](crate::FppaPlatform::bind_service));
    /// * a call to a **PE** carries a marshalled DSOC invocation —
    ///   attributed to the invoked (target) object from the wire header,
    ///   so twoway round trips land on the service object that answers
    ///   them, wherever the caller runs.
    ///
    /// `None` (manually spawned programs, no installed application, or an
    /// undecodable payload) records nothing.
    fn call_attribution(
        &self,
        p: usize,
        tid: usize,
        dst: NodeId,
        data: &Payload,
    ) -> Option<ObjectId> {
        match self.fixed.roles.get(dst.0)? {
            NodeRole::Memory(_) | NodeRole::Fabric(_) | NodeRole::HwIp(_) => {
                self.calls.handler(p, tid)
            }
            NodeRole::Pe(_) => MessageHeader::decode(data)
                .ok()
                .filter(|m| m.kind == MessageKind::Invocation)
                .map(|m| m.object),
            NodeRole::Io(_) => None,
        }
    }

    /// Turns the requests PE `p` raised this tick into outgoing packets.
    fn collect_pe_requests(&mut self, p: usize, now: Cycles) {
        let src = pe_endpoint(p);
        while let Some((tid, req)) = self.pes[p].pop_request() {
            match req {
                PeRequest::Send {
                    dst,
                    bytes,
                    mut data,
                    tag,
                } => {
                    data.pad_to(bytes as usize);
                    self.outbox.push_back(Outgoing {
                        src,
                        dst,
                        data,
                        tag,
                        on_accept: Some((PeId(p), tid)),
                    });
                }
                PeRequest::Call {
                    dst,
                    bytes,
                    reply_bytes,
                    mut data,
                } => {
                    // The round trip the latency probe times ends when
                    // the reply is delivered back to this thread; under a
                    // retry policy the table keeps the padded payload and
                    // stamps the attempt's token on the tag.
                    let object = self.call_attribution(p, tid.0, dst, &data);
                    data.pad_to(bytes as usize);
                    let tag = RequestTag {
                        pe: PeId(p),
                        tid,
                        token: 0,
                        reply_bytes,
                    };
                    let tag = (self.calls).issue(tag, dst, data, object, now);
                    self.outbox.push_back(Outgoing {
                        src,
                        dst,
                        data,
                        tag: tag.encode(),
                        on_accept: None,
                    });
                }
            }
        }
    }
}
