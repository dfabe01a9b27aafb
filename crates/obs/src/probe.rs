//! The protocol probe: structured lifecycle events emitted by the engine.
//!
//! `nbr_core::Node` is generic over a [`Probe`] implementation and calls
//! [`Probe::emit`] at every protocol-significant transition. The default
//! [`NoProbe`] is a zero-sized type whose `emit` is an empty inline function:
//! a disabled-probe build performs no work and no allocations on the hot path
//! ([`ProbeEvent`] is `Copy`, so even constructing one allocates nothing).
//!
//! Enabled probes buffer [`TraceEvent`]s ([`SharedProbe`]) for later export
//! as a JSONL trace (see [`crate::trace`]) and replay through the
//! [`crate::analyze`] lifecycle analyzer. [`EngineProbe`] is the
//! enum-dispatch wrapper harnesses use so that tracing stays a *runtime*
//! flag without changing the node's type.

use nbr_types::{ClientId, LogIndex, NodeId, RequestId, Term, Time};
use std::sync::{Arc, Mutex, PoisonError};

/// One structured protocol event. All variants are `Copy` — emitting an
/// event never allocates; buffering (if any) is the probe's business.
///
/// Event taxonomy (per entry, in causal order on a follower):
/// `EntryReceived → {Appended | WindowCached → Appended | Parked → …}` with
/// `WeakAccepted` / `StrongAccepted` marking the responses sent, then
/// `Committed → Applied`. The leader side tracks `VoteTracked →
/// WeakQuorum → Committed` per index — `t_promote = Committed − WeakQuorum`
/// is the weak→strong promotion latency. `t_wait(F)` (the paper's Section II
/// bottleneck) is `Appended − EntryReceived` on a follower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// A client request reached the leader's engine (span root: the op is
    /// identified by `(client, request)` until `Proposed` binds an index).
    SubmitReceived {
        /// Submitting client connection.
        client: ClientId,
        /// Client-local request sequence number.
        request: RequestId,
    },
    /// Leader: a client op was assigned a log index — the join point
    /// between the op identity and every index-keyed event that follows.
    Proposed {
        /// Log index assigned to the op.
        index: LogIndex,
        /// Submitting client connection.
        client: ClientId,
        /// Client-local request sequence number.
        request: RequestId,
    },
    /// A replication entry arrived at a follower (before windowing).
    EntryReceived {
        /// Log index of the entry.
        index: LogIndex,
        /// Term of the entry.
        term: Term,
    },
    /// The entry was out of order but fit the sliding window cache.
    WindowCached {
        /// Log index of the entry.
        index: LogIndex,
    },
    /// A window flush appended a contiguous run starting at `index`.
    WindowFlushed {
        /// First index of the flushed run.
        index: LogIndex,
        /// Number of entries in the run.
        run_len: u32,
    },
    /// The entry was blocked beyond the window (or out of order with
    /// `w == 0`) and parked — the stock-Raft waiting loop.
    Parked {
        /// Log index of the entry.
        index: LogIndex,
    },
    /// An entry became part of the local log.
    Appended {
        /// Log index of the entry.
        index: LogIndex,
    },
    /// A WEAK_ACCEPT response was sent for this index.
    WeakAccepted {
        /// Log index of the entry.
        index: LogIndex,
    },
    /// A STRONG_ACCEPT (cumulative) response was sent.
    StrongAccepted {
        /// The follower's last log index at response time.
        last_index: LogIndex,
    },
    /// Leader: a VoteList tuple was opened for a fresh proposal.
    VoteTracked {
        /// Log index of the proposal.
        index: LogIndex,
        /// Commit threshold the tuple must reach.
        threshold: u32,
    },
    /// Leader: the tuple reached a weak majority (early client return).
    WeakQuorum {
        /// Log index of the proposal.
        index: LogIndex,
    },
    /// The entry is committed at this replica.
    Committed {
        /// Log index of the entry.
        index: LogIndex,
    },
    /// The entry was applied to the state machine.
    Applied {
        /// Log index of the entry.
        index: LogIndex,
    },
    /// Sampled follower blocked-entry population after an append round.
    WindowOccupancy {
        /// Entries cached in the sliding window.
        occupied: u32,
        /// Entries parked beyond the window.
        parked: u32,
    },
    /// This replica started an election for `term`.
    ElectionStarted {
        /// The candidate term.
        term: Term,
    },
    /// This replica won an election.
    Elected {
        /// The leader term.
        term: Term,
    },
    /// This replica ceased being leader.
    SteppedDown {
        /// The newer term observed.
        term: Term,
    },
    /// Harness marker: the replica was killed at this instant.
    Crashed,
    /// Transport clock sample from a Ping/Pong exchange with `peer`:
    /// `offset_ns ≈ peer_clock − local_clock` (NTP two-sample estimate),
    /// used by the span collector to align per-node trace timestamps.
    ClockSample {
        /// The peer the sample was taken against.
        peer: NodeId,
        /// Estimated `peer_clock − local_clock` in nanoseconds.
        offset_ns: i64,
        /// Round-trip time of the exchange in nanoseconds.
        rtt_ns: u64,
    },
}

impl ProbeEvent {
    /// Stable short tag, used as the JSONL `ev` field.
    pub fn kind(&self) -> &'static str {
        match self {
            ProbeEvent::SubmitReceived { .. } => "submit",
            ProbeEvent::Proposed { .. } => "proposed",
            ProbeEvent::EntryReceived { .. } => "received",
            ProbeEvent::WindowCached { .. } => "window_cached",
            ProbeEvent::WindowFlushed { .. } => "window_flushed",
            ProbeEvent::Parked { .. } => "parked",
            ProbeEvent::Appended { .. } => "appended",
            ProbeEvent::WeakAccepted { .. } => "weak_accepted",
            ProbeEvent::StrongAccepted { .. } => "strong_accepted",
            ProbeEvent::VoteTracked { .. } => "vote_tracked",
            ProbeEvent::WeakQuorum { .. } => "weak_quorum",
            ProbeEvent::Committed { .. } => "committed",
            ProbeEvent::Applied { .. } => "applied",
            ProbeEvent::WindowOccupancy { .. } => "occupancy",
            ProbeEvent::ElectionStarted { .. } => "election_started",
            ProbeEvent::Elected { .. } => "elected",
            ProbeEvent::SteppedDown { .. } => "stepped_down",
            ProbeEvent::Crashed => "crashed",
            ProbeEvent::ClockSample { .. } => "clock_sample",
        }
    }
}

/// Receiver of protocol events. Implementations must be cheap and must not
/// block the engine; anything expensive belongs in a drain/export step.
pub trait Probe {
    /// Fast feature check: engines skip event-construction *loops* (e.g.
    /// per-index commit fan-out) when this returns false. Single emissions
    /// are unconditional — they inline to nothing for [`NoProbe`].
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event observed on `node` at instant `at`.
    fn emit(&mut self, node: NodeId, at: Time, event: ProbeEvent);
}

/// The disabled probe: a zero-sized no-op. This is the default for every
/// `Node<L>` so existing harnesses and the `nbr-check` model checker pay
/// nothing — `enabled()` is a compile-time `false` and `emit` disappears.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn emit(&mut self, _node: NodeId, _at: Time, _event: ProbeEvent) {}
}

/// A timestamped, node-attributed event as stored in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Replica the event was observed on.
    pub node: NodeId,
    /// Harness instant of the observation.
    pub at: Time,
    /// The event.
    pub event: ProbeEvent,
}

/// An in-memory event buffer (one per traced run).
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
}

impl TraceBuffer {
    /// Empty buffer.
    pub fn new() -> TraceBuffer {
        TraceBuffer::default()
    }

    /// Append one event.
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Borrow the events in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drain the buffer, returning all events in emission order.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// A cloneable handle to a shared [`TraceBuffer`]. Clones observe the same
/// buffer, so one handle can be given to every node of a cluster/simulation
/// while the harness keeps another to drain afterwards. The mutex is
/// uncontended in the single-threaded simulator and short-held in the
/// thread runtime.
#[derive(Debug, Clone, Default)]
pub struct SharedProbe {
    buf: Arc<Mutex<TraceBuffer>>,
}

impl SharedProbe {
    /// Fresh probe with an empty buffer.
    pub fn new() -> SharedProbe {
        SharedProbe::default()
    }

    fn with_buf<T>(&self, f: impl FnOnce(&mut TraceBuffer) -> T) -> T {
        // A poisoned buffer only means some other holder panicked mid-push;
        // the data is still a valid prefix — keep observing.
        f(&mut self.buf.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Record one event (usable from harness code without `&mut`).
    pub fn record(&self, node: NodeId, at: Time, event: ProbeEvent) {
        self.with_buf(|b| b.push(TraceEvent { node, at, event }));
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.with_buf(|b| b.len())
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain all recorded events in emission order.
    pub fn take(&self) -> Vec<TraceEvent> {
        self.with_buf(|b| b.take())
    }

    /// Copy of the events recorded so far (the buffer keeps them).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.with_buf(|b| b.events().to_vec())
    }
}

impl Probe for SharedProbe {
    fn emit(&mut self, node: NodeId, at: Time, event: ProbeEvent) {
        self.record(node, at, event);
    }
}

/// Runtime-switchable probe for harnesses: `Off` behaves like [`NoProbe`]
/// (one branch per emission, still allocation-free), `Shared` buffers into a
/// [`SharedProbe`]. Keeping the choice in an enum means the simulator and
/// cluster runtime can offer tracing as a config flag without becoming
/// generic over the probe type themselves.
#[derive(Debug, Clone, Default)]
pub enum EngineProbe {
    /// Tracing disabled.
    #[default]
    Off,
    /// Buffer events into the shared trace.
    Shared(SharedProbe),
}

impl EngineProbe {
    /// Convenience: a fresh shared probe plus the engine-side handle.
    pub fn shared() -> (EngineProbe, SharedProbe) {
        let p = SharedProbe::new();
        (EngineProbe::Shared(p.clone()), p)
    }
}

impl Probe for EngineProbe {
    #[inline]
    fn enabled(&self) -> bool {
        matches!(self, EngineProbe::Shared(_))
    }

    #[inline]
    fn emit(&mut self, node: NodeId, at: Time, event: ProbeEvent) {
        match self {
            EngineProbe::Off => {}
            EngineProbe::Shared(p) => p.record(node, at, event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_probe_is_disabled_and_zero_sized() {
        assert!(!NoProbe.enabled());
        assert_eq!(std::mem::size_of::<NoProbe>(), 0);
    }

    #[test]
    fn probe_events_are_copy_and_small() {
        // Emitting must never allocate: the event is a small Copy value.
        // 32 bytes since `Proposed` carries the (index, client, request)
        // join triple — still four words, still register-friendly.
        assert!(std::mem::size_of::<ProbeEvent>() <= 32);
    }

    #[test]
    fn shared_probe_clones_observe_one_buffer() {
        let (mut engine, handle) = EngineProbe::shared();
        assert!(engine.enabled());
        engine.emit(NodeId(1), Time(5), ProbeEvent::Appended { index: LogIndex(3) });
        engine.emit(NodeId(2), Time(9), ProbeEvent::Crashed);
        let events = handle.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].node, NodeId(1));
        assert_eq!(events[0].event.kind(), "appended");
        assert_eq!(events[1].event, ProbeEvent::Crashed);
        assert!(handle.is_empty());
    }

    #[test]
    fn off_engine_probe_drops_events() {
        let mut p = EngineProbe::Off;
        assert!(!p.enabled());
        p.emit(NodeId(0), Time(0), ProbeEvent::Crashed);
    }
}
