//! The protocol probe: structured lifecycle events emitted by the engine.
//!
//! `nbr_core::Node` holds an [`EngineProbe`] and records a [`ProbeEvent`]
//! at every protocol-significant transition. [`EngineProbe::Off`] records
//! nothing: one branch per emission and no allocation ([`ProbeEvent`] is
//! `Copy`, so even constructing one allocates nothing).
//! [`EngineProbe::Shared`] appends [`TraceEvent`]s to a process's one trace
//! buffer ([`SharedProbe`]), drained for export as a JSONL trace (see
//! [`crate::trace`]) and replay through the lifecycle analyzer
//! ([`mod@crate::analyze`]). A multi-group process hands each group an
//! [`EngineProbe::in_group`] handle on that same buffer.

use crate::shard::group_node;
use nbr_types::{ClientId, LogIndex, NodeId, RequestId, Term, Time};
use std::sync::{Arc, Mutex, PoisonError};

/// Declares [`ProbeEvent`] once: each row is a variant, the tag its JSONL
/// line carries in `ev`, and each field with the key it is written under.
/// The enum, [`ProbeEvent::kind`] and the field writer and reader behind
/// [`crate::trace::event_line`] and [`crate::trace::parse_line`] all come
/// from the rows, so a new event is one row.
macro_rules! probe_events {
    ($(#[$meta:meta])* pub enum $name:ident {
        $($(#[$vmeta:meta])* $variant:ident = $tag:literal $({
            $($(#[$fmeta:meta])* $field:ident: $ty:ty = $key:literal),* $(,)?
        })?),* $(,)?
    }) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant $({ $($(#[$fmeta])* $field: $ty),* })?),*
        }

        impl $name {
            /// Stable short tag, used as the JSONL `ev` field.
            pub fn kind(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => $tag),*
                }
            }

            /// Append `,"key":value` for each field, in declaration order.
            pub(crate) fn write_fields(&self, out: &mut String) {
                match *self {
                    $($name::$variant { $($($field),*)? } => {
                        $($(
                            out.push_str(concat!(",\"", $key, "\":"));
                            $crate::trace::TraceField::put($field, out);
                        )*)?
                    })*
                }
            }

            /// The event tagged `tag` with its fields read from `line`;
            /// `None` for an unknown tag or a missing field.
            pub(crate) fn read_fields(tag: &str, line: &str) -> Option<$name> {
                Some(match tag {
                    $($tag => $name::$variant {
                        $($($field: $crate::trace::TraceField::get(line, $key)?),*)?
                    },)*
                    _ => return None,
                })
            }
        }
    };
}

probe_events! {
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
        SubmitReceived = "submit" {
            /// Submitting client connection.
            client: ClientId = "client",
            /// Client-local request sequence number.
            request: RequestId = "request",
        },
        /// Leader: a client op was assigned a log index — the join point
        /// between the op identity and every index-keyed event that follows.
        Proposed = "proposed" {
            /// Log index assigned to the op.
            index: LogIndex = "index",
            /// Submitting client connection.
            client: ClientId = "client",
            /// Client-local request sequence number.
            request: RequestId = "request",
        },
        /// A replication entry arrived at a follower (before windowing).
        EntryReceived = "received" {
            /// Log index of the entry.
            index: LogIndex = "index",
            /// Term of the entry.
            term: Term = "term",
        },
        /// The entry was out of order but fit the sliding window cache.
        WindowCached = "window_cached" {
            /// Log index of the entry.
            index: LogIndex = "index",
        },
        /// A window flush appended a contiguous run starting at `index`.
        WindowFlushed = "window_flushed" {
            /// First index of the flushed run.
            index: LogIndex = "index",
            /// Number of entries in the run.
            run_len: u32 = "run",
        },
        /// The entry was blocked beyond the window (or out of order with
        /// `w == 0`) and parked — the stock-Raft waiting loop.
        Parked = "parked" {
            /// Log index of the entry.
            index: LogIndex = "index",
        },
        /// An entry became part of the local log.
        Appended = "appended" {
            /// Log index of the entry.
            index: LogIndex = "index",
        },
        /// A WEAK_ACCEPT response was sent for this index.
        WeakAccepted = "weak_accepted" {
            /// Log index of the entry.
            index: LogIndex = "index",
        },
        /// A STRONG_ACCEPT (cumulative) response was sent.
        StrongAccepted = "strong_accepted" {
            /// The follower's last log index at response time.
            last_index: LogIndex = "index",
        },
        /// Leader: a VoteList tuple was opened for a fresh proposal.
        VoteTracked = "vote_tracked" {
            /// Log index of the proposal.
            index: LogIndex = "index",
            /// Commit threshold the tuple must reach.
            threshold: u32 = "threshold",
        },
        /// Leader: the tuple reached a weak majority (early client return).
        WeakQuorum = "weak_quorum" {
            /// Log index of the proposal.
            index: LogIndex = "index",
        },
        /// The entry is committed at this replica.
        Committed = "committed" {
            /// Log index of the entry.
            index: LogIndex = "index",
        },
        /// The entry was applied to the state machine.
        Applied = "applied" {
            /// Log index of the entry.
            index: LogIndex = "index",
        },
        /// Sampled follower blocked-entry population after an append round.
        WindowOccupancy = "occupancy" {
            /// Entries cached in the sliding window.
            occupied: u32 = "occupied",
            /// Entries parked beyond the window.
            parked: u32 = "parked",
        },
        /// This replica started an election for `term`.
        ElectionStarted = "election_started" {
            /// The candidate term.
            term: Term = "term",
        },
        /// This replica won an election.
        Elected = "elected" {
            /// The leader term.
            term: Term = "term",
        },
        /// This replica ceased being leader.
        SteppedDown = "stepped_down" {
            /// The newer term observed.
            term: Term = "term",
        },
        /// Harness marker: the replica was killed at this instant.
        Crashed = "crashed",
        /// Transport clock sample from a Ping/Pong exchange with `peer`:
        /// `offset_ns ≈ peer_clock − local_clock` (NTP two-sample estimate),
        /// used by the span collector to align per-node trace timestamps.
        ClockSample = "clock_sample" {
            /// The peer the sample was taken against.
            peer: NodeId = "peer",
            /// Estimated `peer_clock − local_clock` in nanoseconds.
            offset_ns: i64 = "offset",
            /// Round-trip time of the exchange in nanoseconds.
            rtt_ns: u64 = "rtt",
        },
    }
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

/// A cloneable handle to one process's trace buffer. Clones record into the
/// same buffer, so one handle can be given to every replica of a cluster or
/// simulation while the harness keeps another to drain afterwards. The
/// mutex is uncontended in the single-threaded simulator and short-held in
/// the thread runtime.
#[derive(Debug, Clone, Default)]
pub struct SharedProbe {
    buf: Arc<Mutex<Vec<TraceEvent>>>,
    /// Raft group whose replicas record through this handle: node ids are
    /// widened into that group's range ([`group_node`]); 0 records them
    /// unchanged.
    group: u32,
}

impl SharedProbe {
    fn with_buf<T>(&self, f: impl FnOnce(&mut Vec<TraceEvent>) -> T) -> T {
        // A poisoned buffer only means some other holder panicked mid-push;
        // the data is still a valid prefix — keep observing.
        f(&mut self.buf.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Append one event, its node ids (a clock sample's `peer` included)
    /// moved into this handle's group range. Every recorded event of the
    /// workspace passes through here.
    fn record(&self, node: NodeId, at: Time, mut event: ProbeEvent) {
        let node = group_node(self.group, node);
        if let ProbeEvent::ClockSample { peer, .. } = &mut event {
            *peer = group_node(self.group, *peer);
        }
        self.with_buf(|b| b.push(TraceEvent { node, at, event }));
    }

    /// Drain all recorded events in record order.
    pub fn take(&self) -> Vec<TraceEvent> {
        self.with_buf(std::mem::take)
    }

    /// Copy of the events recorded so far (the buffer keeps them).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.with_buf(|b| b.clone())
    }
}

/// The engine's probe, chosen at run time: `Off` records nothing (one
/// branch per emission, allocation-free), `Shared` records into a
/// [`SharedProbe`]. Every replica, the transport and the harnesses' own
/// markers record through it.
#[derive(Debug, Clone, Default)]
pub enum EngineProbe {
    /// Tracing disabled.
    #[default]
    Off,
    /// Record events into the shared trace buffer.
    Shared(SharedProbe),
}

impl EngineProbe {
    /// A fresh trace buffer: the probe to hand out plus the handle to drain.
    pub fn shared() -> (EngineProbe, SharedProbe) {
        let p = SharedProbe::default();
        (EngineProbe::Shared(p.clone()), p)
    }

    /// True when events are recorded: engines skip event-construction
    /// *loops* (e.g. per-index commit fan-out) otherwise.
    #[inline]
    pub fn enabled(&self) -> bool {
        matches!(self, EngineProbe::Shared(_))
    }

    /// Record one event observed on `node` at instant `at`.
    #[inline]
    pub fn record(&self, node: NodeId, at: Time, event: ProbeEvent) {
        if let EngineProbe::Shared(p) = self {
            p.record(node, at, event);
        }
    }

    /// The probe for group `g`'s replicas in a multi-group process: the
    /// same buffer, with node ids recorded as [`group_node`]`(g, id)` so
    /// the groups' `(node, index)` join keys never collide. Group 0 records
    /// ids unchanged.
    pub fn in_group(&self, g: u32) -> EngineProbe {
        match self {
            EngineProbe::Off => EngineProbe::Off,
            EngineProbe::Shared(p) => {
                EngineProbe::Shared(SharedProbe { buf: Arc::clone(&p.buf), group: g })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::GROUP_NODE_STRIDE;

    #[test]
    fn probe_events_are_copy_and_small() {
        // Emitting must never allocate: the event is a small Copy value.
        // 32 bytes since `Proposed` carries the (index, client, request)
        // join triple — still four words, still register-friendly.
        assert!(std::mem::size_of::<ProbeEvent>() <= 32);
    }

    #[test]
    fn shared_probe_clones_observe_one_buffer() {
        let (engine, handle) = EngineProbe::shared();
        assert!(engine.enabled());
        engine.record(NodeId(1), Time(5), ProbeEvent::Appended { index: LogIndex(3) });
        engine.clone().record(NodeId(2), Time(9), ProbeEvent::Crashed);
        let events = handle.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].node, NodeId(1));
        assert_eq!(events[0].event.kind(), "appended");
        assert_eq!(events[1].event, ProbeEvent::Crashed);
        assert!(handle.take().is_empty());
    }

    #[test]
    fn off_engine_probe_drops_events() {
        let p = EngineProbe::Off;
        assert!(!p.enabled());
        p.record(NodeId(0), Time(0), ProbeEvent::Crashed);
        assert!(!p.in_group(3).enabled());
    }

    fn sample(node: u32, peer: u32) -> (NodeId, ProbeEvent) {
        (NodeId(node), ProbeEvent::ClockSample { peer: NodeId(peer), offset_ns: -5, rtt_ns: 10 })
    }

    #[test]
    fn group_handles_share_one_buffer_in_record_order() {
        let (base, handle) = EngineProbe::shared();
        let (g1, g2) = (base.in_group(1), base.in_group(2));
        let committed = ProbeEvent::Committed { index: LogIndex(7) };
        g2.record(NodeId(1), Time(3), committed);
        base.record(NodeId(1), Time(1), committed);
        g1.record(NodeId(1), Time(2), committed);
        let got: Vec<(u32, u64)> = handle.take().iter().map(|e| (e.node.0, e.at.0)).collect();
        // Record order, not time order; one (node 1, index 7) per group.
        assert_eq!(got, [(2 * GROUP_NODE_STRIDE + 1, 3), (1, 1), (GROUP_NODE_STRIDE + 1, 2)]);
    }

    #[test]
    fn group_handles_offset_clock_sample_peers_too() {
        let (base, handle) = EngineProbe::shared();
        let (node, ev) = sample(0, 2);
        base.in_group(3).record(node, Time(1), ev);
        let [e] = handle.take()[..] else { panic!("one event") };
        assert_eq!(e.node, NodeId(3_000_000));
        let ProbeEvent::ClockSample { peer, .. } = e.event else { panic!("{e:?}") };
        assert_eq!(peer, NodeId(3_000_002));
    }

    #[test]
    fn group_zero_records_events_unchanged() {
        let (base, handle) = EngineProbe::shared();
        let (node, ev) = sample(1, 2);
        let committed = ProbeEvent::Committed { index: LogIndex(9) };
        for p in [base.clone(), base.in_group(0)] {
            p.record(node, Time(4), ev);
            p.record(NodeId(2), Time(5), committed);
        }
        let want = [
            TraceEvent { node, at: Time(4), event: ev },
            TraceEvent { node: NodeId(2), at: Time(5), event: committed },
        ];
        assert_eq!(handle.take(), [want, want].concat());
    }
}
