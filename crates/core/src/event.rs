//! Outputs of the sans-I/O protocol engine.
//!
//! A [`crate::Node`] never performs I/O: every call that feeds it an input
//! (`tick`, `handle_message`, `handle_client`) appends [`Output`] actions to
//! a caller-supplied buffer. The harness (simulator or thread runtime) is
//! responsible for transporting `Send`s, delivering `Respond`s to clients
//! and feeding `Apply`s to the state machine.

use bytes::Bytes;
use nbr_types::{AcceptState, ClientId, ClientResponse, Entry, LogIndex, Message, NodeId, Term};
use std::collections::HashSet;

/// An action requested by the protocol engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Transmit a protocol message to a peer.
    Send {
        /// Destination replica.
        to: NodeId,
        /// The message.
        msg: Message,
    },
    /// Deliver a response to a client connection.
    Respond {
        /// Destination client.
        client: ClientId,
        /// The response.
        resp: ClientResponse,
    },
    /// Apply a committed entry to the state machine. Emitted in strict index
    /// order. For CRaft followers the entry may carry a [`nbr_types::Payload::Fragment`],
    /// which state machines treat as opaque (no follower read — paper
    /// Table II); leaders always apply decoded full payloads.
    Apply {
        /// The committed entry.
        entry: Entry,
    },
    /// Replace the state machine with this snapshot image (the node just
    /// installed a leader snapshot; its log now starts past `last_index`).
    RestoreSnapshot {
        /// Index of the last entry the snapshot covers.
        last_index: LogIndex,
        /// Term of that entry.
        last_term: Term,
        /// Serialized state machine image.
        data: Bytes,
    },
    /// A linearizable read registered via [`crate::Node::handle_read`] is now
    /// safe to serve from the local state machine: `read_index` covers every
    /// entry committed before the read arrived (the leader's no-op proposed
    /// after it has committed) and the local applied index has reached it.
    ReadReady {
        /// The client that asked.
        client: ClientId,
        /// The read request id.
        request: nbr_types::RequestId,
        /// The confirmed read index.
        read_index: LogIndex,
    },
    /// This node won an election.
    ElectedLeader {
        /// The new term.
        term: Term,
    },
}

impl Output {
    /// Short tag for assertions and logging.
    pub fn kind(&self) -> &'static str {
        match self {
            Output::Send { .. } => "send",
            Output::Respond { .. } => "respond",
            Output::Apply { .. } => "apply",
            Output::RestoreSnapshot { .. } => "restore_snapshot",
            Output::ReadReady { .. } => "read_ready",
            Output::ElectedLeader { .. } => "elected",
        }
    }
}

/// The one pass over a replica's outgoing outputs: the replica loop, the
/// simulator and the model checker each run it before anything leaves, so
/// all three send what a client sees. Nothing kept is reordered, and a
/// second pass changes nothing.
///
/// - A Strong `AppendResp` followed by a Strong to the same peer in the same
///   term is dropped: STRONG_ACCEPT reports the log tail, and
///   [`crate::VoteList::strong_accept`] counts every index up to it.
/// - Same-peer Appends merge ([`coalesce_appends`]).
/// - A `Weak` client reply followed by a `Strong` for the same
///   `(client, request)` is dropped: [`crate::RaftClient`] takes a first-ack
///   `Strong` as ack + confirm. A `Weak` whose commit is not known yet is
///   the protocol's early return and is kept.
pub fn settle_outputs(outputs: &mut Vec<Output>, max_batch: usize) {
    // Walking from the back, the Strongs met so far decide what they supersede.
    let (mut peers, mut requests) = (HashSet::new(), HashSet::new());
    let superseded: Vec<bool> = outputs
        .iter()
        .rev()
        .map(|o| match o {
            Output::Send { to, msg: Message::AppendResp(r) }
                if matches!(r.state, AcceptState::Strong { .. }) =>
            {
                !peers.insert((*to, r.term))
            }
            Output::Respond { client, resp } => match resp {
                ClientResponse::Strong { request, .. } => {
                    requests.insert((*client, *request));
                    false
                }
                ClientResponse::Weak { request, .. } => requests.contains(&(*client, *request)),
                ClientResponse::LeaderChanged { .. } | ClientResponse::NotLeader { .. } => false,
            },
            Output::Send { .. }
            | Output::Apply { .. }
            | Output::RestoreSnapshot { .. }
            | Output::ReadReady { .. }
            | Output::ElectedLeader { .. } => false,
        })
        .collect();
    let mut superseded = superseded.into_iter().rev();
    outputs.retain(|_| !superseded.next().unwrap_or_default());
    coalesce_appends(outputs, max_batch);
}

/// Coalesce same-peer `Append` sends in an output buffer into batched
/// messages, in place.
///
/// Two appends to the same peer merge when [`nbr_types::AppendEntryMsg::merge`]
/// allows it: same term and leader, no verification or relay fan-out, the
/// runs are contiguous, and the merged batch stays within
/// `max_batch.min(MAX_APPEND_BATCH)`. A non-append send to a peer closes
/// that peer's open batch, so per-peer message order is preserved exactly;
/// outputs that go elsewhere (client responses, applies) impose no ordering
/// against peer traffic and are left where they are. Delivering the
/// coalesced buffer is semantically identical to delivering the original —
/// a follower absorbs a batch entry-by-entry — so callers ([`settle_outputs`]
/// and leader repair) can apply this at any output boundary.
pub fn coalesce_appends(outputs: &mut Vec<Output>, max_batch: usize) {
    if max_batch <= 1 {
        return;
    }
    let mut coalesced: Vec<Output> = Vec::with_capacity(outputs.len());
    // Per-peer position of the still-open (mergeable) append in `coalesced`.
    let mut open: std::collections::HashMap<NodeId, usize> = std::collections::HashMap::new();
    for o in outputs.drain(..) {
        match o {
            Output::Send { to, msg: Message::AppendEntry(m) } => {
                if let Some(&at) = open.get(&to) {
                    if let Output::Send { msg: Message::AppendEntry(prev), .. } = &mut coalesced[at]
                    {
                        if prev.merge(&m, max_batch) {
                            continue;
                        }
                    }
                }
                open.insert(to, coalesced.len());
                coalesced.push(Output::Send { to, msg: Message::AppendEntry(m) });
            }
            Output::Send { to, msg } => {
                open.remove(&to);
                coalesced.push(Output::Send { to, msg });
            }
            other => coalesced.push(other),
        }
    }
    *outputs = coalesced;
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbr_types::message::{AppendEntryMsg, HeartbeatMsg, MAX_APPEND_BATCH};
    use nbr_types::{AppendRespMsg, Payload, RequestId};

    fn respond(client: u64, resp: ClientResponse) -> Output {
        Output::Respond { client: ClientId(client), resp }
    }

    fn weak_resp(client: u64, request: u64) -> Output {
        let (index, term) = (LogIndex(request), Term(1));
        respond(client, ClientResponse::Weak { request: RequestId(request), index, term })
    }

    fn strong_resp(client: u64, request: u64) -> Output {
        let (index, term) = (LogIndex(request), Term(1));
        respond(client, ClientResponse::Strong { request: RequestId(request), index, term })
    }

    fn settle(mut out: Vec<Output>) -> Vec<Output> {
        settle_outputs(&mut out, MAX_APPEND_BATCH);
        out
    }

    #[test]
    fn weak_respond_superseded_by_a_later_strong_is_dropped() {
        // What `process_vote_outcome` emits when one strong accept both
        // completes the weak quorum and commits: Weak then Strong.
        let out = settle(vec![weak_resp(1, 7), strong_resp(1, 7)]);
        assert_eq!(out, vec![strong_resp(1, 7)]);

        // Idempotent, and a no-op on an empty batch.
        assert_eq!(settle(out), vec![strong_resp(1, 7)]);
        assert!(settle(Vec::new()).is_empty());
    }

    #[test]
    fn weak_respond_without_a_known_commit_is_kept() {
        // Same client, different request: request 8's commit is not known
        // yet, so its early return must still go out.
        let out = settle(vec![weak_resp(1, 7), weak_resp(1, 8), strong_resp(1, 7)]);
        assert_eq!(out, vec![weak_resp(1, 8), strong_resp(1, 7)]);

        // Same request id under another client is another op.
        let out = vec![weak_resp(2, 7), strong_resp(1, 7)];
        assert_eq!(settle(out.clone()), out);
    }

    #[test]
    fn weak_compression_never_reorders_and_touches_nothing_else() {
        // Strong-then-Weak (a retried request re-accepted after its commit
        // was reported) keeps both, in order: only a LATER Strong supersedes.
        let out = vec![strong_resp(1, 7), weak_resp(1, 7)];
        assert_eq!(settle(out.clone()), out);

        // Peer sends, applies and other clients' responses stay in place.
        let weak_ack = Output::Send {
            to: NodeId(2),
            msg: Message::AppendResp(AppendRespMsg {
                term: Term(1),
                from: NodeId(0),
                state: AcceptState::Weak { index: LogIndex(7), term: Term(1) },
            }),
        };
        let apply = Output::Apply { entry: Entry::noop(LogIndex(7), Term(1), Term(1)) };
        let not_leader =
            respond(1, ClientResponse::NotLeader { request: RequestId(7), hint: None });
        let out = settle(vec![
            weak_resp(3, 1),
            weak_ack.clone(),
            weak_resp(1, 7),
            not_leader.clone(),
            strong_resp(1, 7),
            apply.clone(),
        ]);
        assert_eq!(out, vec![weak_resp(3, 1), weak_ack, not_leader, strong_resp(1, 7), apply]);
    }

    #[test]
    fn only_the_last_strong_accept_per_peer_and_term_is_sent() {
        let strong = |to: u32, term: u64, last: u64| Output::Send {
            to: NodeId(to),
            msg: Message::AppendResp(AppendRespMsg {
                term: Term(term),
                from: NodeId(1),
                state: AcceptState::Strong { last_index: LogIndex(last), last_term: Term(term) },
            }),
        };
        // Two frames' worth of accepts to the leader collapse to the last;
        // another peer's and another term's Strongs are their own keys.
        let out = settle(vec![strong(0, 1, 1), strong(2, 1, 1), strong(0, 1, 2), strong(0, 2, 2)]);
        assert_eq!(out, vec![strong(2, 1, 1), strong(0, 1, 2), strong(0, 2, 2)]);
    }

    fn entry(i: u64) -> Entry {
        Entry {
            index: LogIndex(i),
            term: Term(1),
            prev_term: Term(if i == 1 { 0 } else { 1 }),
            origin: None,
            payload: Payload::Data(Bytes::from(format!("e{i}"))),
        }
    }

    fn send(to: u32, entries: Vec<Entry>) -> Output {
        Output::Send {
            to: NodeId(to),
            msg: Message::AppendEntry(AppendEntryMsg {
                term: Term(1),
                leader: NodeId(0),
                entries,
                leader_commit: LogIndex(0),
                verification: None,
                relay_to: vec![],
            }),
        }
    }

    #[test]
    fn interleaved_peers_coalesce_independently() {
        // The leader's natural output order: entry 1 to peers 1,2 then
        // entry 2 to peers 1,2 — coalesces to one batch per peer.
        let mut out = vec![
            send(1, vec![entry(1)]),
            send(2, vec![entry(1)]),
            send(1, vec![entry(2)]),
            send(2, vec![entry(2)]),
        ];
        coalesce_appends(&mut out, MAX_APPEND_BATCH);
        assert_eq!(out.len(), 2);
        for o in &out {
            let Output::Send { msg: Message::AppendEntry(m), .. } = o else {
                panic!("expected append");
            };
            assert_eq!(m.entries.len(), 2);
        }
    }

    #[test]
    fn non_append_send_closes_the_batch() {
        let hb = Message::Heartbeat(HeartbeatMsg {
            term: Term(1),
            leader: NodeId(0),
            last_index: LogIndex(1),
            last_term: Term(1),
            leader_commit: LogIndex(0),
        });
        let mut out = vec![
            send(1, vec![entry(1)]),
            Output::Send { to: NodeId(1), msg: hb.clone() },
            send(1, vec![entry(2)]),
        ];
        coalesce_appends(&mut out, MAX_APPEND_BATCH);
        // Order to peer 1 must be preserved: append(1), heartbeat, append(2).
        assert_eq!(out.len(), 3);
        let Output::Send { msg: Message::AppendEntry(first), .. } = &out[0] else {
            panic!("expected append first");
        };
        assert_eq!(first.entries.len(), 1);

        // A heartbeat to a DIFFERENT peer does not interrupt the batch.
        let mut out = vec![
            send(1, vec![entry(1)]),
            Output::Send { to: NodeId(2), msg: hb },
            send(1, vec![entry(2)]),
        ];
        coalesce_appends(&mut out, MAX_APPEND_BATCH);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn batch_cap_splits_runs() {
        let mut out: Vec<Output> = (1..=5).map(|i| send(1, vec![entry(i)])).collect();
        coalesce_appends(&mut out, 2);
        let sizes: Vec<usize> = out
            .iter()
            .map(|o| match o {
                Output::Send { msg: Message::AppendEntry(m), .. } => m.entries.len(),
                _ => panic!("expected append"),
            })
            .collect();
        assert_eq!(sizes, vec![2, 2, 1]);

        // max_batch <= 1 disables coalescing entirely.
        let mut out: Vec<Output> = (1..=3).map(|i| send(1, vec![entry(i)])).collect();
        coalesce_appends(&mut out, 1);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn gaps_do_not_merge() {
        let mut out = vec![send(1, vec![entry(1)]), send(1, vec![entry(3)])];
        coalesce_appends(&mut out, MAX_APPEND_BATCH);
        assert_eq!(out.len(), 2, "non-contiguous appends must stay separate");
    }

    #[test]
    fn empty_burst_is_a_no_op() {
        let mut out: Vec<Output> = Vec::new();
        coalesce_appends(&mut out, MAX_APPEND_BATCH);
        assert!(out.is_empty());
        coalesce_appends(&mut out, 1);
        assert!(out.is_empty());
    }

    #[test]
    fn exact_cap_run_fills_one_batch() {
        // Exactly MAX_APPEND_BATCH contiguous singles: one full batch, no
        // spill, and one more entry starts a fresh batch rather than
        // overflowing the cap.
        let mut out: Vec<Output> =
            (1..=MAX_APPEND_BATCH as u64).map(|i| send(1, vec![entry(i)])).collect();
        coalesce_appends(&mut out, MAX_APPEND_BATCH);
        assert_eq!(out.len(), 1);
        let Output::Send { msg: Message::AppendEntry(m), .. } = &out[0] else {
            panic!("expected append");
        };
        assert_eq!(m.entries.len(), MAX_APPEND_BATCH);

        let mut out: Vec<Output> =
            (1..=MAX_APPEND_BATCH as u64 + 1).map(|i| send(1, vec![entry(i)])).collect();
        coalesce_appends(&mut out, MAX_APPEND_BATCH);
        assert_eq!(out.len(), 2);
        let sizes: Vec<usize> = out
            .iter()
            .map(|o| match o {
                Output::Send { msg: Message::AppendEntry(m), .. } => m.entries.len(),
                other => panic!("expected append, got {other:?}"),
            })
            .collect();
        assert_eq!(sizes, vec![MAX_APPEND_BATCH, 1]);
    }

    #[test]
    fn non_adjacent_terms_refuse_merge() {
        // Messages from different leader terms never fold together, even
        // when the entry runs are index-contiguous: a follower must see the
        // term change as its own message so stale-term rejection applies to
        // the whole frame.
        let mut next_term = send(1, vec![entry(2)]);
        if let Output::Send { msg: Message::AppendEntry(m), .. } = &mut next_term {
            m.term = Term(2);
        }
        let mut out = vec![send(1, vec![entry(1)]), next_term];
        coalesce_appends(&mut out, MAX_APPEND_BATCH);
        assert_eq!(out.len(), 2, "differing message terms must not merge");

        // Same message term but a broken prev_term chain (the second run
        // claims a term-2 predecessor while the first ends in term 1) is
        // also refused: `precedes` checks term adjacency, not just indexes.
        let mut broken = send(1, vec![entry(2)]);
        if let Output::Send { msg: Message::AppendEntry(m), .. } = &mut broken {
            m.entries[0].term = Term(2);
            m.entries[0].prev_term = Term(2);
        }
        let mut out = vec![send(1, vec![entry(1)]), broken];
        coalesce_appends(&mut out, MAX_APPEND_BATCH);
        assert_eq!(out.len(), 2, "broken prev_term chain must not merge");
    }
}
