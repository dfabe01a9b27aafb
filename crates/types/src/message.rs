//! Protocol messages.
//!
//! Replication in the paper is *per entry*: the leader indexes each client
//! request into one [`crate::Entry`] and hands it to a dispatcher pool, one
//! queue per follower (Figure 3b). On the wire, however, an
//! [`AppendEntryMsg`] carries a *contiguous run* of entries
//! (`entries[i].precedes(entries[i+1])`): accepting a batch is defined as
//! accepting each entry in order, so a batched message is semantically
//! identical to the same entries sent back-to-back — batching only cuts
//! per-message overhead (framing, syscalls, continuity checks). Producers
//! that need per-entry semantics (VGRaft verification) simply send
//! single-entry batches. Heartbeats are separate messages that also
//! propagate the commit index and probe follower progress.

use crate::entry::{Entry, Fragment};
use crate::ids::{ClientId, LogIndex, NodeId, RequestId, Term};
use bytes::Bytes;

/// The follower's verdict on a received entry (Section III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcceptState {
    /// The entry (and everything before it) is appended to the follower's
    /// log. Equivalent to a vote in original Raft; counts toward commit.
    /// Carries the follower's *last appended* entry coordinates, which may be
    /// beyond the triggering entry when a window flush appended a prefix
    /// (Figure 9).
    Strong {
        /// Index of the follower's last appended entry.
        last_index: LogIndex,
        /// Term of the follower's last appended entry.
        last_term: Term,
    },
    /// NB-Raft only: the entry was received and cached in the sliding window
    /// but is not yet appendable. Indicates reception, not persistence.
    Weak {
        /// Index of the cached entry.
        index: LogIndex,
        /// Term of the cached entry.
        term: Term,
    },
    /// The entry does not extend the follower's log consistently; entries
    /// with smaller indices must be re-sent (Section III-B1).
    Mismatch {
        /// Index of the rejected entry.
        index: LogIndex,
        /// First index the follower is missing; the leader rewinds its
        /// per-follower cursor here.
        resend_from: LogIndex,
    },
}

/// VGRaft verification material attached to an entry: a digest of the entry
/// body and the leader's signature over it, checked by the per-round
/// verification group.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Verification {
    /// SHA-256 digest of the serialized entry body.
    pub digest: [u8; 32],
    /// Leader's signature over `digest` (HMAC-based toy scheme; see
    /// `nbr-crypto`).
    pub signature: [u8; 32],
    /// The verification group for this consensus round.
    pub group: Vec<NodeId>,
}

/// Most entries a single [`AppendEntryMsg`] may carry. Producers (leader
/// repair, replica-loop coalescing) batch up to this; the decoder rejects
/// anything larger so a hostile peer cannot smuggle oversized batches.
pub const MAX_APPEND_BATCH: usize = 64;

/// Replicate a contiguous run of entries to a follower.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AppendEntryMsg {
    /// Leader's term.
    pub term: Term,
    /// Leader's id (for client redirection and relay bookkeeping).
    pub leader: NodeId,
    /// The entries, in index order, each `precedes` the next. Never empty;
    /// `entries[0].prev_term` is the continuity check value for the run.
    pub entries: Vec<Entry>,
    /// Leader's commit index at send time.
    pub leader_commit: LogIndex,
    /// VGRaft: digest + signature to verify before accepting. Only valid on
    /// single-entry messages; verified entries are never batched.
    pub verification: Option<Verification>,
    /// KRaft: nodes this recipient must relay the entries to (empty for the
    /// Raft family and for relay leaves).
    pub relay_to: Vec<NodeId>,
}

impl AppendEntryMsg {
    /// Whether `next` can be folded into `self` as a continuation batch:
    /// same leader and term, no per-message extras (verification, relay
    /// fan-out), contiguous run, and under the batch cap. `max` lets callers
    /// tighten the bound below [`MAX_APPEND_BATCH`].
    pub fn can_merge(&self, next: &AppendEntryMsg, max: usize) -> bool {
        self.term == next.term
            && self.leader == next.leader
            && self.verification.is_none()
            && next.verification.is_none()
            && self.relay_to.is_empty()
            && next.relay_to.is_empty()
            && self.entries.len() + next.entries.len() <= max.min(MAX_APPEND_BATCH)
            && match (self.entries.last(), next.entries.first()) {
                (Some(a), Some(b)) => a.precedes(b),
                _ => false,
            }
    }

    /// Fold `next` into `self` if [`Self::can_merge`] allows it. Returns
    /// `false` (leaving both untouched) otherwise. The merged message is
    /// semantically identical to delivering `self` then `next`: the entry
    /// run is concatenated and the commit index advances to the later one.
    pub fn merge(&mut self, next: &AppendEntryMsg, max: usize) -> bool {
        if !self.can_merge(next, max) {
            return false;
        }
        self.entries.extend(next.entries.iter().cloned());
        self.leader_commit = self.leader_commit.max(next.leader_commit);
        true
    }
}

/// Follower's response to an [`AppendEntryMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppendRespMsg {
    /// Responder's current term (a higher term tells the leader it is stale —
    /// Figure 11).
    pub term: Term,
    /// The responding replica, which is also the one the response is
    /// delivered from (a KRaft relay's followers answer the leader
    /// directly); the leader drops it otherwise.
    pub from: NodeId,
    /// Verdict.
    pub state: AcceptState,
}

/// Periodic leader heartbeat; doubles as commit-index propagation and as a
/// progress probe (the response reports the follower's last entry so the
/// leader can re-send missing suffixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeartbeatMsg {
    /// Leader's term.
    pub term: Term,
    /// Leader's id.
    pub leader: NodeId,
    /// Leader's last log position, so the follower can detect it is behind.
    pub last_index: LogIndex,
    /// Term of the leader's last entry.
    pub last_term: Term,
    /// Leader's commit index.
    pub leader_commit: LogIndex,
}

/// Follower's response to a heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeartbeatRespMsg {
    /// Responder's current term.
    pub term: Term,
    /// Responder id.
    pub from: NodeId,
    /// Follower's last appended index (leader resends from here when behind).
    pub last_index: LogIndex,
    /// Term of the follower's last appended entry.
    pub last_term: Term,
}

/// Candidate requests a vote (standard Raft election).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestVoteMsg {
    /// Candidate's term.
    pub term: Term,
    /// Candidate id.
    pub candidate: NodeId,
    /// Candidate's last log index (up-to-date check).
    pub last_log_index: LogIndex,
    /// Candidate's last log term (up-to-date check).
    pub last_log_term: Term,
}

/// Vote response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestVoteRespMsg {
    /// Responder's current term.
    pub term: Term,
    /// Responder id.
    pub from: NodeId,
    /// Whether the vote was granted.
    pub granted: bool,
}

/// CRaft recovery: a leader that only holds a fragment of a committed entry
/// pulls shards from peers to reconstruct the full payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PullFragmentsMsg {
    /// Requester's term.
    pub term: Term,
    /// Requester id.
    pub from: NodeId,
    /// First index requested (inclusive).
    pub from_index: LogIndex,
    /// Last index requested (inclusive).
    pub to_index: LogIndex,
}

/// CRaft recovery: shards for the requested range.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PushFragmentsMsg {
    /// Responder's term.
    pub term: Term,
    /// Responder id.
    pub from: NodeId,
    /// `(index, entry term, shard)` triples held by the responder.
    pub fragments: Vec<(LogIndex, Term, Fragment)>,
}

/// Leader → lagging follower: replace your log with this state machine
/// snapshot (the follower is so far behind that the leader has compacted the
/// entries it would need).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InstallSnapshotMsg {
    /// Leader's term.
    pub term: Term,
    /// Leader id.
    pub leader: NodeId,
    /// Index of the last entry covered by the snapshot.
    pub last_index: LogIndex,
    /// Term of that entry.
    pub last_term: Term,
    /// Leader's commit index.
    pub leader_commit: LogIndex,
    /// Serialized state machine image.
    pub data: Bytes,
}

/// Follower's acknowledgement of a snapshot installation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstallSnapshotRespMsg {
    /// Responder's current term.
    pub term: Term,
    /// Responder id.
    pub from: NodeId,
    /// Follower's last index after installation.
    pub last_index: LogIndex,
}

/// Follower → leader: what is a safe read index? (ReadIndex protocol for
/// linearizable follower reads — the capability the paper's Table II notes
/// CRaft gives up.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReadIndexReqMsg {
    /// Requester's term.
    pub term: Term,
    /// Requesting follower.
    pub from: NodeId,
    /// Correlation id chosen by the follower.
    pub probe: u64,
}

/// Leader → follower: reads at `read_index` are linearizable once your
/// applied index reaches it (sent only after the leader re-confirms its
/// leadership with a heartbeat quorum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReadIndexRespMsg {
    /// Leader's term.
    pub term: Term,
    /// The confirmed read index (leader's commit index at request time).
    pub read_index: LogIndex,
    /// Correlation id echoed back.
    pub probe: u64,
}

/// All replica-to-replica messages.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Message {
    /// Replicate a contiguous run of entries.
    AppendEntry(AppendEntryMsg),
    /// Verdict on a replicated entry.
    AppendResp(AppendRespMsg),
    /// Leader heartbeat.
    Heartbeat(HeartbeatMsg),
    /// Heartbeat response with progress report.
    HeartbeatResp(HeartbeatRespMsg),
    /// Election: vote request.
    RequestVote(RequestVoteMsg),
    /// Election: vote response.
    RequestVoteResp(RequestVoteRespMsg),
    /// CRaft recovery: request shards.
    PullFragments(PullFragmentsMsg),
    /// CRaft recovery: deliver shards.
    PushFragments(PushFragmentsMsg),
    /// Snapshot installation for a follower behind the compaction horizon.
    InstallSnapshot(InstallSnapshotMsg),
    /// Snapshot installation acknowledgement.
    InstallSnapshotResp(InstallSnapshotRespMsg),
    /// ReadIndex request (follower read).
    ReadIndexReq(ReadIndexReqMsg),
    /// ReadIndex confirmation.
    ReadIndexResp(ReadIndexRespMsg),
}

impl Message {
    /// Approximate wire size in bytes, used by the network cost models. Kept
    /// consistent with [`crate::wire`] framing (small fixed headers plus
    /// payload bytes).
    pub fn size_bytes(&self) -> usize {
        const FIXED: usize = 24;
        match self {
            Message::AppendEntry(m) => {
                FIXED
                    + m.entries.iter().map(Entry::size_bytes).sum::<usize>()
                    + m.verification.as_ref().map_or(0, |v| 64 + 4 * v.group.len())
                    + 4 * m.relay_to.len()
            }
            Message::AppendResp(_) => FIXED + 24,
            Message::Heartbeat(_) => FIXED + 24,
            Message::HeartbeatResp(_) => FIXED + 16,
            Message::RequestVote(_) => FIXED + 16,
            Message::RequestVoteResp(_) => FIXED + 8,
            Message::PullFragments(_) => FIXED + 16,
            Message::PushFragments(m) => {
                FIXED + m.fragments.iter().map(|(_, _, f)| 24 + f.data.len()).sum::<usize>()
            }
            Message::InstallSnapshot(m) => FIXED + 28 + m.data.len(),
            Message::InstallSnapshotResp(_) => FIXED + 8,
            Message::ReadIndexReq(_) => FIXED + 12,
            Message::ReadIndexResp(_) => FIXED + 16,
        }
    }

    /// The term the sender stamped on the message. Every message carries one;
    /// receivers step down / update on seeing a higher term.
    pub fn term(&self) -> Term {
        match self {
            Message::AppendEntry(m) => m.term,
            Message::AppendResp(m) => m.term,
            Message::Heartbeat(m) => m.term,
            Message::HeartbeatResp(m) => m.term,
            Message::RequestVote(m) => m.term,
            Message::RequestVoteResp(m) => m.term,
            Message::PullFragments(m) => m.term,
            Message::PushFragments(m) => m.term,
            Message::InstallSnapshot(m) => m.term,
            Message::InstallSnapshotResp(m) => m.term,
            Message::ReadIndexReq(m) => m.term,
            Message::ReadIndexResp(m) => m.term,
        }
    }

    /// The replica the message names as its sender: a leader, a candidate
    /// or a responder (`None` for a `ReadIndexResp`, which names none).
    pub fn sender(&self) -> Option<NodeId> {
        match self {
            Message::AppendEntry(m) => Some(m.leader),
            Message::AppendResp(m) => Some(m.from),
            Message::Heartbeat(m) => Some(m.leader),
            Message::HeartbeatResp(m) => Some(m.from),
            Message::RequestVote(m) => Some(m.candidate),
            Message::RequestVoteResp(m) => Some(m.from),
            Message::PullFragments(m) => Some(m.from),
            Message::PushFragments(m) => Some(m.from),
            Message::InstallSnapshot(m) => Some(m.leader),
            Message::InstallSnapshotResp(m) => Some(m.from),
            Message::ReadIndexReq(m) => Some(m.from),
            Message::ReadIndexResp(_) => None,
        }
    }

    /// Short tag for logging and trace assertions.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::AppendEntry(_) => "append",
            Message::AppendResp(_) => "append_resp",
            Message::Heartbeat(_) => "heartbeat",
            Message::HeartbeatResp(_) => "heartbeat_resp",
            Message::RequestVote(_) => "request_vote",
            Message::RequestVoteResp(_) => "vote_resp",
            Message::PullFragments(_) => "pull_frags",
            Message::PushFragments(_) => "push_frags",
            Message::InstallSnapshot(_) => "install_snapshot",
            Message::InstallSnapshotResp(_) => "install_snapshot_resp",
            Message::ReadIndexReq(_) => "read_index_req",
            Message::ReadIndexResp(_) => "read_index_resp",
        }
    }
}

/// A client request as it arrives at the leader.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClientRequest {
    /// Issuing client connection.
    pub client: ClientId,
    /// Per-client sequence number.
    pub request: RequestId,
    /// Command bytes.
    pub payload: Bytes,
}

/// Leader-to-client response (Section III-B/III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientResponse {
    /// NB-Raft: a living quorum has *received* the entry (weak + strong
    /// accepts form a majority). The client may issue its next request but
    /// must remember this one in its `opList` for retry on leader change.
    Weak {
        /// The request this answers.
        request: RequestId,
        /// Log index assigned to the request.
        index: LogIndex,
        /// Term of the entry.
        term: Term,
    },
    /// The entry is committed. `index`/`term` are the *last committed* entry
    /// coordinates; by log matching every request weakly accepted in that
    /// same term at or below `index` is committed too, so the client
    /// confirms those as well.
    Strong {
        /// The request this answers.
        request: RequestId,
        /// Last committed entry index at response time.
        index: LogIndex,
        /// Term of that entry.
        term: Term,
    },
    /// A newer leader exists; the client must retry all weakly-accepted
    /// requests with it (Figure 11).
    LeaderChanged {
        /// The newer term observed.
        term: Term,
    },
    /// This node is not the leader; retry at the hinted node if any.
    NotLeader {
        /// The request this answers.
        request: RequestId,
        /// Believed current leader, if known.
        hint: Option<NodeId>,
    },
}

impl ClientResponse {
    /// Short tag for logging.
    pub fn kind(&self) -> &'static str {
        match self {
            ClientResponse::Weak { .. } => "weak",
            ClientResponse::Strong { .. } => "strong",
            ClientResponse::LeaderChanged { .. } => "leader_changed",
            ClientResponse::NotLeader { .. } => "not_leader",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Payload;

    fn entry(i: u64, t: u64, p: u64, len: usize) -> Entry {
        Entry {
            index: LogIndex(i),
            term: Term(t),
            prev_term: Term(p),
            origin: None,
            payload: Payload::Data(Bytes::from(vec![0u8; len])),
        }
    }

    #[test]
    fn message_terms_are_extracted() {
        let m = Message::Heartbeat(HeartbeatMsg {
            term: Term(4),
            leader: NodeId(0),
            last_index: LogIndex(9),
            last_term: Term(4),
            leader_commit: LogIndex(8),
        });
        assert_eq!(m.term(), Term(4));
        assert_eq!(m.kind(), "heartbeat");
    }

    #[test]
    fn append_size_tracks_payload() {
        let small = Message::AppendEntry(AppendEntryMsg {
            term: Term(1),
            leader: NodeId(0),
            entries: vec![entry(1, 1, 0, 100)],
            leader_commit: LogIndex(0),
            verification: None,
            relay_to: vec![],
        });
        let large = Message::AppendEntry(AppendEntryMsg {
            term: Term(1),
            leader: NodeId(0),
            entries: vec![entry(1, 1, 0, 4096)],
            leader_commit: LogIndex(0),
            verification: None,
            relay_to: vec![],
        });
        assert!(large.size_bytes() - small.size_bytes() == 4096 - 100);
        let batched = Message::AppendEntry(AppendEntryMsg {
            term: Term(1),
            leader: NodeId(0),
            entries: vec![entry(1, 1, 0, 100), entry(2, 1, 1, 100)],
            leader_commit: LogIndex(0),
            verification: None,
            relay_to: vec![],
        });
        assert_eq!(batched.size_bytes() - small.size_bytes(), entry(2, 1, 1, 100).size_bytes());
    }

    #[test]
    fn verification_adds_size() {
        let mut msg = AppendEntryMsg {
            term: Term(1),
            leader: NodeId(0),
            entries: vec![entry(1, 1, 0, 64)],
            leader_commit: LogIndex(0),
            verification: None,
            relay_to: vec![],
        };
        let plain = Message::AppendEntry(msg.clone()).size_bytes();
        msg.verification = Some(Verification {
            digest: [0; 32],
            signature: [0; 32],
            group: vec![NodeId(1), NodeId(2)],
        });
        let signed = Message::AppendEntry(msg).size_bytes();
        assert_eq!(signed, plain + 64 + 8);
    }

    fn append(entries: Vec<Entry>, commit: u64) -> AppendEntryMsg {
        AppendEntryMsg {
            term: Term(1),
            leader: NodeId(0),
            entries,
            leader_commit: LogIndex(commit),
            verification: None,
            relay_to: vec![],
        }
    }

    #[test]
    fn merge_requires_contiguity() {
        let mut a = append(vec![entry(1, 1, 0, 8)], 0);
        let b = append(vec![entry(2, 1, 1, 8)], 1);
        assert!(a.merge(&b, MAX_APPEND_BATCH));
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.leader_commit, LogIndex(1));

        // A gap (index 4 after 2) must refuse to merge.
        let gap = append(vec![entry(4, 1, 1, 8)], 1);
        assert!(!a.merge(&gap, MAX_APPEND_BATCH));
        assert_eq!(a.entries.len(), 2);

        // A term-mismatched continuation (prev_term disagrees) refuses too.
        let wrong_prev = append(vec![entry(3, 1, 9, 8)], 1);
        assert!(!a.merge(&wrong_prev, MAX_APPEND_BATCH));
    }

    #[test]
    fn merge_respects_cap_and_extras() {
        let mut a = append(vec![entry(1, 1, 0, 8)], 0);
        let b = append(vec![entry(2, 1, 1, 8)], 0);
        assert!(!a.merge(&b, 1), "cap of 1 forbids any batching");

        let mut signed = append(vec![entry(1, 1, 0, 8)], 0);
        signed.verification =
            Some(Verification { digest: [0; 32], signature: [0; 32], group: vec![] });
        assert!(!signed.clone().merge(&b, MAX_APPEND_BATCH), "verified messages never batch");
        assert!(!a.merge(&signed, MAX_APPEND_BATCH));

        let mut relayed = append(vec![entry(2, 1, 1, 8)], 0);
        relayed.relay_to = vec![NodeId(2)];
        assert!(!a.merge(&relayed, MAX_APPEND_BATCH), "relay fan-out never batches");
    }

    #[test]
    fn client_response_kinds() {
        let r = ClientResponse::Weak { request: RequestId(1), index: LogIndex(7), term: Term(2) };
        assert_eq!(r.kind(), "weak");
        let r = ClientResponse::LeaderChanged { term: Term(3) };
        assert_eq!(r.kind(), "leader_changed");
    }
}
