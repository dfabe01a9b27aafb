//! The NB-Raft client (paper Section III-C).
//!
//! A client connection is closed-loop: it issues its next request once the
//! leader answers the newest one, `WEAK_ACCEPT` (NB-Raft) or `STRONG_ACCEPT`.
//! Every issued request waits in one queue, in id order, until it commits,
//! and leaves only from the front: [`RaftClient::confirmed`] is a contiguous
//! watermark and `Confirmed` comes out once per request, in id order. The
//! queue's answered requests are the paper's `opList`.
//!
//! A `WEAK_ACCEPT (index, term)` is recorded with its request unless a newer
//! term (`listTerm`) has been seen. A `STRONG_ACCEPT (index, term)` confirms
//! the request it names and every request weakly accepted in that *same*
//! term at or below `index` (a leader never rewrites its own entries). A term
//! above `listTerm`, or `LEADER_CHANGED`, drops every weak accept and re-sends
//! those requests: the old leader may have lost them. `NOT_LEADER` and the
//! request timeout re-send a request whose latest send is unanswered. So a
//! request is sent, under its one id, until it commits, and the state
//! machine's dedup table applies exactly one copy.

use bytes::Bytes;
use nbr_types::{
    ClientId, ClientRequest, ClientResponse, LogIndex, NodeId, RequestId, Term, Time, TimeDelta,
};
use std::collections::VecDeque;

/// Actions the harness must perform for the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientAction {
    /// Transmit a request to the given replica.
    Send {
        /// Destination (believed leader).
        to: NodeId,
        /// The request.
        request: ClientRequest,
    },
    /// A request completed its first acknowledgement (weak or strong):
    /// throughput accounting point. `issued_at` enables latency measurement.
    Acked {
        /// The acknowledged request.
        request: RequestId,
        /// When it was (first) sent.
        issued_at: Time,
        /// Whether the first ack was weak (NB-Raft early return).
        weak: bool,
    },
    /// Every request up to this one is durably committed. Emitted once per
    /// request, in id order, possibly long after `Acked`.
    Confirmed {
        /// The committed request.
        request: RequestId,
    },
}

/// Where an issued request stands with respect to its latest send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Status {
    /// Sent, no answer yet: the request timeout re-sends it.
    InFlight,
    /// Weakly accepted at `(index, term)` by that term's leader.
    Accepted(LogIndex, Term),
    /// Committed; it leaves the queue once every older request has.
    Committed,
}

/// An issued, not yet confirmed request.
#[derive(Debug, Clone)]
struct PendingOp {
    request: RequestId,
    payload: Bytes,
    /// When it was first sent (the `Acked` latency base).
    first_sent: Time,
    /// When it was last sent (the request timeout runs from here).
    last_sent: Time,
    /// Its first answer has been reported as `Acked`.
    acked: bool,
    status: Status,
}

/// The client protocol state machine.
///
/// `Clone` exists for the `nbr-check` model checker, which snapshots client
/// state while exploring the protocol state graph.
#[derive(Debug, Clone)]
pub struct RaftClient {
    id: ClientId,
    next_request: RequestId,
    /// The believed leader / current target.
    target: NodeId,
    /// All replicas, for failover rotation.
    nodes: Vec<NodeId>,
    /// Every issued, unconfirmed request, in id order (ids are contiguous).
    pending: VecDeque<PendingOp>,
    /// Newest leader term observed (paper's `listTerm`).
    list_term: Term,
    /// Re-send a request unanswered for this long.
    request_timeout: TimeDelta,
}

impl RaftClient {
    /// Create a client that will first contact `target`.
    pub fn new(
        id: ClientId,
        nodes: Vec<NodeId>,
        target: NodeId,
        request_timeout: TimeDelta,
    ) -> RaftClient {
        assert!(!nodes.is_empty());
        RaftClient {
            id,
            next_request: RequestId(1),
            target,
            nodes,
            pending: VecDeque::new(),
            list_term: Term::ZERO,
            request_timeout,
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// True when the client may issue a new request (closed loop): the
    /// newest request has been answered.
    pub fn ready(&self) -> bool {
        self.pending.back().is_none_or(|op| op.acked)
    }

    /// Answered requests not yet confirmed (the paper's `opList`).
    pub fn op_list_len(&self) -> usize {
        self.pending.len() - usize::from(!self.ready())
    }

    /// True while some request's latest send is unanswered: [`Self::tick`]
    /// re-sends it once the request timeout passes.
    pub fn in_flight(&self) -> bool {
        self.pending.iter().any(|op| op.status == Status::InFlight)
    }

    /// Newest leader term observed.
    pub fn list_term(&self) -> Term {
        self.list_term
    }

    /// Current target replica.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// Highest request id issued.
    pub fn issued(&self) -> u64 {
        self.next_request.0 - 1
    }

    /// Highest request id up to which every request is confirmed durable:
    /// one below the oldest unconfirmed request. The `nbr-check` liveness
    /// pass treats `confirmed() == issued()` as "every issued op confirmed".
    pub fn confirmed(&self) -> u64 {
        self.pending.front().map_or(self.issued(), |op| op.request.0 - 1)
    }

    /// Fold every piece of client protocol state into `h` (see
    /// [`crate::Node::fingerprint`]).
    pub fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        self.fingerprint_mapped(h, &|id| id, Time::ZERO);
    }

    /// [`Self::fingerprint`] under a node-id renaming and time translation —
    /// the client half of [`crate::Node::fingerprint_mapped`]. `map` is
    /// applied to the target replica; send instants are hashed relative to
    /// `base` (the client only compares instants against timeouts).
    pub fn fingerprint_mapped<H: std::hash::Hasher>(
        &self,
        h: &mut H,
        map: &dyn Fn(NodeId) -> NodeId,
        base: Time,
    ) {
        use std::hash::Hash;
        let rel = |t: Time| t.as_nanos().wrapping_sub(base.as_nanos()) as i64;
        self.id.hash(h);
        self.next_request.hash(h);
        map(self.target).hash(h);
        self.list_term.hash(h);
        for op in &self.pending {
            let times = (rel(op.first_sent), rel(op.last_sent));
            (op.request, &op.payload, times, op.acked, op.status).hash(h);
        }
    }

    /// Issue a new request with `payload`. Panics if not [`Self::ready`].
    pub fn issue(
        &mut self,
        payload: Bytes,
        now: Time,
        actions: &mut Vec<ClientAction>,
    ) -> RequestId {
        assert!(self.ready(), "closed-loop client already has an unanswered request");
        let request = self.next_request;
        self.next_request = self.next_request.next();
        self.pending.push_back(PendingOp {
            request,
            payload,
            first_sent: now,
            last_sent: now,
            acked: false,
            status: Status::InFlight,
        });
        self.send(|op| op.request == request, now, actions);
        request
    }

    /// Handle a response from a replica.
    pub fn handle_response(
        &mut self,
        resp: ClientResponse,
        now: Time,
        actions: &mut Vec<ClientAction>,
    ) {
        match resp {
            ClientResponse::Weak { request, index, term } => {
                self.observe_term(term, now, actions);
                let list_term = self.list_term;
                if let Some(op) = self.pending.iter_mut().find(|op| op.request == request) {
                    if op.status == Status::InFlight && term == list_term {
                        op.status = Status::Accepted(index, term);
                    }
                    Self::ack(op, true, actions);
                }
            }
            ClientResponse::Strong { request, index, term } => {
                self.observe_term(term, now, actions);
                for op in &mut self.pending {
                    if op.request == request {
                        Self::ack(op, false, actions);
                        op.status = Status::Committed;
                    } else if matches!(op.status, Status::Accepted(i, t) if t == term && i <= index)
                    {
                        op.status = Status::Committed;
                    }
                }
                while let Some(op) = self.pending.pop_front_if(|op| op.status == Status::Committed)
                {
                    actions.push(ClientAction::Confirmed { request: op.request });
                }
            }
            ClientResponse::LeaderChanged { term } => {
                self.observe_term(term, now, actions);
                // Even without a term bump, LEADER_CHANGED forces a retry.
                self.retry_accepted(now, actions);
            }
            ClientResponse::NotLeader { request, hint } => {
                if let Some(h) = hint {
                    self.target = h;
                } else {
                    self.rotate_target();
                }
                self.send(
                    |op| op.request == request && op.status == Status::InFlight,
                    now,
                    actions,
                );
            }
        }
    }

    /// Time-based retries: every request whose latest send is unanswered
    /// past the request timeout is re-sent, to the next replica.
    pub fn tick(&mut self, now: Time, actions: &mut Vec<ClientAction>) {
        let timeout = self.request_timeout;
        let due =
            |op: &PendingOp| op.status == Status::InFlight && now.since(op.last_sent) >= timeout;
        if self.pending.iter().any(due) {
            self.rotate_target();
            self.send(due, now, actions);
        }
    }

    /// Section III-C: a newer term means previous WEAK_ACCEPTs may be lost.
    fn observe_term(&mut self, term: Term, now: Time, actions: &mut Vec<ClientAction>) {
        if term > self.list_term {
            self.list_term = term;
            self.retry_accepted(now, actions);
        }
    }

    /// Forget every weak accept and send those requests again. They keep
    /// their ids: the state machine's dedup table applies whichever copy
    /// commits first and skips the rest.
    fn retry_accepted(&mut self, now: Time, actions: &mut Vec<ClientAction>) {
        self.send(|op| matches!(op.status, Status::Accepted(..)), now, actions);
    }

    /// Send every pending request `pick` selects to the current target: the
    /// one place a [`ClientAction::Send`] is built. Each then waits for an
    /// answer to this send, its request timeout restarted.
    fn send(
        &mut self,
        pick: impl Fn(&PendingOp) -> bool,
        now: Time,
        actions: &mut Vec<ClientAction>,
    ) {
        let (to, client) = (self.target, self.id);
        for op in self.pending.iter_mut().filter(|op| pick(op)) {
            (op.status, op.last_sent) = (Status::InFlight, now);
            let (request, payload) = (op.request, op.payload.clone());
            actions.push(ClientAction::Send {
                to,
                request: ClientRequest { client, request, payload },
            });
        }
    }

    fn rotate_target(&mut self) {
        let pos = self.nodes.iter().position(|&n| n == self.target).unwrap_or(0);
        self.target = self.nodes[(pos + 1) % self.nodes.len()];
    }

    /// Report `op`'s first answer; later answers report nothing.
    fn ack(op: &mut PendingOp, weak: bool, actions: &mut Vec<ClientAction>) {
        if !std::mem::replace(&mut op.acked, true) {
            let (request, issued_at) = (op.request, op.first_sent);
            actions.push(ClientAction::Acked { request, issued_at, weak });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> RaftClient {
        RaftClient::new(
            ClientId(1),
            vec![NodeId(0), NodeId(1), NodeId(2)],
            NodeId(0),
            TimeDelta::from_millis(100),
        )
    }

    fn sends(actions: &[ClientAction]) -> Vec<(NodeId, RequestId)> {
        actions
            .iter()
            .filter_map(|a| match a {
                ClientAction::Send { to, request } => Some((*to, request.request)),
                _ => None,
            })
            .collect()
    }

    fn confirmed(actions: &[ClientAction]) -> Vec<RequestId> {
        actions
            .iter()
            .filter_map(|a| match a {
                ClientAction::Confirmed { request } => Some(*request),
                _ => None,
            })
            .collect()
    }

    fn weak(request: u64, index: u64, term: u64) -> ClientResponse {
        ClientResponse::Weak {
            request: RequestId(request),
            index: LogIndex(index),
            term: Term(term),
        }
    }

    fn strong(request: u64, index: u64, term: u64) -> ClientResponse {
        ClientResponse::Strong {
            request: RequestId(request),
            index: LogIndex(index),
            term: Term(term),
        }
    }

    #[test]
    fn closed_loop_blocks_until_response() {
        let mut c = client();
        let mut acts = Vec::new();
        assert!(c.ready());
        let r1 = c.issue(Bytes::from_static(b"a"), Time::ZERO, &mut acts);
        assert!(!c.ready());
        assert_eq!(sends(&acts), vec![(NodeId(0), r1)]);
    }

    #[test]
    fn weak_accept_unblocks_and_lists() {
        let mut c = client();
        let mut acts = Vec::new();
        c.issue(Bytes::from_static(b"a"), Time::ZERO, &mut acts);
        acts.clear();
        c.handle_response(weak(1, 7, 2), Time::from_millis(1), &mut acts);
        assert!(c.ready(), "weak accept unblocks the client");
        assert_eq!(c.op_list_len(), 1);
        assert_eq!(c.list_term(), Term(2));
        assert!(matches!(acts[0], ClientAction::Acked { weak: true, .. }));
    }

    #[test]
    fn strong_accept_confirms_covered_ops_in_id_order() {
        let mut c = client();
        let mut acts = Vec::new();
        // Three weakly accepted requests at indices 5, 6, 7.
        for (r, idx) in [(1, 5), (2, 6), (3, 7)] {
            c.issue(Bytes::from_static(b"x"), Time::ZERO, &mut acts);
            c.handle_response(weak(r, idx, 2), Time::ZERO, &mut acts);
        }
        assert_eq!(c.op_list_len(), 3);
        // Fourth request answered STRONG with last committed index 6.
        c.issue(Bytes::from_static(b"y"), Time::ZERO, &mut acts);
        acts.clear();
        c.handle_response(strong(4, 6, 2), Time::ZERO, &mut acts);
        // Ops at 5 and 6 confirmed; 4 is committed but waits behind 3 at 7.
        assert_eq!(confirmed(&acts), vec![RequestId(1), RequestId(2)]);
        assert_eq!((c.confirmed(), c.op_list_len()), (2, 2));
        assert!(c.ready());
        acts.clear();
        c.handle_response(strong(3, 7, 2), Time::ZERO, &mut acts);
        assert_eq!(confirmed(&acts), vec![RequestId(3), RequestId(4)]);
        assert_eq!((c.confirmed(), c.op_list_len()), (4, 0));
    }

    #[test]
    fn a_strong_covers_no_weak_accept_of_another_term() {
        let mut c = client();
        let mut acts = Vec::new();
        c.issue(Bytes::from_static(b"a"), Time::ZERO, &mut acts);
        c.handle_response(weak(1, 5, 2), Time::ZERO, &mut acts);
        c.issue(Bytes::from_static(b"b"), Time::ZERO, &mut acts);
        acts.clear();
        // Term 3's leader may have overwritten index 5: r1 is sent again,
        // not confirmed.
        c.handle_response(strong(2, 6, 3), Time::ZERO, &mut acts);
        assert_eq!(sends(&acts), vec![(NodeId(0), RequestId(1))]);
        assert!(confirmed(&acts).is_empty());
        assert_eq!(c.confirmed(), 0);
    }

    #[test]
    fn higher_term_triggers_retry_of_oplist() {
        let mut c = client();
        let mut acts = Vec::new();
        c.issue(Bytes::from_static(b"a"), Time::ZERO, &mut acts);
        c.handle_response(weak(1, 5, 2), Time::ZERO, &mut acts);
        c.issue(Bytes::from_static(b"b"), Time::ZERO, &mut acts);
        acts.clear();
        // Weak for r2 arrives with a HIGHER term: r1 must be retried.
        c.handle_response(weak(2, 3, 3), Time::ZERO, &mut acts);
        assert_eq!(sends(&acts), vec![(NodeId(0), RequestId(1))], "old op retried");
        assert_eq!(c.list_term(), Term(3));
        // r1 waits for an answer to its retry, r2 for its commit.
        assert_eq!(c.op_list_len(), 2);
        assert!(c.in_flight());
    }

    #[test]
    fn leader_changed_retries_everything() {
        let mut c = client();
        let mut acts = Vec::new();
        c.issue(Bytes::from_static(b"a"), Time::ZERO, &mut acts);
        c.handle_response(weak(1, 5, 2), Time::ZERO, &mut acts);
        assert!(!c.in_flight());
        acts.clear();
        c.handle_response(ClientResponse::LeaderChanged { term: Term(5) }, Time::ZERO, &mut acts);
        assert_eq!(sends(&acts), vec![(NodeId(0), RequestId(1))]);
        assert!(c.in_flight(), "the retried op waits for a fresh answer");
        assert!(c.ready(), "the retry does not block the closed loop");
        assert_eq!(c.list_term(), Term(5));
    }

    #[test]
    fn not_leader_rotates_and_resends() {
        let mut c = client();
        let mut acts = Vec::new();
        let r1 = c.issue(Bytes::from_static(b"a"), Time::ZERO, &mut acts);
        acts.clear();
        c.handle_response(
            ClientResponse::NotLeader { request: r1, hint: Some(NodeId(2)) },
            Time::ZERO,
            &mut acts,
        );
        assert_eq!(c.target(), NodeId(2));
        assert_eq!(sends(&acts), vec![(NodeId(2), r1)]);
        // Without a hint, rotate.
        c.handle_response(
            ClientResponse::NotLeader { request: r1, hint: None },
            Time::ZERO,
            &mut acts,
        );
        assert_eq!(c.target(), NodeId(0));
    }

    #[test]
    fn timeout_resends_outstanding() {
        let mut c = client();
        let mut acts = Vec::new();
        let r1 = c.issue(Bytes::from_static(b"a"), Time::ZERO, &mut acts);
        acts.clear();
        c.tick(Time::from_millis(50), &mut acts);
        assert!(acts.is_empty(), "not timed out yet");
        c.tick(Time::from_millis(150), &mut acts);
        assert_eq!(sends(&acts), vec![(NodeId(1), r1)], "rotated and resent");
        acts.clear();
        // Timer restarts from the resend.
        c.tick(Time::from_millis(200), &mut acts);
        assert!(acts.is_empty());
    }

    #[test]
    fn duplicate_responses_do_not_double_ack() {
        let mut c = client();
        let mut acts = Vec::new();
        c.issue(Bytes::from_static(b"a"), Time::ZERO, &mut acts);
        acts.clear();
        c.handle_response(strong(1, 1, 1), Time::ZERO, &mut acts);
        let acked = acts.iter().filter(|a| matches!(a, ClientAction::Acked { .. })).count();
        assert_eq!(acked, 1);
        acts.clear();
        c.handle_response(strong(1, 1, 1), Time::ZERO, &mut acts);
        assert!(acts.iter().all(|a| !matches!(a, ClientAction::Acked { .. })));
    }

    #[test]
    fn stale_response_for_old_request_ignored() {
        let mut c = client();
        let mut acts = Vec::new();
        c.issue(Bytes::from_static(b"a"), Time::ZERO, &mut acts);
        c.handle_response(strong(1, 1, 1), Time::ZERO, &mut acts);
        c.issue(Bytes::from_static(b"b"), Time::ZERO, &mut acts);
        acts.clear();
        // A duplicate response for r1 must not unblock r2.
        c.handle_response(strong(1, 1, 1), Time::ZERO, &mut acts);
        assert!(!c.ready());
    }

    /// The lost weakly-accepted write: r1 is weakly accepted, its leader
    /// dies with it, r2 times out and commits under the next leader. The
    /// watermark must stay below r1 until a response names r1.
    #[test]
    fn a_weak_write_lost_with_its_leader_holds_the_watermark_until_it_commits() {
        let mut c = client();
        let mut acts = Vec::new();
        // Step 1: r1 weakly accepted in term 1, then r2 issued.
        c.issue(Bytes::from_static(b"a"), Time::ZERO, &mut acts);
        c.handle_response(weak(1, 1, 1), Time::ZERO, &mut acts);
        c.issue(Bytes::from_static(b"b"), Time::ZERO, &mut acts);
        acts.clear();
        // Step 3: r2 times out and goes alone to the next replica.
        c.tick(Time::from_millis(150), &mut acts);
        assert_eq!(sends(&acts), vec![(NodeId(1), RequestId(2))]);
        acts.clear();
        // Steps 4–5: term 2 commits r2 first; r1 is retried, not confirmed.
        c.handle_response(strong(2, 1, 2), Time::from_millis(160), &mut acts);
        assert_eq!(sends(&acts), vec![(NodeId(1), RequestId(1))]);
        assert!(confirmed(&acts).is_empty());
        assert_eq!(c.confirmed(), 0, "r2's commit says nothing about r1");
        acts.clear();
        // Step 6: r1 commits after r2; only now do both confirm, in order.
        c.handle_response(strong(1, 2, 2), Time::from_millis(170), &mut acts);
        assert_eq!(confirmed(&acts), vec![RequestId(1), RequestId(2)]);
        assert_eq!(c.confirmed(), 2);
    }

    #[test]
    fn not_leader_for_a_retried_op_resends_it() {
        let mut c = client();
        let mut acts = Vec::new();
        c.issue(Bytes::from_static(b"a"), Time::ZERO, &mut acts);
        c.handle_response(weak(1, 1, 1), Time::ZERO, &mut acts);
        c.issue(Bytes::from_static(b"b"), Time::ZERO, &mut acts);
        c.handle_response(ClientResponse::LeaderChanged { term: Term(2) }, Time::ZERO, &mut acts);
        acts.clear();
        let hint = Some(NodeId(2));
        c.handle_response(
            ClientResponse::NotLeader { request: RequestId(1), hint },
            Time::ZERO,
            &mut acts,
        );
        assert_eq!(sends(&acts), vec![(NodeId(2), RequestId(1))]);
    }

    #[test]
    fn a_weak_accept_of_a_retried_op_is_covered_by_a_same_term_strong() {
        let mut c = client();
        let mut acts = Vec::new();
        c.issue(Bytes::from_static(b"a"), Time::ZERO, &mut acts);
        c.handle_response(weak(1, 1, 1), Time::ZERO, &mut acts);
        c.handle_response(ClientResponse::LeaderChanged { term: Term(2) }, Time::ZERO, &mut acts);
        // The retry is weakly accepted in term 2, then a later request's
        // Strong in term 2 commits past it.
        c.handle_response(weak(1, 3, 2), Time::ZERO, &mut acts);
        c.issue(Bytes::from_static(b"b"), Time::ZERO, &mut acts);
        acts.clear();
        c.handle_response(strong(2, 4, 2), Time::ZERO, &mut acts);
        assert_eq!(confirmed(&acts), vec![RequestId(1), RequestId(2)]);
        assert_eq!(c.confirmed(), 2);
    }

    #[test]
    fn confirmations_come_once_per_request_in_id_order() {
        let mut c = client();
        let mut acts = Vec::new();
        c.issue(Bytes::from_static(b"a"), Time::ZERO, &mut acts);
        c.handle_response(weak(1, 1, 1), Time::ZERO, &mut acts);
        c.issue(Bytes::from_static(b"b"), Time::ZERO, &mut acts);
        // r2 is weakly accepted by term 2's leader, which retries r1 ...
        c.handle_response(weak(2, 2, 2), Time::ZERO, &mut acts);
        // ... and commits r2 before the retry of r1 lands.
        c.handle_response(strong(2, 2, 2), Time::ZERO, &mut acts);
        c.handle_response(strong(1, 3, 2), Time::ZERO, &mut acts);
        c.handle_response(strong(1, 3, 2), Time::ZERO, &mut acts);
        assert_eq!(confirmed(&acts), vec![RequestId(1), RequestId(2)]);
    }

    #[test]
    fn a_retried_op_is_acked_once_and_confirmed_once() {
        let mut c = client();
        let mut acts = Vec::new();
        c.issue(Bytes::from_static(b"a"), Time::ZERO, &mut acts);
        c.handle_response(weak(1, 1, 1), Time::ZERO, &mut acts);
        c.handle_response(ClientResponse::LeaderChanged { term: Term(2) }, Time::ZERO, &mut acts);
        c.handle_response(weak(1, 2, 2), Time::ZERO, &mut acts);
        c.handle_response(strong(1, 2, 2), Time::ZERO, &mut acts);
        let acked = acts.iter().filter(|a| matches!(a, ClientAction::Acked { .. })).count();
        assert_eq!(acked, 1, "{acts:?}");
        assert_eq!(confirmed(&acts), vec![RequestId(1)]);
    }
}
