//! The blocking driver around the sans-I/O [`RaftClient`] engine.
//!
//! Every synchronous client in the workspace is this loop: wait up to
//! [`POLL`] for a response, feed it (or a tick) to the engine, act on what
//! the engine asks for. What differs between clients is only the link
//! ([`ClientLink`]), which carries both directions: for
//! [`crate::ClusterClient`] a [`crate::Transport`] send out and the
//! in-process router's channel back, for `nbr_net::NetClient` one TCP
//! connection that the driver's own thread writes and reads.

use crate::cluster::now_since;
use nbr_core::{ClientAction, RaftClient};
use nbr_types::{ClientId, ClientRequest, ClientResponse, Error, NodeId, RequestId, Result, Time};
use std::time::{Duration, Instant};

/// The longest the driver waits for a response before it ticks the engine
/// (which re-sends a request unanswered past its timeout).
pub const POLL: Duration = Duration::from_millis(5);

/// How a client's requests leave the process and its responses come back.
pub trait ClientLink {
    /// Transmit `request` to replica `to`. Best effort: the engine's request
    /// timeout retries what a dead link swallows.
    fn send(&mut self, to: NodeId, request: ClientRequest);

    /// The next response to this client, waiting up to `wait` for one.
    /// `None` when none came, including when the link is down.
    fn recv(&mut self, wait: Duration) -> Option<ClientResponse>;
}

/// A [`RaftClient`] and the link its requests leave by and its responses
/// arrive on.
pub struct ClientDriver<L> {
    engine: RaftClient,
    epoch: Instant,
    link: L,
    /// The latest first acknowledgement `(request, was_weak)`.
    acked: Option<(RequestId, bool)>,
    /// Durable-confirmation watermarks observed since the last
    /// [`ClientDriver::take_confirmed`] call.
    confirmed: Vec<RequestId>,
}

impl<L: ClientLink> ClientDriver<L> {
    /// Drive `engine` over `link`; engine time is measured from `epoch`.
    pub fn new(engine: RaftClient, epoch: Instant, link: L) -> Self {
        ClientDriver { engine, epoch, link, acked: None, confirmed: Vec::new() }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.engine.id()
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.engine.issued()
    }

    /// Requests acknowledged (weakly or strongly) but not yet confirmed:
    /// the engine's `opList`.
    pub fn op_list_len(&self) -> usize {
        self.engine.op_list_len()
    }

    /// Take the durable-confirmation watermarks that arrived since the last
    /// call, in id order, one per request. Each returned id is also
    /// *cumulative*: `Confirmed{N}` means every request of this client with
    /// id ≤ N is committed, so a caller that keeps only the highest id may
    /// settle everything at or below it.
    pub fn take_confirmed(&mut self) -> Vec<RequestId> {
        std::mem::take(&mut self.confirmed)
    }

    /// Run one engine call and act on what it asks for.
    fn step<R>(
        &mut self,
        call: impl FnOnce(&mut RaftClient, Time, &mut Vec<ClientAction>) -> R,
    ) -> R {
        let mut actions = Vec::new();
        let r = call(&mut self.engine, now_since(self.epoch), &mut actions);
        for a in actions {
            match a {
                ClientAction::Send { to, request } => self.link.send(to, request),
                ClientAction::Acked { request, weak, .. } => self.acked = Some((request, weak)),
                ClientAction::Confirmed { request } => self.confirmed.push(request),
            }
        }
        r
    }

    /// Feed the engine — one response, or a tick after [`POLL`] without one
    /// — until `done` yields or `deadline` passes. No wait runs past the
    /// deadline, and `done` is asked once more after the last step, so a
    /// reply handled in the final wait still counts.
    fn pump<T>(&mut self, deadline: Instant, done: impl Fn(&Self) -> Option<T>) -> Option<T> {
        loop {
            if let Some(t) = done(self) {
                return Some(t);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            match self.link.recv(left.min(POLL)) {
                Some(resp) => self.step(|e, now, actions| e.handle_response(resp, now, actions)),
                None => self.step(|e, now, actions| e.tick(now, actions)),
            }
        }
    }

    /// Submit one request and block until it is first-acked (weak or
    /// strong). Returns `(request id, was_weak)`.
    pub fn submit(
        &mut self,
        payload: bytes::Bytes,
        timeout: Duration,
    ) -> Result<(RequestId, bool)> {
        let deadline = Instant::now() + timeout;
        let id = self.step(|e, now, actions| e.issue(payload, now, actions));
        // Request ids only grow, so an ack at or past `id` is this request's.
        self.pump(deadline, |d| d.acked.filter(|&(r, _)| r >= id))
            .map(|(_, weak)| (id, weak))
            .ok_or_else(|| Error::Cluster(format!("request {id} timed out")))
    }

    /// Block until the closed-loop client may issue again (no outstanding
    /// un-first-acked request), stepping retries/redirects meanwhile.
    /// Returns readiness at exit. [`Self::submit`] panics when called while
    /// not ready, so call this after a `submit` timeout before retrying.
    pub fn await_ready(&mut self, timeout: Duration) -> bool {
        let ready = |d: &Self| d.engine.ready().then_some(());
        self.pump(Instant::now() + timeout, ready).is_some()
    }

    /// Block until every acknowledged request is confirmed (the opList is
    /// empty) or the timeout expires. A request retried after a leader
    /// change stays in the opList until it commits, and holds every later
    /// request's confirmation behind it.
    pub fn drain(&mut self, timeout: Duration) -> bool {
        let drained = |d: &Self| (d.engine.op_list_len() == 0).then_some(());
        self.pump(Instant::now() + timeout, drained).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbr_types::{LogIndex, Term, TimeDelta};
    use std::collections::VecDeque;

    /// A link that weakly accepts every request sent and whose every `recv`
    /// sleeps out its whole wait before it hands over the next scripted
    /// reply: each reply arrives at the last instant of a wait.
    #[derive(Default)]
    struct Scripted {
        replies: VecDeque<ClientResponse>,
        waits: Vec<Duration>,
    }

    impl ClientLink for Scripted {
        fn send(&mut self, _to: NodeId, request: ClientRequest) {
            let (request, index, term) = (request.request, LogIndex(request.request.0), Term(1));
            self.replies.push_back(ClientResponse::Weak { request, index, term });
        }

        fn recv(&mut self, wait: Duration) -> Option<ClientResponse> {
            self.waits.push(wait);
            std::thread::sleep(wait);
            self.replies.pop_front()
        }
    }

    fn driver() -> ClientDriver<Scripted> {
        let engine =
            RaftClient::new(ClientId(1), vec![NodeId(0)], NodeId(0), TimeDelta::from_millis(300));
        ClientDriver::new(engine, Instant::now(), Scripted::default())
    }

    /// `drain(timeout)` with a timeout shorter than the poll interval (what
    /// a paced generator does before each due time): its one wait ends at
    /// the deadline, and the confirmation that arrives then drains it.
    #[test]
    fn drain_waits_no_longer_than_its_timeout_and_counts_the_last_reply() {
        let mut d = driver();
        d.submit(bytes::Bytes::from_static(b"x"), Duration::from_secs(1)).expect("weak ack");
        assert_eq!(d.op_list_len(), 1, "a weak ack leaves the op to confirm");
        let (request, index, term) = (RequestId(1), LogIndex(1), Term(1));
        d.link.replies.push_back(ClientResponse::Strong { request, index, term });
        d.link.waits.clear();
        let timeout = POLL / 3;
        assert!(d.drain(timeout), "the confirmation in the final wait drains the opList");
        assert_eq!(d.link.waits.len(), 1);
        assert!(d.link.waits[0] <= timeout, "a {:?} wait in a {timeout:?} drain", d.link.waits[0]);
    }

    /// `submit`'s wait ends at its deadline too, and the ack that arrives
    /// then is reported, not a time-out.
    #[test]
    fn submit_waits_no_longer_than_its_timeout_and_counts_the_last_reply() {
        let mut d = driver();
        let timeout = POLL / 2;
        let acked = d.submit(bytes::Bytes::from_static(b"x"), timeout);
        assert_eq!(acked.expect("acked in the final wait"), (RequestId(1), true));
        assert_eq!(d.link.waits.len(), 1);
        assert!(d.link.waits[0] <= timeout, "a {:?} wait in a {timeout:?} submit", d.link.waits[0]);
    }
}
