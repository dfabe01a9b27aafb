//! The blocking driver around the sans-I/O [`RaftClient`] engine.
//!
//! Every synchronous client in the workspace is this loop: wait a few
//! milliseconds for a response, feed it (or a tick) to the engine, act on
//! what the engine asks for. What differs between clients is only how a
//! request leaves the process ([`ClientLink`]): a [`crate::Transport`] send
//! for [`crate::ClusterClient`], an encoded frame on a TCP connection for
//! `nbr_net::NetClient`.

use crate::cluster::now_since;
use nbr_core::{ClientAction, RaftClient};
use nbr_types::{ClientId, ClientRequest, ClientResponse, Error, NodeId, RequestId, Result, Time};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// How a client's requests leave the process.
pub trait ClientLink {
    /// Transmit `request` to replica `to`. Best effort: the engine's request
    /// timeout retries what a dead link swallows.
    fn send(&mut self, to: NodeId, request: ClientRequest);
}

/// A [`RaftClient`], the channel its responses arrive on and the link its
/// requests leave by.
pub struct ClientDriver<L> {
    engine: RaftClient,
    rx: Receiver<ClientResponse>,
    epoch: Instant,
    link: L,
    /// The latest first acknowledgement `(request, was_weak)`.
    acked: Option<(RequestId, bool)>,
    /// Durable-confirmation watermarks observed since the last
    /// [`ClientDriver::take_confirmed`] call.
    confirmed: Vec<RequestId>,
}

impl<L: ClientLink> ClientDriver<L> {
    /// Drive `engine` with the responses arriving on `rx`, sending through
    /// `link`; engine time is measured from `epoch`.
    pub fn new(engine: RaftClient, rx: Receiver<ClientResponse>, epoch: Instant, link: L) -> Self {
        ClientDriver { engine, rx, epoch, link, acked: None, confirmed: Vec::new() }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.engine.id()
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.engine.issued()
    }

    /// Requests weakly accepted but not yet durably confirmed.
    pub fn op_list_len(&self) -> usize {
        self.engine.op_list_len()
    }

    /// Take the durable-confirmation watermarks that arrived since the last
    /// call. Each returned id is *cumulative*: `Confirmed{N}` means every
    /// request of this client with id ≤ N is committed — callers measuring
    /// commit latency must drain everything at or below it.
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

    /// Feed the engine — one response, or a tick after 5 ms without one —
    /// until `done` yields or `deadline` passes.
    fn pump<T>(&mut self, deadline: Instant, done: impl Fn(&Self) -> Option<T>) -> Option<T> {
        while Instant::now() < deadline {
            if let Some(t) = done(self) {
                return Some(t);
            }
            match self.rx.recv_timeout(Duration::from_millis(5)) {
                Ok(resp) => self.step(|e, now, actions| e.handle_response(resp, now, actions)),
                Err(_) => self.step(|e, now, actions| e.tick(now, actions)),
            }
        }
        None
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
        self.pump(Instant::now() + timeout, ready).is_some() || self.engine.ready()
    }

    /// Block until every weakly-accepted request is durably confirmed
    /// (opList empty) or the timeout expires.
    pub fn drain(&mut self, timeout: Duration) -> bool {
        let drained = |d: &Self| (d.engine.op_list_len() == 0).then_some(());
        self.pump(Instant::now() + timeout, drained).is_some()
    }
}
