//! The [`Transport`] abstraction: how packets move between endpoints.
//!
//! The cluster runtime is *sans-delivery*: replica threads produce and
//! consume [`Packet`]s and never touch the mechanism that moves them. Two
//! implementations exist:
//!
//! * [`crate::network::Network`] — the in-process router thread with seeded
//!   delay jitter and drops (the original harness transport);
//! * `nbr_net::TcpTransport` — a real TCP delivery layer with one duplex
//!   connection per peer, framing, reconnect and keepalive.
//!
//! [`Cluster`](crate::Cluster) is constructed against `Arc<dyn Transport>`
//! and runs unchanged on either. Addressing is flat: node endpoints are the
//! replica ids `0..n`, and [`CLIENT_ENDPOINT`](crate::network::CLIENT_ENDPOINT)
//! names "the client side" of a `Response`. What that reaches depends on
//! the transport: the in-process router puts it in the client inbox, whose
//! reader (the `Cluster`'s response router) hands it to the `ClusterClient`
//! with its `ClientId`; the TCP transport writes it on that client's own
//! session, and drops the client inbox unused. Fault injection is not
//! part of the trait: both implementations read the cluster's shared
//! [`FaultPlane`](crate::FaultPlane) where a packet crosses a link.
//!
//! Inbound delivery is inverted: a transport is *given* the inboxes of the
//! endpoints hosted in this process ([`TransportInboxes`]) at construction
//! and pushes decoded packets into them. Node inboxes are bounded
//! (`SyncSender`) so a stalled replica exerts backpressure on the delivery
//! layer instead of growing an unbounded queue.
//!
//! Construction order is inboxes, transport, replicas:
//! [`TransportInboxes::channels`] makes both ends of every inbox, the
//! transport is built over the sending ends, and
//! [`Cluster::spawn_on`](crate::Cluster::spawn_on) starts the replica loops
//! on the receiving ends ([`Endpoints`]) with the finished transport in
//! hand — no send can precede its route. A host of several Raft groups makes
//! one inbox set per group and builds *one* transport over all of them; the
//! group is then part of the address that transport routes by.

use crate::network::Packet;
use nbr_obs::Snapshot;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};

/// Bounded capacity of each local node inbox. Deep enough to absorb bursts
/// (heartbeats + a full replication window), shallow enough that a wedged
/// replica surfaces as transport backpressure rather than silent memory
/// growth.
pub const NODE_INBOX_DEPTH: usize = 4096;

/// Delivery targets for the endpoints hosted in this process.
pub struct TransportInboxes {
    /// `(node id, inbox)` for every locally hosted replica.
    pub nodes: Vec<(u32, SyncSender<Packet>)>,
    /// Inbox for client-bound [`Packet::Response`]s, which only the
    /// in-process router fills (see the module docs).
    pub client: Sender<Packet>,
}

/// The receiving ends of one [`TransportInboxes`]: what the replica loops and
/// the client response router of a [`Cluster`](crate::Cluster) consume.
pub struct Endpoints {
    pub(crate) nodes: Vec<(u32, Receiver<Packet>)>,
    pub(crate) client: Receiver<Packet>,
}

impl TransportInboxes {
    /// Both ends of the inboxes of the `local` node ids plus the client
    /// inbox: the sending side goes to the transport, the receiving side to
    /// [`Cluster::spawn_on`](crate::Cluster::spawn_on).
    pub fn channels(local: &[u32]) -> (TransportInboxes, Endpoints) {
        let (mut senders, mut receivers) = (Vec::new(), Vec::new());
        for &id in local {
            let (tx, rx) = sync_channel::<Packet>(NODE_INBOX_DEPTH);
            senders.push((id, tx));
            receivers.push((id, rx));
        }
        let (client_tx, client_rx) = channel::<Packet>();
        (
            TransportInboxes { nodes: senders, client: client_tx },
            Endpoints { nodes: receivers, client: client_rx },
        )
    }
}

/// Endpoint-addressed packet delivery. Implementations must be cheap to
/// share across threads (`send` is called from every replica thread and
/// every client).
pub trait Transport: Send + Sync + 'static {
    /// Send `packet` from endpoint `from` to endpoint `to`. Delivery is
    /// best-effort and unordered — exactly the guarantees Raft assumes of
    /// its network.
    fn send(&self, from: u32, to: u32, packet: Packet);

    /// A point-in-time snapshot of the transport's own metrics registry,
    /// merged into [`crate::Cluster::prometheus`] exports.
    fn scrape(&self) -> Option<Snapshot> {
        None
    }
}
