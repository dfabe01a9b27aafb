//! A synchronous NB-Raft client speaking the TCP wire protocol.
//!
//! Drives the sans-I/O [`nbr_core::RaftClient`] protocol engine with the
//! same [`ClientDriver`] loop as the in-process `ClusterClient`, over one
//! TCP connection: to the node the engine last sent to, dialed when the
//! engine first sends there and announced with a `Hello(Client)` handshake.
//! A send to another node (a redirect, or a retry that rotates the target)
//! closes the old connection first. The thread running the loop writes
//! requests and reads and decodes responses; a reply still in flight on a
//! closed connection is lost, which the engine's retries already cover.

use crate::clock;
use crate::transport::MAX_FRAME;
use nbr_cluster::client::POLL;
use nbr_cluster::{ClientDriver, ClientLink};
use nbr_types::wire::{decode_frame_capped, encode_frame, encode_frame_into};
use nbr_types::{
    ClientId, ClientRequest, ClientResponse, HelloMsg, NetFrame, NodeId, PeerKind, RequestId,
    Result, TimeDelta, NET_PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Synchronous TCP client for a running NB-Raft cluster: the shared
/// [`ClientDriver`] loop over one connection to its current target.
pub struct NetClient {
    driver: ClientDriver<Link>,
}

/// The client's side of the wire: at most one connection, dialed lazily.
struct Link {
    id: ClientId,
    cluster_id: u64,
    /// Group count the target cluster runs with (handshake-validated) and
    /// the group this client's requests address. `(1, 0)` unsharded.
    groups: u32,
    group: u32,
    addrs: HashMap<u32, SocketAddr>,
    conn: Option<Conn>,
    /// Request-frame encode buffer, reused across sends.
    wbuf: Vec<u8>,
}

/// The open connection to one replica.
struct Conn {
    node: u32,
    stream: TcpStream,
    /// The socket's read timeout, so that only a change costs a syscall.
    read_timeout: Duration,
    /// Bytes read and not yet decoded.
    rbuf: Vec<u8>,
}

impl NetClient {
    /// Create a client for the given (unsharded) membership. No connection
    /// is opened until the first request is issued.
    pub fn new(
        cluster_id: u64,
        id: ClientId,
        nodes: Vec<(u32, SocketAddr)>,
        request_timeout: TimeDelta,
    ) -> NetClient {
        Self::new_in_group(cluster_id, 1, 0, id, nodes, request_timeout)
    }

    /// Create a client addressing one group of a sharded (`--groups N`)
    /// cluster. `groups` must match the cluster's count (the handshake
    /// refuses mismatches); all requests go to `group`. Client ids must be
    /// unique across *all* groups of a process — response routing is by
    /// `ClientId` alone.
    pub fn new_in_group(
        cluster_id: u64,
        groups: u32,
        group: u32,
        id: ClientId,
        nodes: Vec<(u32, SocketAddr)>,
        request_timeout: TimeDelta,
    ) -> NetClient {
        let members: Vec<NodeId> = nodes.iter().map(|&(n, _)| NodeId(n)).collect();
        let target = members.first().copied().unwrap_or(NodeId(0));
        let engine = nbr_core::RaftClient::new(id, members, target, request_timeout);
        let link = Link {
            id,
            cluster_id,
            groups,
            group,
            addrs: nodes.into_iter().collect(),
            conn: None,
            wbuf: Vec::new(),
        };
        NetClient { driver: ClientDriver::new(engine, clock::now(), link) }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.driver.id()
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.driver.issued()
    }

    /// Requests weakly accepted but not yet durably confirmed.
    pub fn op_list_len(&self) -> usize {
        self.driver.op_list_len()
    }

    /// Take the durable-confirmation watermarks that arrived since the last
    /// call. Each returned id is *cumulative*: `Confirmed{N}` means every
    /// request of this client with id ≤ N is committed — callers measuring
    /// commit latency must drain everything at or below it.
    pub fn take_confirmed(&mut self) -> Vec<RequestId> {
        self.driver.take_confirmed()
    }

    /// Submit one request and block until it is first-acked (weak or
    /// strong). Returns `(request id, was_weak)`.
    pub fn submit(
        &mut self,
        payload: bytes::Bytes,
        timeout: Duration,
    ) -> Result<(RequestId, bool)> {
        self.driver.submit(payload, timeout)
    }

    /// Block until the closed-loop client may issue again (no outstanding
    /// un-first-acked request), stepping retries/redirects meanwhile.
    /// Returns readiness at exit. [`Self::submit`] panics when called while
    /// not ready, so call this after a `submit` timeout before retrying.
    pub fn await_ready(&mut self, timeout: Duration) -> bool {
        self.driver.await_ready(timeout)
    }

    /// Block until every weakly-accepted request is durably confirmed
    /// (opList empty) or the timeout expires.
    pub fn drain(&mut self, timeout: Duration) -> bool {
        self.driver.drain(timeout)
    }
}

impl Link {
    /// Open a connection to `node` and announce this client on it; `None`
    /// when `node` cannot be reached.
    fn dial(&self, node: u32) -> Option<Conn> {
        let addr = self.addrs.get(&node)?;
        let mut stream = TcpStream::connect_timeout(addr, Duration::from_secs(1)).ok()?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(POLL)).ok()?;
        let hello = NetFrame::Hello(HelloMsg {
            version: NET_PROTOCOL_VERSION,
            cluster_id: self.cluster_id,
            groups: self.groups,
            kind: PeerKind::Client(self.id),
        });
        stream.write_all(&encode_frame(&hello)).ok()?;
        Some(Conn { node, stream, read_timeout: POLL, rbuf: Vec::new() })
    }

    /// The next `Response` already read off the connection, if any. A stream
    /// that does not decode is closed: it cannot be resynchronised.
    fn buffered_response(&mut self) -> Option<ClientResponse> {
        let conn = self.conn.as_mut()?;
        loop {
            match decode_frame_capped::<NetFrame>(&conn.rbuf, MAX_FRAME) {
                Ok(Some((frame, used))) => {
                    conn.rbuf.drain(..used);
                    if let NetFrame::Response(resp) = frame {
                        return Some(resp);
                    }
                }
                Ok(None) => return None,
                Err(_) => {
                    self.conn = None;
                    return None;
                }
            }
        }
    }
}

impl ClientLink for Link {
    /// Put one request on the connection to `to`, closing the connection to
    /// any other node and dialing `to` if needed.
    fn send(&mut self, to: NodeId, request: ClientRequest) {
        if self.conn.as_ref().is_some_and(|c| c.node != to.0) {
            self.conn = None;
        }
        if self.conn.is_none() {
            // An unreachable node: the engine's request timeout rotates the
            // target and retries.
            self.conn = self.dial(to.0);
        }
        let Some(conn) = self.conn.as_mut() else { return };
        let frame = NetFrame::Request { group: self.group, to, req: request };
        self.wbuf.clear();
        encode_frame_into(&frame, &mut self.wbuf);
        if conn.stream.write_all(&self.wbuf).is_err() {
            self.conn = None;
        }
    }

    /// Read the connection for up to `wait` (one read) and hand over the
    /// next response decoded. With no connection open, just wait.
    fn recv(&mut self, wait: Duration) -> Option<ClientResponse> {
        if let Some(resp) = self.buffered_response() {
            return Some(resp);
        }
        let Some(conn) = self.conn.as_mut() else {
            clock::sleep(wait);
            return None;
        };
        if conn.read_timeout != wait && conn.stream.set_read_timeout(Some(wait)).is_ok() {
            conn.read_timeout = wait;
        }
        let mut chunk = [0u8; 16 << 10];
        match conn.stream.read(&mut chunk) {
            Ok(0) => self.conn = None, // the replica closed the session
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => self.conn = None,
        }
        self.buffered_response()
    }
}
