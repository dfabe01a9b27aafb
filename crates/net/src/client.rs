//! A synchronous NB-Raft client speaking the TCP wire protocol.
//!
//! Drives the sans-I/O [`nbr_core::RaftClient`] protocol engine with the
//! same [`ClientDriver`] loop as the in-process `ClusterClient`, but
//! transmits over per-node TCP connections. Connections are opened lazily as the engine picks targets
//! (leader changes rotate the target, so most runs only ever dial one or
//! two nodes), each announced with a `Hello(Client)` handshake; responses
//! from every open connection merge into one channel the engine consumes.

use crate::clock;
use nbr_cluster::{ClientDriver, ClientLink};
use nbr_types::wire::{decode_frame_capped, encode_frame, encode_frame_into};
use nbr_types::{
    group_trace_id, ClientId, ClientRequest, ClientResponse, Error, HelloMsg, NetFrame, NodeId,
    PeerKind, RequestId, Result, TimeDelta, NET_PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Duration;

/// One open duplex connection to a replica.
struct Conn {
    stream: TcpStream,
    reader: Option<std::thread::JoinHandle<()>>,
    closed: Arc<AtomicBool>,
}

/// Synchronous TCP client for a running NB-Raft cluster: the shared
/// [`ClientDriver`] loop with requests leaving over per-node connections.
pub struct NetClient {
    driver: ClientDriver<Link>,
}

/// The client's side of the wire: lazily dialed per-node connections whose
/// readers all feed the driver's response channel.
struct Link {
    id: ClientId,
    cluster_id: u64,
    /// Group count the target cluster runs with (handshake-validated) and
    /// the group this client's requests address. `(1, 0)` unsharded.
    groups: u32,
    group: u32,
    addrs: HashMap<u32, SocketAddr>,
    conns: HashMap<u32, Conn>,
    resp_tx: Sender<ClientResponse>,
    max_frame: usize,
    /// Request-frame encode buffer, reused across sends.
    wbuf: Vec<u8>,
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
        let (resp_tx, resp_rx) = channel();
        let engine = nbr_core::RaftClient::new(id, members, target, request_timeout);
        let link = Link {
            id,
            cluster_id,
            groups,
            group,
            addrs: nodes.into_iter().collect(),
            conns: HashMap::new(),
            resp_tx,
            max_frame: 16 << 20,
            wbuf: Vec::new(),
        };
        NetClient { driver: ClientDriver::new(engine, resp_rx, clock::now(), link) }
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
    /// Connect to `node` (if needed) and return a writable stream clone.
    fn conn(&mut self, node: u32) -> Result<&mut Conn> {
        // Drop a connection whose reader has died so we re-dial.
        if self.conns.get(&node).is_some_and(|c| c.closed.load(Ordering::Relaxed)) {
            self.close(node);
        }
        if !self.conns.contains_key(&node) {
            let Some(&addr) = self.addrs.get(&node) else {
                return Err(Error::Cluster(format!("no address for node {node}")));
            };
            let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1))
                .map_err(|e| Error::Cluster(format!("connect {addr}: {e}")))?;
            let _ = stream.set_nodelay(true);
            let hello = NetFrame::Hello(HelloMsg {
                version: NET_PROTOCOL_VERSION,
                cluster_id: self.cluster_id,
                groups: self.groups,
                kind: PeerKind::Client(self.id),
            });
            let mut wstream =
                stream.try_clone().map_err(|e| Error::Cluster(format!("clone stream: {e}")))?;
            wstream
                .write_all(&encode_frame(&hello))
                .map_err(|e| Error::Cluster(format!("handshake: {e}")))?;
            let closed = Arc::new(AtomicBool::new(false));
            let reader =
                spawn_reader(stream, self.resp_tx.clone(), Arc::clone(&closed), self.max_frame)?;
            self.conns.insert(node, Conn { stream: wstream, reader: Some(reader), closed });
        }
        self.conns.get_mut(&node).ok_or_else(|| Error::Cluster("connection vanished".into()))
    }

    fn close(&mut self, node: u32) {
        if let Some(mut c) = self.conns.remove(&node) {
            c.closed.store(true, Ordering::Relaxed);
            let _ = c.stream.shutdown(Shutdown::Both);
            if let Some(t) = c.reader.take() {
                let _ = t.join();
            }
        }
    }
}

impl ClientLink for Link {
    /// Put one request on the connection to `to`, dialing it if needed.
    fn send(&mut self, to: NodeId, request: ClientRequest) {
        // Trace stamp at submission: derived from the op's identity
        // (namespaced by group) so retries and relays reuse the same id.
        let trace = group_trace_id(self.group, request.client, request.request);
        let frame = NetFrame::Request { group: self.group, to, trace, req: request };
        let mut bytes = std::mem::take(&mut self.wbuf);
        bytes.clear();
        encode_frame_into(&frame, &mut bytes);
        let write = self.conn(to.0).and_then(|c| {
            c.stream.write_all(&bytes).map_err(|e| Error::Cluster(format!("send: {e}")))
        });
        self.wbuf = bytes;
        if write.is_err() {
            // Drop the dead connection; the engine's request timeout will
            // rotate targets and retry.
            self.close(to.0);
        }
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        let nodes: Vec<u32> = self.conns.keys().copied().collect();
        for n in nodes {
            self.close(n);
        }
    }
}

/// Reader thread: decode `Response` frames off one connection into the
/// shared channel until EOF/error.
fn spawn_reader(
    mut stream: TcpStream,
    tx: Sender<ClientResponse>,
    closed: Arc<AtomicBool>,
    max_frame: usize,
) -> Result<std::thread::JoinHandle<()>> {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| Error::Cluster(format!("read timeout: {e}")))?;
    std::thread::Builder::new()
        .name("nbr-net-client-read".into())
        .spawn(move || {
            let mut buf: Vec<u8> = Vec::new();
            let mut tmp = [0u8; 16 << 10];
            'conn: loop {
                if closed.load(Ordering::Relaxed) {
                    break;
                }
                let n = match stream.read(&mut tmp) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(_) => break,
                };
                buf.extend_from_slice(&tmp[..n]);
                let mut pos = 0usize;
                loop {
                    match decode_frame_capped::<NetFrame>(&buf[pos..], max_frame) {
                        Ok(Some((NetFrame::Response { resp, .. }, used))) => {
                            pos += used;
                            if tx.send(resp).is_err() {
                                break 'conn; // client gone
                            }
                        }
                        Ok(Some((_, used))) => pos += used, // Pong etc.: ignore
                        Ok(None) => break,
                        Err(_) => break 'conn, // unsyncable stream
                    }
                }
                buf.drain(..pos);
            }
            closed.store(true, Ordering::Relaxed);
        })
        .map_err(|e| Error::Cluster(format!("spawn reader: {e}")))
}
