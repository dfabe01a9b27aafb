//! A synchronous NB-Raft client speaking the TCP wire protocol.
//!
//! Wraps the sans-I/O [`nbr_core::RaftClient`] protocol engine exactly like
//! the in-process `ClusterClient`, but transmits over per-node TCP
//! connections. Connections are opened lazily as the engine picks targets
//! (leader changes rotate the target, so most runs only ever dial one or
//! two nodes), each announced with a `Hello(Client)` handshake; responses
//! from every open connection merge into one channel the engine consumes.

use crate::clock;
use nbr_types::wire::{decode_frame_capped, encode_frame, encode_frame_into};
use nbr_types::{
    group_trace_id, ClientId, ClientResponse, Error, HelloMsg, NetFrame, NodeId, PeerKind,
    RequestId, Result, Time, TimeDelta, NET_PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One open duplex connection to a replica.
struct Conn {
    stream: TcpStream,
    reader: Option<std::thread::JoinHandle<()>>,
    closed: Arc<AtomicBool>,
}

/// Synchronous TCP client for a running NB-Raft cluster.
pub struct NetClient {
    inner: nbr_core::RaftClient,
    cluster_id: u64,
    /// Group count the target cluster runs with (handshake-validated) and
    /// the group this client's requests address. `(1, 0)` unsharded.
    groups: u32,
    group: u32,
    addrs: HashMap<u32, SocketAddr>,
    conns: HashMap<u32, Conn>,
    resp_tx: Sender<ClientResponse>,
    resp_rx: Receiver<ClientResponse>,
    epoch: Instant,
    max_frame: usize,
    /// Durable-confirmation watermarks observed since the last
    /// [`NetClient::take_confirmed`] call.
    confirmed: Vec<RequestId>,
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
        NetClient {
            inner: nbr_core::RaftClient::new(id, members, target, request_timeout),
            cluster_id,
            groups,
            group,
            addrs: nodes.into_iter().collect(),
            conns: HashMap::new(),
            resp_tx,
            resp_rx,
            epoch: clock::now(),
            max_frame: 16 << 20,
            confirmed: Vec::new(),
            wbuf: Vec::new(),
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.inner.id()
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.inner.issued()
    }

    /// Requests weakly accepted but not yet durably confirmed.
    pub fn op_list_len(&self) -> usize {
        self.inner.op_list_len()
    }

    /// Take the durable-confirmation watermarks that arrived since the last
    /// call. Each returned id is *cumulative*: `Confirmed{N}` means every
    /// request of this client with id ≤ N is committed — callers measuring
    /// commit latency must drain everything at or below it.
    pub fn take_confirmed(&mut self) -> Vec<RequestId> {
        std::mem::take(&mut self.confirmed)
    }

    fn now(&self) -> Time {
        Time(clock::now().duration_since(self.epoch).as_nanos() as u64)
    }

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
                kind: PeerKind::Client(self.inner.id()),
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
        match self.conns.get_mut(&node) {
            Some(c) => Ok(c),
            None => Err(Error::Cluster("connection vanished".into())),
        }
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

    fn dispatch(
        &mut self,
        actions: Vec<nbr_core::ClientAction>,
        acked: &mut Option<(RequestId, bool)>,
    ) {
        for a in actions {
            match a {
                nbr_core::ClientAction::Send { to, request } => {
                    // Trace stamp at submission: derived from the op's
                    // identity (namespaced by group) so retries and relays
                    // reuse the same id.
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
                        // Drop the dead connection; the engine's request
                        // timeout will rotate targets and retry.
                        self.close(to.0);
                    }
                }
                nbr_core::ClientAction::Acked { request, weak, .. } => {
                    *acked = Some((request, weak));
                }
                nbr_core::ClientAction::Confirmed { request } => self.confirmed.push(request),
            }
        }
    }

    /// Pump responses/ticks once; appends engine actions.
    fn step(&mut self, actions: &mut Vec<nbr_core::ClientAction>) {
        match self.resp_rx.recv_timeout(Duration::from_millis(5)) {
            Ok(resp) => {
                let now = self.now();
                self.inner.handle_response(resp, now, actions);
            }
            Err(_) => {
                let now = self.now();
                self.inner.tick(now, actions);
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
        let deadline = clock::now() + timeout;
        let mut acked = None;
        let mut actions = Vec::new();
        let now = self.now();
        let id = self.inner.issue(payload, now, &mut actions);
        self.dispatch(actions, &mut acked);
        while clock::now() < deadline {
            if let Some((r, weak)) = acked {
                if r >= id {
                    return Ok((id, weak));
                }
            }
            let mut actions = Vec::new();
            self.step(&mut actions);
            self.dispatch(actions, &mut acked);
        }
        Err(Error::Cluster(format!("request {id} timed out")))
    }

    /// Block until the closed-loop client may issue again (no outstanding
    /// un-first-acked request), stepping retries/redirects meanwhile.
    /// Returns readiness at exit. [`Self::submit`] panics when called while
    /// not ready, so call this after a `submit` timeout before retrying.
    pub fn await_ready(&mut self, timeout: Duration) -> bool {
        let deadline = clock::now() + timeout;
        while clock::now() < deadline {
            if self.inner.ready() {
                return true;
            }
            let mut actions = Vec::new();
            self.step(&mut actions);
            let mut acked = None;
            self.dispatch(actions, &mut acked);
        }
        self.inner.ready()
    }

    /// Block until every weakly-accepted request is durably confirmed
    /// (opList empty) or the timeout expires.
    pub fn drain(&mut self, timeout: Duration) -> bool {
        let deadline = clock::now() + timeout;
        while clock::now() < deadline {
            if self.inner.op_list_len() == 0 {
                return true;
            }
            let mut actions = Vec::new();
            self.step(&mut actions);
            let mut acked = None;
            self.dispatch(actions, &mut acked);
        }
        false
    }
}

impl Drop for NetClient {
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
