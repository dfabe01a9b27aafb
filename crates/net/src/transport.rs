//! The TCP transport: [`nbr_cluster::Transport`] over real sockets.
//!
//! Topology: every replica process binds one listening socket and keeps
//! exactly **one TCP connection per peer**: the lower node id dials, the
//! higher id accepts, and both directions of protocol traffic ride the
//! same duplex socket. The dialing side runs a supervisor thread (connect →
//! handshake → pump → reconnect with capped exponential backoff + jitter)
//! plus a reader on the same socket; the accepting side answers the `Hello`
//! with its own and runs a pump on the accepted connection. Client sessions
//! are duplex too: responses go back on the connection the request arrived
//! on (demultiplexed by `ClientId`). That session is the only path client
//! traffic has: peers never relay a client's requests or responses.
//!
//! **One send path.** Every connection the transport writes to has one
//! `Lane`: an `Outbox` (the write half, a bounded queue, the tail of a
//! stalled write) behind one lock. Every frame any thread sends — a
//! replica's protocol frame or response, a pump's `Ping`, a reader's `Pong`
//! — goes through `Lane::send`:
//!
//! * **write-through**: if the write half is at rest, nothing is queued and
//!   the link has nothing to emulate, the sending thread writes the frame
//!   itself, within `WRITE_STALL`;
//! * **queue**: any other frame joins the lane's queue, which sheds past
//!   `send_queue` frames (`net_dropped_queue_full`) rather than block the
//!   sender: Raft's retries tolerate loss, while a blocked replica misses
//!   heartbeats and destabilizes the whole group;
//! * **drain**: whoever holds the write half sends the queue before it gives
//!   the half back. On a client session that is the writer itself, and a
//!   write that stalls closes the session (the client retries, as after any
//!   lost response). On a peer lane it is the lane's *pump*: it finishes a
//!   stalled write's tail, applies the link's loss and delay, sends the
//!   keepalive `Ping`s, and sleeps on the lane's condvar in between.
//!
//! A peer lane exists from spawn and outlives every connection: while the
//! link is down its frames queue for the next one. Inbound, a socket reader
//! delivers straight into the replica's bounded inbox. With one group that
//! is true backpressure; the reader waits for inbox space, stops reading,
//! and lets the kernel's TCP window throttle the remote sender. With several
//! groups on the socket a full inbox sheds instead (see below).
//!
//! **Sharded multiplexing** ([`TcpTransport::spawn_groups`]): one transport
//! carries N Raft groups over the same per-peer links by tagging every
//! `Peer` and `Request` envelope with a group id (the `Hello` handshake
//! pins the group count; a `Response` needs none, as it rides the client's
//! own session), and each group's
//! `Cluster` sends through its own [`TcpTransport::group`] handle. The
//! unsharded transport is N = 1. Inbound delivery is the same function
//! for any N — `try_send` into the `(group, node)` inbox — and N decides
//! only what a *full* inbox means: blocking the shared reader on one
//! group's full inbox would head-of-line-block every other group on that
//! socket, so with N > 1 a hot or stalled group sheds its own frames
//! (`net_demux_shed_group_{g}`; Raft retries) while the rest keep flowing.
//!
//! Frames are the [`NetFrame`] envelope inside the standard
//! `len || crc || body` wire framing, decoded with a transport-tier size
//! cap (`MAX_FRAME`) so a corrupt or hostile length prefix
//! cannot pin memory. A connection's first frame must be a valid
//! [`NetFrame::Hello`]; version, cluster-id or group-count mismatches, and a
//! replica id that is not a configured peer, are counted and the connection
//! dropped. That identity is the sender of every `Peer` frame on the
//! connection. A pump coalesces the frames queued at a wake-up
//! into a single write, and its `Ping` draws a [`NetFrame::Pong`] from the
//! peer: both are frames like any other, so a clock sample crosses the link
//! the way the protocol frames around it do. The pump emulates its link as
//! a pipe (a private `DelayLine`), not as a turnstile: each frame is
//! delivered `delay` after it is sent, in order, with any number of frames
//! in flight at once.

use crate::clock;
use crate::delay_line::DelayLine;
use bytes::Bytes;
use nbr_cluster::network::{Packet, CLIENT_ENDPOINT};
use nbr_cluster::sync::Mutex;
use nbr_cluster::transport::{Transport, TransportInboxes};
use nbr_cluster::FaultPlane;
use nbr_obs::{Counter, EngineProbe, Gauge, ProbeEvent, Registry, Snapshot};
use nbr_types::wire::{decode_frame_shared, encode_frame_into, frame_len};
use nbr_types::{
    ClientId, HelloMsg, LinkFault, NetFrame, NodeId, PeerKind, Time, NET_PROTOCOL_VERSION,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

/// The longest a thread may spend in one socket write before it gives up on
/// the peer: every connection's send timeout. A replica or a reader
/// writing its own frame stops there (a peer lane's pump finishes the
/// frame, a client session is closed), so a stalled peer or client costs a
/// replica at most this — a few ms, far below the 40 ms heartbeat.
pub(crate) const WRITE_STALL: Duration = Duration::from_millis(5);

/// Largest frame accepted off a socket, peer link or client session alike
/// (the codec's own cap still applies).
pub(crate) const MAX_FRAME: usize = 16 << 20;

/// First reconnect delay; it doubles per failed attempt up to
/// [`BACKOFF_CAP`].
const BACKOFF_INITIAL: Duration = Duration::from_millis(25);

/// Reconnect delay ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// TCP transport configuration.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Cluster instance id; connections from other clusters are refused.
    pub cluster_id: u64,
    /// Node id of the (single) replica this process hosts.
    pub node_id: u32,
    /// `(node id, address)` of every *remote* peer.
    pub peers: Vec<(u32, SocketAddr)>,
    /// Depth of every connection's bounded send queue: each peer lane's and
    /// each client session's. A frame that finds its queue full is shed and
    /// counted in `net_dropped_queue_full`.
    pub send_queue: usize,
    /// Interval at which each peer link sends a timestamped keepalive
    /// ping, busy or idle (250 ms by default).
    pub keepalive: Duration,
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// What every outbound peer link does with no fault injected: the
    /// network emulation of benches (healthy — the default — for real
    /// deployments). Each protocol frame is lost with probability `drop`
    /// (Raft's repair re-sends it: stock Raft stalls for whole repair
    /// rounds, a non-blocking window weak-accepts around the gap) and each
    /// survivor is delivered `delay` after it is sent, in order: the link is
    /// a pipe with frames in flight, so a hop costs a frame its delay however
    /// many frames share the link (one draw from `delay` per pump wake-up).
    /// Handshakes, keepalives and client sessions are never lost.
    pub baseline: LinkFault,
    /// The cluster's runtime-mutable fault plane (chaos harness). Each send
    /// to a peer and each pump wake-up reads its own directed `(this node,
    /// peer)` row and applies it on top of `baseline`. `None` (the default)
    /// costs nothing on the hot path.
    pub faults: Option<Arc<FaultPlane>>,
    /// Trace sink for transport-level probe events (currently
    /// [`ProbeEvent::ClockSample`] from Ping/Pong exchanges).
    /// `EngineProbe::Off` — the default — records nothing.
    pub probe: EngineProbe,
    /// Epoch of the trace clock stamped into `Ping`/`Pong` frames. Pass the
    /// same instant given to `ClusterConfig::trace_epoch` so transport clock
    /// samples and engine probe events share one per-process timeline;
    /// `None` falls back to a private epoch (samples still internally
    /// consistent, but useless for aligning against engine events).
    pub trace_epoch: Option<Instant>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            cluster_id: 1,
            node_id: 0,
            peers: Vec::new(),
            send_queue: 1024,
            keepalive: Duration::from_millis(250),
            connect_timeout: Duration::from_secs(1),
            baseline: LinkFault::default(),
            faults: None,
            probe: EngineProbe::Off,
            trace_epoch: None,
        }
    }
}

/// Interned metric handles (one `fetch_add`, no name lookup, per event).
struct Stats {
    connects: Arc<Counter>,
    connect_retries: Arc<Counter>,
    disconnects: Arc<Counter>,
    accepts: Arc<Counter>,
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    decode_errors: Arc<Counter>,
    handshake_rejects: Arc<Counter>,
    proto_errors: Arc<Counter>,
    dropped_queue_full: Arc<Counter>,
    dropped_unroutable: Arc<Counter>,
    frames_lost: Arc<Counter>,
    keepalives: Arc<Counter>,
    /// Writes of a sender's own frame that ran out of [`WRITE_STALL`].
    write_stalls: Arc<Counter>,
    peer_links_up: Arc<Gauge>,
    clients_connected: Arc<Gauge>,
    /// Frames in the peer writers' delay lines: sent, not yet delivered.
    link_inflight: Arc<Gauge>,
}

impl Stats {
    fn new(reg: &Registry) -> Stats {
        Stats {
            connects: reg.counter("net_tcp_connects"),
            connect_retries: reg.counter("net_tcp_connect_retries"),
            disconnects: reg.counter("net_tcp_disconnects"),
            accepts: reg.counter("net_tcp_accepts"),
            frames_in: reg.counter("net_frames_in"),
            frames_out: reg.counter("net_frames_out"),
            bytes_in: reg.counter("net_bytes_in"),
            bytes_out: reg.counter("net_bytes_out"),
            decode_errors: reg.counter("net_decode_errors"),
            handshake_rejects: reg.counter("net_handshake_rejects"),
            proto_errors: reg.counter("net_proto_errors"),
            dropped_queue_full: reg.counter("net_dropped_queue_full"),
            dropped_unroutable: reg.counter("net_dropped_unroutable"),
            frames_lost: reg.counter("net_frames_lost"),
            keepalives: reg.counter("net_keepalives"),
            write_stalls: reg.counter("net_write_stalls"),
            peer_links_up: reg.gauge("net_peer_links_up"),
            clients_connected: reg.gauge("net_clients_connected"),
            link_inflight: reg.gauge("net_link_inflight"),
        }
    }
}

thread_local! {
    /// Encode buffer of a thread writing frames it made itself: a replica
    /// or a reader. Owned by that thread and reused by every write it
    /// makes, so write-through allocates nothing per frame.
    static FRAME_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// A client session's response route: the lane of the connection its
/// requests arrive on, tagged with the connection generation so a stale
/// session cannot deregister its successor after a reconnect.
struct ClientRoute {
    conn: u64,
    session: Arc<Lane>,
}

/// What the threads that write to one connection share. Whoever takes
/// `stream` is the one writer until it gives it back; a sender that finds
/// it gone, or anything waiting for it, queues its frame instead of waiting.
#[derive(Default)]
struct Outbox {
    /// The write half, here while it is at rest. Gone while a sender writes
    /// through, while a peer lane's pump holds it (it has a backlog or frames
    /// on its delay line), between a peer's connections, and for good once a
    /// session's write has stalled.
    stream: Option<TcpStream>,
    /// Frames waiting for whoever holds the write half, at most
    /// `send_queue` of them.
    queue: VecDeque<NetFrame>,
    /// On a peer lane, the unwritten rest of a frame a sender could not
    /// finish within [`WRITE_STALL`] (all of it if the connection failed),
    /// for the pump to write first. While it is here no sender takes `stream`.
    tail: Vec<u8>,
    /// An accepted connection's pump drains this peer lane: a second
    /// connection from the peer waits for it to let go ([`Lane::claim`]).
    pumped: bool,
}

/// A connection's [`Outbox`] behind its one lock, and the condvar a peer
/// lane's pump sleeps on. A peer's lane exists from spawn and outlives every
/// connection that drains it; a client session's lives with its connection.
#[derive(Default)]
struct Lane {
    outbox: Mutex<Outbox>,
    wake: Condvar,
}

impl Lane {
    /// The one function that writes a frame from a sending thread, for every
    /// frame on every connection: replica frames and responses, Pings and
    /// Pongs. With `direct` (the link has nothing to emulate), the write half
    /// at rest and nothing waiting, the calling thread writes the frame
    /// itself; otherwise the frame joins the queue. `peer`: a pump drains
    /// this lane; otherwise (a client session) whoever holds the half does.
    /// `false`: the full queue shed the frame, and the caller decides whether
    /// to count that.
    fn send(&self, sh: &Shared, frame: NetFrame, direct: bool, peer: bool) -> bool {
        let mut stream = {
            let mut out = self.outbox.lock();
            let at_rest = direct && out.queue.is_empty() && out.tail.is_empty();
            match out.stream.take_if(|_| at_rest) {
                Some(stream) => stream,
                None if out.queue.len() >= sh.cfg.send_queue => return false,
                None => {
                    out.queue.push_back(frame);
                    // A pump with nothing queued may be asleep.
                    let wake = peer && out.queue.len() == 1;
                    drop(out);
                    if wake {
                        self.wake.notify_all();
                    }
                    return true;
                }
            }
        };
        FRAME_BUF.with_borrow_mut(|buf| {
            buf.clear();
            encode_frame_into(&frame, buf);
            let mut frames = 1;
            loop {
                // One accounting rule for every write: the frames count once
                // the socket takes any of their bytes, and so do those bytes.
                let wrote = write_within(&mut stream, buf);
                if let Ok(n) = wrote {
                    sh.stats.frames_out.add(frames);
                    sh.stats.bytes_out.add(n as u64);
                }
                let stalled = !matches!(wrote, Ok(n) if n == buf.len());
                if stalled && wrote.is_ok() {
                    sh.stats.write_stalls.inc();
                }
                if stalled && !peer {
                    // The client's reader sees its session end and its engine
                    // retries; the session's own reader drops the route.
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                let mut out = self.outbox.lock();
                if stalled {
                    // A dead connection fails the pump's write of this too,
                    // and it reconnects.
                    out.tail = buf[wrote.unwrap_or(0)..].to_vec();
                }
                if peer || out.queue.is_empty() {
                    // A peer lane's backlog is its pump's to send.
                    let backlog = !(out.queue.is_empty() && out.tail.is_empty());
                    out.stream = Some(stream);
                    drop(out);
                    if backlog {
                        self.wake.notify_all();
                    }
                    return;
                }
                // A session: send what queued meanwhile before letting go.
                buf.clear();
                frames = out.queue.len() as u64;
                for f in out.queue.drain(..) {
                    encode_frame_into(&f, buf);
                }
            }
        });
        true
    }

    /// Claim this peer lane for a connection the peer has just opened to us.
    /// A redial can arrive while the previous connection's pump is still
    /// finding out that its socket is dead, so wait up to a connect timeout
    /// for it to let go. `false`: the lane still has a live connection.
    fn claim(&self, sh: &Shared) -> bool {
        let deadline = clock::now() + sh.cfg.connect_timeout;
        let mut out = self.outbox.lock();
        while out.pumped {
            let left = deadline.saturating_duration_since(clock::now());
            if left.is_zero() || sh.stopped() {
                return false;
            }
            out = self.wake.wait_timeout(out, left).unwrap_or_else(PoisonError::into_inner).0;
        }
        out.pumped = true;
        true
    }

    /// Frames waiting for the write half, a stalled write's tail counting as
    /// one: the peer's `net_send_queue_depth`.
    fn backlog(&self) -> i64 {
        let out = self.outbox.lock();
        (out.queue.len() + usize::from(!out.tail.is_empty())) as i64
    }
}

/// One dial direction per pair: the lower node id owns the connection.
fn dials(local: u32, peer: u32) -> bool {
    local < peer
}

/// A locally hosted replica's inbox, as the socket readers see it.
struct Inbox {
    tx: SyncSender<Packet>,
    /// Per-group accounting, kept when the transport carries several groups:
    /// their frames share the socket readers, so a reader may not wait on
    /// one group's full inbox and sheds into `shed` instead.
    shared_reader: Option<GroupCounters>,
}

#[derive(Clone)]
struct GroupCounters {
    frames_in: Arc<Counter>,
    shed: Arc<Counter>,
}

struct Shared {
    cfg: TcpConfig,
    /// Number of Raft groups carried: the length of the inbox vector the
    /// transport was spawned over. Both sides of a connection must agree
    /// (validated in the `Hello` handshake), and every frame's group id must
    /// be below it.
    groups: u32,
    stop: AtomicBool,
    /// Inboxes of locally hosted replicas, keyed by `(group, node)`.
    nodes: HashMap<(u32, u32), Inbox>,
    /// The sessions of the clients connected here, by client id.
    clients: Mutex<HashMap<ClientId, ClientRoute>>,
    /// The lane to every remote peer, whichever side dials: what every
    /// frame to it is sent through.
    peers: HashMap<u32, Lane>,
    /// Open sockets (clones) so shutdown can unblock reader/writer threads.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    registry: Arc<Registry>,
    stats: Stats,
    /// Zero point of the trace clock carried in `Ping`/`Pong` frames.
    epoch: Instant,
}

impl Shared {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// What the directed link to `peer` does to a frame sent now: the
    /// configured emulation baseline under this direction's fault-plane row,
    /// read per call so the harness can flip it while the connection stays
    /// up.
    fn link_to(&self, peer: u32) -> LinkFault {
        match &self.cfg.faults {
            Some(plane) => plane.link(self.cfg.node_id, peer).over(self.cfg.baseline),
            None => self.cfg.baseline,
        }
    }

    /// Nanoseconds since the (process-shared) trace epoch — the clock
    /// stamped into `Ping`/`Pong` frames and clock-sample probe events.
    fn trace_now(&self) -> u64 {
        clock::now().duration_since(self.epoch).as_nanos() as u64
    }

    /// Fold one completed Ping/Pong exchange with `peer` into the live
    /// telemetry and (if tracing) the probe stream. NTP two-sample
    /// estimate: `t0` ping transmit and `t3` pong receipt are local clock
    /// reads, `t1` is the peer's clock at ping receipt, so
    /// `rtt = t3 − t0` and `offset = t1 − (t0 + t3)/2 ≈ peer − local`.
    fn clock_sample(&self, peer: u32, t0: u64, t1: u64) {
        let t3 = self.trace_now();
        let rtt = t3.saturating_sub(t0);
        let midpoint = (t0 / 2).wrapping_add(t3 / 2);
        let offset = t1 as i64 - midpoint as i64;
        self.registry.gauge(&format!("net_rtt_ns_peer_{peer}")).set(rtt as i64);
        self.registry.gauge(&format!("net_clock_offset_ns_peer_{peer}")).set(offset);
        self.cfg.probe.record(
            NodeId(self.cfg.node_id),
            Time(t3),
            ProbeEvent::ClockSample { peer: NodeId(peer), offset_ns: offset, rtt_ns: rtt },
        );
    }

    /// This node's handshake, the first frame on every peer connection.
    fn hello(&self) -> NetFrame {
        NetFrame::Hello(HelloMsg {
            version: NET_PROTOCOL_VERSION,
            cluster_id: self.cfg.cluster_id,
            groups: self.groups,
            kind: PeerKind::Node(NodeId(self.cfg.node_id)),
        })
    }

    fn register_conn(&self, stream: &TcpStream) -> u64 {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            self.conns.lock().insert(id, clone);
        }
        id
    }

    fn deregister_conn(&self, id: u64) {
        self.conns.lock().remove(&id);
    }

    /// Sleep `total` in short slices so shutdown is never blocked behind a
    /// long backoff.
    fn sleep_checked(&self, total: Duration) {
        let mut left = total;
        while !self.stopped() && left > Duration::ZERO {
            let slice = left.min(Duration::from_millis(50));
            clock::sleep(slice);
            left = left.saturating_sub(slice);
        }
    }

    /// Deliver a packet to a locally hosted replica of `group`: `try_send`
    /// into its bounded inbox, which is the group's inbound queue.
    ///
    /// A full inbox means *blocking* backpressure when the transport carries
    /// one group — the caller (a socket reader) waits for space, which stops
    /// it reading and lets TCP flow control throttle the sender. With several
    /// groups that would head-of-line-block every other group riding the same
    /// socket, so the frame is shed with per-group accounting instead, and
    /// Raft's retry machinery repairs it.
    fn deliver(&self, group: u32, to: u32, mut packet: Packet) {
        let Some(inbox) = self.nodes.get(&(group, to)) else {
            self.stats.dropped_unroutable.inc();
            return;
        };
        if let Some(g) = &inbox.shared_reader {
            g.frames_in.inc();
        }
        loop {
            match inbox.tx.try_send(packet) {
                Ok(()) => return,
                Err(TrySendError::Full(back)) => {
                    if let Some(g) = &inbox.shared_reader {
                        g.shed.inc();
                        return;
                    }
                    if self.stopped() {
                        return;
                    }
                    packet = back;
                    clock::sleep(Duration::from_micros(500));
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.stats.dropped_unroutable.inc();
                    return;
                }
            }
        }
    }
}

/// The TCP transport: built over the local inboxes ([`TcpTransport::spawn`],
/// [`TcpTransport::spawn_groups`]) before the replicas that send through it.
pub struct TcpTransport {
    shared: Arc<Shared>,
    /// The dialing supervisors and the accept loop.
    threads: Vec<std::thread::JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
}

impl TcpTransport {
    /// Start a one-group transport: [`TcpTransport::spawn_groups`] over a
    /// single inbox set, addressed as group 0 by [`Transport::send`].
    pub fn spawn(cfg: TcpConfig, listener: TcpListener, inboxes: TransportInboxes) -> TcpTransport {
        Self::spawn_groups(cfg, listener, vec![inboxes])
    }

    /// Start the transport on a pre-bound listener (bind first so callers
    /// can use port 0 for OS-assigned, collision-free test ports), dialing
    /// out to `cfg.peers` and serving the local inboxes of every Raft group
    /// in `inboxes`: element `g` belongs to group `g`, and the vector's
    /// length is the group count announced in the handshake. The client
    /// inboxes are dropped here: a response goes to its client's session,
    /// so a `Cluster`'s in-process response router on this transport exits
    /// at once.
    pub fn spawn_groups(
        cfg: TcpConfig,
        listener: TcpListener,
        inboxes: Vec<TransportInboxes>,
    ) -> TcpTransport {
        let groups = inboxes.len() as u32;
        let registry = Arc::new(Registry::new(format!("net{}", cfg.node_id)));
        let stats = Stats::new(&registry);
        let local_addr = listener.local_addr().ok();
        let epoch = cfg.trace_epoch.unwrap_or_else(clock::now);
        let mut nodes = HashMap::new();
        for (g, inb) in (0..groups).zip(inboxes) {
            let shared_reader = (groups > 1).then(|| GroupCounters {
                frames_in: registry.counter(&format!("net_frames_in_group_{g}")),
                shed: registry.counter(&format!("net_demux_shed_group_{g}")),
            });
            for (id, tx) in inb.nodes {
                nodes.insert((g, id), Inbox { tx, shared_reader: shared_reader.clone() });
            }
        }
        // Every remote peer gets its lane now, whichever side dials.
        let peers = cfg.peers.iter().map(|&(peer_id, _)| (peer_id, Lane::default())).collect();
        let shared = Arc::new(Shared {
            groups,
            nodes,
            clients: Mutex::new(HashMap::new()),
            peers,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            registry,
            stats,
            cfg,
            epoch,
        });

        let mut threads = Vec::new();
        for &(peer_id, addr) in &shared.cfg.peers {
            if !dials(shared.cfg.node_id, peer_id) {
                continue; // the peer dials us
            }
            let sh = Arc::clone(&shared);
            let supervisor = std::thread::Builder::new()
                .name(format!("nbr-net-peer-{}-{}", shared.cfg.node_id, peer_id))
                .spawn(move || supervise_peer(sh, peer_id, addr));
            threads.push(supervisor.expect("spawn peer supervisor")); // check:allow(L1): transport bring-up; a node that cannot dial peers cannot serve, abort is correct
        }
        let sh = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name(format!("nbr-net-accept-{}", shared.cfg.node_id))
            .spawn(move || accept_loop(sh, listener));
        threads.push(accept.expect("spawn accept loop")); // check:allow(L1): transport bring-up; without the accept loop no peer can reach us, abort is correct

        TcpTransport { shared, threads, local_addr }
    }

    /// The address the accept loop is listening on.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// This transport's metrics registry (shared with [`Transport::scrape`]).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// The [`Transport`] of Raft group `group`: what that group's `Cluster`
    /// is spawned on. Every send is addressed into the group.
    pub fn group(self: &Arc<Self>, group: u32) -> Arc<dyn Transport> {
        Arc::new(GroupHandle { tcp: Arc::clone(self), group })
    }

    /// The group-addressed send path behind [`Transport::send`] (group 0)
    /// and every [`TcpTransport::group`] handle. Frames to remote peers
    /// carry the group in their envelope and ride the *shared* per-peer
    /// links — multiplexing is entirely an addressing concern; the sockets,
    /// queues and WAN emulation know nothing about groups.
    fn send_to_group(&self, group: u32, to: u32, packet: Packet) {
        if self.shared.stopped() {
            return;
        }
        let stats = &self.shared.stats;
        let (from, msg) = match packet {
            Packet::Peer { from, msg } => (from, msg),
            Packet::Response { client, resp } if to == CLIENT_ENDPOINT => {
                let route = self.shared.clients.lock().get(&client).map(|r| Arc::clone(&r.session));
                let frame = NetFrame::Response(resp);
                match route {
                    Some(session) if !session.send(&self.shared, frame, true, false) => {
                        stats.dropped_queue_full.inc()
                    }
                    Some(_) => {}
                    None => stats.dropped_unroutable.inc(),
                }
                return;
            }
            // Client traffic rides the client's own session, never a peer.
            Packet::Request(_) | Packet::Response { .. } => {
                stats.proto_errors.inc();
                return;
            }
        };
        if self.shared.nodes.contains_key(&(group, to)) {
            // Self-send or co-hosted replica: skip the wire. `deliver` does
            // not wait when several groups share the transport, so one
            // group's backlog never stalls another's replica thread mid-send.
            self.shared.deliver(group, to, Packet::Peer { from, msg });
            return;
        }
        let frame = NetFrame::Peer { group, to: NodeId(to), msg };
        let Some(lane) = self.shared.peers.get(&to) else {
            stats.dropped_unroutable.inc(); // no such peer
            return;
        };
        // The peer's lane takes the frame whichever side dialed and whether
        // or not a connection is up: without one it queues (bounded) for the
        // next. A full queue sheds rather than block the replica thread.
        let direct = self.shared.link_to(to) == LinkFault::default();
        if !lane.send(&self.shared, frame, direct, true) {
            stats.dropped_queue_full.inc();
        }
    }

    /// Shared scrape body for both trait impls: the registry snapshot plus
    /// per-peer backlog and fault-dial gauges.
    fn scrape_snapshot(&self) -> Snapshot {
        let mut snap = self.shared.registry.snapshot();
        let me = self.shared.cfg.node_id;
        // Send backlog (frames waiting for a writer), per peer and in
        // total.
        let mut total = 0;
        for (peer, lane) in &self.shared.peers {
            let d = lane.backlog();
            snap.gauges.insert(format!("net_send_queue_depth_peer_{peer}"), d);
            total += d;
        }
        snap.gauges.insert("net_send_queue_depth".to_string(), total);
        // Per-directed-link fault rows (chaos harness): only the rows this
        // transport reads (`from == me`) — each process reports the faults
        // it is itself applying to its outbound batches.
        if let Some(faults) = &self.shared.cfg.faults {
            for &(peer, _) in &self.shared.cfg.peers {
                let f = faults.link(me, peer);
                snap.gauges.insert(format!("net_fault_cut_{me}_{peer}"), i64::from(f.cut));
                snap.gauges.insert(
                    format!("net_fault_drop_bp_{me}_{peer}"),
                    (f.drop * 10_000.0).round() as i64,
                );
                snap.gauges
                    .insert(format!("net_fault_delay_ns_{me}_{peer}"), f.delay.0.as_nanos() as i64);
            }
        }
        snap
    }
}

impl Transport for TcpTransport {
    fn send(&self, _from: u32, to: u32, packet: Packet) {
        self.send_to_group(0, to, packet);
    }

    fn scrape(&self) -> Option<Snapshot> {
        Some(self.scrape_snapshot())
    }
}

/// One Raft group's view of a shared [`TcpTransport`].
struct GroupHandle {
    tcp: Arc<TcpTransport>,
    group: u32,
}

impl Transport for GroupHandle {
    fn send(&self, _from: u32, to: u32, packet: Packet) {
        self.tcp.send_to_group(self.group, to, packet);
    }

    fn scrape(&self) -> Option<Snapshot> {
        // The sockets are shared, so their counters are reported once: by
        // group 0, which on a one-group host is the whole transport.
        (self.group == 0).then(|| self.tcp.scrape_snapshot())
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Unblock any thread parked in read()/write() on a live socket.
        for (_, c) in self.shared.conns.lock().iter() {
            let _ = c.shutdown(Shutdown::Both);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Dialing link supervisor: connect, handshake, pump, reconnect.
fn supervise_peer(sh: Arc<Shared>, peer_id: u32, addr: SocketAddr) {
    let Some(lane) = sh.peers.get(&peer_id) else { return };
    // Seeded per link, so two replicas restarting together do not reconnect
    // in lockstep (thundering-herd on the surviving node). The same stream
    // draws this link's emulated loss and delay.
    let mut rng = StdRng::seed_from_u64(
        0x9E37 ^ (u64::from(sh.cfg.node_id) << 32) ^ (u64::from(peer_id) << 8),
    );
    let mut backoff = BACKOFF_INITIAL;
    while !sh.stopped() {
        let connected = TcpStream::connect_timeout(&addr, sh.cfg.connect_timeout)
            .and_then(|s| s.set_write_timeout(Some(WRITE_STALL)).map(|()| s));
        let stream = match connected {
            Ok(s) => s,
            Err(_) => {
                sh.stats.connect_retries.inc();
                // Full jitter: uniform in [backoff/2, backoff).
                let ns = backoff.as_nanos() as u64;
                let wait = Duration::from_nanos(ns / 2 + rng.random_range(0..ns.max(2) / 2));
                sh.sleep_checked(wait);
                backoff = (backoff * 2).min(BACKOFF_CAP);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let conn = sh.register_conn(&stream);
        sh.stats.connects.inc();
        sh.stats.peer_links_up.add(1);
        backoff = BACKOFF_INITIAL;
        // The pair's single connection is duplex: the peer's traffic to us
        // comes back over this socket, read by a sibling thread running the
        // standard handshake-then-route loop.
        let reader = stream.try_clone().ok().and_then(|rstream| {
            let sh2 = Arc::clone(&sh);
            std::thread::Builder::new()
                .name(format!("nbr-net-dread-{}-{}", sh.cfg.node_id, peer_id))
                .spawn(move || run_reader(sh2, rstream))
                .ok()
        });
        pump_peer_frames(&sh, &stream, lane, &mut rng, peer_id);
        // Unblock the duplex reader before joining it.
        let _ = stream.shutdown(Shutdown::Both);
        if let Some(t) = reader {
            let _ = t.join();
        }
        sh.stats.peer_links_up.add(-1);
        sh.stats.disconnects.inc();
        sh.deregister_conn(conn);
    }
}

/// The peer lane's *pump* for one connection: announce ourselves, then put
/// the lane's backlog on the link under its fault (loss, delay) and write
/// the frames that have crossed it. The dialing supervisor and an accepted
/// connection run the same pump, so the two directions of a link behave
/// identically. Returns on error (a dialing caller reconnects) or shutdown.
///
/// The link is a pipe, not a turnstile: a wake-up stamps what it drained
/// with its arrival instant in a [`DelayLine`] and goes back to waiting, so
/// later batches cross the link alongside earlier ones instead of queueing
/// behind their delay. A healthy link stamps `due = now` and writes on the
/// same wake-up.
///
/// The pump takes the write half out of the lane's [`Outbox`] only when the
/// lane has a backlog, and gives it back once its delay line is empty and
/// nothing waits, so senders on a healthy link write through. While it holds
/// the half no sender can overtake a frame queued or in flight ahead of its
/// own. It sleeps on the lane's condvar: for a backlog, for a sender writing
/// through to give the half back, for the line's next frame or its next
/// `Ping`, which it sends through [`Lane::send`] like any frame.
fn pump_peer_frames(sh: &Shared, socket: &TcpStream, lane: &Lane, rng: &mut StdRng, peer_id: u32) {
    let mut wbuf = Vec::with_capacity(8 << 10);
    // The write half while the pump holds it; the first write is the Hello.
    let mut held = socket.try_clone().ok();
    let hello = std::iter::once(sh.hello());
    let up = held.as_mut().is_some_and(|s| write_frames(sh, s, hello, &mut wbuf).is_ok());
    // Frames in flight are capped like frames queued. A full line takes
    // nothing more until its head leaves, so the queue behind it fills and
    // `send` sheds, with the accounting it always had.
    let mut line = DelayLine::new(sh.cfg.send_queue.max(1));
    // What `net_link_inflight` currently holds for this line.
    let mut inflight = 0i64;
    // Clock-sample cadence. A ping only when the lane is idle would starve
    // the RTT/offset estimators exactly when the link is busiest, so a
    // timestamped ping also rides the data stream at this fixed interval.
    let ping_every = sh.cfg.keepalive;
    let mut last_ping = clock::now();
    // Never drain more per wake-up than the bounded queue holds: the shed
    // accounting in `send` is sized against `send_queue`, so a larger batch
    // would just hide queue pressure from the metrics.
    let max_coalesce = sh.cfg.send_queue.clamp(1, 256);
    let mut batch = Vec::with_capacity(max_coalesce);
    while up && !sh.stopped() {
        // Sleep until there is a backlog to move and the half to move it
        // with, a frame in flight arrives or a ping is owed. An idle line
        // costs no clock read.
        let wait = match line.next_due() {
            Some(due) => due.saturating_duration_since(clock::now()).min(ping_every),
            None => ping_every,
        };
        let room = line.room().min(max_coalesce);
        {
            let mut out = lane.outbox.lock();
            let backlog = !(out.queue.is_empty() && out.tail.is_empty());
            if !backlog && line.len() == 0 && held.is_some() {
                // Idle again: leave the write half to the senders.
                out.stream = held.take();
            }
            let can_move = backlog && room > 0 && (held.is_some() || out.stream.is_some());
            if !can_move && !wait.is_zero() {
                let _ = lane.wake.wait_timeout(out, wait);
            }
        }
        let now = clock::now();
        // Keepalive when idle, clock sample on cadence when busy. `t0` is
        // stamped as the ping is sent, so the measured RTT includes whatever
        // the frames around it wait for. A full queue owes the ping to the
        // next cadence.
        if now.duration_since(last_ping) >= ping_every {
            let t0 = now.duration_since(sh.epoch).as_nanos() as u64;
            let direct = sh.link_to(peer_id) == LinkFault::default();
            if lane.send(sh, NetFrame::Ping { t0 }, direct, true) {
                sh.stats.keepalives.inc();
            }
            last_ping = now;
        }
        // A backlog: take the write half, with a stalled sender's tail, and
        // as much of the queue as the line has room for.
        let mut tail = Vec::new();
        {
            let mut out = lane.outbox.lock();
            if held.is_none() && !(out.queue.is_empty() && out.tail.is_empty()) {
                held = out.stream.take();
            }
            if held.is_some() {
                tail = std::mem::take(&mut out.tail);
                let n = out.queue.len().min(room);
                batch.extend(out.queue.drain(..n));
            }
        }
        let Some(stream) = held.as_mut() else { continue };
        let now = clock::now(); // after the drain: no frame enters the link before it was queued
        if !tail.is_empty() {
            if write_patiently(stream, &tail).is_err() {
                break; // the connection failed under a sender
            }
            sh.stats.bytes_out.add(tail.len() as u64);
        }
        if !batch.is_empty() {
            let fault = sh.link_to(peer_id);
            let delay = fault.delay_at(|| rng.random_range(0.0..1.0));
            let delay = Duration::from_nanos(delay.as_nanos());
            for frame in batch.drain(..) {
                // Lose protocol frames only — what the replicas exchange,
                // which Raft's retry machinery repairs: that is the
                // behaviour under test. Keepalives stay reliable (the
                // handshake is already written), so a cut is a network
                // filter and not a dead host: the socket and its clock
                // samples survive.
                let protocol = matches!(frame, NetFrame::Peer { .. });
                if protocol && fault.loses(|| rng.random_range(0.0..1.0)) {
                    sh.stats.frames_lost.inc();
                } else if line.admit(now, delay, frame).is_err() {
                    sh.stats.dropped_queue_full.inc();
                }
            }
        }
        // Everything that has crossed the link by now, in one write.
        let res = write_frames(sh, stream, std::iter::from_fn(|| line.pop_due(now)), &mut wbuf);
        if res.is_err() {
            break; // frames on the link are lost with the connection; Raft retries
        }
        let flying = line.len() as i64;
        if flying != inflight {
            sh.stats.link_inflight.add(flying - inflight);
            inflight = flying;
        }
    }
    // The connection is over: whatever a sender left behind dies with it,
    // like the frames on the line.
    {
        let mut out = lane.outbox.lock();
        out.stream = None;
        out.tail.clear();
    }
    sh.stats.link_inflight.add(-inflight);
}

/// Pump for one accepted duplex peer connection, over the peer's lane,
/// claimed for as long as the connection lives. A peer holds one connection
/// to us: a second while the lane is claimed is one too many, and is shut
/// down; its reader sees EOF.
fn accepted_peer_writer(sh: Arc<Shared>, stream: TcpStream, seed: u64, peer_id: u32) {
    let claimed = sh
        .peers
        .get(&peer_id)
        .filter(|lane| stream.set_write_timeout(Some(WRITE_STALL)).is_ok() && lane.claim(&sh));
    let Some(lane) = claimed else {
        sh.stats.handshake_rejects.inc();
        let _ = stream.shutdown(Shutdown::Both);
        return;
    };
    let conn = sh.register_conn(&stream);
    sh.stats.peer_links_up.add(1);
    let mut rng = StdRng::seed_from_u64(0xACC3 ^ seed);
    pump_peer_frames(&sh, &stream, lane, &mut rng, peer_id);
    sh.stats.peer_links_up.add(-1);
    let _ = stream.shutdown(Shutdown::Both);
    sh.deregister_conn(conn);
    // Let go: a redial waiting in `claim` takes the lane now.
    lane.outbox.lock().pumped = false;
    lane.wake.notify_all();
}

/// One write bounded by the connection's [`WRITE_STALL`] send timeout:
/// how much of `buf` reached the socket — all of it unless the far end has
/// stopped reading, since a blocking send with a timeout either takes
/// everything or has waited the whole timeout.
fn write_within(stream: &mut TcpStream, buf: &[u8]) -> std::io::Result<usize> {
    loop {
        match stream.write(buf) {
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(0)
            }
            Ok(0) if !buf.is_empty() => return Err(ErrorKind::WriteZero.into()),
            wrote => return wrote,
        }
    }
}

/// Write all of `buf` from a lane's pump: the one thread that may wait for
/// its peer, so a stalled socket is waited out, one send timeout at a time.
/// A dead connection ends the wait, and so does shutdown, which shuts every
/// registered socket down.
fn write_patiently(stream: &mut TcpStream, buf: &[u8]) -> std::io::Result<()> {
    let mut done = 0;
    while done < buf.len() {
        done += write_within(stream, &buf[done..])?;
    }
    Ok(())
}

/// Encode `frames` into the caller's reusable buffer and write them in a
/// single syscall (none when there are no frames). The buffer is cleared
/// first and keeps its allocation across calls, so steady-state writes are
/// allocation-free.
fn write_frames(
    sh: &Shared,
    stream: &mut TcpStream,
    frames: impl Iterator<Item = NetFrame>,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    buf.clear();
    let mut n = 0u64;
    for f in frames {
        encode_frame_into(&f, buf);
        n += 1;
    }
    if n == 0 {
        return Ok(());
    }
    write_patiently(stream, buf)?;
    sh.stats.frames_out.add(n);
    sh.stats.bytes_out.add(buf.len() as u64);
    Ok(())
}

/// Accept loop: non-blocking poll so shutdown is prompt, one reader thread
/// per accepted connection.
fn accept_loop(sh: Arc<Shared>, listener: TcpListener) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !sh.stopped() {
        match listener.accept() {
            Ok((stream, _)) => {
                sh.stats.accepts.inc();
                let _ = stream.set_nodelay(true);
                let sh2 = Arc::clone(&sh);
                let name = format!("nbr-net-read-{}", sh.cfg.node_id);
                if std::thread::Builder::new()
                    .name(name)
                    .spawn(move || run_reader(sh2, stream))
                    .is_err()
                {
                    sh.stats.proto_errors.inc(); // thread exhaustion; drop conn
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                clock::sleep(Duration::from_millis(5));
            }
            Err(_) => clock::sleep(Duration::from_millis(20)),
        }
    }
}

/// Identity a connection proved in its handshake.
enum ConnIdentity {
    Unknown,
    Node(NodeId),
    /// A client, with its session's lane.
    Client(ClientId, Arc<Lane>),
}

/// Inbound connection reader: handshake, then decode-and-route until EOF,
/// error, or shutdown.
fn run_reader(sh: Arc<Shared>, mut stream: TcpStream) {
    let conn = sh.register_conn(&stream);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut identity = ConnIdentity::Unknown;
    // Zero-copy framing: accumulate raw socket bytes in `buf`; once at
    // least one complete frame is present, freeze the whole staging buffer
    // into a shared `Bytes` (O(1)) and decode with the borrowing path —
    // payloads (entry data, snapshot chunks) alias the frame allocation
    // instead of being re-copied per message. Only a partial trailing
    // frame is ever copied back to staging.
    let mut buf: Vec<u8> = Vec::with_capacity(64 << 10);
    let mut tmp = [0u8; 64 << 10];
    'conn: loop {
        if sh.stopped() {
            break;
        }
        let n = match stream.read(&mut tmp) {
            Ok(0) => break, // EOF
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => break,
        };
        sh.stats.bytes_in.add(n as u64);
        buf.extend_from_slice(&tmp[..n]);
        match frame_len(&buf, MAX_FRAME) {
            Ok(Some(_)) => {}
            Ok(None) => continue, // first frame incomplete; read more
            Err(_) => {
                // A hostile or corrupt length prefix must not pin memory.
                sh.stats.decode_errors.inc();
                break 'conn;
            }
        }
        let mut shared = Bytes::from(std::mem::take(&mut buf));
        while !shared.is_empty() {
            match decode_frame_shared::<NetFrame>(&shared, MAX_FRAME) {
                Ok(Some((frame, used))) => {
                    shared.split_to(used);
                    sh.stats.frames_in.inc();
                    if !handle_frame(&sh, frame, &mut identity, &stream, conn) {
                        break 'conn;
                    }
                }
                Ok(None) => break, // partial tail; spill back to staging
                Err(_) => {
                    // Corrupt stream: there is no way to resynchronize a
                    // length-prefixed stream after a bad frame; drop it.
                    sh.stats.decode_errors.inc();
                    break 'conn;
                }
            }
        }
        buf.extend_from_slice(&shared);
    }
    // Deregister a client session's response route (only if still ours).
    if let ConnIdentity::Client(id, _) = identity {
        let mut routes = sh.clients.lock();
        if routes.get(&id).is_some_and(|r| r.conn == conn) {
            routes.remove(&id);
            sh.stats.clients_connected.add(-1);
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    sh.deregister_conn(conn);
}

/// Route one inbound frame. Returns `false` to drop the connection.
fn handle_frame(
    sh: &Arc<Shared>,
    frame: NetFrame,
    identity: &mut ConnIdentity,
    stream: &TcpStream,
    conn: u64,
) -> bool {
    match (frame, &identity) {
        (NetFrame::Hello(h), ConnIdentity::Unknown) => {
            // Version, cluster and group-count must all agree: an older
            // peer's Hello decodes cleanly and is refused here, and two
            // processes sharding differently would misroute every frame. A
            // replica must be a configured peer, since it is the sender of
            // every frame on the connection.
            let stranger = matches!(h.kind, PeerKind::Node(n) if !sh.peers.contains_key(&n.0));
            if h.version != NET_PROTOCOL_VERSION
                || h.cluster_id != sh.cfg.cluster_id
                || h.groups != sh.groups
                || stranger
            {
                sh.stats.handshake_rejects.inc();
                return false;
            }
            // Every session is duplex: what we send the other side flows back
            // over a clone of this socket.
            let Ok(wstream) = stream.try_clone() else {
                sh.stats.proto_errors.inc();
                return false;
            };
            match h.kind {
                PeerKind::Node(n) => {
                    if !dials(sh.cfg.node_id, n.0) {
                        // Connection dedup: this peer owns the pair's single
                        // socket, so our outbound frames to it must ride
                        // back over this accepted connection: attach a
                        // writer to it that drains the peer's lane.
                        let seed =
                            (u64::from(sh.cfg.node_id) << 40) ^ (u64::from(n.0) << 16) ^ conn;
                        let sh2 = Arc::clone(sh);
                        let spawned = std::thread::Builder::new()
                            .name(format!("nbr-net-presp-{}-{}", sh.cfg.node_id, n.0))
                            .spawn(move || accepted_peer_writer(sh2, wstream, seed, n.0));
                        if spawned.is_err() {
                            sh.stats.proto_errors.inc();
                            return false;
                        }
                    }
                    *identity = ConnIdentity::Node(n)
                }
                PeerKind::Client(c) => {
                    // No writer thread: whoever answers the client writes,
                    // each write bounded by the session's send timeout.
                    if wstream.set_write_timeout(Some(WRITE_STALL)).is_err() {
                        sh.stats.proto_errors.inc();
                        return false;
                    }
                    let session = Arc::new(Lane::default());
                    session.outbox.lock().stream = Some(wstream);
                    let route = ClientRoute { conn, session: Arc::clone(&session) };
                    sh.clients.lock().insert(c, route);
                    sh.stats.clients_connected.add(1);
                    *identity = ConnIdentity::Client(c, session);
                }
            }
            true
        }
        (NetFrame::Hello(_), _) => {
            sh.stats.proto_errors.inc(); // second handshake on one connection
            false
        }
        (_, ConnIdentity::Unknown) => {
            sh.stats.handshake_rejects.inc(); // traffic before Hello
            false
        }
        (NetFrame::Peer { group, .. } | NetFrame::Request { group, .. }, _)
            if group >= sh.groups =>
        {
            sh.stats.proto_errors.inc(); // group out of the agreed range
            false
        }
        // The handshake named the sender.
        (NetFrame::Peer { group, to, msg }, ConnIdentity::Node(peer)) => {
            sh.deliver(group, to.0, Packet::Peer { from: *peer, msg });
            true
        }
        (NetFrame::Request { group, to, req }, ConnIdentity::Client(c, _)) => {
            if req.client != *c {
                sh.stats.proto_errors.inc(); // spoofed client id
                return false;
            }
            sh.deliver(group, to.0, Packet::Request(req));
            true
        }
        // A frame on the wrong kind of connection: peer traffic from a client,
        // or client traffic from a peer (which never relays it).
        (NetFrame::Peer { .. }, ConnIdentity::Client(..))
        | (NetFrame::Request { .. } | NetFrame::Response(_), _) => {
            sh.stats.proto_errors.inc();
            false
        }
        // A peer's keepalive doubles as a clock sample: echo `t0` with our
        // receive instant so the sender can estimate RTT and offset. The
        // Pong is sent to the peer like any frame, so on an emulated link it
        // crosses the delay line as the Ping did. Best effort: a full queue
        // sheds it, and the next Ping retries the sample.
        (NetFrame::Ping { t0 }, ConnIdentity::Node(peer)) => {
            sh.stats.keepalives.inc();
            if let Some(lane) = sh.peers.get(&peer.0) {
                let direct = sh.link_to(peer.0) == LinkFault::default();
                lane.send(sh, NetFrame::Pong { t0, t1: sh.trace_now() }, direct, true);
            }
            true
        }
        // A duplex session answers so the client can measure liveness.
        (NetFrame::Ping { t0 }, ConnIdentity::Client(_, session)) => {
            session.send(sh, NetFrame::Pong { t0, t1: sh.trace_now() }, true, false);
            true
        }
        (NetFrame::Pong { t0, t1 }, ConnIdentity::Node(peer)) => {
            sh.clock_sample(peer.0, t0, t1);
            true
        }
        (NetFrame::Pong { .. }, _) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbr_types::message::AppendEntryMsg;
    use nbr_types::{
        ClientRequest, ClientResponse, Entry, Fault, HeartbeatMsg, LogIndex, Message, Payload,
        RequestId, Term, TimeDelta,
    };
    use std::sync::mpsc::{channel, sync_channel, Receiver};

    fn heartbeat() -> Packet {
        numbered(0, 0)
    }

    /// A heartbeat from node `from` that carries `seq` as its `last_index`.
    fn numbered(from: u32, seq: u64) -> Packet {
        let msg = Message::Heartbeat(HeartbeatMsg {
            term: Term(1),
            leader: NodeId(from),
            last_index: LogIndex(seq),
            last_term: Term(0),
            leader_commit: LogIndex(0),
        });
        Packet::Peer { from: NodeId(from), msg }
    }

    fn seq_of(p: Packet) -> u64 {
        match p {
            Packet::Peer { msg: Message::Heartbeat(h), .. } => h.last_index.0,
            other => panic!("expected a heartbeat, got {other:?}"),
        }
    }

    fn bind() -> (TcpListener, SocketAddr) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let a = l.local_addr().expect("addr");
        (l, a)
    }

    /// Node `id` of a two-node pair: a transport over one group per entry of
    /// `inbox_depths`, and the receiving ends of those inboxes.
    fn node(
        id: u32,
        peer: (u32, SocketAddr),
        listener: TcpListener,
        inbox_depths: &[usize],
        cfg: TcpConfig,
    ) -> (TcpTransport, Vec<Receiver<Packet>>) {
        let (inboxes, rxs) = inbox_depths
            .iter()
            .map(|&depth| {
                let (tx, rx) = sync_channel(depth);
                (TransportInboxes { nodes: vec![(id, tx)], client: channel().0 }, rx)
            })
            .unzip();
        let cfg = TcpConfig { node_id: id, peers: vec![peer], ..cfg };
        (TcpTransport::spawn_groups(cfg, listener, inboxes), rxs)
    }

    fn gauge(t: &TcpTransport, name: &str) -> i64 {
        t.scrape_snapshot().gauges.get(name).copied().unwrap_or(0)
    }

    fn counter(t: &TcpTransport, name: &str) -> u64 {
        t.scrape_snapshot().counters.get(name).copied().unwrap_or(0)
    }

    /// Frames waiting for a peer lane's pump, a stalled sender's tail
    /// counting as one.
    fn backlog(lane: &Lane) -> i64 {
        lane.backlog()
    }

    /// A peer lane at rest: its write half is there for a sender to take
    /// and nothing waits for the pump.
    fn idle(lane: &Lane) -> bool {
        lane.outbox.lock().stream.is_some() && backlog(lane) == 0
    }

    fn until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = clock::now() + Duration::from_secs(10);
        while !cond() {
            assert!(clock::now() < deadline, "timed out waiting until {what}");
            clock::sleep(Duration::from_millis(2));
        }
    }

    /// Frames that are on the emulated link when their connection dies are
    /// lost with it, and nothing may go on counting them: not the lane's
    /// `depth` (a phantom backlog would keep the reconnected link off the
    /// write-through path), not `net_send_queue_depth`, not
    /// `net_link_inflight`.
    #[test]
    fn frames_in_flight_when_the_connection_dies_leave_no_phantom_backlog() {
        let bind = || TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let (l0, l1) = (bind(), bind());
        let (a0, a1) = (l0.local_addr().expect("addr"), l1.local_addr().expect("addr"));
        let hop = TimeDelta::from_millis(100);
        let spawn = |id: u32, peer, listener| {
            let (tx, inbox) = sync_channel(64);
            let cfg = TcpConfig {
                node_id: id,
                peers: vec![peer],
                baseline: LinkFault { delay: (hop, hop), ..LinkFault::default() },
                ..TcpConfig::default()
            };
            let inboxes = TransportInboxes { nodes: vec![(id, tx)], client: channel().0 };
            (TcpTransport::spawn(cfg, listener, inboxes), inbox)
        };
        let (t0, _inbox0) = spawn(0, (1, a1), l0);
        let (_t1, inbox1) = spawn(1, (0, a0), l1);
        let gauge = |name: &str| t0.scrape_snapshot().gauges.get(name).copied().unwrap_or(0);
        let counter = |name: &str| t0.scrape_snapshot().counters.get(name).copied().unwrap_or(0);
        let depth = || backlog(&t0.shared.peers[&1]);
        until("the link is up", || gauge("net_peer_links_up") == 1);

        // Two batches 60 ms apart on a 100 ms hop, then the sockets go: the
        // write of the first batch fails while the second is still crossing.
        for pause_ms in [60, 20] {
            for _ in 0..25 {
                t0.send(0, 1, heartbeat());
            }
            clock::sleep(Duration::from_millis(pause_ms));
        }
        assert!(gauge("net_link_inflight") >= 50, "both batches must be on the link");
        assert_eq!(depth(), 0, "frames on the link are not backlog");
        for c in t0.shared.conns.lock().values() {
            let _ = c.shutdown(Shutdown::Both);
        }
        until("the link reconnected", || {
            counter("net_tcp_disconnects") >= 1 && gauge("net_peer_links_up") == 1
        });

        // A clock-sample ping may be crossing at any one instant, but a
        // phantom of the 25 lost frames would never let the gauge reach 0.
        until("net_link_inflight drains to 0", || gauge("net_link_inflight") == 0);
        assert_eq!(depth(), 0);
        assert_eq!(gauge("net_send_queue_depth"), 0);
        assert_eq!(gauge("net_send_queue_depth_peer_1"), 0);
        assert!(inbox1.try_iter().count() < 50, "the frames in flight died with the connection");
        t0.send(0, 1, heartbeat());
        assert!(inbox1.recv_timeout(Duration::from_secs(10)).is_ok(), "link carries traffic again");
        assert_eq!(counter("net_dropped_queue_full"), 0);
    }

    /// Several groups share the socket readers, so a group whose replica has
    /// stopped draining its inbox sheds its own frames and nobody else's: the
    /// reader never waits on it.
    #[test]
    fn a_stalled_group_sheds_its_own_frames_and_no_other_groups() {
        const FRAMES: u64 = 200;
        let ((l0, a0), (l1, a1)) = (bind(), bind());
        let (t0, _rx0) = node(0, (1, a1), l0, &[8, 8], TcpConfig::default());
        // Node 1: group 0 has room for everything, group 1 has room for four
        // frames and is never drained.
        let (t1, rx1) = node(1, (0, a0), l1, &[FRAMES as usize, 4], TcpConfig::default());

        for seq in 0..FRAMES {
            t0.send_to_group(1, 1, numbered(0, seq));
            t0.send_to_group(0, 1, numbered(0, seq));
        }
        // Group 0's frames sit behind group 1's on the one connection, and
        // every one of them arrives, in order.
        for seq in 0..FRAMES {
            let p = rx1[0].recv_timeout(Duration::from_secs(10)).expect("group 0 keeps flowing");
            assert_eq!(seq_of(p), seq);
        }
        until("group 1 has shed its overflow", || {
            counter(&t1, "net_demux_shed_group_1") == FRAMES - 4
        });
        assert_eq!(counter(&t1, "net_frames_in_group_1"), FRAMES);
        assert_eq!(counter(&t1, "net_demux_shed_group_0"), 0);
        assert_eq!(rx1[1].try_iter().map(seq_of).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(counter(&t0, "net_dropped_queue_full"), 0);
    }

    /// The accepting side of a pair sends exactly as the dialing side does:
    /// into a lane that exists from spawn, waits (bounded) while no
    /// connection is up, and is drained by whichever connection borrows it.
    #[test]
    fn lanes_to_a_peer_that_dials_us_queue_until_it_connects_and_outlive_its_connections() {
        let ((l0, a0), (l1, a1)) = (bind(), bind());
        // A short ping cadence, so that an idle writer finds out that its
        // socket is dead well within the connect timeout.
        let cfg = || TcpConfig {
            keepalive: Duration::from_millis(20),
            connect_timeout: Duration::from_millis(500),
            ..TcpConfig::default()
        };

        // Node 0 dials node 1, and is not up yet: node 1's frames for it wait.
        let (t1, _inbox1) = node(1, (0, a0), l1, &[64], cfg());
        for seq in 0..10 {
            t1.send(1, 0, numbered(1, seq));
        }
        assert_eq!(gauge(&t1, "net_send_queue_depth_peer_0"), 10);
        assert_eq!(gauge(&t1, "net_send_queue_depth"), 10);
        assert_eq!(counter(&t1, "net_dropped_unroutable"), 0);
        // A response has one way out, its client's session: with none here it
        // is unroutable.
        let resp = ClientResponse::LeaderChanged { term: Term(1) };
        t1.send(1, CLIENT_ENDPOINT, Packet::Response { client: ClientId(9), resp });
        assert_eq!(counter(&t1, "net_dropped_unroutable"), 1);

        let (t0, inbox0) = node(0, (1, a1), l0, &[64], cfg());
        let inbox0 = &inbox0[0];
        for seq in 0..10 {
            let p = inbox0.recv_timeout(Duration::from_secs(10)).expect("queued frame arrives");
            assert_eq!(seq_of(p), seq, "queued frames are delivered in order");
        }
        assert_eq!(gauge(&t1, "net_send_queue_depth_peer_0"), 0);

        // The connection dies under node 1 and node 0 redials. Frames that the
        // old connection's writer takes before it finds its socket dead are
        // lost with it, as on the dialing side, so resend as Raft would; the
        // one lane is then handed to the new connection, in order as ever.
        for c in t1.shared.conns.lock().values() {
            let _ = c.shutdown(Shutdown::Both);
        }
        let mut sent = 10..;
        let mut last = None;
        until("the lane carries traffic over the new connection", || {
            t1.send(1, 0, numbered(1, sent.next().expect("unbounded")));
            last = inbox0.recv_timeout(Duration::from_millis(20)).ok().map(seq_of);
            last.is_some() && counter(&t1, "net_tcp_accepts") >= 2
        });
        t1.send(1, 0, numbered(1, 1_000));
        while last != Some(1_000) {
            let p = inbox0.recv_timeout(Duration::from_secs(10)).expect("the lane keeps flowing");
            assert!(Some(seq_of(p.clone())) > last, "frames stay in order: {p:?} after {last:?}");
            last = Some(seq_of(p));
        }
        assert_eq!(gauge(&t1, "net_peer_links_up"), 1);
        assert_eq!(counter(&t1, "net_handshake_rejects"), 0);
        assert_eq!(counter(&t1, "net_dropped_queue_full"), 0);

        // A second connection from node 0 while the first is up is one more
        // than a peer may hold: refused, and the real link stays.
        let mut extra = TcpStream::connect(a1).expect("connect");
        let mut hello = Vec::new();
        encode_frame_into(&t0.shared.hello(), &mut hello);
        extra.write_all(&hello).expect("write hello");
        until("the extra connection is refused", || counter(&t1, "net_handshake_rejects") == 1);
        assert_eq!(gauge(&t1, "net_peer_links_up"), 1);
        t1.send(1, 0, numbered(1, 1_001));
        let p = inbox0.recv_timeout(Duration::from_secs(10)).expect("the real link still works");
        assert_eq!(seq_of(p), 1_001);
    }

    /// Frames keep their send order across every switch between the queued
    /// path and write-through. While the fault plane delays the link they
    /// cross the pump's delay line; once the row clears, a frame sent while
    /// the line still holds earlier ones queues behind them, and only an
    /// idle lane is written through.
    #[test]
    fn frames_keep_send_order_across_switches_between_queued_and_write_through() {
        let ((l0, a0), (l1, a1)) = (bind(), bind());
        let plane = FaultPlane::shared(2);
        let cfg = TcpConfig { faults: Some(Arc::clone(&plane)), ..TcpConfig::default() };
        let (t0, _rx0) = node(0, (1, a1), l0, &[64], cfg.clone());
        let (_t1, rx1) = node(1, (0, a0), l1, &[4096], cfg);
        let lane = &t0.shared.peers[&1];
        let idle = || idle(lane);
        until("the lane is idle", idle);
        let gray = Fault::GrayLink {
            from: 0,
            to: 1,
            both: false,
            drop_pct: 0.0,
            delay: TimeDelta::from_millis(20),
        };
        let heal = Fault::HealLink { from: 0, to: 1, both: false };

        let mut wrote_through = false;
        let mut seq = 0..;
        let mut send = |n: usize| {
            for s in seq.by_ref().take(n) {
                t0.send(0, 1, numbered(0, s));
            }
        };
        for _ in 0..3 {
            // Delayed: every frame goes through the pump and onto the line.
            plane.apply(&gray);
            send(100);
            // Healed while those are still crossing: these queue behind them.
            plane.apply(&heal);
            send(100);
            // Idle again: these are written through, one write each (unless
            // the pump is writing a clock-sample ping just then).
            until("the pump has drained the lane and left the write half", idle);
            FRAME_BUF.with_borrow_mut(Vec::clear);
            send(100);
            wrote_through |= FRAME_BUF.with_borrow(|b| !b.is_empty());
        }
        assert!(wrote_through, "no round wrote a frame from the sending thread");
        let sent = seq.next().expect("unbounded");
        let got: Vec<u64> = (0..sent)
            .map(|_| seq_of(rx1[0].recv_timeout(Duration::from_secs(10)).expect("every frame")))
            .collect();
        assert_eq!(got, (0..sent).collect::<Vec<_>>(), "each frame once, in send order");
        assert_eq!(counter(&t0, "net_dropped_queue_full") + counter(&t0, "net_write_stalls"), 0);
    }

    /// A clock sample crosses an emulated link both ways: the Ping on one
    /// pump's delay line, the Pong on the other's, so every RTT carries two
    /// hops. A Pong written through on an emulated link would read one. On a
    /// healthy pair both are written through, far below one hop.
    #[test]
    fn clock_samples_cross_an_emulated_link_both_ways() {
        let hop = Duration::from_millis(20);
        let rtts = |baseline: LinkFault| {
            let ((l0, a0), (l1, a1)) = (bind(), bind());
            let (probe, buffer) = EngineProbe::shared();
            // A ping cadence well above the hop: each delay line is empty
            // most of the time, which is when a lane could write through.
            let cfg = TcpConfig {
                keepalive: Duration::from_millis(50),
                baseline,
                probe,
                ..TcpConfig::default()
            };
            let (_t0, _rx0) = node(0, (1, a1), l0, &[64], cfg.clone());
            let (_t1, _rx1) = node(1, (0, a0), l1, &[64], cfg);
            let samples = || -> Vec<(NodeId, Duration)> {
                let events = buffer.snapshot().into_iter();
                events
                    .filter_map(|e| match e.event {
                        ProbeEvent::ClockSample { rtt_ns, .. } => {
                            Some((e.node, Duration::from_nanos(rtt_ns)))
                        }
                        _ => None,
                    })
                    .collect()
            };
            until("both nodes have taken five clock samples", || {
                let got = samples();
                [0, 1].iter().all(|&n| got.iter().filter(|s| s.0 == NodeId(n)).count() >= 5)
            });
            samples()
        };

        let delay = TimeDelta(hop.as_nanos() as u64);
        let emulated = rtts(LinkFault { delay: (delay, delay), ..LinkFault::default() });
        for (node, rtt) in &emulated {
            assert!(*rtt >= 2 * hop, "node {node:?}: a sample of {rtt:?} missed a hop");
        }
        for (node, rtt) in &rtts(LinkFault::default()) {
            assert!(*rtt < hop / 2, "node {node:?}: a healthy sample of {rtt:?}");
        }
    }

    /// A peer that stops reading holds no sender past `WRITE_STALL`: the
    /// write that runs out hands the rest of its frame to the pump, the
    /// frames after it queue (and shed once the queue is full), and once
    /// the peer reads again every frame it gets is whole and in order. A
    /// peer that then sends a client's request is dropped.
    #[test]
    fn a_stalled_peer_holds_no_sender_past_the_write_stall() {
        // 16 MiB: several times what the kernel buffers between the two
        // sockets, so the peer's socket fills whatever the host's limits.
        const FRAMES: u64 = 4_000;
        const SLACK: Duration = Duration::from_millis(100);
        // "Node 1" is a raw socket: it takes the connection and the handshake,
        // then reads nothing.
        let (fake, fake_addr) = bind();
        let (l0, _) = bind();
        let cfg = TcpConfig { send_queue: 64, ..TcpConfig::default() };
        let (t0, _rx0) = node(0, (1, fake_addr), l0, &[64], cfg);
        let (mut peer, _) = fake.accept().expect("node 0 dials");
        let mut frames = FrameReader::default();
        assert!(matches!(frames.next(&mut peer), NetFrame::Hello(_)));
        let lane = &t0.shared.peers[&1];
        until("the lane is idle", || idle(lane));

        let t0 = Arc::new(t0);
        let (done_tx, done) = channel();
        let sender = {
            let t0 = Arc::clone(&t0);
            std::thread::spawn(move || {
                let mut slowest = Duration::ZERO;
                for seq in 0..FRAMES {
                    let data = Bytes::from(vec![7u8; 4096]);
                    let (index, term) = (LogIndex(seq + 1), Term(1));
                    let msg = Message::AppendEntry(AppendEntryMsg {
                        term,
                        leader: NodeId(0),
                        entries: vec![Entry::data(index, term, term, None, data)],
                        leader_commit: LogIndex(0),
                        verification: None,
                        relay_to: Vec::new(),
                    });
                    let start = clock::now();
                    t0.send(0, 1, Packet::Peer { from: NodeId(0), msg });
                    slowest = slowest.max(start.elapsed());
                }
                let _ = done_tx.send(slowest);
            })
        };
        let slowest =
            done.recv_timeout(Duration::from_secs(60)).expect("a send waited on the peer");
        sender.join().expect("sender thread");
        assert!(slowest <= WRITE_STALL + SLACK, "one send took {slowest:?}");
        assert!(counter(&t0, "net_write_stalls") >= 1, "the peer's socket never filled");
        let shed = counter(&t0, "net_dropped_queue_full");
        assert!(shed > 0, "frames behind the stall queue and shed");

        // The peer reads again: the stalled frame's tail, then the queue.
        let mut last = None;
        let mut delivered = 0;
        while delivered + shed < FRAMES {
            if let NetFrame::Peer { msg: Message::AppendEntry(m), .. } = frames.next(&mut peer) {
                let seq = m.entries[0].index.0;
                assert!(Some(seq) > last, "{seq} after {last:?}");
                assert!(matches!(&m.entries[0].payload, Payload::Data(d) if d.len() == 4096));
                last = Some(seq);
                delivered += 1;
            }
        }
        assert_eq!(counter(&t0, "net_decode_errors"), 0);
        until("the backlog drains", || gauge(&t0, "net_send_queue_depth") == 0);

        // Client traffic never rides a peer link: a peer connection that
        // carries a request is a protocol error, and is dropped.
        let hello = NetFrame::Hello(HelloMsg {
            version: NET_PROTOCOL_VERSION,
            cluster_id: 1,
            groups: 1,
            kind: PeerKind::Node(NodeId(1)),
        });
        let payload = Bytes::from_static(b"k=v");
        let req = ClientRequest { client: ClientId(9), request: RequestId(1), payload };
        let mut bytes = Vec::new();
        encode_frame_into(&hello, &mut bytes);
        encode_frame_into(&NetFrame::Request { group: 0, to: NodeId(0), req }, &mut bytes);
        peer.write_all(&bytes).expect("write to node 0");
        until("the request is refused", || counter(&t0, "net_proto_errors") == 1);
        until("the connection is dropped", || counter(&t0, "net_tcp_disconnects") >= 1);
    }

    /// A write-through that stalls on the last frame sent hands its tail to
    /// the pump, and the hand-back wakes the pump: with no later frame to
    /// wake it and no ping due for a second, the peer still gets the whole
    /// frame as soon as it reads again.
    #[test]
    fn a_stalled_last_frame_is_finished_without_waiting_for_a_ping() {
        let (fake, fake_addr) = bind();
        let (l0, _) = bind();
        let cfg = TcpConfig { keepalive: Duration::from_secs(1), ..TcpConfig::default() };
        let (t0, _rx0) = node(0, (1, fake_addr), l0, &[64], cfg);
        let (mut peer, _) = fake.accept().expect("node 0 dials");
        let mut frames = FrameReader::default();
        assert!(matches!(frames.next(&mut peer), NetFrame::Hello(_)));
        until("the lane is idle", || idle(&t0.shared.peers[&1]));

        // 512 KiB frames, written through until one does not fit.
        let mut sent = 0;
        while counter(&t0, "net_write_stalls") == 0 {
            assert!(sent < 1_000, "the peer's socket never filled");
            let data = Bytes::from(vec![sent as u8; 512 << 10]);
            let (index, term) = (LogIndex(sent + 1), Term(1));
            let msg = Message::AppendEntry(AppendEntryMsg {
                term,
                leader: NodeId(0),
                entries: vec![Entry::data(index, term, term, None, data)],
                leader_commit: LogIndex(0),
                verification: None,
                relay_to: Vec::new(),
            });
            t0.send(0, 1, Packet::Peer { from: NodeId(0), msg });
            sent += 1;
        }
        let stalled = clock::now();
        for seq in 1..=sent {
            let NetFrame::Peer { msg: Message::AppendEntry(m), .. } = frames.next(&mut peer) else {
                panic!("expected frame {seq}");
            };
            assert_eq!(m.entries[0].index.0, seq);
        }
        let waited = stalled.elapsed();
        assert!(waited < Duration::from_millis(500), "the tail waited {waited:?}");
        assert_eq!(backlog(&t0.shared.peers[&1]), 0);
    }

    /// Several threads answer one client session at once while its reader
    /// answers the client's pings: the client reads every response exactly
    /// once, whole, and in each thread's send order, and `net_frames_out`
    /// covers them all.
    #[test]
    fn concurrent_responses_to_one_session_arrive_once_whole_and_in_order() {
        const THREADS: u64 = 4;
        const EACH: u64 = 500;
        const PINGS: u64 = 200;
        let (l, addr) = bind();
        let (tx, _inbox) = sync_channel(64);
        let inboxes = TransportInboxes { nodes: vec![(0, tx)], client: channel().0 };
        // Room for every response at once: none may be shed.
        let cfg = TcpConfig { send_queue: (THREADS * EACH) as usize, ..TcpConfig::default() };
        let t = Arc::new(TcpTransport::spawn(cfg, l, inboxes));
        let client = ClientId(7);
        let mut sock = TcpStream::connect(addr).expect("connect");
        let mut bytes = Vec::new();
        let hello = NetFrame::Hello(HelloMsg {
            version: NET_PROTOCOL_VERSION,
            cluster_id: 1,
            groups: 1,
            kind: PeerKind::Client(client),
        });
        encode_frame_into(&hello, &mut bytes);
        sock.write_all(&bytes).expect("handshake");
        until("the session is registered", || gauge(&t, "net_clients_connected") == 1);

        let mut pings = sock.try_clone().expect("clone the client socket");
        let pinger = std::thread::spawn(move || {
            for seq in 0..PINGS {
                bytes.clear();
                encode_frame_into(&NetFrame::Ping { t0: seq }, &mut bytes);
                pings.write_all(&bytes).expect("ping");
                clock::sleep(Duration::from_micros(200));
            }
        });
        let senders: Vec<_> = (0..THREADS)
            .map(|thread| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for seq in 0..EACH {
                        let resp = ClientResponse::Strong {
                            request: RequestId(thread * EACH + seq),
                            index: LogIndex(seq),
                            term: Term(thread),
                        };
                        t.send(0, CLIENT_ENDPOINT, Packet::Response { client, resp });
                    }
                })
            })
            .collect();

        let mut frames = FrameReader::default();
        let mut next = [0u64; THREADS as usize];
        let mut pongs = 0;
        while next.iter().sum::<u64>() < THREADS * EACH || pongs < PINGS {
            match frames.next(&mut sock) {
                NetFrame::Response(ClientResponse::Strong { request, index, term }) => {
                    let thread = term.0 as usize;
                    assert_eq!(index.0, next[thread], "thread {thread}: once each, in order");
                    assert_eq!(request, RequestId(term.0 * EACH + index.0));
                    next[thread] += 1;
                }
                NetFrame::Pong { t0, .. } => {
                    assert_eq!(t0, pongs, "pongs in ping order");
                    pongs += 1;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        pinger.join().expect("pinger");
        for s in senders {
            s.join().expect("sender");
        }
        assert!(counter(&t, "net_frames_out") >= THREADS * EACH + PINGS);
        assert_eq!(counter(&t, "net_dropped_queue_full") + counter(&t, "net_write_stalls"), 0);
    }

    /// Decodes the frames a raw peer socket receives.
    #[derive(Default)]
    struct FrameReader {
        buf: Vec<u8>,
    }

    impl FrameReader {
        fn next(&mut self, stream: &mut TcpStream) -> NetFrame {
            stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
            loop {
                let decoded = nbr_types::wire::decode_frame_capped::<NetFrame>(&self.buf, 1 << 20)
                    .expect("every frame decodes");
                if let Some((frame, used)) = decoded {
                    self.buf.drain(..used);
                    return frame;
                }
                let mut chunk = [0u8; 64 << 10];
                let n = stream.read(&mut chunk).expect("the transport keeps writing");
                assert!(n > 0, "the transport closed the connection");
                self.buf.extend_from_slice(&chunk[..n]);
            }
        }
    }
}
