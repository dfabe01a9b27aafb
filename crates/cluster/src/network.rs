//! In-process network with fault injection.
//!
//! A single router thread moves messages between node inboxes. What happens
//! to a packet on the way is one [`LinkFault`]: the router's *baseline* —
//! [`NetConfig`]'s artificial delay (uniform in `[min, max]`, the jitter
//! that produces out-of-order arrival) and drop probability — composed with
//! the packet's `from → to` row of the cluster's [`FaultPlane`], when one is
//! installed. A cut link or a lost draw drops the packet, counted by cause
//! in the router's [`Registry`]; a survivor is held for the drawn delay. All
//! randomness is seeded for reproducible failure tests.

use crate::faults::FaultPlane;
use crate::transport::{Transport, TransportInboxes};
use nbr_obs::{Counter, Registry, Snapshot};
use nbr_types::{ClientRequest, ClientResponse, LinkFault, Message, NodeId, TimeDelta};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Anything routable between cluster participants.
#[derive(Debug, Clone)]
pub enum Packet {
    /// Replica-to-replica protocol message.
    Peer {
        /// Sender.
        from: NodeId,
        /// The message.
        msg: Message,
    },
    /// Client request to a replica.
    Request(ClientRequest),
    /// Replica response to a client.
    Response {
        /// Destination client.
        client: nbr_types::ClientId,
        /// The response.
        resp: ClientResponse,
    },
}

/// The router's baseline behaviour: what every link does with no fault
/// injected. Runtime faults go through the cluster's [`FaultPlane`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Artificial delay range applied to every packet.
    pub delay: (Duration, Duration),
    /// Probability in `[0, 1]` of dropping any packet.
    pub drop_rate: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            delay: (Duration::from_micros(50), Duration::from_micros(500)),
            drop_rate: 0.0,
            seed: 7,
        }
    }
}

/// Endpoint id of the client side (also in fault-table link rows).
pub const CLIENT_ENDPOINT: u32 = u32::MAX;

/// The router's delivery accounting: every packet it does *not* deliver is
/// counted under the reason it was lost, so tests (and the Prometheus
/// export) can tell injected faults from genuine delivery-layer problems.
struct RouterStats {
    /// Packets handed to an inbox.
    delivered: Arc<Counter>,
    /// Packets eaten by a cut link (injected fault).
    dropped_partition: Arc<Counter>,
    /// Packets lost to a link's drop probability (injected fault).
    dropped_rate: Arc<Counter>,
    /// Packets addressed to an endpoint that does not exist.
    dropped_unroutable: Arc<Counter>,
    /// Packets whose destination inbox was closed (stopped replica).
    dropped_closed: Arc<Counter>,
    /// Packets that exhausted their backpressure retry budget against a
    /// persistently full inbox: real loss, visible to tests.
    dropped_full: Arc<Counter>,
    /// Deliveries deferred (and re-queued) because the inbox was full.
    requeued_full: Arc<Counter>,
}

impl RouterStats {
    fn new(reg: &Registry) -> RouterStats {
        RouterStats {
            delivered: reg.counter("net_delivered"),
            dropped_partition: reg.counter("net_dropped_partition"),
            dropped_rate: reg.counter("net_dropped_rate"),
            dropped_unroutable: reg.counter("net_dropped_unroutable"),
            dropped_closed: reg.counter("net_dropped_closed"),
            dropped_full: reg.counter("net_dropped_full"),
            requeued_full: reg.counter("net_requeued_full"),
        }
    }
}

struct Delayed {
    due: Instant,
    seq: u64,
    to_endpoint: u32,
    packet: Packet,
    /// Times this delivery has been deferred against a full inbox.
    retries: u32,
}

/// How often a delivery may be deferred against a full inbox before it is
/// dropped (with explicit `net_dropped_full` accounting). 64 retries at
/// [`FULL_RETRY_DELAY`] each ≈ 16 ms of sustained backpressure.
const FULL_RETRY_BUDGET: u32 = 64;
/// Deferral interval for deliveries against a full inbox.
const FULL_RETRY_DELAY: Duration = Duration::from_micros(250);

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// `(from, to, packet)` triple in flight to the router.
type Routed = (u32, u32, Packet);

/// The router: owns delivery queues to every endpoint.
pub struct Network {
    tx: Sender<Routed>,
    stopped: Arc<AtomicBool>,
    registry: Arc<Registry>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Network {
    /// Build a network delivering into `inboxes` (node endpoints are bounded
    /// `SyncSender`s; the client endpoint [`CLIENT_ENDPOINT`] is unbounded).
    ///
    /// Node inboxes are *bounded*, so the router never blocks on a slow
    /// replica: a delivery against a full inbox is re-queued with a short
    /// delay (counted in `net_requeued_full`) and only dropped — with
    /// explicit `net_dropped_full` accounting — after
    /// [`FULL_RETRY_BUDGET`] deferrals. Every non-delivery is counted by
    /// cause; nothing is lost silently, and `Response` packets get exactly
    /// the same treatment as `Peer` messages.
    ///
    /// `faults` is the cluster's fault plane, if it has one: each packet's
    /// `from → to` row is read (copied out) as the packet enters the router.
    pub fn spawn(
        cfg: NetConfig,
        faults: Option<Arc<FaultPlane>>,
        inboxes: TransportInboxes,
    ) -> Network {
        let (tx, rx): (Sender<Routed>, Receiver<Routed>) = channel();
        let stopped = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::new("net"));
        let stats = RouterStats::new(&registry);
        let stop = Arc::clone(&stopped);
        // The configuration as the `LinkFault` every link starts from.
        let ns = |d: Duration| TimeDelta(d.as_nanos() as u64);
        let baseline = LinkFault {
            cut: false,
            drop: cfg.drop_rate.clamp(0.0, 1.0),
            delay: (ns(cfg.delay.0), ns(cfg.delay.1)),
        };
        let node_inboxes: HashMap<u32, SyncSender<Packet>> = inboxes.nodes.into_iter().collect();
        let client_inbox = inboxes.client;
        let thread = std::thread::Builder::new()
            .name("nbr-network".into())
            .spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.seed);
                let mut heap: BinaryHeap<Delayed> = BinaryHeap::new();
                let mut seq = 0u64;
                loop {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    // Deliver everything due.
                    let now = Instant::now();
                    while heap.peek().is_some_and(|d| d.due <= now) {
                        let Some(d) = heap.pop() else { break };
                        if d.to_endpoint == CLIENT_ENDPOINT {
                            match client_inbox.send(d.packet) {
                                Ok(()) => stats.delivered.inc(),
                                Err(_) => stats.dropped_closed.inc(),
                            }
                            continue;
                        }
                        let Some(inbox) = node_inboxes.get(&d.to_endpoint) else {
                            stats.dropped_unroutable.inc();
                            continue;
                        };
                        match inbox.try_send(d.packet) {
                            Ok(()) => stats.delivered.inc(),
                            Err(TrySendError::Full(packet)) => {
                                if d.retries >= FULL_RETRY_BUDGET {
                                    stats.dropped_full.inc();
                                } else {
                                    stats.requeued_full.inc();
                                    seq += 1;
                                    heap.push(Delayed {
                                        due: Instant::now() + FULL_RETRY_DELAY,
                                        seq,
                                        to_endpoint: d.to_endpoint,
                                        packet,
                                        retries: d.retries + 1,
                                    });
                                }
                            }
                            Err(TrySendError::Disconnected(_)) => stats.dropped_closed.inc(),
                        }
                    }
                    // Wait for new traffic until the next deadline.
                    let timeout = heap
                        .peek()
                        .map(|d| d.due.saturating_duration_since(Instant::now()))
                        .unwrap_or(Duration::from_millis(2))
                        .min(Duration::from_millis(2));
                    match rx.recv_timeout(timeout) {
                        Ok((from, to, packet)) => {
                            let link = match &faults {
                                Some(plane) => plane.link(from, to).over(baseline),
                                None => baseline,
                            };
                            if link.cut {
                                stats.dropped_partition.inc();
                                continue;
                            }
                            if link.loses(|| rng.random_range(0.0..1.0)) {
                                stats.dropped_rate.inc();
                                continue;
                            }
                            let delay = link.delay_at(|| rng.random_range(0.0..1.0));
                            seq += 1;
                            heap.push(Delayed {
                                due: Instant::now() + Duration::from_nanos(delay.as_nanos()),
                                seq,
                                to_endpoint: to,
                                packet,
                                retries: 0,
                            });
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
            })
            .expect("spawn network thread"); // check:allow(L1): harness startup; no thread means no cluster to run, abort is correct
        Network { tx, stopped, registry, thread: Some(thread) }
    }
}

impl Transport for Network {
    fn send(&self, from: u32, to: u32, packet: Packet) {
        let _ = self.tx.send((from, to, packet));
    }

    fn scrape(&self) -> Option<Snapshot> {
        // The Prometheus export carries the delivery-layer counters
        // alongside the per-replica protocol metrics.
        Some(self.registry.snapshot())
    }
}

impl Drop for Network {
    fn drop(&mut self) {
        self.stopped.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nbr_types::{ClientId, Fault, RequestId};

    fn request_packet() -> Packet {
        Packet::Request(ClientRequest {
            client: ClientId(1),
            request: RequestId(1),
            payload: Bytes::from_static(b"x"),
        })
    }

    fn instant_net(nodes: Vec<(u32, std::sync::mpsc::SyncSender<Packet>)>) -> Network {
        faulty_net(nodes, None)
    }

    fn faulty_net(
        nodes: Vec<(u32, std::sync::mpsc::SyncSender<Packet>)>,
        faults: Option<Arc<FaultPlane>>,
    ) -> Network {
        let (client_tx, _client_rx) = channel();
        // Leak the client receiver is fine for these tests; zero delay keeps
        // them fast and deterministic-enough to assert counters.
        std::mem::forget(_client_rx);
        Network::spawn(
            NetConfig { delay: (Duration::ZERO, Duration::ZERO), drop_rate: 0.0, seed: 1 },
            faults,
            TransportInboxes { nodes, client: client_tx },
        )
    }

    /// The router's counter `name`, as its scrape reports it.
    fn count(net: &Network, name: &str) -> u64 {
        net.scrape().expect("router scrapes").counters[name]
    }

    fn wait_until(mut ok: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if ok() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    #[test]
    fn unroutable_and_partitioned_packets_are_counted() {
        let (tx0, rx0) = std::sync::mpsc::sync_channel(16);
        let plane = FaultPlane::shared(2);
        let net = faulty_net(vec![(0, tx0)], Some(Arc::clone(&plane)));

        net.send(1, 99, request_packet()); // endpoint 99 does not exist
        assert!(wait_until(|| count(&net, "net_dropped_unroutable") == 1));

        plane.apply(&Fault::Partition { a: vec![1], b: vec![0], symmetric: true });
        net.send(1, 0, request_packet());
        assert!(wait_until(|| count(&net, "net_dropped_partition") == 1));
        plane.apply(&Fault::Heal);

        net.send(1, 0, request_packet());
        assert!(wait_until(|| count(&net, "net_delivered") == 1));
        assert!(rx0.try_recv().is_ok());
    }

    #[test]
    fn one_way_cuts_and_gray_links_are_counted_by_cause() {
        let (tx0, rx0) = std::sync::mpsc::sync_channel(16);
        let (tx1, rx1) = std::sync::mpsc::sync_channel(16);
        let plane = FaultPlane::shared(2);
        let net = faulty_net(vec![(0, tx0), (1, tx1)], Some(Arc::clone(&plane)));

        // `{0}->{1}` cuts one direction only: 1 still reaches 0.
        plane.apply(&Fault::Partition { a: vec![0], b: vec![1], symmetric: false });
        net.send(0, 1, request_packet());
        net.send(1, 0, request_packet());
        assert!(wait_until(|| {
            count(&net, "net_dropped_partition") == 1 && count(&net, "net_delivered") == 1
        }));
        assert!(rx0.try_recv().is_ok() && rx1.try_recv().is_err());

        // A gray link is loss, not a partition (100%: every draw loses).
        let gray = |drop_pct| Fault::GrayLink {
            from: 1,
            to: 0,
            both: false,
            drop_pct,
            delay: TimeDelta::ZERO,
        };
        plane.apply(&gray(100.0));
        net.send(1, 0, request_packet());
        assert!(wait_until(|| count(&net, "net_dropped_rate") == 1));
        assert_eq!(count(&net, "net_dropped_partition"), 1);

        plane.apply(&Fault::HealLink { from: 0, to: 1, both: true });
        net.send(0, 1, request_packet());
        net.send(1, 0, request_packet());
        assert!(wait_until(|| count(&net, "net_delivered") == 3));
        assert!(rx0.try_recv().is_ok() && rx1.try_recv().is_ok());
    }

    #[test]
    fn full_inbox_requeues_then_drops_with_accounting() {
        // Depth-1 inbox that is never drained: the first packet is
        // delivered, the second must exhaust its retry budget and be
        // counted in dropped_full — no silent loss.
        let (tx0, rx0) = std::sync::mpsc::sync_channel(1);
        let net = instant_net(vec![(0, tx0)]);
        net.send(1, 0, request_packet());
        net.send(1, 0, request_packet());
        assert!(wait_until(|| count(&net, "net_dropped_full") == 1));
        assert_eq!(count(&net, "net_delivered"), 1);
        assert!(count(&net, "net_requeued_full") >= u64::from(FULL_RETRY_BUDGET));
        drop(rx0);
    }

    #[test]
    fn closed_inbox_counts_dropped_closed() {
        let (tx0, rx0) = std::sync::mpsc::sync_channel(16);
        let net = instant_net(vec![(0, tx0)]);
        drop(rx0); // replica stopped
        net.send(1, 0, request_packet());
        assert!(wait_until(|| count(&net, "net_dropped_closed") == 1));
    }

    #[test]
    fn scrape_exports_delivery_counters() {
        let (tx0, _rx0) = std::sync::mpsc::sync_channel(16);
        let net = instant_net(vec![(0, tx0)]);
        net.send(1, 99, request_packet());
        assert!(wait_until(|| count(&net, "net_dropped_unroutable") == 1));
        let snap = net.scrape().expect("router scrapes");
        assert_eq!(snap.label, "net");
        assert_eq!(snap.counters["net_dropped_unroutable"], 1);
        assert!(snap.counters.contains_key("net_requeued_full"));
        assert!(snap.counters.contains_key("net_dropped_full"));
    }
}
