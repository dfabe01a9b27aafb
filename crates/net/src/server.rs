//! One-process-per-node cluster runtime: the `serve` building block.
//!
//! [`NodeServer`] hosts this node's replica of every Raft group of an
//! `n`-node membership — one group unless told otherwise — wiring a single
//! [`TcpTransport`] into one [`nbr_cluster::Cluster`] per group (which runs
//! the identical replica loop it uses in-process) plus an optional HTTP
//! metrics endpoint for Prometheus scrapes.
//!
//! Construction order is inboxes, transport, replicas: every group's inboxes
//! exist before the transport is built over them, and the replicas start
//! last with their group's [`TcpTransport::group`] handle, so no send can
//! precede its route.
//!
//! Each group decorrelates its RNG seed (`group_seed`) so election
//! timeouts don't fire in lockstep across groups, and (under
//! [`StorageMode::Wal`]) keeps its WAL in a `group-{g}/` subdirectory so
//! logs never collide. Group 0 of a one-group host keeps the base seed,
//! directory layout, metric labels and trace ids.

use crate::metrics::MetricsServer;
use crate::transport::{TcpConfig, TcpTransport};
use nbr_cluster::{Cluster, ClusterConfig, FaultPlane, StorageMode, Transport, TransportInboxes};
use nbr_obs::Snapshot;
use nbr_storage::StateMachine;
use nbr_types::{Error, LinkFault, Result, TimeDelta, MAX_GROUPS};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// Configuration for one replica process.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Cluster instance id (handshake-checked on every connection).
    pub cluster_id: u64,
    /// This process's node id within the membership (of every group).
    pub node_id: u32,
    /// Address to listen on for peer and client connections.
    pub bind: SocketAddr,
    /// `(node id, address)` of every other member.
    pub peers: Vec<(u32, SocketAddr)>,
    /// Protocol / replica configuration (identical to in-process runs);
    /// per-group seeds and WAL directories are derived from it.
    pub cluster: ClusterConfig,
    /// Bind address of the HTTP metrics endpoint, if wanted.
    pub metrics_bind: Option<SocketAddr>,
    /// Artificial one-hop peer-link delay, jittered ±50% (WAN emulation;
    /// zero for real deployments): each frame is delivered `delay` after it
    /// is sent, in order. With `link_loss_pct` this is the transport's
    /// [`TcpConfig::baseline`].
    pub link_delay: Duration,
    /// Parallel TCP connections per peer. See [`TcpConfig::peer_lanes`].
    pub peer_lanes: usize,
    /// Percentage of peer-link protocol frames lost (loss emulation).
    pub link_loss_pct: f64,
    /// The cluster's fault plane (chaos harness), shared by every member
    /// process-worth: the transport reads this node's outbound link rows
    /// ([`TcpConfig::faults`]) and every group's replica its node's clock
    /// and disk dials (it is installed as their [`ClusterConfig::faults`]).
    pub faults: Option<Arc<FaultPlane>>,
}

/// `(node id, address)` of every member of a cluster: what a client dials.
pub type Members = Vec<(u32, SocketAddr)>;

/// Decorrelated RNG seed for `group`: the base seed for group 0 (so a
/// one-group host keeps it), a golden-ratio-mixed variant for every other
/// group so election jitter and retry phases don't align across groups
/// sharing one process.
fn group_seed(base: u64, group: u32) -> u64 {
    base ^ u64::from(group).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Derive group `g`'s replica configuration from the base one: decorrelated
/// seed, the group's handle on the caller's trace buffer and, with several
/// groups, a per-group WAL subdirectory.
fn group_config(base: &ClusterConfig, group: u32, groups: u32) -> ClusterConfig {
    let mut cfg = base.clone();
    cfg.seed = group_seed(base.seed, group);
    cfg.probe = base.probe.in_group(group);
    if groups > 1 {
        if let StorageMode::Wal(dir) = &base.storage {
            cfg.storage = StorageMode::Wal(dir.join(format!("group-{group}")));
        }
    }
    cfg
}

/// Relabel one group's metric snapshot into the merged namespace:
/// `g{group}/{node}`. Group 0 keeps its plain label so a one-group scrape
/// carries no group prefix.
fn relabel(group: u32, mut snap: Snapshot) -> Snapshot {
    if group > 0 {
        snap.label = format!("g{group}/{}", snap.label);
    }
    snap
}

/// Size `n` of the membership `peers ∪ {node_id}`, which must be exactly the
/// node ids `0..n`, each once.
fn membership_size(node_id: u32, peers: &[(u32, SocketAddr)]) -> Result<usize> {
    let n = peers.len() + 1;
    let mut seen = vec![false; n];
    for id in peers.iter().map(|&(id, _)| id).chain([node_id]) {
        let first = seen.get_mut(id as usize).is_some_and(|s| !std::mem::replace(s, true));
        if !first {
            return Err(Error::Cluster(format!(
                "membership of {n} must be node ids 0..{n}, each once: \
                 node id {id} is out of range or listed twice"
            )));
        }
    }
    Ok(n)
}

/// One running process member: this node's replica of every group, all on
/// a single TCP transport.
///
/// Field order is drop order: the group clusters stop their replica loops
/// first, then the last handle on the transport joins its socket threads.
pub struct NodeServer<M: StateMachine + Send + Default + 'static> {
    groups: Vec<Cluster<M>>,
    tcp: Arc<TcpTransport>,
    scrape: Arc<dyn Fn() -> String + Send + Sync>,
    metrics: Option<MetricsServer>,
}

impl<M: StateMachine + Send + Default + 'static> NodeServer<M> {
    /// Bind `cfg.bind` and start serving `groups` Raft groups.
    pub fn spawn(cfg: ServeConfig, groups: u32) -> Result<NodeServer<M>> {
        let listener = TcpListener::bind(cfg.bind)
            .map_err(|e| Error::Cluster(format!("bind {}: {e}", cfg.bind)))?;
        Self::spawn_groups(cfg, groups, listener)
    }

    /// Start serving one Raft group on a pre-bound listener (tests bind
    /// port 0 first and read back the OS-assigned address, avoiding port
    /// races).
    pub fn spawn_on(cfg: ServeConfig, listener: TcpListener) -> Result<NodeServer<M>> {
        Self::spawn_groups(cfg, 1, listener)
    }

    /// Start serving `groups` Raft groups on a pre-bound listener. The same
    /// `node_id`/`peers` membership is used by every group, and every member
    /// process must be started with the same count (handshake-checked).
    pub fn spawn_groups(
        cfg: ServeConfig,
        groups: u32,
        listener: TcpListener,
    ) -> Result<NodeServer<M>> {
        if !(1..=MAX_GROUPS).contains(&groups) {
            return Err(Error::Cluster(format!(
                "group count {groups} out of range 1..={MAX_GROUPS}"
            )));
        }
        let n = membership_size(cfg.node_id, &cfg.peers)?;
        // One trace clock per process: the transport's Ping/Pong clock
        // samples and every group's probe events must share an epoch for the
        // span collector to align them across nodes.
        let mut base = cfg.cluster.clone();
        base.faults = cfg.faults.clone().or(base.faults);
        let epoch = *base.trace_epoch.get_or_insert_with(crate::clock::now);

        let (inboxes, endpoints): (Vec<_>, Vec<_>) =
            (0..groups).map(|_| TransportInboxes::channels(&[cfg.node_id])).unzip();
        let hop_ns = cfg.link_delay.as_nanos() as u64;
        let tcp = TcpConfig {
            cluster_id: cfg.cluster_id,
            node_id: cfg.node_id,
            peers: cfg.peers.clone(),
            // An emulated WAN hop: the delay uniform in ±50%, one draw per
            // pump wake-up. A lane still delivers its frames in send order.
            baseline: LinkFault {
                cut: false,
                drop: (cfg.link_loss_pct / 100.0).clamp(0.0, 1.0),
                delay: (TimeDelta(hop_ns / 2), TimeDelta(hop_ns / 2 + hop_ns)),
            },
            peer_lanes: cfg.peer_lanes,
            faults: base.faults.clone(),
            // Transport clock samples are per-node, not per-group: they are
            // recorded under the plain replica ids (group 0's).
            probe: base.probe.clone(),
            trace_epoch: Some(epoch),
            ..TcpConfig::default()
        };
        let tcp = Arc::new(TcpTransport::spawn_groups(tcp, listener, inboxes));

        let clusters: Vec<Cluster<M>> = (0..groups)
            .zip(endpoints)
            .map(|(g, endpoints)| {
                Cluster::spawn_on(n, endpoints, group_config(&base, g, groups), tcp.group(g))
            })
            .collect();

        let scrape = scraper(&clusters, &tcp);
        let metrics = match cfg.metrics_bind {
            Some(addr) => Some(MetricsServer::spawn(addr, Arc::clone(&scrape))?),
            None => None,
        };
        Ok(NodeServer { groups: clusters, tcp, scrape, metrics })
    }

    /// Bring a whole membership up on loopback inside this process: member
    /// `i` hosts `groups[i]` Raft groups (every member must agree for the
    /// handshakes to succeed). All listeners are bound to OS-assigned ports
    /// before any server starts, so every config knows every address and
    /// parallel runs never collide. Each member's [`ServeConfig`] arrives at
    /// `finish` with its membership fields set and everything else at its
    /// default (healthy links, one lane, `ClusterConfig::default()`).
    /// Returns the servers and the `(node id, address)` list clients dial.
    pub fn spawn_loopback(
        groups: &[u32],
        mut finish: impl FnMut(&mut ServeConfig),
    ) -> Result<(Vec<NodeServer<M>>, Members)> {
        let io = |e: std::io::Error| Error::Cluster(format!("bind loopback: {e}"));
        let mut listeners = Vec::new();
        let mut members = Vec::new();
        for id in 0..groups.len() as u32 {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
            members.push((id, listener.local_addr().map_err(io)?));
            listeners.push(listener);
        }
        let mut servers = Vec::new();
        for ((&(node_id, bind), listener), &g) in members.iter().zip(listeners).zip(groups) {
            let mut cfg = ServeConfig {
                cluster_id: 1,
                node_id,
                bind,
                peers: members.iter().filter(|&&(id, _)| id != node_id).copied().collect(),
                cluster: ClusterConfig::default(),
                metrics_bind: None,
                link_delay: Duration::ZERO,
                peer_lanes: 1,
                link_loss_pct: 0.0,
                faults: None,
            };
            finish(&mut cfg);
            servers.push(Self::spawn_groups(cfg, g, listener)?);
        }
        Ok((servers, members))
    }

    /// Number of groups hosted.
    pub fn groups(&self) -> u32 {
        self.groups.len() as u32
    }

    /// The cluster handle of group `g` (one local replica at position 0).
    pub fn group(&self, g: u32) -> &Cluster<M> {
        &self.groups[g as usize]
    }

    /// The cluster handle of group 0 — the only group of a one-group host.
    pub fn cluster(&self) -> &Cluster<M> {
        self.group(0)
    }

    /// Address the transport accepted connections on.
    pub fn transport_addr(&self) -> Option<SocketAddr> {
        self.tcp.local_addr()
    }

    /// Address the metrics endpoint is serving on, if enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().and_then(MetricsServer::local_addr)
    }

    /// Prometheus exposition of every group's replica registry (group 0
    /// unlabelled, group `g` as `g{g}/{node}`) plus one snapshot of the
    /// shared transport (whose per-group series carry `_group_{g}` name
    /// suffixes).
    pub fn prometheus(&self) -> String {
        (self.scrape)()
    }
}

/// Wait until every group of a freshly started membership has a leader
/// among `servers` (cold start: before this, a load drive measures elections
/// rather than replication). Returns, per group, which server leads it.
pub fn await_leaders<M: StateMachine + Send + Default + 'static>(
    servers: &[NodeServer<M>],
    timeout: Duration,
) -> Result<Vec<usize>> {
    let deadline = crate::clock::now() + timeout;
    let groups = servers.iter().map(NodeServer::groups).min().unwrap_or(0);
    let leader_of = |g| {
        servers.iter().position(|s| {
            let st = s.group(g).status(0);
            st.alive && st.is_leader
        })
    };
    loop {
        if let Some(leaders) = (0..groups).map(leader_of).collect() {
            return Ok(leaders);
        }
        if crate::clock::now() >= deadline {
            return Err(Error::Cluster(format!("some group elected no leader in {timeout:?}")));
        }
        crate::clock::sleep(Duration::from_millis(5));
    }
}

/// Build the scrape closure shared by [`NodeServer::prometheus`] and the
/// metrics endpoint. The cluster handles cannot be cloned into the endpoint
/// thread, so we snapshot through the pieces that are `Arc`-shared:
/// per-replica registries and the transport.
fn scraper<M: StateMachine + Send + Default + 'static>(
    groups: &[Cluster<M>],
    tcp: &Arc<TcpTransport>,
) -> Arc<dyn Fn() -> String + Send + Sync> {
    let registries: Vec<_> = (0u32..)
        .zip(groups)
        .flat_map(|(g, c)| (0..c.local_len()).map(move |i| (g, c.registry(i))))
        .collect();
    let tcp = Arc::clone(tcp);
    Arc::new(move || {
        let mut snaps: Vec<_> = registries.iter().map(|(g, r)| relabel(*g, r.snapshot())).collect();
        snaps.extend(tcp.scrape());
        nbr_obs::export::prometheus(&snaps)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbr_obs::Registry;

    #[test]
    fn group_seed_identity_for_group_zero() {
        assert_eq!(group_seed(42, 0), 42);
        assert_eq!(group_seed(7, 0), 7);
    }

    #[test]
    fn group_seeds_decorrelated() {
        let seeds: std::collections::HashSet<u64> = (0..64).map(|g| group_seed(42, g)).collect();
        assert_eq!(seeds.len(), 64, "64 groups must get 64 distinct seeds");
    }

    #[test]
    fn wal_dirs_namespaced_per_group() {
        let base = ClusterConfig {
            storage: StorageMode::Wal(std::path::PathBuf::from("/tmp/w")),
            ..ClusterConfig::default()
        };
        let g2 = group_config(&base, 2, 4);
        match g2.storage {
            StorageMode::Wal(d) => assert_eq!(d, std::path::PathBuf::from("/tmp/w/group-2")),
            StorageMode::Memory => panic!("storage mode must survive derivation"),
        }
        // Single group: directory untouched (unsharded parity).
        let g0 = group_config(&base, 0, 1);
        match g0.storage {
            StorageMode::Wal(d) => assert_eq!(d, std::path::PathBuf::from("/tmp/w")),
            StorageMode::Memory => panic!(),
        }
    }

    #[test]
    fn relabel_keeps_group_zero() {
        let r = Registry::new("3");
        assert_eq!(relabel(0, r.snapshot()).label, "3");
        assert_eq!(relabel(5, r.snapshot()).label, "g5/3");
    }

    #[test]
    fn membership_must_be_exactly_the_ids_zero_to_n() {
        let a: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        assert_eq!(membership_size(0, &[]).expect("singleton"), 1);
        assert_eq!(membership_size(1, &[(2, a), (0, a)]).expect("any order"), 3);
        // Lists itself and is missing node 1: the right *number* of peers
        // for a 3-node membership, which is all a length check sees.
        assert!(membership_size(0, &[(0, a), (2, a)]).is_err());
        assert!(membership_size(0, &[(1, a), (1, a)]).is_err(), "peer id listed twice");
        assert!(membership_size(0, &[(1, a), (3, a)]).is_err(), "gap: ids 0, 1, 3");
    }

    #[test]
    fn host_refuses_bad_membership_and_group_counts() {
        let a: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let spawn = |peers: Vec<(u32, SocketAddr)>, groups: u32| {
            let cfg = ServeConfig {
                cluster_id: 1,
                node_id: 0,
                bind: "127.0.0.1:0".parse().expect("addr"),
                peers,
                cluster: ClusterConfig::default(),
                metrics_bind: None,
                link_delay: std::time::Duration::ZERO,
                peer_lanes: 1,
                link_loss_pct: 0.0,
                faults: None,
            };
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            NodeServer::<nbr_storage::KvStore>::spawn_groups(cfg, groups, listener).map(|_| ())
        };
        assert!(spawn(vec![(0, a), (2, a)], 1).is_err(), "lists itself, misses node 1");
        assert!(spawn(vec![(1, a), (2, a)], 0).is_err(), "zero groups");
        assert!(spawn(vec![(1, a), (2, a)], MAX_GROUPS + 1).is_err(), "too many groups");
    }
}
