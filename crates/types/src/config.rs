//! Protocol configuration and presets for the seven evaluated protocols.
//!
//! A single protocol engine (in `nbr-core`) runs every preset. A
//! [`ProtocolConfig`] is the preset, the window and the timeouts; the
//! mechanisms the paper evaluates follow from those:
//!
//! * **Window size `w`** — the follower's sliding-window capacity for
//!   out-of-order entries. `w == 0` is original Raft (always blocking);
//!   `w > 0` is NB-Raft (Section III-A; the paper's default is 10 000).
//!   [`Protocol::config`] gives only the non-blocking presets a window.
//! * **Replication mode** — full-copy (Raft family), erasure-coded fragments
//!   (CRaft / ECRaft), or K-bucket relay (KRaft): [`Protocol::replication`].
//! * **Verification** — VGRaft's per-entry digest + signature checking by a
//!   rotating verification group: [`Protocol::verifies`].

use crate::ids::NodeId;
use crate::time::TimeDelta;

/// How entries travel from the leader to followers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Every follower receives the full entry (Raft, NB-Raft, VGRaft).
    Full,
    /// Each follower receives one Reed–Solomon shard of the payload (CRaft
    /// and ECRaft). `adaptive` enables ECRaft's degraded-mode re-encoding:
    /// when replicas fail, surviving ones receive wider shards so commits
    /// keep succeeding without falling back to full copies.
    Fragmented {
        /// ECRaft's adaptive re-encoding on failure.
        adaptive: bool,
    },
    /// KRaft: the leader sends directly to a bucket of half the peers,
    /// which relay to the remaining followers — just enough that leader +
    /// bucket form a quorum, which is exactly why KRaft is "less likely to
    /// find the fastest quorum" (paper Section V-I): the quorum members are
    /// fixed in advance.
    Relay,
}

/// The seven protocols of the paper's evaluation (Figures 14–23).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Original Raft (window 0, full copies).
    Raft,
    /// Non-Blocking Raft: sliding window + WEAK_ACCEPT early return.
    NbRaft,
    /// CRaft: erasure-coded replication (FAST'20), window 0.
    CRaft,
    /// NB-Raft + CRaft combined: window + erasure coding.
    NbCRaft,
    /// ECRaft: CRaft with adaptive degraded-mode coding.
    EcRaft,
    /// KRaft: K-bucket relay replication.
    KRaft,
    /// VGRaft: Byzantine-resistant verification groups.
    VgRaft,
}

impl Protocol {
    /// All seven, in the paper's legend order.
    pub const ALL: [Protocol; 7] = [
        Protocol::Raft,
        Protocol::NbRaft,
        Protocol::CRaft,
        Protocol::NbCRaft,
        Protocol::EcRaft,
        Protocol::KRaft,
        Protocol::VgRaft,
    ];

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Raft => "Raft",
            Protocol::NbRaft => "NB-Raft",
            Protocol::CRaft => "CRaft",
            Protocol::NbCRaft => "NB-Raft+CRaft",
            Protocol::EcRaft => "ECRaft",
            Protocol::KRaft => "KRaft",
            Protocol::VgRaft => "VGRaft",
        }
    }

    /// Does this protocol use the non-blocking window?
    pub fn non_blocking(self) -> bool {
        matches!(self, Protocol::NbRaft | Protocol::NbCRaft)
    }

    /// Does this protocol verify entries (VGRaft's digest + signature check
    /// by a rotating verification group)?
    pub fn verifies(self) -> bool {
        self == Protocol::VgRaft
    }

    /// How this protocol moves entries from the leader to followers.
    pub fn replication(self) -> ReplicationMode {
        match self {
            Protocol::Raft | Protocol::NbRaft | Protocol::VgRaft => ReplicationMode::Full,
            Protocol::CRaft | Protocol::NbCRaft => ReplicationMode::Fragmented { adaptive: false },
            Protocol::EcRaft => ReplicationMode::Fragmented { adaptive: true },
            Protocol::KRaft => ReplicationMode::Relay,
        }
    }

    /// Build the standard configuration for this protocol. `window` is used
    /// only by the non-blocking variants (the paper's default is 10 000).
    pub fn config(self, window: usize) -> ProtocolConfig {
        ProtocolConfig {
            protocol: self,
            window: if self.non_blocking() { window } else { 0 },
            timeouts: TimeoutConfig::default(),
        }
    }
}

/// Election and heartbeat timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeoutConfig {
    /// Minimum randomized follower (election) timeout. The paper's Figure 19b
    /// varies this from 0.5 s to 2.5 s.
    pub election_min: TimeDelta,
    /// Maximum randomized follower timeout.
    pub election_max: TimeDelta,
    /// Leader heartbeat interval. It also paces repair: a leader re-sends
    /// to a follower whose heartbeat responses show no progress for two
    /// rounds, declares a peer dead after five silent rounds, and a
    /// follower holds a gap-repair hint for a quarter of it before asking.
    pub heartbeat_interval: TimeDelta,
}

impl Default for TimeoutConfig {
    fn default() -> Self {
        TimeoutConfig {
            election_min: TimeDelta::from_millis(500),
            election_max: TimeDelta::from_millis(1000),
            heartbeat_interval: TimeDelta::from_millis(100),
        }
    }
}

/// Full configuration of one replica's protocol engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// The preset: it decides replication ([`Protocol::replication`]) and
    /// verification ([`Protocol::verifies`]).
    pub protocol: Protocol,
    /// Sliding-window capacity `w`. Zero disables the window: an
    /// out-of-order entry is parked until the gap below it fills, and is
    /// accepted only in log order, as in original Raft.
    pub window: usize,
    /// Timing parameters.
    pub timeouts: TimeoutConfig,
}

impl ProtocolConfig {
    /// Number of data shards `k` for fragmented replication in a cluster of
    /// `n` replicas: `k = F + 1` with `F = (n - 1) / 2`, i.e. a majority of
    /// the group, following CRaft.
    pub fn fragment_k(n_replicas: usize) -> usize {
        n_replicas / 2 + 1
    }

    /// Quorum size (majority) for `n` replicas.
    pub fn quorum(n_replicas: usize) -> usize {
        n_replicas / 2 + 1
    }

    /// Acks required to commit under this configuration for `n` replicas.
    ///
    /// Full replication commits on a majority. Fragmented replication needs
    /// `k + F` shard-holders so that any `F` subsequent failures still leave
    /// `k` reconstructable shards (CRaft's commit rule), capped at `n`.
    pub fn commit_threshold(&self, n_replicas: usize) -> usize {
        match self.protocol.replication() {
            ReplicationMode::Full | ReplicationMode::Relay => Self::quorum(n_replicas),
            ReplicationMode::Fragmented { .. } => {
                let f = (n_replicas - 1) / 2;
                (Self::fragment_k(n_replicas) + f).min(n_replicas)
            }
        }
    }

    /// Pick KRaft's bucket for a given membership: the first half of the
    /// peers, at least one (deterministic; rotation is not modelled since
    /// the paper's KRaft picks a static bucket per leader term).
    pub fn kraft_bucket(&self, peers: &[NodeId]) -> Vec<NodeId> {
        match self.protocol.replication() {
            ReplicationMode::Relay => {
                peers.iter().take((peers.len() / 2).max(1)).copied().collect()
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let raft = Protocol::Raft.config(10_000);
        assert_eq!(raft.window, 0, "Raft is NB-Raft with window 0");
        assert_eq!(raft.protocol.replication(), ReplicationMode::Full);
        assert!(!raft.protocol.verifies());

        let nb = Protocol::NbRaft.config(10_000);
        assert_eq!(nb.window, 10_000);

        let craft = Protocol::CRaft.config(10_000);
        assert_eq!(craft.window, 0);
        assert_eq!(craft.protocol.replication(), ReplicationMode::Fragmented { adaptive: false });

        let nbc = Protocol::NbCRaft.config(10_000);
        assert_eq!(nbc.window, 10_000);
        assert!(matches!(
            nbc.protocol.replication(),
            ReplicationMode::Fragmented { adaptive: false }
        ));

        let ec = Protocol::EcRaft.config(0);
        assert_eq!(ec.protocol.replication(), ReplicationMode::Fragmented { adaptive: true });

        assert_eq!(Protocol::KRaft.config(0).protocol.replication(), ReplicationMode::Relay);
        assert!(Protocol::VgRaft.config(0).protocol.verifies());
    }

    #[test]
    fn commit_thresholds() {
        let full = Protocol::Raft.config(0);
        assert_eq!(full.commit_threshold(3), 2);
        assert_eq!(full.commit_threshold(5), 3);
        assert_eq!(full.commit_threshold(2), 2);

        // CRaft with n=5: F=2, k=3, threshold = min(5, 5) = 5.
        let frag = Protocol::CRaft.config(0);
        assert_eq!(frag.commit_threshold(5), 5);
        // n=3: F=1, k=2, threshold = 3.
        assert_eq!(frag.commit_threshold(3), 3);
    }

    #[test]
    fn fragment_k_is_majority() {
        assert_eq!(ProtocolConfig::fragment_k(3), 2);
        assert_eq!(ProtocolConfig::fragment_k(5), 3);
        assert_eq!(ProtocolConfig::fragment_k(9), 5);
    }

    #[test]
    fn kraft_bucket_selection() {
        let cfg = Protocol::KRaft.config(0);
        let peers = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        // Auto bucket: half the peers.
        assert_eq!(cfg.kraft_bucket(&peers), vec![NodeId(1), NodeId(2)]);
        // Three-replica group: one bucket node relays to the other follower.
        assert_eq!(cfg.kraft_bucket(&peers[..2]), vec![NodeId(1)]);
        let raft = Protocol::Raft.config(0);
        assert!(raft.kraft_bucket(&peers).is_empty());
    }

    #[test]
    fn names_cover_all() {
        for p in Protocol::ALL {
            assert!(!p.name().is_empty());
        }
        assert_eq!(Protocol::NbCRaft.name(), "NB-Raft+CRaft");
    }
}
