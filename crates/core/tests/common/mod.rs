//! A deterministic, fully synchronous test cluster for protocol-level tests.
//!
//! Messages are queued FIFO; tests may reorder, drop or hold them to script
//! exact interleavings (out-of-order arrivals are the whole point of
//! NB-Raft). No wall-clock time: the test advances a virtual clock.
//!
//! Shared by several test binaries; not every binary uses every helper.
#![allow(dead_code)]

use bytes::Bytes;
use nbr_core::{Node, Output, Role};
use nbr_storage::{LogStore, MemLog};
use nbr_types::*;
use std::collections::VecDeque;

/// An in-flight protocol message.
#[derive(Debug, Clone)]
pub struct InFlight {
    pub from: NodeId,
    pub to: NodeId,
    pub msg: Message,
}

/// Synchronous test cluster.
pub struct TestCluster {
    pub nodes: Vec<Option<Node<MemLog>>>,
    /// Undelivered messages, in send order.
    pub pending: VecDeque<InFlight>,
    /// Client responses captured, tagged by the node that produced them.
    pub responses: Vec<(NodeId, ClientId, ClientResponse)>,
    /// Applied entries per node.
    pub applied: Vec<Vec<Entry>>,
    pub now: Time,
    /// Pairs (a, b) whose messages are dropped (both directions).
    pub partitions: Vec<(NodeId, NodeId)>,
    /// Snapshot installations observed: (node, covered-through index).
    pub snapshots_installed: Vec<(NodeId, LogIndex)>,
    /// ReadReady events: (serving node, client, request, read index).
    pub reads_ready: Vec<(NodeId, ClientId, RequestId, LogIndex)>,
}

impl TestCluster {
    pub fn new(n: usize, cfg: &ProtocolConfig) -> TestCluster {
        let membership: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let nodes = membership
            .iter()
            .map(|&id| Some(Node::new(id, membership.clone(), cfg.clone(), MemLog::new(), 42)))
            .collect();
        TestCluster {
            nodes,
            pending: VecDeque::new(),
            responses: Vec::new(),
            applied: vec![Vec::new(); n],
            now: Time::ZERO,
            partitions: Vec::new(),
            snapshots_installed: Vec::new(),
            reads_ready: Vec::new(),
        }
    }

    pub fn node(&self, id: u32) -> &Node<MemLog> {
        self.nodes[id as usize].as_ref().expect("node alive")
    }

    pub fn node_mut(&mut self, id: u32) -> &mut Node<MemLog> {
        self.nodes[id as usize].as_mut().expect("node alive")
    }

    fn dropped(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions.iter().any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    /// Collect outputs of a node interaction into the cluster queues.
    pub fn absorb(&mut self, from: NodeId, outputs: Vec<Output>) {
        for o in outputs {
            match o {
                Output::Send { to, msg } => {
                    if !self.dropped(from, to) && self.nodes[to.as_usize()].is_some() {
                        self.pending.push_back(InFlight { from, to, msg });
                    }
                }
                Output::Respond { client, resp } => self.responses.push((from, client, resp)),
                Output::Apply { entry } => self.applied[from.as_usize()].push(entry),
                Output::RestoreSnapshot { last_index, .. } => {
                    self.snapshots_installed.push((from, last_index));
                }
                Output::ReadReady { client, request, read_index } => {
                    self.reads_ready.push((from, client, request, read_index));
                }
                Output::ElectedLeader { .. } => {}
            }
        }
    }

    /// Deliver one specific pending message (by position).
    pub fn deliver_at(&mut self, pos: usize) {
        let m = self.pending.remove(pos).expect("message exists");
        let now = self.now;
        let mut out = Vec::new();
        if let Some(node) = self.nodes[m.to.as_usize()].as_mut() {
            node.handle_message(m.from, m.msg, now, &mut out);
        }
        self.absorb(m.to, out);
    }

    /// Deliver messages FIFO until quiescent (or the step budget runs out).
    pub fn pump(&mut self) {
        let mut steps = 0;
        while !self.pending.is_empty() {
            self.deliver_at(0);
            steps += 1;
            assert!(steps < 1_000_000, "message storm: cluster did not quiesce");
        }
    }

    /// Advance the virtual clock and tick every node.
    pub fn tick(&mut self, delta: TimeDelta) {
        self.now += delta;
        let now = self.now;
        for id in 0..self.nodes.len() {
            let mut out = Vec::new();
            if let Some(node) = self.nodes[id].as_mut() {
                node.tick(now, &mut out);
            }
            self.absorb(NodeId(id as u32), out);
        }
    }

    /// Elect node `id` leader deterministically: it campaigns, everyone else
    /// stays quiet, messages are pumped to quiescence.
    pub fn elect(&mut self, id: u32) {
        let now = self.now;
        let mut out = Vec::new();
        self.node_mut(id).campaign(now, &mut out);
        self.absorb(NodeId(id), out);
        self.pump();
        assert_eq!(self.node(id).role(), Role::Leader, "node {id} should be leader");
    }

    /// Send a client request to node `to`.
    pub fn client_request(&mut self, to: u32, client: u64, request: u64, payload: &[u8]) {
        let req = ClientRequest {
            client: ClientId(client),
            request: RequestId(request),
            payload: Bytes::copy_from_slice(payload),
        };
        let now = self.now;
        let mut out = Vec::new();
        self.node_mut(to).handle_client(req, now, &mut out);
        self.absorb(NodeId(to), out);
    }

    /// Crash a node (messages to it are discarded; its state is dropped —
    /// MemLog is volatile, modelling the paper's loss scenarios).
    pub fn crash(&mut self, id: u32) {
        self.nodes[id as usize] = None;
        self.pending.retain(|m| m.to != NodeId(id) && m.from != NodeId(id));
    }

    /// Responses of a given kind received by a client.
    pub fn responses_for(&self, client: u64) -> Vec<&ClientResponse> {
        self.responses
            .iter()
            .filter(|(_, c, _)| *c == ClientId(client))
            .map(|(_, _, r)| r)
            .collect()
    }

    /// Indices of pending messages matching a predicate.
    pub fn find_pending(&self, f: impl Fn(&InFlight) -> bool) -> Vec<usize> {
        self.pending.iter().enumerate().filter(|(_, m)| f(m)).map(|(i, _)| i).collect()
    }

    /// Assert all living nodes hold identical (index, term) log contents up
    /// to the minimum commit index, and return that index.
    pub fn assert_committed_prefix_consistent(&self) -> LogIndex {
        let commits: Vec<LogIndex> =
            self.nodes.iter().flatten().map(|n| n.commit_index()).collect();
        let min_commit = commits.iter().copied().min().unwrap_or(LogIndex::ZERO);
        // Compare every index each pair of nodes both still retains (a node
        // may have compacted its prefix away after snapshotting).
        for i in 1..=min_commit.0 {
            let idx = LogIndex(i);
            let terms: Vec<Term> =
                self.nodes.iter().flatten().filter_map(|n| n.log().term_of(idx)).collect();
            assert!(terms.windows(2).all(|w| w[0] == w[1]), "nodes disagree at {idx}: {terms:?}");
        }
        min_commit
    }
}

/// Deterministic xorshift for chaos decisions (keeps rand out of the test).
pub struct Rand(pub u64);

impl Rand {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    pub fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}
