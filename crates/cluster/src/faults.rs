//! The fault plane: one [`FaultTable`] shared by everything in a live
//! cluster that injects faults.
//!
//! A harness makes one plane, installs it ([`ClusterConfig::faults`] in
//! process, `nbr_net::ServeConfig::faults` over TCP) and says what goes wrong
//! with [`FaultPlane::apply`] — the same [`Fault`]s the simulator takes.
//! Readers never interpret a fault: the router and the TCP peer writers copy
//! out the [`LinkFault`] row of the link a packet is about to cross, a
//! replica loop adds its node's skew to every `now`, a WAL stalls by its
//! node's disk dial. Those two per-node reads are lock-free atomic mirrors.
//!
//! [`ClusterConfig::faults`]: crate::ClusterConfig::faults

use crate::sync::Mutex;
use nbr_types::{Fault, FaultTable, LinkFault, NodeAction, TimeDelta};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shared, runtime-mutable fault state of one cluster.
#[derive(Debug)]
pub struct FaultPlane {
    table: Mutex<FaultTable>,
    /// The table's clock-skew dial of node `i`, in nanoseconds.
    skew: Vec<AtomicU64>,
    /// The table's disk-stall dial of node `i`, in nanoseconds, in the shape
    /// `WalLog::set_stall` takes.
    stall: Vec<Arc<AtomicU64>>,
}

impl FaultPlane {
    /// An all-healthy plane for node ids `0..nodes`.
    pub fn shared(nodes: usize) -> Arc<FaultPlane> {
        Arc::new(FaultPlane {
            table: Mutex::new(FaultTable::default()),
            skew: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            stall: (0..nodes).map(|_| Arc::default()).collect(),
        })
    }

    /// Apply `fault` to the running cluster. Link, clock and disk faults
    /// take effect through the table; a crash, recover or campaign is handed
    /// back for the caller to carry out on the node.
    pub fn apply(&self, fault: &Fault) -> Option<NodeAction> {
        let mut table = self.table.lock();
        let action = table.apply(fault);
        for (node, (skew, stall)) in (0u32..).zip(self.skew.iter().zip(&self.stall)) {
            skew.store(table.skew(node).as_nanos(), Ordering::Relaxed);
            stall.store(table.stall(node).as_nanos(), Ordering::Relaxed);
        }
        action
    }

    /// A copy of the state of directed link `from → to`; no lock outlives
    /// the call.
    pub fn link(&self, from: u32, to: u32) -> LinkFault {
        self.table.lock().link(from, to)
    }

    /// How far ahead `node`'s clock runs.
    pub fn skew(&self, node: u32) -> TimeDelta {
        TimeDelta(self.skew.get(node as usize).map_or(0, |d| d.load(Ordering::Relaxed)))
    }

    /// `node`'s disk-stall dial, for its WAL to read on every write.
    pub(crate) fn stall_dial(&self, node: u32) -> Option<Arc<AtomicU64>> {
        self.stall.get(node as usize).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbr_types::Target;

    #[test]
    fn node_dials_follow_the_table_one_node_at_a_time() {
        let plane = FaultPlane::shared(3);
        let stall = |n| plane.stall_dial(n).expect("dial").load(Ordering::Relaxed);
        plane.apply(&Fault::Skew { node: 1, by: TimeDelta::from_millis(400) });
        plane.apply(&Fault::SlowDisk { node: 2, penalty: TimeDelta::from_millis(3) });
        assert_eq!(plane.skew(0), TimeDelta::ZERO, "skewing node 1 must not move node 0");
        assert_eq!(plane.skew(1), TimeDelta::from_millis(400));
        assert_eq!((stall(1), stall(2)), (0, 3_000_000));
        // `heal` is a network heal; `heal-disk` clears the stall.
        plane.apply(&Fault::Heal);
        assert_eq!((plane.skew(1), stall(2)), (TimeDelta::from_millis(400), 3_000_000));
        plane.apply(&Fault::HealDisk { node: 2 });
        assert_eq!(stall(2), 0);
        // Out-of-range nodes have no dial and read as healthy.
        plane.apply(&Fault::Skew { node: 9, by: TimeDelta::from_millis(1) });
        assert_eq!(plane.skew(9), TimeDelta::ZERO);
        assert!(plane.stall_dial(9).is_none());
    }

    #[test]
    fn link_rows_are_copied_out_and_node_faults_handed_back() {
        let plane = FaultPlane::shared(3);
        plane.apply(&Fault::Partition { a: vec![0], b: vec![1], symmetric: false });
        assert!(plane.link(0, 1).cut);
        assert_eq!(plane.link(1, 0), LinkFault::default());
        let crash = Fault::Crash { target: Target::Node(2) };
        assert_eq!(plane.apply(&crash), Some(NodeAction::Crash(Target::Node(2))));
    }
}
