//! Faults as data: one vocabulary and one interpreter for every backend.
//!
//! [`Fault`] is the only way this workspace says "something goes wrong"; the
//! chaos DSL (`nbr-chaos`) is its text form, and nothing translates it into
//! a backend dialect. [`FaultTable::apply`] is its one interpreter: a fault
//! becomes a [`LinkFault`] row per directed link plus per-node clock-skew
//! and disk-stall dials, and only what a backend must *do* to a node comes
//! back, as a [`NodeAction`] (a crash names a [`Target`] that only the
//! backend can resolve, such as whoever leads now). The simulator owns a
//! table; the threaded runtimes share one behind `nbr_cluster::FaultPlane`.
//!
//! Plain data and pure functions: randomness enters as a caller-supplied
//! uniform draw that is only *taken* when the link needs one, so a healthy
//! link consumes none of a backend's seeded stream.

use crate::TimeDelta;
use std::collections::BTreeMap;

/// One fault, backend-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Cut every link between groups `a` and `b`. Symmetric cuts both
    /// directions; asymmetric cuts only `a → b` traffic.
    Partition { a: Vec<u32>, b: Vec<u32>, symmetric: bool },
    /// Clear every cut and gray link (network heal; disks and clocks keep
    /// their state).
    Heal,
    /// Degrade the `from → to` link (both directions when `both`): drop
    /// `drop_pct`% of protocol messages, delay survivors by `delay`. A cut
    /// on the same link stays in force.
    GrayLink { from: u32, to: u32, both: bool, drop_pct: f64, delay: TimeDelta },
    /// Restore one link (both directions when `both`) to healthy, clearing
    /// cuts and gray state on it.
    HealLink { from: u32, to: u32, both: bool },
    /// Set `node`'s clock skew to `by` (its engine sees `now + by`).
    Skew { node: u32, by: TimeDelta },
    /// Stall every WAL write on `node` by `penalty`.
    SlowDisk { node: u32, penalty: TimeDelta },
    /// Clear the slow-disk stall on `node`.
    HealDisk { node: u32 },
    /// Crash the machine `target` names when the fault is applied; a
    /// replica's durable state (WAL / preserved log image) survives.
    Crash { target: Target },
    /// Restart a crashed `node` from its durable state.
    Recover { node: u32 },
    /// Force `node` to start an election (stale-configuration / duplicate
    /// leader probe). Only the simulator can reach into an engine to do it.
    Campaign { node: u32 },
}

impl Fault {
    /// Every replica id this fault names, for a caller to read or renumber.
    /// A crash target that is resolved at apply time names none.
    pub fn nodes_mut(&mut self) -> Vec<&mut u32> {
        match self {
            Fault::Partition { a, b, .. } => a.iter_mut().chain(b).collect(),
            Fault::GrayLink { from, to, .. } | Fault::HealLink { from, to, .. } => vec![from, to],
            Fault::Skew { node, .. }
            | Fault::SlowDisk { node, .. }
            | Fault::HealDisk { node }
            | Fault::Crash { target: Target::Node(node) }
            | Fault::Recover { node }
            | Fault::Campaign { node } => vec![node],
            Fault::Heal | Fault::Crash { target: Target::Leader | Target::Clients } => vec![],
        }
    }
}

/// The machine a [`Fault::Crash`] takes down, resolved by the backend at
/// the instant the fault is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Replica `n`.
    Node(u32),
    /// Whichever replica leads at that instant; none leading, no crash.
    Leader,
    /// The client machine. Only the simulator models one.
    Clients,
}

/// What a backend must do to a node itself; everything else a [`Fault`]
/// means is state in the [`FaultTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeAction {
    /// Stop the target machine, keeping a replica's durable state.
    Crash(Target),
    /// Restart the node from its durable state.
    Recover(u32),
    /// Make the node start an election now.
    Campaign(u32),
}

/// The state of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFault {
    /// Every protocol message on this direction is lost.
    pub cut: bool,
    /// Probability in `[0, 1]` that a protocol message is lost.
    pub drop: f64,
    /// Extra one-way delay of a surviving message, uniform in `[lo, hi)`
    /// (exactly `lo` when `hi <= lo`).
    pub delay: (TimeDelta, TimeDelta),
}

impl LinkFault {
    /// Whether a message on this link is lost. `u` draws uniformly from
    /// `[0, 1)` and is called only on a lossy, uncut link.
    pub fn loses(&self, u: impl FnOnce() -> f64) -> bool {
        self.cut || (self.drop > 0.0 && u() < self.drop)
    }

    /// The extra delay of a surviving message. `u` draws uniformly from
    /// `[0, 1)` and is called only when the delay range is not a point.
    pub fn delay_at(&self, u: impl FnOnce() -> f64) -> TimeDelta {
        let (lo, hi) = self.delay;
        if hi > lo {
            TimeDelta(lo.0 + ((hi.0 - lo.0) as f64 * u()) as u64)
        } else {
            lo
        }
    }

    /// This link's fault on top of a backend's `baseline` emulation: cut if
    /// either is, lost if either independent loss strikes, delays added.
    pub fn over(self, baseline: LinkFault) -> LinkFault {
        LinkFault {
            cut: self.cut || baseline.cut,
            drop: self.drop + baseline.drop - self.drop * baseline.drop,
            delay: (self.delay.0 + baseline.delay.0, self.delay.1 + baseline.delay.1),
        }
    }
}

/// The directed links a `from → to` / `from <-> to` pair names.
fn directions(from: u32, to: u32, both: bool) -> impl Iterator<Item = (u32, u32)> {
    [(from, to), (to, from)].into_iter().take(if both { 2 } else { 1 })
}

/// The live fault state of one cluster: a row per faulty directed link and
/// the per-node clock-skew and disk-stall dials. Ordered maps, so nothing a
/// backend derives from it depends on hash order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTable {
    links: BTreeMap<(u32, u32), LinkFault>,
    skew: BTreeMap<u32, TimeDelta>,
    stall: BTreeMap<u32, TimeDelta>,
}

impl FaultTable {
    /// Fold `fault` into the table. Returns the action the backend must
    /// perform on a node itself, if the fault is one.
    pub fn apply(&mut self, fault: &Fault) -> Option<NodeAction> {
        match fault {
            Fault::Partition { a, b, symmetric } => {
                for &x in a {
                    for &y in b.iter().filter(|&&y| y != x) {
                        for link in directions(x, y, *symmetric) {
                            self.links.entry(link).or_default().cut = true;
                        }
                    }
                }
            }
            Fault::Heal => self.links.clear(),
            Fault::GrayLink { from, to, both, drop_pct, delay } => {
                for link in directions(*from, *to, *both) {
                    let row = self.links.entry(link).or_default();
                    row.drop = (drop_pct / 100.0).clamp(0.0, 1.0);
                    row.delay = (*delay, *delay);
                }
            }
            Fault::HealLink { from, to, both } => {
                for link in directions(*from, *to, *both) {
                    self.links.remove(&link);
                }
            }
            Fault::Skew { node, by } => {
                self.skew.insert(*node, *by);
            }
            Fault::SlowDisk { node, penalty } => {
                self.stall.insert(*node, *penalty);
            }
            Fault::HealDisk { node } => {
                self.stall.remove(node);
            }
            Fault::Crash { target } => return Some(NodeAction::Crash(*target)),
            Fault::Recover { node } => return Some(NodeAction::Recover(*node)),
            Fault::Campaign { node } => return Some(NodeAction::Campaign(*node)),
        }
        None
    }

    /// The state of directed link `from → to` (healthy when it has no row).
    pub fn link(&self, from: u32, to: u32) -> LinkFault {
        self.links.get(&(from, to)).copied().unwrap_or_default()
    }

    /// How far ahead `node`'s clock runs.
    pub fn skew(&self, node: u32) -> TimeDelta {
        self.skew.get(&node).copied().unwrap_or_default()
    }

    /// How long every durable write on `node` stalls.
    pub fn stall(&self, node: u32) -> TimeDelta {
        self.stall.get(&node).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> TimeDelta = TimeDelta::from_millis;

    fn never() -> f64 {
        panic!("a draw was taken where the link needs none")
    }

    fn gray(from: u32, to: u32, both: bool) -> Fault {
        Fault::GrayLink { from, to, both, drop_pct: 25.0, delay: MS(3) }
    }

    #[test]
    fn loss_is_decided_at_full_resolution_and_draws_only_when_lossy() {
        // 0.04%: below the old router's per-mille and TCP's basis-point grids.
        let fine = LinkFault { drop: 0.0004, ..LinkFault::default() };
        assert!(fine.loses(|| 0.000_39));
        assert!(!fine.loses(|| 0.0004));
        assert!(!LinkFault::default().loses(never));
        assert!(LinkFault { cut: true, ..LinkFault::default() }.loses(never));
        assert!(LinkFault { drop: 1.0, ..fine }.loses(|| 0.999_999));
    }

    #[test]
    fn delay_interpolates_its_range_and_a_point_range_draws_nothing() {
        let jittered = LinkFault { delay: (MS(5), MS(15)), ..LinkFault::default() };
        assert_eq!(jittered.delay_at(|| 0.0), MS(5));
        assert_eq!(jittered.delay_at(|| 0.5), MS(10));
        assert!(jittered.delay_at(|| 0.999_999) < MS(15));
        let fixed = LinkFault { delay: (MS(3), MS(3)), ..LinkFault::default() };
        assert_eq!(fixed.delay_at(never), MS(3));
        assert_eq!(LinkFault::default().delay_at(never), TimeDelta::ZERO);
    }

    #[test]
    fn a_row_composes_over_a_baseline() {
        let baseline = LinkFault { cut: false, drop: 0.02, delay: (MS(5), MS(15)) };
        // A healthy row leaves the baseline exactly as configured.
        assert_eq!(LinkFault::default().over(baseline), baseline);
        let row = LinkFault { cut: false, drop: 0.25, delay: (MS(3), MS(3)) };
        let both = row.over(baseline);
        assert!(!both.cut);
        assert!((both.drop - (1.0 - 0.75 * 0.98)).abs() < 1e-12, "independent losses");
        assert_eq!(both.delay, (MS(8), MS(18)));
        assert!(LinkFault { cut: true, ..row }.over(baseline).cut);
    }

    #[test]
    fn partitions_cut_the_directions_they_name() {
        let mut t = FaultTable::default();
        t.apply(&Fault::Partition { a: vec![0], b: vec![1, 2], symmetric: false });
        assert!(t.link(0, 1).cut && t.link(0, 2).cut);
        assert!(!t.link(1, 0).cut && !t.link(2, 0).cut, "`{{A}}->{{B}}` is one-way");
        t.apply(&Fault::Partition { a: vec![1], b: vec![1, 2], symmetric: true });
        assert!(t.link(1, 2).cut && t.link(2, 1).cut);
        assert!(!t.link(1, 1).cut, "a node is never cut from itself");
    }

    #[test]
    fn heal_clears_links_but_not_clocks_or_disks() {
        let mut t = FaultTable::default();
        t.apply(&Fault::Partition { a: vec![0], b: vec![1], symmetric: true });
        t.apply(&gray(1, 2, true));
        t.apply(&Fault::Skew { node: 2, by: MS(400) });
        t.apply(&Fault::SlowDisk { node: 1, penalty: MS(3) });
        assert_eq!(t.apply(&Fault::Heal), None);
        for (from, to) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            assert_eq!(t.link(from, to), LinkFault::default(), "{from}->{to}");
        }
        assert_eq!(t.skew(2), MS(400));
        assert_eq!(t.stall(1), MS(3));
        t.apply(&Fault::HealDisk { node: 1 });
        assert_eq!(t.stall(1), TimeDelta::ZERO);
    }

    #[test]
    fn heal_link_clears_both_states_of_the_directions_it_names() {
        let mut t = FaultTable::default();
        t.apply(&gray(0, 1, true));
        assert_eq!(t.link(0, 1), LinkFault { cut: false, drop: 0.25, delay: (MS(3), MS(3)) });
        t.apply(&Fault::Partition { a: vec![0], b: vec![1], symmetric: true });
        assert!(t.link(0, 1).cut && t.link(0, 1).drop == 0.25, "a cut keeps the gray state");
        t.apply(&Fault::HealLink { from: 0, to: 1, both: false });
        assert_eq!(t.link(0, 1), LinkFault::default(), "gray, then cut, then healed: healthy");
        assert!(t.link(1, 0).cut, "`0->1` heals one direction");
        t.apply(&Fault::HealLink { from: 0, to: 1, both: true });
        assert_eq!(t.link(1, 0), LinkFault::default());
        assert_eq!(t, FaultTable::default(), "healed rows leave nothing behind");
    }

    #[test]
    fn node_dials_are_per_node_and_node_faults_are_handed_back() {
        let mut t = FaultTable::default();
        t.apply(&Fault::Skew { node: 1, by: MS(200) });
        assert_eq!((t.skew(0), t.skew(1), t.skew(2)), (TimeDelta::ZERO, MS(200), TimeDelta::ZERO));
        assert_eq!(t.apply(&Fault::Recover { node: 2 }), Some(NodeAction::Recover(2)));
        assert_eq!(t.apply(&Fault::Campaign { node: 0 }), Some(NodeAction::Campaign(0)));
        assert_eq!(t.link(0, 2), LinkFault::default(), "node faults leave the table alone");
    }

    #[test]
    fn crash_targets_are_handed_back_unresolved() {
        let mut t = FaultTable::default();
        for target in [Target::Node(2), Target::Leader, Target::Clients] {
            assert_eq!(t.apply(&Fault::Crash { target }), Some(NodeAction::Crash(target)));
        }
        assert_eq!(t, FaultTable::default(), "a crash is no table state");
    }

    #[test]
    fn nodes_mut_names_every_replica_id_once() {
        let ids = |mut f: Fault| -> Vec<u32> { f.nodes_mut().into_iter().map(|n| *n).collect() };
        let p = Fault::Partition { a: vec![0], b: vec![1, 2], symmetric: true };
        assert_eq!(ids(p), [0, 1, 2]);
        assert_eq!(ids(gray(2, 0, false)), [2, 0]);
        assert_eq!(ids(Fault::Crash { target: Target::Node(1) }), [1]);
        assert!(ids(Fault::Crash { target: Target::Leader }).is_empty());
        assert!(ids(Fault::Heal).is_empty());
        let mut f = Fault::HealLink { from: 0, to: 1, both: true };
        f.nodes_mut().into_iter().for_each(|n| *n += 1);
        assert_eq!(f, Fault::HealLink { from: 1, to: 2, both: true });
    }
}
