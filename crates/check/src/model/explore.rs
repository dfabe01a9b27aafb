//! Depth-first exploration with fingerprint deduplication, optional
//! reductions (canonical fingerprints + one-step sleep sets), and optional
//! state-graph capture for the liveness pass.

use super::reduce::{canonical_fingerprint, raw_fingerprint};
use super::state::{independent, Counts, DeliveryKey, Succ, SuccKind, World};
use super::{Coverage, ModelConfig, ModelViolation, Phase};
use std::collections::{HashMap, HashSet};

/// Outcome of one (window, batch, phase) exploration.
pub(crate) struct RunStats {
    pub(crate) states: usize,
    pub(crate) transitions: usize,
    pub(crate) max_depth: u32,
    pub(crate) exhausted: bool,
    pub(crate) coverage: Coverage,
    /// Distinct raw states that collapsed onto an already-seen canonical
    /// class (0 when reduction is off).
    pub(crate) canonicalized: usize,
    /// Delivery transitions pruned by the sleep-set reduction.
    pub(crate) por_skipped: usize,
    /// Invariant evaluations summed over every generated transition.
    pub(crate) counts: Counts,
    /// Captured state graph (only when `capture_graph` was requested).
    pub(crate) graph: Option<Graph>,
}

/// The explored quotient graph, for the liveness pass.
pub(crate) struct Graph {
    /// Per state id: liveness-relevant metadata.
    pub(crate) states: Vec<StateMeta>,
    /// Directed edges between state ids, including edges into already-seen
    /// states (the quotient graph, not just the DFS tree).
    pub(crate) edges: Vec<(u32, u32)>,
    /// Parent tree (state id -> (parent id, action label)) for traces.
    pub(crate) parents: HashMap<u32, (u32, String)>,
}

#[derive(Clone, Copy)]
pub(crate) struct StateMeta {
    /// The client still has issued-but-unconfirmed operations.
    pub(crate) pending: bool,
    /// Every outgoing transition of this state was generated. States left
    /// unexpanded (by the state cap or a depth limit) form the *frontier*:
    /// the liveness pass treats reaching the frontier as an escape, so a
    /// truncated graph can censor a verdict but never fabricate a violation.
    pub(crate) expanded: bool,
    /// Fairness budgets allow further repair: an election and a heartbeat
    /// are still available, and the client itself can still act (a tick if
    /// a request's latest send is unanswered, a fresh op if it is ready).
    /// Pending states that fail this are excused wedges of the bounded
    /// world — e.g. the final Strong response was dropped and the client has
    /// no action left — not liveness violations.
    pub(crate) fair: bool,
    /// Every issued op is confirmed (`confirmed == issued`) — the liveness
    /// target set.
    pub(crate) target: bool,
}

fn state_meta(w: &World) -> StateMeta {
    let pending = w.client.confirmed() < w.client.issued();
    let client_can_act = (w.client.ready() && w.ops_issued < w.budget.max_ops)
        || (w.client.in_flight() && w.budget.client_ticks >= 1);
    StateMeta {
        pending,
        expanded: false,
        fair: w.budget.elections >= 1 && w.budget.heartbeats >= 1 && client_can_act,
        target: !pending,
    }
}

pub(crate) struct ExploreOpts {
    /// Canonical fingerprints (symmetry + channel grouping + time shift).
    pub(crate) reduce: bool,
    /// One-step sleep-set partial-order reduction. Requires `reduce`: the
    /// commuted delivery orders a pruned edge relies on only hash equal
    /// under channel-grouped wire hashing.
    pub(crate) por: bool,
    /// Record the quotient state graph for the liveness pass. Disables POR
    /// implicitly at the call sites: pruned edges would leave holes in the
    /// graph and turn backward reachability unsound.
    pub(crate) capture_graph: bool,
    /// Expand only states at depth `< limit`; deeper states are counted but
    /// not expanded. The explored set is then exactly the min-depth ball of
    /// radius `limit` (a state rediscovered on a shorter path is re-expanded
    /// at its new depth), which two runs with different fingerprints can
    /// both exhaust — the honest basis for reduction-ratio comparisons.
    pub(crate) depth_limit: Option<u32>,
}

/// Intern `fp` in the graph-id table, pushing metadata for new states.
fn intern(ids: &mut HashMap<u64, u32>, graph: &mut Graph, fp: u64, w: &World) -> u32 {
    let next = ids.len() as u32;
    *ids.entry(fp).or_insert_with(|| {
        graph.states.push(state_meta(w));
        next
    })
}

pub(crate) fn explore(
    nodes: usize,
    window: usize,
    batch: usize,
    phase: Phase,
    cfg: &ModelConfig,
    opts: &ExploreOpts,
) -> Result<RunStats, Box<ModelViolation>> {
    let fp_of = |w: &World| if opts.reduce { canonical_fingerprint(w) } else { raw_fingerprint(w) };
    let setting = format!("nodes={nodes} window={window} batch={batch} phase={}", phase.name);
    let init = World::new(nodes, window, phase, batch);
    let init_fp = fp_of(&init);
    let mut seen: HashSet<u64> = HashSet::new();
    let mut raw_seen: HashSet<u64> = HashSet::new();
    let mut parents: HashMap<u64, (u64, String)> = HashMap::new();
    let mut ids: HashMap<u64, u32> = HashMap::new();
    let mut graph = opts.capture_graph.then(|| Graph {
        states: Vec::new(),
        edges: Vec::new(),
        parents: HashMap::new(),
    });
    if let Some(g) = graph.as_mut() {
        intern(&mut ids, g, init_fp, &init);
    }
    // Depth-first: completes whole executions before permuting early steps.
    // Each stack entry carries its fingerprint and its one-step sleep set:
    // deliveries proven covered by a commuting sibling expanded from the
    // same parent.
    let mut stack: Vec<(World, u64, Vec<DeliveryKey>)> = Vec::new();
    // Shallowest depth each state was pushed at (depth-limited mode only):
    // rediscovering a state on a shorter path re-pushes it so the final
    // explored set is the exact min-depth ball, independent of DFS order.
    let mut best_depth: HashMap<u64, u32> = HashMap::new();
    if opts.depth_limit.is_some() {
        best_depth.insert(init_fp, 0);
    }
    seen.insert(init_fp);
    stack.push((init, init_fp, Vec::new()));
    let mut explored = 0usize;
    let mut transitions = 0usize;
    let mut max_depth = 0u32;
    let mut exhausted = true;
    let mut canonicalized = 0usize;
    let mut por_skipped = 0usize;
    let mut counts = Counts::default();
    let mut coverage = Coverage::default();
    while let Some((w, fp, sleep)) = stack.pop() {
        if explored >= cfg.max_states_per_run {
            exhausted = false;
            break;
        }
        if opts.depth_limit.is_some() && best_depth.get(&fp).is_some_and(|&d| d < w.depth) {
            // Stale entry: a shallower re-push superseded this one.
            continue;
        }
        explored += 1;
        max_depth = max_depth.max(w.depth);
        coverage.fold(&w);
        if opts.depth_limit.is_some_and(|d| w.depth >= d) {
            // Frontier of the depth ball: counted, never expanded.
            continue;
        }
        // Delivery siblings already expanded from this state, for the
        // sleep sets handed to each child.
        let mut taken: Vec<SuccKind> = Vec::new();
        for Succ { label, kind, result } in w.successors() {
            if let SuccKind::Deliver { key, .. } = &kind {
                if sleep.contains(key) {
                    // A commuting sibling expanded first covers this
                    // delivery's target state (diamond closure).
                    por_skipped += 1;
                    continue;
                }
            }
            transitions += 1;
            match result {
                Err(invariant) => {
                    let mut trace = vec![label];
                    let mut cur = fp;
                    while let Some((parent, step)) = parents.get(&cur) {
                        trace.push(step.clone());
                        cur = *parent;
                    }
                    trace.reverse();
                    return Err(Box::new(ModelViolation { invariant, setting, trace }));
                }
                Ok(succ) => {
                    counts.add(&succ.counts.delta(&w.counts));
                    // Fold every generated successor (not only popped ones)
                    // so absence assertions (e.g. "no gap hint fired") are
                    // over all executed transitions.
                    coverage.fold(&succ);
                    let sfp = fp_of(&succ);
                    // Counting raw-state collapses costs a second hash set;
                    // skip it when the graph capture already pays for ids.
                    if opts.reduce
                        && !opts.capture_graph
                        && raw_seen.insert(raw_fingerprint(&succ))
                        && seen.contains(&sfp)
                    {
                        canonicalized += 1;
                    }
                    if let Some(g) = graph.as_mut() {
                        let wid = ids[&fp];
                        let sid = intern(&mut ids, g, sfp, &succ);
                        g.edges.push((wid, sid));
                        if !seen.contains(&sfp) {
                            g.parents.insert(sid, (wid, label.clone()));
                        }
                    }
                    let newly = seen.insert(sfp);
                    let repush = !newly
                        && opts.depth_limit.is_some()
                        && best_depth.get(&sfp).is_some_and(|&d| succ.depth < d);
                    if newly {
                        parents.insert(sfp, (fp, label));
                    }
                    if newly || repush {
                        if opts.depth_limit.is_some() {
                            best_depth.insert(sfp, succ.depth);
                        }
                        let child_sleep = if opts.por {
                            match &kind {
                                SuccKind::Deliver { .. } => taken
                                    .iter()
                                    .filter(|t| independent(t, &kind))
                                    .filter_map(|t| match t {
                                        SuccKind::Deliver { key, .. } => Some(*key),
                                        SuccKind::Other => None,
                                    })
                                    .collect(),
                                SuccKind::Other => Vec::new(),
                            }
                        } else {
                            Vec::new()
                        };
                        stack.push((succ, sfp, child_sleep));
                    }
                }
            }
            if matches!(kind, SuccKind::Deliver { .. }) {
                taken.push(kind);
            }
        }
        // Every outgoing transition of `w` has been generated.
        if let Some(g) = graph.as_mut() {
            g.states[ids[&fp] as usize].expanded = true;
        }
    }
    Ok(RunStats {
        // When the run exhausts, every discovered state was popped exactly
        // once per distinct fingerprint, so the discovered count *is* the
        // distinct-state count (and, depth-limited, the exact ball size).
        // A capped run reports expansions, as before.
        states: if exhausted { seen.len() } else { explored },
        transitions,
        max_depth,
        exhausted,
        coverage,
        canonicalized,
        por_skipped,
        counts,
        graph,
    })
}
