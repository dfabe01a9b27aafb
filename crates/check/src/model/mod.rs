//! Exhaustive-state safety and liveness checker for the NB-Raft engine.
//!
//! Drives the pure sans-I/O [`nbr_core::Node`] step functions over all
//! interleavings of a small bounded world — `n` replicas, one closed-loop
//! client, a handful of client operations — and asserts the paper's safety
//! properties in every reachable state:
//!
//! * **ElectionSafety** — at most one leader per term.
//! * **LogMatching** — two logs agreeing on the term at an index agree on
//!   every entry up to that index.
//! * **LeaderCompleteness** — a newly elected leader holds every entry that
//!   was committed in any earlier term (the term of the replica first seen
//!   committing it; a leader elected late in an old term by a stale vote
//!   may lack what a newer term committed, and can commit nothing).
//! * **StateMachineSafety** — no two replicas apply different entries at the
//!   same index, and each replica applies in strict index order.
//!
//! plus three NB-Raft-specific invariants (NB-1 window adjacency and strict
//! apply order, NB-2 weak-accepts are majority-backed, NB-3 opList retry is
//! exactly-once), and — with `--liveness` — the fairness-conditioned
//! liveness property that every issued op is eventually `Confirmed` (see
//! [`liveness`]).
//!
//! The world is explored depth-first with fingerprint deduplication.
//! Fingerprints are *canonical* by default (see [`reduce`]): states are
//! hashed under every rotation of the node-id ring (leader-relative
//! renaming), with in-flight messages grouped per channel and instants
//! taken relative to the world clock — three sound quotients that shrink
//! the distinct-state count several-fold and make 4–5 node configurations
//! tractable. Commuting message deliveries are additionally pruned by a
//! one-step sleep-set partial-order reduction that cuts transitions without
//! losing state coverage. `--no-reduce` restores the raw enumeration; the
//! reduction-ratio mode runs both and reports the factor.
//!
//! Nondeterminism is budgeted per the paper's failure model: bounded
//! message reorder (a per-channel reorder window of 2), bounded duplication
//! and loss, and budgeted leader crashes (two sequential crashes at 4
//! nodes). Every (window, phase) pair is additionally explored per
//! append-batch cap `b`: each node's outputs pass through
//! [`nbr_core::settle_outputs`], as the replica loop's do, and an Append may
//! merge into the channel's newest still-queued frame — so multi-entry
//! frames face the same reorder, dup, and loss adversary as singles, and
//! the client gets the replies a TCP client gets. The report carries
//! coverage counters (elections, commits, weak accepts, crashes, gap hints
//! observed) so a vacuous run is detectable, and per-invariant evaluation
//! counts for the machine-readable stats output.

mod explore;
mod liveness;
mod reduce;
mod state;

pub use state::Counts;

use explore::ExploreOpts;
use state::{Wire, World};

/// Fault budgets for one exploration phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Client operations issued in total.
    pub max_ops: u8,
    /// Messages that may be duplicated.
    pub dup: u8,
    /// Messages that may be dropped.
    pub drop: u8,
    /// Leader crash-stops.
    pub crash: u8,
    /// Election-timeout firings.
    pub elections: u8,
    /// Leader heartbeat firings.
    pub heartbeats: u8,
    /// Client request-timeout firings.
    pub client_ticks: u8,
}

/// The three standard 3-node phases: fault-free, lossy network, leader
/// crash.
pub fn standard_phases() -> Vec<Phase> {
    vec![
        Phase {
            name: "fault-free",
            max_ops: 2,
            dup: 0,
            drop: 0,
            crash: 0,
            elections: 1,
            heartbeats: 2,
            client_ticks: 0,
        },
        Phase {
            name: "lossy-network",
            max_ops: 2,
            dup: 1,
            drop: 1,
            crash: 0,
            elections: 1,
            heartbeats: 1,
            client_ticks: 1,
        },
        Phase {
            name: "leader-crash",
            max_ops: 2,
            dup: 0,
            drop: 0,
            crash: 1,
            elections: 2,
            heartbeats: 2,
            client_ticks: 2,
        },
    ]
}

/// Phases for an `n`-node world. 3 nodes keep the historical set; larger
/// groups run the paper's target scenario — 3 client ops with two
/// *sequential* leader crashes (the crash gate requires a leader with a
/// commit, so the second crash necessarily lands on the re-elected leader)
/// — plus the fault-free pipeline phase.
pub fn phases_for_nodes(n: usize) -> Vec<Phase> {
    if n <= 3 {
        return standard_phases();
    }
    vec![
        Phase {
            name: "fault-free",
            max_ops: 3,
            dup: 0,
            drop: 0,
            crash: 0,
            elections: 1,
            heartbeats: 2,
            client_ticks: 0,
        },
        Phase {
            name: "double-crash",
            max_ops: 3,
            dup: 0,
            drop: 0,
            crash: 2,
            elections: 3,
            heartbeats: 3,
            client_ticks: 2,
        },
    ]
}

/// Phases for liveness runs: repair budgets (elections, heartbeats, client
/// ticks) that let every fault heal. The graph need not exhaust — pending
/// states whose forward cone touches the truncation frontier are censored,
/// not judged (see [`liveness`]) — but larger caps shrink the censored set.
pub fn liveness_phases() -> Vec<Phase> {
    vec![
        Phase {
            name: "heal-after-loss",
            max_ops: 2,
            dup: 0,
            drop: 1,
            crash: 0,
            elections: 1,
            heartbeats: 2,
            client_ticks: 2,
        },
        Phase {
            name: "heal-after-crash",
            max_ops: 2,
            dup: 0,
            drop: 0,
            crash: 1,
            elections: 2,
            heartbeats: 2,
            client_ticks: 2,
        },
    ]
}

/// Checker configuration.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Replica count (3 = historical bounds; 4–5 need the reductions).
    pub nodes: usize,
    /// Window sizes to explore (`0` = stock Raft).
    pub windows: Vec<usize>,
    /// Append batch caps to explore (`1` = unbatched).
    pub batches: Vec<usize>,
    /// Distinct-state cap per (window, batch, phase) run.
    pub max_states_per_run: usize,
    /// Overall distinct-state floor; fewer explored states fails the check.
    pub min_states_total: usize,
    /// Print per-run statistics.
    pub verbose: bool,
    /// Canonical fingerprints + sleep-set POR (`false` = raw enumeration).
    pub reduce: bool,
    /// Run the liveness pass instead of the safety phases.
    pub liveness: bool,
    /// Explore each setting both reduced and unreduced and report the
    /// state-count ratio.
    pub compare_reduction: bool,
    /// Only expand states shallower than this depth. With a limit both the
    /// reduced and the raw exploration exhaust the same min-depth ball, so
    /// the compare-reduction ratio counts the same reachable set two ways —
    /// without one, open-ended phases hit the state cap on both sides and
    /// the ratio degenerates toward 1.
    pub depth_limit: Option<u32>,
    /// Run only the phase with this name (compare-reduction CI uses one
    /// phase to keep the raw baseline affordable).
    pub phase_filter: Option<String>,
}

impl ModelConfig {
    /// Full-depth defaults.
    pub fn full() -> ModelConfig {
        ModelConfig {
            nodes: 3,
            windows: vec![0, 1, 2],
            batches: vec![1, 2],
            max_states_per_run: 40_000,
            min_states_total: 10_000,
            verbose: false,
            reduce: true,
            liveness: false,
            compare_reduction: false,
            depth_limit: None,
            phase_filter: None,
        }
    }
}

/// What the exploration actually witnessed — guards against a vacuous model
/// that never reaches the states the invariants quantify over.
#[derive(Debug, Default, Clone, Copy)]
pub struct Coverage {
    /// Most terms with an elected leader on any single path.
    pub elections: usize,
    /// Most committed entries on any single path.
    pub commits: usize,
    /// Highest applied index on any single path.
    pub applies: u64,
    /// WEAK_ACCEPT responses observed on any single path.
    pub weak_accepts: u16,
    /// Whether a leader crash was explored.
    pub crashes: bool,
    /// Largest entry count in any in-flight `AppendEntry` — proves the
    /// batched runs actually delivered multi-entry frames.
    pub append_batch: u8,
    /// Most damped gap-hint `Mismatch { resend_from }` repair requests sent
    /// on any single path (PR 6's fast repair trigger).
    pub gap_hints: u64,
}

impl Coverage {
    fn fold(&mut self, w: &World) {
        self.elections = self.elections.max(w.leaders.len());
        self.commits = self.commits.max(w.committed.len());
        self.applies = self.applies.max(w.last_applied.iter().copied().max().unwrap_or(0));
        self.weak_accepts = self.weak_accepts.max(w.weak_seen);
        self.crashes |= w.crashed.iter().any(|&c| c);
        for wire in &w.wires {
            if let Wire::Node { msg: nbr_types::Message::AppendEntry(m), .. } = wire {
                self.append_batch = self.append_batch.max(m.entries.len() as u8);
            }
        }
        let hints: u64 = w.nodes.iter().map(|n| n.stats.gap_hints).sum();
        self.gap_hints = self.gap_hints.max(hints);
    }

    fn merge(&mut self, other: Coverage) {
        self.elections = self.elections.max(other.elections);
        self.commits = self.commits.max(other.commits);
        self.applies = self.applies.max(other.applies);
        self.weak_accepts = self.weak_accepts.max(other.weak_accepts);
        self.crashes |= other.crashes;
        self.append_batch = self.append_batch.max(other.append_batch);
        self.gap_hints = self.gap_hints.max(other.gap_hints);
    }
}

/// Summary of one (window, batch, phase) run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    pub window: usize,
    pub batch: usize,
    pub phase: &'static str,
    pub states: usize,
    pub exhausted: bool,
    pub canonicalized: usize,
    pub por_skipped: usize,
    /// Unreduced state count of the same setting (reduction-compare mode).
    pub unreduced_states: Option<usize>,
    /// Liveness statistics (liveness mode).
    pub liveness: Option<LivenessSummary>,
}

/// The liveness numbers carried per run (flattened from
/// [`liveness::LivenessStats`]).
#[derive(Debug, Clone, Copy)]
pub struct LivenessSummary {
    pub graph_states: usize,
    pub pending: usize,
    pub targets: usize,
    pub frontier: usize,
    pub censored: usize,
    pub excused_wedges: usize,
    pub pending_sccs: usize,
}

/// Statistics from one full `run`.
#[derive(Debug, Default, Clone)]
pub struct ModelReport {
    /// Distinct states across all runs.
    pub distinct_states: usize,
    /// Transitions taken across all runs.
    pub transitions: usize,
    /// Deepest state reached.
    pub max_depth: u32,
    /// Runs that hit `max_states_per_run` before exhausting.
    pub truncated_runs: usize,
    /// Aggregate coverage across all runs.
    pub coverage: Coverage,
    /// Distinct raw states that collapsed onto already-seen canonical
    /// classes.
    pub states_canonicalized: usize,
    /// Delivery transitions pruned by the sleep-set reduction.
    pub por_skipped: usize,
    /// Per-invariant evaluation counts summed over all transitions.
    pub counts: Counts,
    /// Per-run summaries.
    pub runs: Vec<RunSummary>,
    /// Totals for reduction-compare mode: (reduced, unreduced) distinct
    /// states over settings where the comparison was valid (reduced run
    /// exhausted or both capped).
    pub reduction: Option<(usize, usize)>,
}

impl ModelReport {
    /// Unreduced-to-reduced state ratio (compare mode only). A lower bound
    /// when the unreduced side hit the cap.
    pub fn reduction_ratio(&self) -> Option<f64> {
        match self.reduction {
            Some((reduced, unreduced)) if reduced > 0 => Some(unreduced as f64 / reduced as f64),
            _ => None,
        }
    }
}

/// A safety or liveness violation with the action trace that reaches it.
#[derive(Debug, Clone)]
pub struct ModelViolation {
    /// Which invariant failed.
    pub invariant: String,
    /// Node count, window size and phase of the failing run.
    pub setting: String,
    /// Action labels from the initial state to the violation.
    pub trace: Vec<String>,
}

/// Run the checker. Returns the aggregate report or the first violation.
pub fn run(cfg: &ModelConfig) -> Result<ModelReport, Box<ModelViolation>> {
    let mut report = ModelReport::default();
    let mut phases = if cfg.liveness { liveness_phases() } else { phases_for_nodes(cfg.nodes) };
    if let Some(f) = &cfg.phase_filter {
        phases.retain(|p| p.name == f.as_str());
        if phases.is_empty() {
            return Err(Box::new(ModelViolation {
                invariant: format!("--phase {f} matches no phase at these bounds"),
                setting: format!("nodes={}", cfg.nodes),
                trace: Vec::new(),
            }));
        }
    }
    for &window in &cfg.windows {
        for &batch in &cfg.batches {
            for &phase in &phases {
                if cfg.liveness {
                    run_liveness_setting(cfg, window, batch, phase, &mut report)?;
                } else {
                    run_safety_setting(cfg, window, batch, phase, &mut report)?;
                }
            }
        }
    }
    Ok(report)
}

fn run_safety_setting(
    cfg: &ModelConfig,
    window: usize,
    batch: usize,
    phase: Phase,
    report: &mut ModelReport,
) -> Result<(), Box<ModelViolation>> {
    let opts = ExploreOpts {
        reduce: cfg.reduce,
        por: cfg.reduce,
        capture_graph: false,
        depth_limit: cfg.depth_limit,
    };
    let run = explore::explore(cfg.nodes, window, batch, phase, cfg, &opts)?;
    report.distinct_states += run.states;
    report.transitions += run.transitions;
    report.max_depth = report.max_depth.max(run.max_depth);
    if !run.exhausted {
        report.truncated_runs += 1;
    }
    report.coverage.merge(run.coverage);
    report.states_canonicalized += run.canonicalized;
    report.por_skipped += run.por_skipped;
    report.counts.add(&run.counts);
    let mut summary = RunSummary {
        window,
        batch,
        phase: phase.name,
        states: run.states,
        exhausted: run.exhausted,
        canonicalized: run.canonicalized,
        por_skipped: run.por_skipped,
        unreduced_states: None,
        liveness: None,
    };
    if cfg.compare_reduction {
        // Same setting, raw fingerprints, no POR — the baseline this PR's
        // reductions are measured against. Run depth-limited (`--depth`) so
        // both sides exhaust the same min-depth ball and the ratio counts
        // one reachable set two ways; without a limit a capped baseline
        // still gives a lower bound on the true ratio.
        let raw_opts = ExploreOpts {
            reduce: false,
            por: false,
            capture_graph: false,
            depth_limit: cfg.depth_limit,
        };
        let raw = explore::explore(cfg.nodes, window, batch, phase, cfg, &raw_opts)?;
        summary.unreduced_states = Some(raw.states);
        let (r, u) = report.reduction.unwrap_or((0, 0));
        report.reduction = Some((r + run.states, u + raw.states));
        report.transitions += raw.transitions;
    }
    if cfg.verbose {
        eprintln!(
            "  window={window} batch={batch} phase={:<13} states={} transitions={} depth<={} commits={} weak={} canon={} por_skipped={}{}{}",
            phase.name,
            run.states,
            run.transitions,
            run.max_depth,
            run.coverage.commits,
            run.coverage.weak_accepts,
            run.canonicalized,
            run.por_skipped,
            match summary.unreduced_states {
                Some(u) => format!(" unreduced={u}"),
                None => String::new(),
            },
            if run.exhausted { "" } else { " (capped)" }
        );
    }
    report.runs.push(summary);
    Ok(())
}

fn run_liveness_setting(
    cfg: &ModelConfig,
    window: usize,
    batch: usize,
    phase: Phase,
    report: &mut ModelReport,
) -> Result<(), Box<ModelViolation>> {
    let stats = liveness::check_liveness(cfg.nodes, window, batch, phase, cfg)?;
    report.distinct_states += stats.explored_states;
    report.transitions += stats.transitions;
    report.max_depth = report.max_depth.max(stats.max_depth);
    let summary = LivenessSummary {
        graph_states: stats.states,
        pending: stats.pending,
        targets: stats.targets,
        frontier: stats.frontier,
        censored: stats.censored,
        excused_wedges: stats.excused_wedges,
        pending_sccs: stats.pending_sccs,
    };
    if !stats.exhausted() {
        report.truncated_runs += 1;
    }
    if cfg.verbose {
        eprintln!(
            "  window={window} batch={batch} phase={:<15} graph={} pending={} targets={} frontier={} censored={} excused={} sccs={}",
            phase.name,
            stats.states,
            stats.pending,
            stats.targets,
            stats.frontier,
            stats.censored,
            stats.excused_wedges,
            stats.pending_sccs,
        );
    }
    report.runs.push(RunSummary {
        window,
        batch,
        phase: phase.name,
        states: stats.explored_states,
        exhausted: stats.exhausted(),
        canonicalized: 0,
        por_skipped: 0,
        unreduced_states: None,
        liveness: Some(summary),
    });
    Ok(())
}

/// Render the machine-readable stats summary (hand-rolled JSON: the
/// workspace deliberately has no serde).
pub fn stats_json(report: &ModelReport, cfg: &ModelConfig) -> String {
    let mut s = String::with_capacity(2048);
    s.push_str("{\n");
    s.push_str(&format!("  \"nodes\": {},\n", cfg.nodes));
    s.push_str(&format!("  \"reduce\": {},\n", cfg.reduce));
    s.push_str(&format!("  \"liveness\": {},\n", cfg.liveness));
    match cfg.depth_limit {
        Some(d) => s.push_str(&format!("  \"depth_limit\": {d},\n")),
        None => s.push_str("  \"depth_limit\": null,\n"),
    }
    s.push_str(&format!("  \"states_explored\": {},\n", report.distinct_states));
    s.push_str(&format!("  \"states_canonicalized\": {},\n", report.states_canonicalized));
    s.push_str(&format!("  \"por_skipped\": {},\n", report.por_skipped));
    s.push_str(&format!("  \"max_depth\": {},\n", report.max_depth));
    s.push_str(&format!("  \"transitions\": {},\n", report.transitions));
    s.push_str(&format!("  \"truncated_runs\": {},\n", report.truncated_runs));
    let c = &report.counts;
    s.push_str("  \"invariants\": {\n");
    s.push_str(&format!("    \"election_safety\": {},\n", c.election_safety));
    s.push_str(&format!("    \"leader_completeness\": {},\n", c.leader_completeness));
    s.push_str(&format!("    \"log_matching\": {},\n", c.log_matching));
    s.push_str(&format!("    \"state_machine_safety\": {},\n", c.state_machine_safety));
    s.push_str(&format!("    \"nb1\": {},\n", c.nb1));
    s.push_str(&format!("    \"nb2\": {},\n", c.nb2));
    s.push_str(&format!("    \"nb3\": {}\n", c.nb3));
    s.push_str("  },\n");
    let cov = &report.coverage;
    s.push_str("  \"coverage\": {\n");
    s.push_str(&format!("    \"elections\": {},\n", cov.elections));
    s.push_str(&format!("    \"commits\": {},\n", cov.commits));
    s.push_str(&format!("    \"applies\": {},\n", cov.applies));
    s.push_str(&format!("    \"weak_accepts\": {},\n", cov.weak_accepts));
    s.push_str(&format!("    \"crashes\": {},\n", cov.crashes));
    s.push_str(&format!("    \"append_batch\": {},\n", cov.append_batch));
    s.push_str(&format!("    \"gap_hints\": {}\n", cov.gap_hints));
    s.push_str("  },\n");
    match (report.reduction, report.reduction_ratio()) {
        (Some((reduced, unreduced)), Some(ratio)) => {
            s.push_str("  \"reduction\": {\n");
            s.push_str(&format!("    \"reduced_states\": {reduced},\n"));
            s.push_str(&format!("    \"unreduced_states\": {unreduced},\n"));
            s.push_str(&format!("    \"ratio\": {ratio:.2}\n"));
            s.push_str("  },\n");
        }
        _ => s.push_str("  \"reduction\": null,\n"),
    }
    s.push_str("  \"runs\": [\n");
    for (i, r) in report.runs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"window\": {}, \"batch\": {}, \"phase\": \"{}\", \"states\": {}, \"exhausted\": {}, \"canonicalized\": {}, \"por_skipped\": {}",
            r.window, r.batch, r.phase, r.states, r.exhausted, r.canonicalized, r.por_skipped
        ));
        if let Some(u) = r.unreduced_states {
            s.push_str(&format!(", \"unreduced_states\": {u}"));
        }
        if let Some(l) = &r.liveness {
            s.push_str(&format!(
                ", \"liveness\": {{\"graph_states\": {}, \"pending\": {}, \"targets\": {}, \"frontier\": {}, \"censored\": {}, \"excused_wedges\": {}, \"pending_sccs\": {}}}",
                l.graph_states, l.pending, l.targets, l.frontier, l.censored, l.excused_wedges, l.pending_sccs
            ));
        }
        s.push('}');
        if i + 1 < report.runs.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cap: usize) -> ModelConfig {
        ModelConfig {
            nodes: 3,
            windows: vec![1],
            batches: vec![1],
            max_states_per_run: cap,
            min_states_total: 0,
            verbose: false,
            reduce: true,
            liveness: false,
            compare_reduction: false,
            depth_limit: None,
            phase_filter: None,
        }
    }

    fn explore_with(
        nodes: usize,
        window: usize,
        batch: usize,
        phase: Phase,
        cap: usize,
        opts: &ExploreOpts,
    ) -> explore::RunStats {
        explore::explore(nodes, window, batch, phase, &cfg(cap), opts).expect("no safety violation")
    }

    const REDUCED: ExploreOpts =
        ExploreOpts { reduce: true, por: true, capture_graph: false, depth_limit: None };
    const RAW: ExploreOpts =
        ExploreOpts { reduce: false, por: false, capture_graph: false, depth_limit: None };

    fn at_depth(base: &ExploreOpts, d: u32) -> ExploreOpts {
        ExploreOpts {
            reduce: base.reduce,
            por: base.por,
            capture_graph: base.capture_graph,
            depth_limit: Some(d),
        }
    }

    #[test]
    fn fault_free_window1_is_clean() {
        let phase = standard_phases()[0];
        let r = explore_with(3, 1, 1, phase, 1_500, &REDUCED);
        assert!(r.states > 100, "explored only {} states", r.states);
        assert!(r.transitions > r.states);
        assert!(r.coverage.elections > 0, "model must at least elect a leader");
    }

    #[test]
    fn window_zero_is_stock_raft_and_clean() {
        let phase = standard_phases()[0];
        explore_with(3, 0, 1, phase, 1_000, &REDUCED);
    }

    #[test]
    fn batched_appends_window1_is_clean() {
        let phase = standard_phases()[0];
        let r = explore_with(3, 1, 2, phase, 1_500, &REDUCED);
        assert!(r.states > 100, "explored only {} states", r.states);
        assert!(r.coverage.commits > 0, "batched run must still commit entries");
        assert!(
            r.coverage.append_batch >= 2,
            "batched run never put a multi-entry Append on the wire (vacuous)"
        );
    }

    #[test]
    fn exploration_is_deterministic() {
        let phase = standard_phases()[0];
        let a = explore_with(3, 1, 1, phase, 400, &REDUCED);
        let b = explore_with(3, 1, 1, phase, 400, &REDUCED);
        assert_eq!(a.states, b.states, "distinct-state counts must be reproducible");
        assert_eq!(a.transitions, b.transitions, "transition counts must be reproducible");
    }

    /// Depth used by the reduction tests: deep enough that the min-depth
    /// ball contains elections, weak accepts and commits (measured: ~5.2k
    /// reduced / ~14.1k raw states at depth 7), small enough that both the
    /// reduced and the raw exploration exhaust it in debug builds.
    const BALL: u32 = 7;

    #[test]
    fn reduction_shrinks_the_state_space() {
        // Both runs exhaust the same min-depth ball, so the counts measure
        // one reachable set under two fingerprints — an honest ratio.
        let phase = standard_phases()[0];
        let reduced = explore_with(3, 1, 1, phase, 200_000, &at_depth(&REDUCED, BALL));
        let raw = explore_with(3, 1, 1, phase, 200_000, &at_depth(&RAW, BALL));
        assert!(reduced.exhausted, "reduced ball must exhaust ({})", reduced.states);
        assert!(raw.exhausted, "raw ball must exhaust ({})", raw.states);
        assert!(
            reduced.states < raw.states,
            "canonicalization must merge states: reduced={} raw={}",
            reduced.states,
            raw.states
        );
        assert!(reduced.canonicalized > 0, "no raw state collapsed onto a canonical class");
    }

    #[test]
    fn por_preserves_state_coverage() {
        // Sleep sets prune transitions, never states: with POR off, the same
        // canonical state set must be found over the same exhausted ball.
        let phase = standard_phases()[0];
        let with_por = explore_with(3, 1, 1, phase, 200_000, &at_depth(&REDUCED, BALL));
        let no_por = explore_with(
            3,
            1,
            1,
            phase,
            200_000,
            &ExploreOpts {
                reduce: true,
                por: false,
                capture_graph: false,
                depth_limit: Some(BALL),
            },
        );
        assert!(with_por.exhausted && no_por.exhausted);
        assert_eq!(with_por.states, no_por.states, "POR must not change the distinct-state count");
        assert!(with_por.por_skipped > 0, "POR never pruned a transition (vacuous)");
        assert!(with_por.transitions < no_por.transitions, "POR must cut executed transitions");
    }

    #[test]
    fn four_node_reduced_run_is_clean() {
        let phase = phases_for_nodes(4)[0];
        let r = explore::explore(4, 1, 1, phase, &cfg(3_000), &REDUCED)
            .expect("4-node fault-free run must be clean");
        assert!(r.states > 500);
        assert!(r.coverage.elections > 0);
    }

    #[test]
    fn gap_hint_fires_under_drop_schedules() {
        // PR 6 regression: drop an append, cache its successor, let a
        // heartbeat advance time past the quarter-heartbeat damping, then a
        // duplicate cached arrival on the same gap must send the
        // `Mismatch { resend_from }` repair hint.
        let phase = standard_phases()[1]; // lossy-network: dup 1, drop 1
        let r = explore_with(3, 2, 1, phase, 40_000, &REDUCED);
        assert!(
            r.coverage.gap_hints > 0,
            "gap hint unreachable under drop schedules (explored {} states)",
            r.states
        );
    }

    #[test]
    fn gap_hint_silent_under_pure_reorder() {
        // Deliveries are instantaneous in the model: reorder without any
        // time advance must stay inside the damping window, so no hint is
        // ever sent — loss (a retransmission round after a timer) is what
        // the hint is for. Three ops guarantee real window gaps form.
        let phase = Phase {
            name: "pure-reorder",
            max_ops: 3,
            dup: 0,
            drop: 0,
            crash: 0,
            elections: 1,
            heartbeats: 0,
            client_ticks: 0,
        };
        // No exhaustion needed for this absence claim: with zero heartbeat
        // and client-tick budgets the clock never advances after the
        // election, so `now - gap_since` stays below the damping patience on
        // *every* path, explored or not — the cap only bounds the witness
        // set the assertion is checked over.
        let r = explore_with(3, 2, 1, phase, 40_000, &REDUCED);
        assert!(r.coverage.weak_accepts > 0, "no window gap ever formed (vacuous)");
        assert_eq!(r.coverage.gap_hints, 0, "damping must absorb pure in-flight reorder");
    }

    /// Diagnostic, not a check: prints exhaustion sizes for candidate phase
    /// budgets so caps and CI budgets can be tuned against measurements.
    /// Run with `cargo test -p nbr-check --release probe_sizes -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn probe_sizes() {
        let mk = |name, ops, dup, drop, crash, el, hb, ct| Phase {
            name,
            max_ops: ops,
            dup,
            drop,
            crash,
            elections: el,
            heartbeats: hb,
            client_ticks: ct,
        };
        let cases = [
            (2, mk("reorder2", 2, 0, 0, 0, 1, 0, 0)),
            (2, mk("reorder3", 3, 0, 0, 0, 1, 0, 0)),
            (1, mk("mini-ff", 2, 0, 0, 0, 1, 1, 0)),
            (1, mk("loss-sm", 1, 0, 1, 0, 1, 1, 1)),
            (1, mk("loss-md", 2, 0, 1, 0, 1, 1, 1)),
            (1, mk("crash-sm", 1, 0, 0, 1, 2, 1, 1)),
        ];
        for (window, phase) in cases {
            let start = std::time::Instant::now();
            let r = explore_with(3, window, 1, phase, 600_000, &REDUCED);
            eprintln!(
                "{:<10} w={window}: states={} transitions={} depth={} exhausted={} hints={} in {:?}",
                phase.name,
                r.states,
                r.transitions,
                r.max_depth,
                r.exhausted,
                r.coverage.gap_hints,
                start.elapsed()
            );
        }
    }

    /// Diagnostic, not a check: min-depth ball sizes (reduced vs raw) per
    /// depth limit, for tuning `BALL` and the CI `--depth` settings.
    /// Run with `cargo test -p nbr-check --release probe_depth -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn probe_depth() {
        for nodes in [3usize, 4] {
            let phase = phases_for_nodes(nodes)[0];
            for d in [6u32, 7, 8, 9, 10] {
                let start = std::time::Instant::now();
                let reduced = explore_with(nodes, 1, 1, phase, 2_000_000, &at_depth(&REDUCED, d));
                let raw = explore_with(nodes, 1, 1, phase, 2_000_000, &at_depth(&RAW, d));
                eprintln!(
                    "n={nodes} d={d}: reduced={} (exh={}) raw={} (exh={}) ratio={:.2} commits={} weak={} in {:?}",
                    reduced.states,
                    reduced.exhausted,
                    raw.states,
                    raw.exhausted,
                    raw.states as f64 / reduced.states as f64,
                    reduced.coverage.commits,
                    reduced.coverage.weak_accepts,
                    start.elapsed()
                );
            }
        }
    }

    #[test]
    fn liveness_heals_after_loss() {
        // The graph truncates at the cap; frontier censoring keeps the
        // verdict sound. The vacuity asserts check the explored region still
        // exercises the property both ways.
        let phase = liveness_phases()[0];
        let mut c = cfg(25_000);
        c.liveness = true;
        let stats = liveness::check_liveness(3, 1, 1, phase, &c)
            .expect("liveness must hold under fairness");
        assert!(stats.targets > 0, "no state ever confirmed everything (vacuous)");
        assert!(stats.pending > 0, "no state ever had pending ops (vacuous)");
        assert!(stats.exhausted() || stats.frontier > 0, "truncated run must report its frontier");
    }
}
