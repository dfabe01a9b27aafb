//! Post-scenario oracles and the JSONL verdict record.
//!
//! Every scenario run produces a [`Verdict`]: a list of named checks (all
//! must pass), plus informational metrics. The safety checks mirror the
//! `nbr-check` model-checker invariants at the whole-system level —
//! election safety from probe traces, committed-prefix agreement from log
//! hashes — and the liveness checks assert bounded-window convergence
//! after the schedule ends.

use nbr_cluster::NodeStatus;
use nbr_obs::{ProbeEvent, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;

/// One named pass/fail oracle result.
#[derive(Debug, Clone)]
pub struct Check {
    /// Oracle name (stable identifier, e.g. `single-leader`).
    pub name: String,
    /// Did it hold?
    pub pass: bool,
    /// Human-readable evidence (observed values).
    pub detail: String,
}

/// The outcome of one scenario on one backend.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Scenario name.
    pub scenario: String,
    /// `"sim"` or `"net"`.
    pub backend: &'static str,
    /// Seed the run is replayable from.
    pub seed: u64,
    /// Individual oracle results.
    pub checks: Vec<Check>,
    /// Informational numbers (throughput, drops, t_wait, ...).
    pub metrics: Vec<(String, f64)>,
}

impl Verdict {
    /// An empty verdict for a scenario/backend/seed triple.
    pub fn new(scenario: &str, backend: &'static str, seed: u64) -> Verdict {
        Verdict {
            scenario: scenario.into(),
            backend,
            seed,
            checks: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Record one oracle result.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.into(), pass, detail: detail.into() });
    }

    /// Record an informational metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Did every check pass?
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Names of the failed checks.
    pub fn failed(&self) -> Vec<&str> {
        self.checks.iter().filter(|c| !c.pass).map(|c| c.name.as_str()).collect()
    }

    /// One JSONL record (hand-rolled; the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"scenario\":\"{}\",\"backend\":\"{}\",\"seed\":{},\"pass\":{},\"checks\":[",
            json_escape(&self.scenario),
            self.backend,
            self.seed,
            self.pass()
        ));
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"pass\":{},\"detail\":\"{}\"}}",
                json_escape(&c.name),
                c.pass,
                json_escape(&c.detail)
            ));
        }
        s.push_str("],\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let v = if v.is_finite() { *v } else { -1.0 };
            s.push_str(&format!("\"{}\":{v}", json_escape(k)));
        }
        s.push_str("}}");
        s
    }

    /// One-line human summary for terminal output.
    pub fn summary(&self) -> String {
        if self.pass() {
            format!("PASS  {:<24} {:<4} seed={}", self.scenario, self.backend, self.seed)
        } else {
            format!(
                "FAIL  {:<24} {:<4} seed={}  [{}]",
                self.scenario,
                self.backend,
                self.seed,
                self.failed().join(", ")
            )
        }
    }
}

/// Append verdicts to `path`, one JSON object per line.
pub fn write_jsonl(path: &Path, verdicts: &[Verdict]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    for v in verdicts {
        writeln!(f, "{}", v.to_json())?;
    }
    Ok(())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Election safety from a probe trace: no term may elect two distinct
/// leaders. Returns `Ok(elections)` or the offending description.
pub fn election_safety(events: &[TraceEvent]) -> Result<u64, String> {
    let mut winners: BTreeMap<u64, u32> = BTreeMap::new();
    let mut elections = 0u64;
    for ev in events {
        if let ProbeEvent::Elected { term } = ev.event {
            elections += 1;
            if let Some(&prev) = winners.get(&term.0) {
                if prev != ev.node.0 {
                    return Err(format!(
                        "term {} elected both node {} and node {}",
                        term.0, prev, ev.node.0
                    ));
                }
            }
            winners.insert(term.0, ev.node.0);
        }
    }
    Ok(elections)
}

/// The lowest commit index among the live replicas (0 when none is live).
pub fn min_live_commit(rows: &[NodeStatus]) -> u64 {
    rows.iter().filter(|r| r.alive).map(|r| r.commit).min().unwrap_or(0)
}

/// The final-state oracles every backend is judged by, over its `trace` and
/// the [`NodeStatus`] each of its replicas ended in (`rows`): election
/// safety, every replica back, exactly one leader and one term among the
/// live ones, the backend's own
/// `convergence` evidence (what "the replicas hold the same state" can be
/// read from differs: log prefix hashes in the sim, commit indexes and
/// state-machine digests over TCP), and — `progress: Some(acks)` — that
/// clients were acked and something committed.
pub fn end_state(
    v: &mut Verdict,
    trace: &[TraceEvent],
    rows: &[NodeStatus],
    convergence: Check,
    progress: Option<u64>,
) {
    match election_safety(trace) {
        Ok(n) => v.check("election-safety", true, format!("{n} elections, no split term")),
        Err(e) => v.check("election-safety", false, e),
    }
    let live = || rows.iter().enumerate().filter(|(_, r)| r.alive);
    let n_live = live().count();
    v.check(
        "all-recovered",
        n_live == rows.len(),
        format!("{n_live}/{} nodes live at end", rows.len()),
    );
    let leaders: Vec<usize> = live().filter(|(_, r)| r.is_leader).map(|(i, _)| i).collect();
    v.check("single-leader", leaders.len() == 1, format!("leaders: {leaders:?}"));
    let terms: BTreeSet<u64> = live().map(|(_, r)| r.term).collect();
    v.check("term-agreement", terms.len() <= 1, format!("live terms: {terms:?}"));
    v.checks.push(convergence);
    if let Some(confirmed) = progress {
        let min_commit = min_live_commit(rows);
        v.check(
            "progress",
            confirmed > 0 && min_commit > 0,
            format!("confirmed={confirmed} min_commit={min_commit}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbr_types::{NodeId, Term, Time};

    fn elected(node: u32, term: u64, at: u64) -> TraceEvent {
        TraceEvent {
            node: NodeId(node),
            at: Time(at),
            event: ProbeEvent::Elected { term: Term(term) },
        }
    }

    #[test]
    fn election_safety_catches_split_brain() {
        assert_eq!(election_safety(&[elected(0, 1, 5), elected(1, 2, 9)]), Ok(2));
        // Re-announcement by the same node is benign.
        assert!(election_safety(&[elected(0, 1, 5), elected(0, 1, 7)]).is_ok());
        assert!(election_safety(&[elected(0, 3, 5), elected(1, 3, 9)]).is_err());
    }

    #[test]
    fn verdict_json_shape() {
        let mut v = Verdict::new("x\"y", "sim", 7);
        v.check("single-leader", true, "1 leader");
        v.check("progress", false, "confirmed=0");
        v.metric("throughput", 12.5);
        assert!(!v.pass());
        let j = v.to_json();
        assert!(j.contains("\"scenario\":\"x\\\"y\""), "{j}");
        assert!(j.contains("\"pass\":false"), "{j}");
        assert!(j.contains("\"throughput\":12.5"), "{j}");
        assert_eq!(v.failed(), vec!["progress"]);
    }
}
