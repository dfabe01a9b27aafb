//! The fault-schedule DSL.
//!
//! A schedule is a line-oriented script; each line is `at <time> <fault>`.
//! Times are offsets from the start of the run (`300ms`, `2s`, `750us`);
//! `#` starts a comment. Node sets are `{0,2}`; link pairs are directed
//! (`0->1`), bidirectional (`0<->1`), and partitions separate two groups
//! either symmetrically (`{0}|{1,2}`) or one-way (`{0}->{1,2}`: traffic
//! *from* the left group *to* the right group is cut).
//!
//! ```text
//! at 300ms partition {0}|{1,2}     # isolate node 0 both ways
//! at 500ms graylink 0<->1 drop 25% delay 3ms
//! at 600ms skew 2 +200ms
//! at 700ms slow-disk 1 3ms
//! at 800ms crash 1
//! at 1200ms recover 1
//! at 1250ms crash leader           # whoever leads at that instant
//! at 1250ms crash clients          # the client machine (sim only)
//! at 1300ms heal-disk 1
//! at 1400ms campaign 2
//! at 1500ms heal                   # clear every cut + gray link
//! ```
//!
//! Parsing is total and order-preserving; [`Schedule::render`] emits the
//! canonical form, and `parse(render(s)) == s` for any parsed schedule.
//!
//! The parsed [`Fault`] is `nbr_types::Fault` itself: this module is its text
//! form, and what each fault *does* is `nbr_types::FaultTable::apply`, which
//! every backend runs unchanged.

pub use nbr_types::Fault;
use nbr_types::{Target, TimeDelta};

/// A fault scheduled at an offset from the start of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledFault {
    /// When to apply it.
    pub at: TimeDelta,
    /// What to apply.
    pub fault: Fault,
}

/// A parsed schedule: faults in schedule order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// The events, in file order (parse preserves it; backends apply in
    /// time order, ties broken by file order).
    pub events: Vec<ScheduledFault>,
}

impl Schedule {
    /// Parse the DSL. Errors name the offending 1-based line.
    pub fn parse(text: &str) -> Result<Schedule, String> {
        let mut events = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at_line = |m: String| format!("line {}: {m}", i + 1);
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.len() < 3 || toks[0] != "at" {
                return Err(at_line(format!("expected `at <time> <fault>`, got `{line}`")));
            }
            let at = parse_dur(toks[1]).map_err(at_line)?;
            let fault = parse_fault(&toks[2..]).map_err(at_line)?;
            events.push(ScheduledFault { at, fault });
        }
        Ok(Schedule { events })
    }

    /// Canonical text form; `parse(render(s)) == s`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&format!("at {} {}\n", render_dur(ev.at), render_fault(&ev.fault)));
        }
        out
    }

    /// Offset of the last event (zero for an empty schedule).
    pub fn end(&self) -> TimeDelta {
        self.events.iter().map(|e| e.at).max().unwrap_or(TimeDelta::ZERO)
    }

    /// Highest node id referenced anywhere in the schedule.
    pub fn max_node(&self) -> u32 {
        let mut events = self.events.clone();
        events.iter_mut().flat_map(|ev| ev.fault.nodes_mut()).map(|n| *n).max().unwrap_or(0)
    }
}

fn parse_fault(toks: &[&str]) -> Result<Fault, String> {
    match toks[0] {
        "partition" => {
            let rest: String = toks[1..].concat();
            let (lhs, rhs, symmetric) = if let Some((l, r)) = rest.split_once("->") {
                (l, r, false)
            } else if let Some((l, r)) = rest.split_once('|') {
                (l, r, true)
            } else {
                return Err(format!("partition needs `{{A}}|{{B}}` or `{{A}}->{{B}}`: `{rest}`"));
            };
            Ok(Fault::Partition { a: parse_group(lhs)?, b: parse_group(rhs)?, symmetric })
        }
        "heal" => Ok(Fault::Heal),
        "heal-link" => {
            let (from, to, both) = parse_pair(toks.get(1).copied().unwrap_or(""))?;
            Ok(Fault::HealLink { from, to, both })
        }
        "graylink" => {
            let (from, to, both) = parse_pair(toks.get(1).copied().unwrap_or(""))?;
            let mut drop_pct = 0.0;
            let mut delay = TimeDelta::ZERO;
            let mut i = 2;
            while i < toks.len() {
                match toks[i] {
                    "drop" => {
                        let v = toks.get(i + 1).ok_or("graylink: `drop` needs a value")?;
                        drop_pct = v
                            .trim_end_matches('%')
                            .parse::<f64>()
                            .map_err(|_| format!("bad drop percentage `{v}`"))?;
                        i += 2;
                    }
                    "delay" => {
                        let v = toks.get(i + 1).ok_or("graylink: `delay` needs a value")?;
                        delay = parse_dur(v)?;
                        i += 2;
                    }
                    other => return Err(format!("graylink: unknown option `{other}`")),
                }
            }
            Ok(Fault::GrayLink { from, to, both, drop_pct, delay })
        }
        "skew" => {
            let node = parse_node(toks.get(1).copied())?;
            let v = toks.get(2).ok_or("skew needs a delta, e.g. `+200ms`")?;
            Ok(Fault::Skew { node, by: parse_dur(v.trim_start_matches('+'))? })
        }
        "slow-disk" => {
            let node = parse_node(toks.get(1).copied())?;
            let v = toks.get(2).ok_or("slow-disk needs a per-write stall, e.g. `3ms`")?;
            Ok(Fault::SlowDisk { node, penalty: parse_dur(v)? })
        }
        "heal-disk" => Ok(Fault::HealDisk { node: parse_node(toks.get(1).copied())? }),
        "crash" => {
            let target = match toks.get(1).copied() {
                Some("leader") => Target::Leader,
                Some("clients") => Target::Clients,
                node => Target::Node(parse_node(node)?),
            };
            Ok(Fault::Crash { target })
        }
        "recover" => Ok(Fault::Recover { node: parse_node(toks.get(1).copied())? }),
        "campaign" => Ok(Fault::Campaign { node: parse_node(toks.get(1).copied())? }),
        other => Err(format!("unknown fault `{other}`")),
    }
}

fn render_fault(f: &Fault) -> String {
    let group = |g: &[u32]| {
        let ids: Vec<String> = g.iter().map(|n| n.to_string()).collect();
        format!("{{{}}}", ids.join(","))
    };
    match f {
        Fault::Partition { a, b, symmetric } => {
            format!("partition {}{}{}", group(a), if *symmetric { "|" } else { "->" }, group(b))
        }
        Fault::Heal => "heal".into(),
        Fault::HealLink { from, to, both } => {
            format!("heal-link {from}{}{to}", if *both { "<->" } else { "->" })
        }
        Fault::GrayLink { from, to, both, drop_pct, delay } => {
            let mut s =
                format!("graylink {from}{}{to} drop {drop_pct}%", if *both { "<->" } else { "->" });
            if delay.as_nanos() > 0 {
                s.push_str(&format!(" delay {}", render_dur(*delay)));
            }
            s
        }
        Fault::Skew { node, by } => format!("skew {node} +{}", render_dur(*by)),
        Fault::SlowDisk { node, penalty } => format!("slow-disk {node} {}", render_dur(*penalty)),
        Fault::HealDisk { node } => format!("heal-disk {node}"),
        Fault::Crash { target: Target::Node(node) } => format!("crash {node}"),
        Fault::Crash { target: Target::Leader } => "crash leader".into(),
        Fault::Crash { target: Target::Clients } => "crash clients".into(),
        Fault::Recover { node } => format!("recover {node}"),
        Fault::Campaign { node } => format!("campaign {node}"),
    }
}

fn parse_node(tok: Option<&str>) -> Result<u32, String> {
    let t = tok.ok_or("missing node id")?;
    t.parse::<u32>().map_err(|_| format!("bad node id `{t}`"))
}

/// `0->1`, `0<->1`.
fn parse_pair(s: &str) -> Result<(u32, u32, bool), String> {
    let (both, sep) = if s.contains("<->") { (true, "<->") } else { (false, "->") };
    let (l, r) = s.split_once(sep).ok_or(format!("bad link pair `{s}` (want `A->B`/`A<->B`)"))?;
    Ok((parse_node(Some(l))?, parse_node(Some(r))?, both))
}

/// `{0,2}` or bare `0,2`.
fn parse_group(s: &str) -> Result<Vec<u32>, String> {
    let inner = s.trim().trim_start_matches('{').trim_end_matches('}');
    if inner.is_empty() {
        return Err(format!("empty node group `{s}`"));
    }
    inner.split(',').map(|t| parse_node(Some(t.trim()))).collect()
}

fn parse_dur(s: &str) -> Result<TimeDelta, String> {
    let (num, mul) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000_000u64)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix("ns") {
        (n, 1)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000_000)
    } else {
        return Err(format!("duration `{s}` needs a unit (ns/us/ms/s)"));
    };
    let v: f64 = num.parse().map_err(|_| format!("bad duration `{s}`"))?;
    if v < 0.0 {
        return Err(format!("negative duration `{s}`"));
    }
    Ok(TimeDelta((v * mul as f64).round() as u64))
}

fn render_dur(d: TimeDelta) -> String {
    let ns = d.as_nanos();
    if ns == 0 || ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let text = "\
at 300ms partition {0}|{1,2}
at 400ms partition {0}->{1,2}
at 500ms graylink 0<->1 drop 25% delay 3ms
at 600ms graylink 2->0 drop 10%
at 700ms skew 2 +200ms
at 800ms slow-disk 1 3ms
at 900ms crash 1
at 1200ms recover 1
at 1300ms heal-disk 1
at 1400ms heal-link 0<->1
at 1450ms campaign 2
at 1500ms heal
at 1600ms crash leader
at 1600ms crash clients
";
        let s = Schedule::parse(text).expect("parse");
        assert_eq!(s.events.len(), 14);
        assert_eq!(Schedule::parse(&s.render()).expect("reparse"), s);
        assert_eq!(s.end(), TimeDelta::from_millis(1600));
        let last = |i: usize| s.events[s.events.len() - i].fault.clone();
        assert_eq!(last(2), Fault::Crash { target: Target::Leader });
        assert_eq!(last(1), Fault::Crash { target: Target::Clients });
        assert_eq!(s.max_node(), 2);
    }

    #[test]
    fn comments_and_blanks_skip() {
        let s = Schedule::parse("# nothing\n\nat 1ms heal # trailing\n").expect("parse");
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].fault, Fault::Heal);
    }

    #[test]
    fn errors_name_the_line() {
        let e = Schedule::parse("at 1ms heal\nat nonsense crash 0\n").expect_err("bad time");
        assert!(e.starts_with("line 2:"), "{e}");
        assert!(Schedule::parse("at 1ms warp 3\n").is_err());
        assert!(Schedule::parse("crash 1\n").is_err());
        assert!(Schedule::parse("at 1ms partition {0}{1}\n").is_err());
        assert!(Schedule::parse("at 1ms crash everyone\n").is_err());
    }
}
