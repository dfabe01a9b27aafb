//! `nbraft-cli` — command-line front end for the NB-Raft reproduction: an
//! option parser, the usage text and a dispatch over library calls. The
//! subcommands live in [`sim`] (`sim`, `trace`, `petri`), [`net`] (`demo`,
//! `serve`, `bench-net`) and [`chaos`]. It prints; numbers that are
//! committed come from `benchmark/` alone.

mod chaos;
mod net;
mod sim;

use nbr_types::Protocol;
use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

const USAGE: &str = "\
nbraft-cli — Non-Blocking Raft reproduction CLI

USAGE:
  nbraft-cli sim   [--protocol P] [--clients N] [--replicas N] [--payload B] [--dispatchers N]
               [--window W] [--duration-ms MS] [--warmup-ms MS] [--seed S] [--geo] [--cloud]
               [--cpu-scale F] [--trace FILE]
  nbraft-cli trace PATH            analyze a JSONL trace (entry lifecycles, t_wait(F), window
               occupancy); PATH = trace file or dir of per-node *.jsonl
  nbraft-cli trace --compare [--window W] [sim opts]   paired traced sims: window=0 (stock
               Raft) vs window=W
  nbraft-cli trace --critical-path PATH   cross-node span assembly: per-op phase attribution
               (queue/link/window/weak/commit/apply) with p50/p99; PATH = trace file, dir of
               per-node traces, or dir of window-* run dirs (prints phase deltas between windows)
  nbraft-cli petri [--clients N] [--dispatchers N] [--non-blocking] [--ratis] [--seed S]
               [--horizon-ms MS] [--dot FILE]
  nbraft-cli demo  [--protocol P] [--window W] [--replicas N] [--clients N] [--seconds S]
  nbraft-cli serve --node-id N --peers host:port,host:port,... [--bind ADDR] [--cluster-id ID]
               [--metrics ADDR] [--wal DIR] [--protocol P] [--window W] [--seed S] [--groups N]
               [--rtt-ms MS] [--loss-pct F] [--trace FILE] [--quiet]
               one replica (of every group with --groups N>1), real TCP
  nbraft-cli bench-net [--window W,W,...] [--groups G,G,...] [--clients N | --clients-per-group K]
               [--replicas N] [--seconds S] [--payload B] [--protocol P] [--rtt-ms MS]
               [--loss-pct F] [--trace-dir DIR] [--peers host:port,... [--cluster-id ID]]
               closed-loop TCP bench, one table row per run: the runs are windows x groups in
               the order given, each on a fresh loopback cluster, the last column being ops/s
               over the first row's (--window 0,10000 is Raft vs NB-Raft; --groups 1,2,4,8
               --clients-per-group 4 is the sharding sweep). --peers drives a running cluster
               instead: one row, which --window only labels. --trace-dir writes
               DIR/window-W/node{i}.jsonl (one --groups value, no --peers)
  nbraft-cli chaos list            the fault-scenario corpus
  nbraft-cli chaos run   [--scenario NAME] [--backend sim|net|both] [--seed S] [--smoke]
               [--out FILE.jsonl]   run scenarios, check invariants
  nbraft-cli chaos sweep [--scenario NAME] [--seeds K] [--out FILE.jsonl]   sim seed sweep

protocols: raft nbraft craft nbcraft ecraft kraft vgraft";

/// The one error exit: `msg` to stderr, then `code` (2 = usage, 1 = I/O
/// failure or a failed run).
pub fn die(code: i32, msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

/// A comma-separated list, every entry of which must parse.
fn parse_list<T: FromStr>(list: &str) -> Result<Vec<T>, String> {
    list.split(',').map(|s| s.trim().parse().map_err(|_| format!("`{s}`"))).collect()
}

/// The options of one subcommand: `--key value` or a bare `--flag`.
pub struct Args {
    /// `trace PATH` / `chaos VERB`: the one leading positional operand.
    pub operand: Option<String>,
    options: HashMap<String, Option<String>>,
}

impl Args {
    /// Parse `raw`, rejecting stray positionals and any option that is in
    /// none of the space-separated sets of `known`.
    fn parse(cmd: &str, raw: &[String], known: &[&str]) -> Result<Args, String> {
        let mut it = raw.iter().peekable();
        let takes_operand = matches!(cmd, "trace" | "chaos");
        let operand = it.next_if(|a| takes_operand && !a.starts_with("--")).cloned();
        let mut options = HashMap::new();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument: {a}"));
            };
            if !known.iter().any(|set| set.split(' ').any(|k| k == key)) {
                return Err(format!("unknown option --{key} for `{cmd}` (see nbraft-cli usage)"));
            }
            options.insert(key.to_string(), it.next_if(|v| !v.starts_with("--")).cloned());
        }
        Ok(Args { operand, options })
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        self.options.get(key)?.as_deref()
    }

    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// The value of `--key` when given; exits 2 when it does not parse.
    pub fn opt<T: FromStr>(&self, key: &str) -> Option<T> {
        let v = self.str(key)?;
        Some(v.parse().unwrap_or_else(|_| die(2, format!("invalid value for --{key}: {v}"))))
    }

    pub fn get<T: FromStr>(&self, key: &str, default: T) -> T {
        self.opt(key).unwrap_or(default)
    }

    /// `--key a,b,c` (a one-entry list of `default` when absent).
    pub fn list<T: FromStr>(&self, key: &str, default: T) -> Vec<T> {
        let Some(v) = self.str(key) else { return vec![default] };
        parse_list(v).unwrap_or_else(|e| die(2, format!("invalid entry {e} in --{key} {v}")))
    }

    pub fn protocol(&self) -> Protocol {
        let Some(v) = self.str("protocol") else { return Protocol::NbRaft };
        match v.to_ascii_lowercase().as_str() {
            "raft" => Protocol::Raft,
            "nbraft" | "nb-raft" | "nb" => Protocol::NbRaft,
            "craft" => Protocol::CRaft,
            "nbcraft" | "nb-raft+craft" | "nb+craft" => Protocol::NbCRaft,
            "ecraft" => Protocol::EcRaft,
            "kraft" => Protocol::KRaft,
            "vgraft" => Protocol::VgRaft,
            _ => die(
                2,
                format!("unknown protocol {v} (raft nbraft craft nbcraft ecraft kraft vgraft)"),
            ),
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else { die(2, USAGE) };
    let (known, run): (&[&str], fn(&Args)) = match cmd.as_str() {
        "sim" => (&[sim::SIM_OPTS, "trace"], sim::cmd_sim),
        "trace" => (&[sim::SIM_OPTS, "compare critical-path"], sim::cmd_trace),
        "petri" => (&[sim::PETRI_OPTS], sim::cmd_petri),
        "demo" => (&[net::DEMO_OPTS], net::cmd_demo),
        "serve" => (&[net::SERVE_OPTS], net::cmd_serve),
        "bench-net" => (&[net::BENCH_NET_OPTS], net::cmd_bench_net),
        "chaos" => (&[chaos::OPTS], chaos::cmd_chaos),
        _ => die(2, USAGE),
    };
    run(&Args::parse(cmd, rest, known).unwrap_or_else(|e| die(2, e)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, known: &[&str], raw: &[&str]) -> Result<Args, String> {
        Args::parse(cmd, &raw.iter().map(|s| s.to_string()).collect::<Vec<_>>(), known)
    }

    #[test]
    fn lists_parse_in_order_and_reject_bad_entries() {
        assert_eq!(parse_list::<usize>("0,10000"), Ok(vec![0, 10_000]));
        assert_eq!(parse_list::<u32>("8, 1 ,2"), Ok(vec![8, 1, 2]));
        assert_eq!(parse_list::<u32>("1,,2"), Err("``".into()));
        assert_eq!(parse_list::<u32>("1,x"), Err("`x`".into()));
        let args =
            parse("bench-net", &[net::BENCH_NET_OPTS], &["--groups", "1,2", "--seconds", "1"])
                .expect("known options");
        assert_eq!(args.list("groups", 1u32), [1, 2]);
        assert_eq!(args.list("window", 10_000usize), [10_000]);
        assert_eq!(args.get("seconds", 3u64), 1);
    }

    #[test]
    fn options_a_subcommand_does_not_read_are_rejected() {
        for stale in ["--sclae-groups", "--json", "--csv"] {
            let err =
                parse("bench-net", &[net::BENCH_NET_OPTS], &[stale, "1,2"]).err().expect(stale);
            assert!(err.contains(stale) && err.contains("bench-net"), "{err}");
        }
        let trace = &[sim::SIM_OPTS, "compare critical-path"];
        let args =
            parse("trace", trace, &["t.jsonl", "--critical-path", "--window", "8"]).expect("known");
        assert!(args.has("critical-path") && args.operand.as_deref() == Some("t.jsonl"));
        assert!(parse("sim", &[sim::SIM_OPTS, "trace"], &["--dot", "x"]).is_err());
        assert!(parse("sim", &[sim::SIM_OPTS, "trace"], &["stray"]).is_err());
    }
}
