//! Regeneration of every table and figure in the paper's evaluation
//! (Section V) plus the Figure 4 Petri-net profile of Section II.
//!
//! Each `figNN` function runs the corresponding experiment sweep on the
//! discrete-event simulator and returns [`Table`]s with the same rows/series
//! the paper plots. Shapes (who wins, by what factor, where curves cross)
//! are the reproduction target; absolute Kop/s differ from the authors'
//! testbed — see EXPERIMENTS.md for the side-by-side record.

use crate::report::Table;

/// A sweep point: x-axis label plus a configuration mutation.
type SweepPoint = (String, Box<dyn Fn(&mut SimConfig)>);
use nbr_obs::{analyze, EngineProbe};
use nbr_petri::{CostProfile, ModelConfig, ReplicationModel};
use nbr_sim::{run, CostModel, GeoMatrix, SimConfig};
use nbr_types::{Fault, Protocol, Target, Time, TimeDelta, TimeoutConfig};

/// Sweep scale: full paper-shaped runs or a quick smoke configuration.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Warm-up before measurement.
    pub warmup: TimeDelta,
    /// Measurement window.
    pub duration: TimeDelta,
    /// Protocols to include.
    pub protocols: Vec<Protocol>,
    /// Seeds averaged for failure experiments.
    pub loss_seeds: Vec<u64>,
}

impl Scale {
    /// Paper-shaped runs (all seven protocols).
    pub fn paper() -> Scale {
        Scale {
            warmup: TimeDelta::from_millis(300),
            duration: TimeDelta::from_millis(1000),
            protocols: Protocol::ALL.to_vec(),
            loss_seeds: vec![1, 2, 3],
        }
    }

    /// Fast smoke runs (four protocols, short windows).
    pub fn quick() -> Scale {
        Scale {
            warmup: TimeDelta::from_millis(150),
            duration: TimeDelta::from_millis(300),
            protocols: vec![Protocol::Raft, Protocol::NbRaft, Protocol::CRaft, Protocol::NbCRaft],
            loss_seeds: vec![1],
        }
    }

    fn series(&self) -> Vec<String> {
        self.protocols.iter().map(|p| p.name().to_string()).collect()
    }

    fn base(&self, protocol: Protocol) -> SimConfig {
        SimConfig {
            protocol,
            window: 10_000, // the paper's default window
            warmup: self.warmup,
            duration: self.duration,
            ..Default::default()
        }
    }
}

/// Figure 4: proportions of time during log replication, from the Petri-net
/// model of Figure 3, under the IoTDB-like and Ratis-like cost profiles.
pub fn fig4(_scale: &Scale) -> Vec<Table> {
    let phases = [
        "t_gen(C)",
        "t_trans(CL)",
        "t_prs(L)",
        "t_idx(L)",
        "t_queue(L)",
        "t_trans(LF)",
        "t_wait(F)",
        "t_append(F)",
        "t_ack(L)",
        "t_commit(L)",
        "t_apply(L)",
    ];
    let mut table = Table::new(
        "fig4",
        "Fig 4: phase proportions of log replication (Petri net, TPCx-IoT defaults)",
        "phase",
        vec!["IoTDB-like %".into(), "Ratis-like %".into()],
        "% of per-entry time",
    );
    let run_profile = |costs: CostProfile| {
        ReplicationModel::build(ModelConfig {
            n_clients: 256,
            n_dispatchers: 24, // a bounded dispatcher pool => visible t_queue
            non_blocking: false,
            costs,
            seed: 42,
            ..Default::default()
        })
        .run(2_000)
    };
    let iotdb = run_profile(CostProfile::iotdb());
    let ratis = run_profile(CostProfile::ratis());
    for p in phases {
        table.row(p, vec![100.0 * iotdb.proportion(p), 100.0 * ratis.proportion(p)]);
    }
    vec![table]
}

fn sweep(scale: &Scale, id: &str, title: &str, x_label: &str, points: &[SweepPoint]) -> Vec<Table> {
    let mut tput = Table::new(
        &format!("{id}_throughput"),
        &format!("{title} — throughput"),
        x_label,
        scale.series(),
        "ops/s",
    );
    let mut lat = Table::new(
        &format!("{id}_latency"),
        &format!("{title} — latency"),
        x_label,
        scale.series(),
        "ms (mean first-ack)",
    );
    for (x, setter) in points {
        let mut tputs = Vec::new();
        let mut lats = Vec::new();
        for &p in &scale.protocols {
            let mut cfg = scale.base(p);
            setter(&mut cfg);
            let r = run(cfg);
            tputs.push(r.throughput);
            lats.push(r.latency_mean_ms);
        }
        tput.row(x, tputs);
        lat.row(x, lats);
    }
    vec![tput, lat]
}

/// Figure 14: varying concurrency with 4 KB requests.
pub fn fig14(scale: &Scale) -> Vec<Table> {
    let points: Vec<SweepPoint> = [1, 4, 16, 64, 256, 512, 768, 1024]
        .into_iter()
        .map(|n: usize| {
            (
                n.to_string(),
                Box::new(move |c: &mut SimConfig| {
                    c.n_clients = n;
                    c.n_dispatchers = n;
                }) as Box<dyn Fn(&mut SimConfig)>,
            )
        })
        .collect();
    sweep(scale, "fig14", "Fig 14: varying concurrency (4KB)", "#Clients", &points)
}

/// Figure 15: varying replication number (1024 clients, 4 KB).
pub fn fig15(scale: &Scale) -> Vec<Table> {
    let points: Vec<SweepPoint> = [2usize, 3, 4, 5, 6, 7, 8, 9]
        .into_iter()
        .map(|n| {
            (
                n.to_string(),
                Box::new(move |c: &mut SimConfig| {
                    c.n_replicas = n;
                    c.n_clients = 1024;
                    c.n_dispatchers = 1024;
                }) as Box<dyn Fn(&mut SimConfig)>,
            )
        })
        .collect();
    sweep(scale, "fig15", "Fig 15: varying replication number", "#Replicas", &points)
}

/// Figure 16: varying payload size (1024 clients, 3 replicas).
pub fn fig16(scale: &Scale) -> Vec<Table> {
    let points: Vec<SweepPoint> = [1usize, 2, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .map(|kb| {
            (
                format!("{kb}KB"),
                Box::new(move |c: &mut SimConfig| {
                    c.payload = kb * 1024;
                    c.n_clients = 1024;
                    c.n_dispatchers = 1024;
                }) as Box<dyn Fn(&mut SimConfig)>,
            )
        })
        .collect();
    sweep(scale, "fig16", "Fig 16: varying payload size", "Payload", &points)
}

/// Figure 17: varying concurrency with 128 KB requests.
pub fn fig17(scale: &Scale) -> Vec<Table> {
    let points: Vec<SweepPoint> = [1, 4, 16, 64, 256, 512, 768, 1024]
        .into_iter()
        .map(|n: usize| {
            (
                n.to_string(),
                Box::new(move |c: &mut SimConfig| {
                    c.n_clients = n;
                    c.n_dispatchers = n;
                    c.payload = 128 * 1024;
                }) as Box<dyn Fn(&mut SimConfig)>,
            )
        })
        .collect();
    sweep(scale, "fig17", "Fig 17: varying concurrency (128KB)", "#Clients", &points)
}

/// Figure 18: varying dispatcher number (1024 clients, 4 KB).
pub fn fig18(scale: &Scale) -> Vec<Table> {
    let points: Vec<SweepPoint> = [1, 4, 16, 64, 256, 512, 768, 1024]
        .into_iter()
        .map(|n: usize| {
            (
                n.to_string(),
                Box::new(move |c: &mut SimConfig| {
                    c.n_clients = 1024;
                    c.n_dispatchers = n;
                }) as Box<dyn Fn(&mut SimConfig)>,
            )
        })
        .collect();
    sweep(scale, "fig18", "Fig 18: varying dispatcher number", "#Dispatchers", &points)
}

fn loss_config(
    protocol: Protocol,
    kill_at_ms: u64,
    timeout: TimeoutConfig,
    seed: u64,
) -> SimConfig {
    loss_config_n(protocol, kill_at_ms, timeout, seed, 64)
}

/// A Section V-G loss run: at `kill_at_ms` the leader and the clients crash
/// together (no opList retry re-submits weak data), then the group gets 6 s
/// to re-elect and settle. Loss runs report no throughput, so the
/// measurement window simply runs on to that horizon.
fn loss_config_n(
    protocol: Protocol,
    kill_at_ms: u64,
    timeout: TimeoutConfig,
    seed: u64,
    n_clients: usize,
) -> SimConfig {
    let (warmup_ms, settle_ms) = (200, 6_000);
    let kill = Time::from_millis(kill_at_ms);
    SimConfig {
        protocol,
        window: 10_000,
        n_clients,
        n_dispatchers: n_clients,
        warmup: TimeDelta::from_millis(warmup_ms),
        duration: TimeDelta::from_millis(kill_at_ms + settle_ms - warmup_ms),
        client_ramp: TimeDelta::from_millis(kill_at_ms.min(3000) / 2),
        timeouts: timeout,
        chaos: vec![
            (kill, Fault::Crash { target: Target::Leader }),
            (kill, Fault::Crash { target: Target::Clients }),
        ],
        seed,
        ..Default::default()
    }
}

/// Figure 19a: data loss vs run time before failure. The paper runs 10–180 s
/// on hardware; virtual times here are scaled 1:10 (1–18 s). We report both
/// the loss fraction and the absolute lost-entry count: the count ramps up
/// with concurrency and plateaus once the system is saturated (~the paper's
/// 30 s mark), which is the Figure 19a shape; the *fraction* then declines
/// slowly as the issued total keeps growing (methodology note in
/// EXPERIMENTS.md).
pub fn fig19a(scale: &Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig19a",
        "Fig 19a: data loss vs run time before failure (scaled 1:10)",
        "Run time (s, scaled)",
        vec![
            "Raft loss frac".into(),
            "NB loss frac".into(),
            "Raft lost entries".into(),
            "NB lost entries".into(),
        ],
        "fraction / count",
    );
    for sec in [1u64, 2, 3, 6, 9, 12, 15, 18] {
        let (mut rf, mut nf, mut rc, mut nc) = (0.0, 0.0, 0.0, 0.0);
        for &seed in &scale.loss_seeds {
            let r = run(loss_config(Protocol::Raft, sec * 1000, TimeoutConfig::default(), seed));
            let n = run(loss_config(Protocol::NbRaft, sec * 1000, TimeoutConfig::default(), seed));
            rf += r.loss_fraction;
            nf += n.loss_fraction;
            rc += r.issued.saturating_sub(r.survived) as f64;
            nc += n.issued.saturating_sub(n.survived) as f64;
        }
        let k = scale.loss_seeds.len() as f64;
        t.row(sec, vec![rf / k, nf / k, rc / k, nc / k]);
    }
    vec![t]
}

/// Figure 19b: data loss vs follower timeout. The paper sweeps 0.5–2.5 s on
/// a testbed whose queue backlogs at kill time take hundreds of milliseconds
/// to drain; the simulated network delivers in tens of milliseconds at 1024
/// clients, so the timeout axis is scaled 1:25 (20–100 ms) to keep the
/// timeout comparable to the in-flight drain time — the mechanism of
/// Figure 13 (a longer timeout lets more in-flight entries reach the future
/// leader before the election).
pub fn fig19b(scale: &Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig19b",
        "Fig 19b: data loss vs follower timeout (timeout scaled 1:25)",
        "Follower timeout (ms, scaled)",
        vec!["Raft family".into(), "NB family".into()],
        "loss fraction",
    );
    for step in [1u64, 2, 3, 4, 5] {
        let ms = step * 20;
        let timeouts = TimeoutConfig {
            election_min: TimeDelta::from_millis(ms),
            election_max: TimeDelta::from_millis(ms + ms / 2),
            heartbeat_interval: TimeDelta::from_millis(8),
        };
        let mut raft = 0.0;
        let mut nb = 0.0;
        for &seed in &scale.loss_seeds {
            let mut r = loss_config_n(Protocol::Raft, 1500, timeouts, seed, 1024);
            let mut n = loss_config_n(Protocol::NbRaft, 1500, timeouts, seed, 1024);
            for cfg in [&mut r, &mut n] {
                // Heavy-tail deliveries put in-flight entries in a genuine
                // race with the election (Figure 13).
                cfg.costs.straggler_prob = 0.01;
                cfg.costs.straggler_delay = TimeDelta::from_millis(120);
            }
            raft += run(r).loss_fraction;
            nb += run(n).loss_fraction;
        }
        let n = scale.loss_seeds.len() as f64;
        t.row(ms, vec![raft / n, nb / n]);
    }
    vec![t]
}

/// Figure 20: non-geo vs geo-distributed five-node cloud deployment
/// (64 clients, 1 KB, weaker instances).
pub fn fig20(scale: &Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig20",
        "Fig 20: Alibaba-cloud-style deployment, non-geo vs geo",
        "Deployment",
        scale.series(),
        "ops/s",
    );
    for (label, geo) in [("Non-Geo", None), ("Geo", Some(GeoMatrix::alibaba_five_cities()))] {
        let mut vals = Vec::new();
        for &p in &scale.protocols {
            let mut cfg = scale.base(p);
            cfg.n_replicas = 5;
            cfg.n_clients = 64;
            cfg.n_dispatchers = 64;
            cfg.payload = 1024;
            cfg.costs = CostModel::cloud();
            cfg.geo = geo.clone();
            if geo.is_some() {
                cfg.duration += TimeDelta::from_millis(1500);
            }
            vals.push(run(cfg).throughput);
        }
        t.row(label, vals);
    }
    vec![t]
}

/// Figure 21: 1 and 2 failing replicas in a 5-replica group (256 clients).
pub fn fig21(scale: &Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig21",
        "Fig 21: failing replicas in a 5-replica group",
        "Failing replicas",
        scale.series(),
        "ops/s",
    );
    for dead in [vec![4u32], vec![3, 4]] {
        let label = format!("{}", dead.len());
        let mut vals = Vec::new();
        for &p in &scale.protocols {
            let mut cfg = scale.base(p);
            cfg.n_replicas = 5;
            cfg.n_clients = 256;
            cfg.n_dispatchers = 256;
            cfg.chaos = dead
                .iter()
                .map(|&node| (Time::ZERO, Fault::Crash { target: Target::Node(node) }))
                .collect();
            // Give the leader time to detect the dead replicas (CRaft's
            // full-copy fallback / ECRaft's re-coding engages after a few
            // silent heartbeat rounds) before measuring steady state.
            cfg.warmup = cfg.warmup.max(TimeDelta::from_millis(900));
            vals.push(run(cfg).throughput);
        }
        t.row(label, vals);
    }
    vec![t]
}

/// Figure 22 / Table II: throughput across the condition grid, normalized to
/// Raft, showing each protocol's preferred conditions.
pub fn fig22(scale: &Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig22",
        "Fig 22 / Table II: relative throughput across conditions (Raft = 1.0)",
        "Condition",
        scale.series(),
        "x Raft",
    );
    #[allow(clippy::type_complexity)]
    let conditions: Vec<(&str, Box<dyn Fn(&mut SimConfig)>)> = vec![
        (
            "low conc, 4KB",
            Box::new(|c: &mut SimConfig| {
                c.n_clients = 64;
                c.n_dispatchers = 64;
            }),
        ),
        (
            "high conc, 4KB",
            Box::new(|c: &mut SimConfig| {
                c.n_clients = 1024;
                c.n_dispatchers = 1024;
            }),
        ),
        (
            "high conc, 128KB",
            Box::new(|c: &mut SimConfig| {
                c.n_clients = 1024;
                c.n_dispatchers = 1024;
                c.payload = 128 * 1024;
            }),
        ),
        (
            "9 replicas, 4KB",
            Box::new(|c: &mut SimConfig| {
                c.n_replicas = 9;
                c.n_clients = 1024;
                c.n_dispatchers = 1024;
            }),
        ),
    ];
    for (label, setter) in conditions {
        let mut raft_base = None;
        let mut vals = Vec::new();
        for &p in &scale.protocols {
            let mut cfg = scale.base(p);
            setter(&mut cfg);
            let tput = run(cfg).throughput;
            if p == Protocol::Raft {
                raft_base = Some(tput);
            }
            vals.push(tput);
        }
        let base = raft_base.unwrap_or(1.0).max(1.0);
        t.row(label, vals.into_iter().map(|v| v / base).collect());
    }
    vec![t]
}

/// Figure 23: throughput with CPU-Turbo enabled vs disabled (cloud profile,
/// 1 KB, 256 clients).
pub fn fig23(scale: &Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig23",
        "Fig 23: throughput under different CPU conditions",
        "CPU",
        scale.series(),
        "ops/s",
    );
    for (label, cpu_scale) in [("Turbo on", 1.0f64), ("Turbo off", 1.8)] {
        let mut vals = Vec::new();
        for &p in &scale.protocols {
            let mut cfg = scale.base(p);
            cfg.n_clients = 256;
            cfg.n_dispatchers = 256;
            cfg.payload = 1024;
            cfg.costs = CostModel::cloud();
            cfg.cpu_scale = cpu_scale;
            vals.push(run(cfg).throughput);
        }
        t.row(label, vals);
    }
    vec![t]
}

/// Headline summary: the paper's abstract claims — ~30% throughput gain and
/// ~1e-5-scale loss with a 0.5 s follower timeout.
pub fn headline(scale: &Scale) -> Vec<Table> {
    let mut t = Table::new(
        "headline",
        "Headline: NB-Raft vs Raft at 1024 clients (4KB)",
        "Metric",
        vec!["Raft".into(), "NB-Raft".into()],
        "mixed units",
    );
    let mut raft_cfg = scale.base(Protocol::Raft);
    raft_cfg.n_clients = 1024;
    raft_cfg.n_dispatchers = 1024;
    let mut nb_cfg = scale.base(Protocol::NbRaft);
    nb_cfg.n_clients = 1024;
    nb_cfg.n_dispatchers = 1024;
    let raft = run(raft_cfg);
    let nb = run(nb_cfg);
    t.row("throughput (ops/s)", vec![raft.throughput, nb.throughput]);
    t.row("latency mean (ms)", vec![raft.latency_mean_ms, nb.latency_mean_ms]);
    t.row("t_wait mean (ms)", vec![raft.twait_mean_ms, nb.twait_mean_ms]);
    t.row("gain vs Raft (%)", vec![0.0, 100.0 * (nb.throughput / raft.throughput.max(1.0) - 1.0)]);

    // Loss with a 0.5 s follower timeout (paper: ≤ 3e-7 fraction ~ "0.00003%").
    let timeouts = TimeoutConfig {
        election_min: TimeDelta::from_millis(500),
        election_max: TimeDelta::from_millis(750),
        ..TimeoutConfig::default()
    };
    let mut raft_loss = 0.0;
    let mut nb_loss = 0.0;
    for &seed in &scale.loss_seeds {
        raft_loss += run(loss_config(Protocol::Raft, 3000, timeouts, seed)).loss_fraction;
        nb_loss += run(loss_config(Protocol::NbRaft, 3000, timeouts, seed)).loss_fraction;
    }
    let n = scale.loss_seeds.len() as f64;
    t.row("loss fraction @0.5s timeout", vec![raft_loss / n, nb_loss / n]);
    vec![t]
}

/// Ablation (beyond the paper): throughput and client-visible latency as a
/// function of the window size `w`, from 0 (original Raft) to the paper's
/// default 10 000. The paper fixes w = 10 000 and notes "it is never filled
/// up in the experiments"; this sweep quantifies where the benefit
/// saturates.
pub fn ablation_window(scale: &Scale) -> Vec<Table> {
    let mut t = Table::new(
        "ablation_window",
        "Ablation: NB-Raft window size (1024 clients, 4KB)",
        "Window w",
        vec!["ops/s".into(), "mean ms".into(), "weak-acked %".into(), "blocked parks".into()],
        "mixed",
    );
    for w in [0usize, 1, 4, 16, 64, 256, 1024, 10_000] {
        let mut cfg = scale.base(Protocol::NbRaft);
        cfg.window = w;
        cfg.n_clients = 1024;
        cfg.n_dispatchers = 1024;
        let r = run(cfg);
        let weak_pct =
            if r.acked == 0 { 0.0 } else { 100.0 * r.weak_acked as f64 / r.acked as f64 };
        t.row(w, vec![r.throughput, r.latency_mean_ms, weak_pct, r.stats.parked as f64]);
    }
    vec![t]
}

/// Ablation (beyond the paper): how the NB-Raft gain depends on the degree
/// of delivery disorder. The dominant disorder source in the model is the
/// concurrency-scaled scheduling noise (`sched_quantum`); sweeping it from
/// zero shows the gain is *caused* by out-of-order arrival, the paper's
/// central claim — with an orderly network there is little to unblock.
pub fn ablation_jitter(scale: &Scale) -> Vec<Table> {
    let mut t = Table::new(
        "ablation_jitter",
        "Ablation: NB-Raft gain vs scheduling-noise quantum (512 clients, 4KB)",
        "Quantum (µs)",
        vec!["Raft ops/s".into(), "NB-Raft ops/s".into(), "gain %".into(), "Raft t_wait ms".into()],
        "mixed",
    );
    for q in [0u64, 10, 25, 50, 100] {
        let mut out = Vec::new();
        let mut twait = 0.0;
        for p in [Protocol::Raft, Protocol::NbRaft] {
            let mut cfg = scale.base(p);
            cfg.n_clients = 512;
            cfg.n_dispatchers = 512;
            cfg.costs.sched_quantum = TimeDelta::from_micros(q);
            if q == 0 {
                cfg.costs.jitter = 0.0; // fully orderly network
            }
            let r = run(cfg);
            if p == Protocol::Raft {
                twait = r.twait_mean_ms;
            }
            out.push(r.throughput);
        }
        let gain = 100.0 * (out[1] / out[0].max(1.0) - 1.0);
        t.row(q, vec![out[0], out[1], gain, twait]);
    }
    vec![t]
}

/// Lifecycle figure (beyond the paper): replay a probe trace of the same
/// workload at increasing window sizes and report the analyzer's `t_wait(F)`
/// distribution directly — the measured counterpart of the Petri net's
/// `t_wait(F)` phase in Figure 4. At `w = 0` every out-of-order arrival
/// parks (stock Raft's blocking loop); a modest window absorbs most of them
/// and the mean wait collapses.
pub fn lifecycle(scale: &Scale) -> Vec<Table> {
    let mut t = Table::new(
        "lifecycle",
        "Lifecycle: t_wait(F) from probe traces vs window size (256 clients, 4KB)",
        "Window w",
        vec![
            "t_wait mean ms".into(),
            "t_wait p99 ms".into(),
            "in order".into(),
            "absorbed".into(),
            "parked".into(),
            "occupancy mean".into(),
        ],
        "mixed",
    );
    for w in [0usize, 4, 16, 64] {
        let (probe, buf) = EngineProbe::shared();
        let mut cfg = scale.base(Protocol::NbRaft);
        cfg.window = w;
        cfg.n_clients = 256;
        cfg.n_dispatchers = 256;
        cfg.trace = probe;
        let _ = run(cfg);
        let rep = analyze(&buf.take());
        t.row(
            w,
            vec![
                rep.twait.mean() / 1e6,
                rep.twait.p99() as f64 / 1e6,
                rep.in_order as f64,
                rep.absorbed as f64,
                rep.blocked as f64,
                rep.occ_window.mean(),
            ],
        );
    }
    vec![t]
}

/// All figure ids, in paper order (plus the ablations).
pub const ALL_FIGURES: &[&str] = &[
    "fig4",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19a",
    "fig19b",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "headline",
    "ablation_window",
    "ablation_jitter",
    "lifecycle",
];

/// Run one figure by id.
pub fn run_figure(id: &str, scale: &Scale) -> Option<Vec<Table>> {
    Some(match id {
        "fig4" => fig4(scale),
        "fig14" => fig14(scale),
        "fig15" => fig15(scale),
        "fig16" => fig16(scale),
        "fig17" => fig17(scale),
        "fig18" => fig18(scale),
        "fig19a" => fig19a(scale),
        "fig19b" => fig19b(scale),
        "fig20" => fig20(scale),
        "fig21" => fig21(scale),
        "fig22" | "table2" => fig22(scale),
        "fig23" => fig23(scale),
        "headline" => headline(scale),
        "ablation_window" => ablation_window(scale),
        "ablation_jitter" => ablation_jitter(scale),
        "lifecycle" => lifecycle(scale),
        _ => return None,
    })
}
