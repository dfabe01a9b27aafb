//! A weakly-accepted write that dies with its leader is retried until it
//! commits, and no client counts it confirmed before then (paper Section
//! III-C).
//!
//! NB-Raft, 8 clients. The leader's links to both followers drop 10% of
//! its messages, so the followers' windows hold weakly-accepted entries
//! above a gap: entries only a cache has. The leader crashes. The client's
//! 1 s request timeout outlasts the election, so a client's newest request
//! commits in the new term before its lost, older ones are retried and
//! land behind it.

use nbr_sim::{run, SimConfig};
use nbr_types::{Fault, Protocol, Target, Time, TimeDelta};

#[test]
fn a_weak_write_lost_with_its_leader_is_applied_once_before_it_is_confirmed() {
    let lossy =
        |to| Fault::GrayLink { from: 0, to, both: false, drop_pct: 10.0, delay: TimeDelta::ZERO };
    let r = run(SimConfig {
        protocol: Protocol::NbRaft,
        n_clients: 8,
        n_dispatchers: 8,
        warmup: TimeDelta::from_millis(200),
        duration: TimeDelta::from_millis(3800),
        chaos: vec![
            (Time::ZERO, lossy(1)),
            (Time::ZERO, lossy(2)),
            (Time::from_millis(1000), Fault::Crash { target: Target::Leader }),
        ],
        seed: 1,
        ..SimConfig::default()
    });
    assert!(r.weak_acked > 0 && r.chaos_dropped > 0, "weak acks over lossy links");
    assert!(r.elections >= 2 && !r.final_status[0].alive, "node 0 led, crashed and was replaced");
    assert!(r.confirmed > r.issued / 2, "the clients went on confirming after the crash");
    let v = &r.exactly_once_violations;
    assert!(v.is_empty(), "{} violations, first: {:?}", v.len(), &v[..v.len().min(5)]);
}
