//! The simulator has one crash rule: a crashed machine's work that had not
//! left its NIC when it crashed dies with it. A backlogged leader (128 KiB
//! entries, 64 clients) has such work queued at any instant, so crashing it
//! by id and crashing "whoever leads" at the same instant must agree exactly.

use nbr_sim::{run, SimConfig, SimResult};
use nbr_types::{Fault, Protocol, Target, Time, TimeDelta};

fn crash_at_one_second(target: Target) -> SimResult {
    run(SimConfig {
        protocol: Protocol::NbRaft,
        n_clients: 64,
        n_dispatchers: 64,
        payload: 128 * 1024,
        warmup: TimeDelta::from_millis(200),
        duration: TimeDelta::from_millis(1800),
        chaos: vec![(Time::from_millis(1000), Fault::Crash { target })],
        seed: 1,
        ..SimConfig::default()
    })
}

#[test]
fn crashing_the_leader_by_id_or_by_role_is_one_crash() {
    let by_id = crash_at_one_second(Target::Node(0));
    let by_role = crash_at_one_second(Target::Leader);
    let outcome = |r: &SimResult| (r.issued, r.survived, r.elections, r.final_status.clone());
    assert_eq!(outcome(&by_id), outcome(&by_role));
    assert!(!by_id.final_status[0].alive, "node 0 led, and stayed down");
    assert!(by_id.elections >= 2, "a successor was elected");
    assert!(by_id.survived > 0 && by_id.survived < by_id.issued);
}
