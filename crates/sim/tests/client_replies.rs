//! The simulator sends what a TCP client is sent: every engine call's
//! outputs go through `nbr_core::settle_outputs`, as the replica loop's do.
//!
//! One NB-Raft client on healthy links has one request in flight, so the
//! follower accept that completes its weak quorum also commits it. The
//! client gets the commit reply alone, never a WEAK_ACCEPT that did not beat
//! the commit, and it gets one for every request it was answered.

use nbr_sim::{run, SimConfig};
use nbr_types::{Protocol, TimeDelta};

#[test]
fn a_lone_client_on_healthy_links_gets_a_commit_reply_for_every_request() {
    let r = run(SimConfig {
        protocol: Protocol::NbRaft,
        n_clients: 1,
        n_dispatchers: 1,
        warmup: TimeDelta::from_millis(100),
        duration: TimeDelta::from_millis(900),
        seed: 1,
        ..SimConfig::default()
    });
    assert!(r.acked > 100, "the client made progress: {} acks", r.acked);
    assert_eq!(r.weak_acked, 0, "a Weak sent along with its commit reply reached the client");
    assert!(
        r.confirmed + 1 >= r.acked,
        "{} of {} answered requests confirmed",
        r.confirmed,
        r.acked
    );
}
