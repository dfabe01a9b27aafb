//! Property tests for [`compress_strong_resps`]: over random inbound
//! bursts, compression must behave exactly as its contract states — it
//! only ever drops a Strong `AppendResp` that a *later* response from the
//! same peer and term supersedes, never touches anything else, and never
//! reorders what it keeps. `VoteList::strong_accept` counts every index up
//! to `last_index`, so these invariants are what make the optimization
//! semantically invisible to the leader. The outbound counterpart,
//! `nbr_core::settle_outputs`, has its property test in `nbr-core`.

use bytes::Bytes;
use nbr_cluster::{compress_strong_resps, Packet};
use nbr_types::{
    AcceptState, AppendRespMsg, ClientId, ClientRequest, HeartbeatRespMsg, LogIndex, Message,
    NodeId, RequestId, Term,
};
use proptest::prelude::*;

/// Generator-friendly description of one burst packet.
#[derive(Debug, Clone)]
enum Spec {
    Strong { from: u32, term: u64, last: u64 },
    Weak { from: u32, term: u64, index: u64 },
    Mismatch { from: u32, term: u64, index: u64 },
    Heartbeat { from: u32, term: u64, last: u64 },
    Request { client: u64, request: u64 },
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    let from = 0u32..4;
    let term = 1u64..4;
    prop_oneof![
        4 => (from.clone(), term.clone(), 0u64..24)
            .prop_map(|(from, term, last)| Spec::Strong { from, term, last }),
        2 => (from.clone(), term.clone(), 1u64..24)
            .prop_map(|(from, term, index)| Spec::Weak { from, term, index }),
        1 => (from.clone(), term.clone(), 1u64..24)
            .prop_map(|(from, term, index)| Spec::Mismatch { from, term, index }),
        1 => (from, term, 0u64..24)
            .prop_map(|(from, term, last)| Spec::Heartbeat { from, term, last }),
        1 => (0u64..3, 0u64..100)
            .prop_map(|(client, request)| Spec::Request { client, request }),
    ]
}

fn build(spec: &Spec) -> Packet {
    let resp = |from: u32, term: u64, state: AcceptState| Packet::Peer {
        from: NodeId(from),
        msg: Message::AppendResp(AppendRespMsg { term: Term(term), from: NodeId(from), state }),
    };
    match *spec {
        Spec::Strong { from, term, last } => resp(
            from,
            term,
            AcceptState::Strong { last_index: LogIndex(last), last_term: Term(term) },
        ),
        Spec::Weak { from, term, index } => {
            resp(from, term, AcceptState::Weak { index: LogIndex(index), term: Term(term) })
        }
        Spec::Mismatch { from, term, index } => resp(
            from,
            term,
            AcceptState::Mismatch { index: LogIndex(index), resend_from: LogIndex(1) },
        ),
        Spec::Heartbeat { from, term, last } => Packet::Peer {
            from: NodeId(from),
            msg: Message::HeartbeatResp(HeartbeatRespMsg {
                term: Term(term),
                from: NodeId(from),
                last_index: LogIndex(last),
                last_term: Term(term),
            }),
        },
        Spec::Request { client, request } => Packet::Request(ClientRequest {
            client: ClientId(client),
            request: RequestId(request),
            payload: Bytes::from_static(b"x"),
        }),
    }
}

/// Structural identity of a packet, for subsequence checks.
fn key(p: &Packet) -> String {
    match p {
        Packet::Peer { from, msg } => format!("peer {} {msg:?}", from.0),
        Packet::Request(r) => format!("req {} {}", r.client.0, r.request.0),
        Packet::Response { client, resp } => format!("resp {} {resp:?}", client.0),
    }
}

/// `(peer, term, last_index)` of a Strong append response, if it is one.
fn strong(p: &Packet) -> Option<(u32, u64, u64)> {
    if let Packet::Peer { from, msg: Message::AppendResp(r) } = p {
        if let AcceptState::Strong { last_index, .. } = r.state {
            return Some((from.0, r.term.0, last_index.0));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compression_only_drops_superseded_strongs(
        specs in proptest::collection::vec(arb_spec(), 0..40),
    ) {
        let original: Vec<Packet> = specs.iter().map(build).collect();
        let mut burst = original.clone();
        compress_strong_resps(&mut burst);

        // Kept packets are a subsequence of the original burst.
        let orig_keys: Vec<String> = original.iter().map(key).collect();
        let mut cursor = 0usize;
        for p in &burst {
            let k = key(p);
            let found = orig_keys[cursor..].iter().position(|o| *o == k);
            prop_assert!(found.is_some(), "kept packet not in original order: {k}");
            cursor += found.expect("checked") + 1;
        }

        // Everything that is not a Strong AppendResp survives untouched.
        let non_strong = |ps: &[Packet]| -> Vec<String> {
            ps.iter().filter(|p| strong(p).is_none()).map(key).collect()
        };
        prop_assert_eq!(non_strong(&original), non_strong(&burst),
            "compression may only remove Strong responses");

        // Exact model: a Strong survives iff its last_index is beyond every
        // later Strong of the same (peer, term) — anything else is
        // superseded, because `strong_accept` counts all indices up to the
        // furthest later response. This also implies the per-key maximum
        // always survives and kept runs are strictly decreasing.
        let strongs: Vec<Option<(u32, u64, u64)>> = original.iter().map(strong).collect();
        let expected: Vec<u64> = strongs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let &(f, t, l) = s.as_ref()?;
                let later_max = strongs[i + 1..]
                    .iter()
                    .flatten()
                    .filter(|&&(pf, pt, _)| pf == f && pt == t)
                    .map(|&(_, _, pl)| pl)
                    .max();
                (later_max.is_none_or(|m| l > m)).then_some(l)
            })
            .collect();
        let kept: Vec<u64> = burst.iter().filter_map(|p| strong(p).map(|(_, _, l)| l)).collect();
        prop_assert_eq!(kept, expected, "kept Strongs must match the supersession model");
    }
}
