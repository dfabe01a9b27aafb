//! Property test for [`settle_outputs`], the one pass over a replica's
//! outgoing outputs: over random output buffers it drops exactly what a
//! later Strong supersedes and nothing else. A Strong `AppendResp` goes when
//! a later Strong to the same `(peer, term)` follows it (the leader's
//! `VoteList::strong_accept` counts every index up to the last one); a
//! `Weak` client reply goes when a later `Strong` for the same
//! `(client, request)` follows it (the client learns everything from the
//! `Strong`). The survivors keep their order, and settling twice is settling
//! once. Append coalescing has its own property tests in `batch_proptest.rs`;
//! these buffers hold no `AppendEntry`, so it merges nothing here.

use nbr_core::{settle_outputs, Output};
use nbr_types::message::MAX_APPEND_BATCH;
use nbr_types::{
    AcceptState, AppendRespMsg, ClientId, ClientResponse, Entry, HeartbeatRespMsg, LogIndex,
    Message, NodeId, RequestId, Term,
};
use proptest::prelude::*;

fn send(to: u32, msg: Message) -> Output {
    Output::Send { to: NodeId(to), msg }
}

fn append_resp(term: u64, state: AcceptState) -> Message {
    Message::AppendResp(AppendRespMsg { term: Term(term), from: NodeId(9), state })
}

fn respond(client: u64, resp: ClientResponse) -> Output {
    Output::Respond { client: ClientId(client), resp }
}

/// One output of a replica's buffer, over small peer, term, client and
/// request spaces so that superseding pairs are common.
fn arb_output() -> impl Strategy<Value = Output> {
    let (to, term) = (0u32..3, 1u64..4);
    let (client, request) = (0u64..3, 0u64..6);
    prop_oneof![
        4 => (to.clone(), term.clone(), 0u64..24).prop_map(|(to, term, last)| send(
            to,
            append_resp(
                term,
                AcceptState::Strong { last_index: LogIndex(last), last_term: Term(term) },
            ),
        )),
        2 => (to.clone(), term.clone(), 1u64..24).prop_map(|(to, term, index)| send(
            to,
            append_resp(term, AcceptState::Weak { index: LogIndex(index), term: Term(term) }),
        )),
        1 => (to.clone(), term.clone(), 1u64..24).prop_map(|(to, term, index)| send(
            to,
            append_resp(
                term,
                AcceptState::Mismatch { index: LogIndex(index), resend_from: LogIndex(1) },
            ),
        )),
        1 => (to, term, 0u64..24).prop_map(|(to, term, last)| send(
            to,
            Message::HeartbeatResp(HeartbeatRespMsg {
                term: Term(term),
                from: NodeId(9),
                last_index: LogIndex(last),
                last_term: Term(term),
            }),
        )),
        4 => (client.clone(), request.clone(), 1u64..24).prop_map(|(c, r, i)| respond(
            c,
            ClientResponse::Weak { request: RequestId(r), index: LogIndex(i), term: Term(1) },
        )),
        4 => (client.clone(), request.clone(), 1u64..24).prop_map(|(c, r, i)| respond(
            c,
            ClientResponse::Strong { request: RequestId(r), index: LogIndex(i), term: Term(1) },
        )),
        1 => (client.clone(), request).prop_map(|(c, r)| respond(
            c,
            ClientResponse::NotLeader { request: RequestId(r), hint: None },
        )),
        1 => client.prop_map(|c| respond(c, ClientResponse::LeaderChanged { term: Term(2) })),
        1 => (1u64..24)
            .prop_map(|i| Output::Apply { entry: Entry::noop(LogIndex(i), Term(1), Term(1)) }),
    ]
}

/// `(peer, term)` of a Strong `AppendResp` send.
fn strong_accept(o: &Output) -> Option<(NodeId, Term)> {
    match o {
        Output::Send {
            to,
            msg: Message::AppendResp(AppendRespMsg { term, state: AcceptState::Strong { .. }, .. }),
        } => Some((*to, *term)),
        _ => None,
    }
}

/// `(client, request)` of a Weak client reply.
fn weak_reply(o: &Output) -> Option<(ClientId, RequestId)> {
    match o {
        Output::Respond { client, resp: ClientResponse::Weak { request, .. } } => {
            Some((*client, *request))
        }
        _ => None,
    }
}

/// `(client, request)` of a Strong client reply.
fn strong_reply(o: &Output) -> Option<(ClientId, RequestId)> {
    match o {
        Output::Respond { client, resp: ClientResponse::Strong { request, .. } } => {
            Some((*client, *request))
        }
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn settle_drops_only_superseded_replies(
        original in proptest::collection::vec(arb_output(), 0..40),
    ) {
        let mut settled = original.clone();
        settle_outputs(&mut settled, MAX_APPEND_BATCH);

        // Exact model: an output survives unless a later Strong supersedes
        // it. The model filters the original in place, so comparing whole
        // vectors also proves that the survivors keep their order and that
        // nothing else is touched.
        let expected: Vec<Output> = original
            .iter()
            .enumerate()
            .filter(|&(i, o)| {
                let later = &original[i + 1..];
                let accept = strong_accept(o)
                    .is_some_and(|k| later.iter().any(|l| strong_accept(l) == Some(k)));
                let reply = weak_reply(o)
                    .is_some_and(|k| later.iter().any(|l| strong_reply(l) == Some(k)));
                !(accept || reply)
            })
            .map(|(_, o)| o.clone())
            .collect();
        prop_assert_eq!(&settled, &expected);

        // Idempotent.
        let mut again = settled.clone();
        settle_outputs(&mut again, MAX_APPEND_BATCH);
        prop_assert_eq!(again, settled);
    }
}
