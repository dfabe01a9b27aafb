//! The slicing CRC32 kernel computes the same function as before: any
//! buffer, at any alignment, fed through [`Crc32::update`] at any split
//! points, yields the value of an independent bit-at-a-time implementation
//! of the same reflected IEEE polynomial (sharing neither tables nor
//! stepping with the kernel), and a wire frame encoded before the kernel
//! existed still decodes and re-encodes byte for byte.

use bytes::Bytes;
use nbr_types::checksum::{crc32, Crc32};
use nbr_types::wire::{decode_frame, encode_frame, Wire};
use nbr_types::*;
use proptest::prelude::*;

/// CRC32 straight from the polynomial definition, one bit per step.
fn bitwise_crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    crc ^ 0xFFFF_FFFF
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_split_and_alignment_matches_the_bitwise_definition(
        backing in proptest::collection::vec(any::<u8>(), 9_064),
        offset in 0usize..64,
        len in 0usize..=9_000,
        splits in proptest::collection::vec(0usize..=9_000, 0..=4),
    ) {
        // A window at a random offset into a larger allocation, so the
        // kernel sees every alignment of its 16-byte loads.
        let data = &backing[offset..offset + len];
        let want = bitwise_crc32(data);
        prop_assert_eq!(crc32(data), want);

        let mut cuts: Vec<usize> = splits.iter().map(|&s| s.min(len)).collect();
        cuts.sort_unstable();
        let mut c = Crc32::new();
        let mut from = 0;
        for cut in cuts {
            c.update(&data[from..cut]);
            from = cut;
        }
        c.update(&data[from..]);
        prop_assert_eq!(c.finalize(), want);
    }
}

/// `encode_frame` of [`golden_append`] as produced at commit d854cb8 (PR 14,
/// bytewise CRC): 116-byte body, so seven kernel steps plus a 4-byte tail.
const GOLDEN_APPEND_FRAME: &[u8] = b"\
    \x74\x00\x00\x00\x10\xf7\xc9\x6d\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\
    \x00\x00\x00\x2a\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\
    \x00\x00\x00\x00\x00\x01\x07\x00\x00\x00\x00\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\
    \x01\x28\x00\x00\x00\x07\x26\x45\x64\x83\xa2\xc1\xe0\xff\x1e\x3d\x5c\x7b\x9a\xb9\xd8\xf7\
    \x16\x35\x54\x73\x92\xb1\xd0\xef\x0e\x2d\x4c\x6b\x8a\xa9\xc8\xe7\x06\x25\x44\x63\x82\xa1\
    \xc0\x28\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00";

fn golden_append() -> Message {
    Message::AppendEntry(AppendEntryMsg {
        term: Term(3),
        leader: NodeId(0),
        entries: vec![Entry::data(
            LogIndex(42),
            Term(3),
            Term(2),
            Some(Origin { client: ClientId(7), request: RequestId(9) }),
            Bytes::from((0..40usize).map(|i| (i * 31 + 7) as u8).collect::<Vec<u8>>()),
        )],
        leader_commit: LogIndex(40),
        verification: None,
        relay_to: vec![],
    })
}

/// One sample of every other wire layout, pinned as `(frame hex, value)`:
/// every `Message` variant (each `AcceptState` and `Payload` among them, and
/// a verified `Append`), `ClientRequest`, every `ClientResponse` and every
/// `NetFrame` (both `PeerKind`s). The bytes are those of the hand-written
/// per-type encoders the declared layouts replaced, so a field order or tag
/// changed on the encode and decode side at once still shows here.
fn pinned_messages() -> Vec<(&'static str, Message)> {
    let (client, request) = (ClientId(0x0C), RequestId(0x0D));
    let fragment =
        Fragment { shard: 1, k: 2, n: 3, orig_len: 5, data: Bytes::from_static(b"frag") };
    let append = |payload, verification| {
        Message::AppendEntry(AppendEntryMsg {
            term: Term(0x11),
            leader: NodeId(2),
            entries: vec![Entry {
                index: LogIndex(0x21),
                term: Term(0x11),
                prev_term: Term(0x10),
                origin: Some(Origin { client, request }),
                payload,
            }],
            leader_commit: LogIndex(0x1F),
            verification,
            relay_to: vec![NodeId(3), NodeId(4)],
        })
    };
    let resp =
        |state| Message::AppendResp(AppendRespMsg { term: Term(0x11), from: NodeId(3), state });
    vec![
        (
            "5000000048893cf6001100000000000000020000000100000021000000000000\
             0011000000000000001000000000000000010c000000000000000d0000000000\
             0000001f0000000000000000020000000300000004000000",
            append(Payload::Noop, None),
        ),
        (
            "5f000000f933bed5001100000000000000020000000100000021000000000000\
             0011000000000000001000000000000000010c000000000000000d0000000000\
             0000020102030500000004000000667261671f00000000000000000200000003\
             00000004000000",
            append(Payload::Fragment(fragment.clone()), None),
        ),
        (
            "a9000000dad017a6001100000000000000020000000100000021000000000000\
             0011000000000000001000000000000000010c000000000000000d0000000000\
             0000010900000074656d703d32312e351f000000000000000100010203040506\
             0708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1ffffefdfcfbfaf9\
             f8f7f6f5f4f3f2f1f0efeeedecebeae9e8e7e6e5e4e3e2e1e002000000010000\
             0004000000020000000300000004000000",
            append(
                Payload::Data(Bytes::from_static(b"temp=21.5")),
                Some(Verification {
                    digest: std::array::from_fn(|i| i as u8),
                    signature: std::array::from_fn(|i| 0xFF - i as u8),
                    group: vec![NodeId(1), NodeId(4)],
                }),
            ),
        ),
        (
            "1e000000b8d05967011100000000000000030000000021000000000000001000\
             000000000000",
            resp(AcceptState::Strong { last_index: LogIndex(0x21), last_term: Term(0x10) }),
        ),
        (
            "1e00000097af9d05011100000000000000030000000122000000000000001100\
             000000000000",
            resp(AcceptState::Weak { index: LogIndex(0x22), term: Term(0x11) }),
        ),
        (
            "1e000000d47905a5011100000000000000030000000223000000000000001a00\
             000000000000",
            resp(AcceptState::Mismatch { index: LogIndex(0x23), resend_from: LogIndex(0x1A) }),
        ),
        (
            "25000000d466765d021100000000000000020000002400000000000000100000\
             00000000001f00000000000000",
            heartbeat(),
        ),
        (
            "1d0000009cc9aaa4031100000000000000030000002400000000000000100000\
             0000000000",
            Message::HeartbeatResp(HeartbeatRespMsg {
                term: Term(0x11),
                from: NodeId(3),
                last_index: LogIndex(0x24),
                last_term: Term(0x10),
            }),
        ),
        (
            "1d0000009af094d7041200000000000000040000002500000000000000110000\
             0000000000",
            Message::RequestVote(RequestVoteMsg {
                term: Term(0x12),
                candidate: NodeId(4),
                last_log_index: LogIndex(0x25),
                last_log_term: Term(0x11),
            }),
        ),
        (
            "0e0000001d1d24cb0512000000000000000100000001",
            Message::RequestVoteResp(RequestVoteRespMsg {
                term: Term(0x12),
                from: NodeId(1),
                granted: true,
            }),
        ),
        (
            "1d000000c3d962650613000000000000000200000026000000000000002a0000\
             0000000000",
            Message::PullFragments(PullFragmentsMsg {
                term: Term(0x13),
                from: NodeId(2),
                from_index: LogIndex(0x26),
                to_index: LogIndex(0x2A),
            }),
        ),
        (
            "30000000b701b016071300000000000000030000000100000026000000000000\
             001200000000000000010203050000000400000066726167",
            Message::PushFragments(PushFragmentsMsg {
                term: Term(0x13),
                from: NodeId(3),
                fragments: vec![(LogIndex(0x26), Term(0x12), fragment)],
            }),
        ),
        (
            "2e000000fe731b64081400000000000000020000004000000000000000130000\
             0000000000410000000000000005000000696d616765",
            Message::InstallSnapshot(InstallSnapshotMsg {
                term: Term(0x14),
                leader: NodeId(2),
                last_index: LogIndex(0x40),
                last_term: Term(0x13),
                leader_commit: LogIndex(0x41),
                data: Bytes::from_static(b"image"),
            }),
        ),
        (
            "150000008df69c7f091400000000000000040000004000000000000000",
            Message::InstallSnapshotResp(InstallSnapshotRespMsg {
                term: Term(0x14),
                from: NodeId(4),
                last_index: LogIndex(0x40),
            }),
        ),
        (
            "150000005c624e760a1500000000000000010000007700000000000000",
            Message::ReadIndexReq(ReadIndexReqMsg {
                term: Term(0x15),
                from: NodeId(1),
                probe: 0x77,
            }),
        ),
        (
            "190000003ee42a680b1500000000000000420000000000000077000000000000\
             00",
            Message::ReadIndexResp(ReadIndexRespMsg {
                term: Term(0x15),
                read_index: LogIndex(0x42),
                probe: 0x77,
            }),
        ),
    ]
}

fn heartbeat() -> Message {
    Message::Heartbeat(HeartbeatMsg {
        term: Term(0x11),
        leader: NodeId(2),
        last_index: LogIndex(0x24),
        last_term: Term(0x10),
        leader_commit: LogIndex(0x1F),
    })
}

fn pinned_request() -> (&'static str, ClientRequest) {
    let payload = Bytes::from_static(b"temp=21.5");
    (
        "1d000000b9f42b720c000000000000000d000000000000000900000074656d70\
         3d32312e35",
        ClientRequest { client: ClientId(0x0C), request: RequestId(0x0D), payload },
    )
}

fn pinned_responses() -> Vec<(&'static str, ClientResponse)> {
    let (request, index, term) = (RequestId(0x0D), LogIndex(0x21), Term(0x11));
    vec![
        (
            "190000001012a7da000d00000000000000210000000000000011000000000000\
             00",
            ClientResponse::Weak { request, index, term },
        ),
        (
            "190000001e822c7f010d00000000000000210000000000000011000000000000\
             00",
            ClientResponse::Strong { request, index, term },
        ),
        ("090000009d0dee78021100000000000000", ClientResponse::LeaderChanged { term }),
        (
            "0e00000059dd9f7d030d000000000000000102000000",
            ClientResponse::NotLeader { request, hint: Some(NodeId(2)) },
        ),
        ("0a0000002234f2f9030d0000000000000000", ClientResponse::NotLeader { request, hint: None }),
    ]
}

fn pinned_net_frames() -> Vec<(&'static str, NetFrame)> {
    let hello = |kind, groups| {
        NetFrame::Hello(HelloMsg { version: NET_PROTOCOL_VERSION, cluster_id: 0xC1, kind, groups })
    };
    vec![
        (
            "160000008233ffbf0005000000c100000000000000000200000001000000",
            hello(PeerKind::Node(NodeId(2)), 1),
        ),
        (
            "1a000000e08b7ab50005000000c100000000000000010c000000000000000800\
             0000",
            hello(PeerKind::Client(ClientId(0x0C)), 8),
        ),
        (
            "2e000000d5be05a6010500000003000000021100000000000000020000002400\
             00000000000010000000000000001f00000000000000",
            NetFrame::Peer { group: 5, to: NodeId(3), msg: heartbeat() },
        ),
        (
            "260000008f08c1f80206000000020000000c000000000000000d000000000000\
             000900000074656d703d32312e35",
            NetFrame::Request { group: 6, to: NodeId(2), req: pinned_request().1 },
        ),
        (
            "1a000000554fd36e03000d000000000000002100000000000000110000000000\
             0000",
            NetFrame::Response(pinned_responses().remove(0).1),
        ),
        ("090000006cd93bdc040010000000000000", NetFrame::Ping { t0: 0x1000 }),
        (
            "110000001e52e5880500100000000000003412000000000000",
            NetFrame::Pong { t0: 0x1000, t1: 0x1234 },
        ),
    ]
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
}

/// `frame` decodes to exactly `value`, and `value` encodes to exactly `frame`.
fn assert_pinned<T: Wire + PartialEq + std::fmt::Debug>(frame: &[u8], value: T) {
    let (back, used) = decode_frame::<T>(frame).unwrap().expect("complete frame");
    assert_eq!(used, frame.len(), "{value:?}");
    assert_eq!(back, value);
    assert_eq!(encode_frame(&value), frame, "{value:?}");
}

#[test]
fn frame_from_the_bytewise_build_decodes_and_reencodes_identically() {
    assert_pinned(GOLDEN_APPEND_FRAME, golden_append());
    for (hex, msg) in pinned_messages() {
        assert_pinned(&unhex(hex), msg);
    }
    let (hex, req) = pinned_request();
    assert_pinned(&unhex(hex), req);
    for (hex, resp) in pinned_responses() {
        assert_pinned(&unhex(hex), resp);
    }
    for (hex, frame) in pinned_net_frames() {
        assert_pinned(&unhex(hex), frame);
    }
}
