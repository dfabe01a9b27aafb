//! Adversarial-input hardening tests for the wire codec.
//!
//! A TCP transport feeds `decode_frame` bytes straight off untrusted
//! sockets, so the codec must hold three properties under arbitrary input:
//!
//! 1. **No panic** — every byte sequence either decodes, errors, or asks
//!    for more bytes. Decoding is total.
//! 2. **Bounded allocation** — a corrupt length prefix or vector count must
//!    be rejected *before* any allocation sized from it.
//! 3. **Prefix progress** — a successful decode consumes a whole frame so a
//!    streaming reader can never spin on the same bytes.
//!
//! These are seeded fuzz loops (deterministic, CI-friendly) rather than a
//! coverage-guided fuzzer: the codec's state space is small enough that a
//! few hundred thousand structured mutations exercise every decode path.

use bytes::Bytes;
use nbr_types::wire::{decode_frame, decode_frame_capped, encode_frame, Reader, Wire};
use nbr_types::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn entry_run(first: u64, n: usize) -> Vec<Entry> {
    (0..n as u64)
        .map(|i| Entry {
            index: LogIndex(first + i),
            term: Term(3),
            prev_term: Term(if i == 0 { 2 } else { 3 }),
            origin: Some(Origin { client: ClientId(7), request: RequestId(42 + i) }),
            payload: Payload::Data(Bytes::from(format!("sensor-reading-{i}"))),
        })
        .collect()
}

fn sample_frames() -> Vec<Vec<u8>> {
    let msg = Message::AppendEntry(AppendEntryMsg {
        term: Term(3),
        leader: NodeId(0),
        entries: entry_run(11, 1),
        leader_commit: LogIndex(9),
        verification: None,
        relay_to: vec![NodeId(1), NodeId(2)],
    });
    let batched = Message::AppendEntry(AppendEntryMsg {
        term: Term(3),
        leader: NodeId(0),
        entries: entry_run(11, 5),
        leader_commit: LogIndex(9),
        verification: None,
        relay_to: vec![],
    });
    let req = ClientRequest {
        client: ClientId(5),
        request: RequestId(6),
        payload: Bytes::from(vec![0xA5; 512]),
    };
    let net = NetFrame::Peer {
        group: 0,
        to: NodeId(0),
        msg: Message::Heartbeat(HeartbeatMsg {
            term: Term(4),
            leader: NodeId(1),
            last_index: LogIndex(9),
            last_term: Term(4),
            leader_commit: LogIndex(8),
        }),
    };
    let hello = NetFrame::Hello(HelloMsg {
        version: NET_PROTOCOL_VERSION,
        cluster_id: 7,
        groups: 8,
        kind: PeerKind::Client(ClientId(3)),
    });
    let routed = NetFrame::Request {
        group: 3,
        to: NodeId(2),
        req: ClientRequest {
            client: ClientId(5),
            request: RequestId(6),
            payload: Bytes::from(vec![0x5A; 128]),
        },
    };
    let ping = NetFrame::Ping { t0: 123_456_789 };
    let pong = NetFrame::Pong { t0: 123_456_789, t1: 123_999_999 };
    vec![
        encode_frame(&msg),
        encode_frame(&batched),
        encode_frame(&req),
        encode_frame(&net),
        encode_frame(&hello),
        encode_frame(&routed),
        encode_frame(&ping),
        encode_frame(&pong),
    ]
}

/// Decoding must be total: panic-free on every mutation of a valid frame.
#[test]
fn mutated_frames_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xF42);
    let frames = sample_frames();
    for round in 0..20_000u32 {
        let mut frame = frames[(round as usize) % frames.len()].clone();
        // Flip 1–8 random bytes (header and body both in range).
        let flips = rng.random_range(1usize..=8);
        for _ in 0..flips {
            let at = rng.random_range(0..frame.len() as u64) as usize;
            frame[at] ^= rng.random_range(1..=255u64) as u8;
        }
        // Optionally truncate.
        let cut = rng.random_range(0..=frame.len() as u64) as usize;
        let view = &frame[..cut];
        let _ = decode_frame::<Message>(view);
        let _ = decode_frame::<NetFrame>(view);
        let _ = decode_frame::<ClientRequest>(view);
        let _ = decode_frame::<ClientResponse>(view);
    }
}

/// The clock-sample fields (`Ping.t0`, `Pong.t0/t1`) are raw u64s, and a
/// `Request` puts its routing fields in front of a variable-length payload.
/// Exhaustive single-byte corruption of those frames — every offset, every
/// bit — must decode totally, and a tight transport cap must keep any
/// allocation implied by a corrupted length prefix bounded.
#[test]
fn mutated_trace_fields_total_and_bounded() {
    let frames = [
        encode_frame(&NetFrame::Request {
            group: MAX_GROUPS - 1,
            to: NodeId(1),
            req: ClientRequest {
                client: ClientId(0xFFFF_FFFF),
                request: RequestId(u64::MAX),
                payload: Bytes::from(vec![0x7E; 64]),
            },
        }),
        encode_frame(&NetFrame::Ping { t0: u64::MAX }),
        encode_frame(&NetFrame::Pong { t0: u64::MAX, t1: 0 }),
    ];
    for frame in &frames {
        for at in 0..frame.len() {
            for bit in 0..8 {
                let mut m = frame.clone();
                m[at] ^= 1 << bit;
                // Total: decodes, errors, or wants more bytes — never panics.
                let _ = decode_frame::<NetFrame>(&m);
                // Bounded: a corrupted length/count can at worst ask the
                // 1 KiB transport cap, never the claimed size.
                let _ = decode_frame_capped::<NetFrame>(&m, 1 << 10);
            }
        }
    }
}

/// Pure random garbage (not derived from a valid frame) must also be total.
#[test]
fn random_garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xBAD5EED);
    for _ in 0..20_000u32 {
        let len = rng.random_range(0..256u64) as usize;
        let buf: Vec<u8> = (0..len).map(|_| rng.random_range(0..=255u64) as u8).collect();
        let _ = decode_frame::<Message>(&buf);
        let _ = decode_frame::<NetFrame>(&buf);
    }
}

/// Every truncation of a valid frame is either `None` (incomplete) or an
/// error once the header itself lies — never a partial value, never a panic.
#[test]
fn truncations_are_incomplete_or_error() {
    for frame in sample_frames() {
        for cut in 0..frame.len() {
            match decode_frame::<NetFrame>(&frame[..cut]) {
                Ok(None) | Err(Error::Codec(_)) => {}
                Ok(Some(_)) => panic!("decoded a value from a truncated frame (cut={cut})"),
                Err(e) => panic!("unexpected error class: {e}"),
            }
        }
    }
}

/// An adversarial length prefix must be rejected up front — *before* the
/// decoder waits for (or allocates) the claimed body.
#[test]
fn oversized_length_prefix_rejected_without_allocation() {
    // Claimed body of MAX_FRAME_LEN + 1: rejected by the built-in cap.
    let mut buf = Vec::new();
    buf.extend_from_slice(&((wire::MAX_FRAME_LEN as u32) + 1).to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    assert!(matches!(decode_frame::<Message>(&buf), Err(Error::Codec(_))));

    // A transport-tier cap tightens the bound: a 1 MiB claim is fine for the
    // default cap but refused by a 64 KiB transport cap even though the
    // body bytes have not arrived yet.
    let mut buf = Vec::new();
    buf.extend_from_slice(&(1u32 << 20).to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    assert!(decode_frame::<Message>(&buf).unwrap().is_none(), "still streaming at default cap");
    assert!(matches!(decode_frame_capped::<Message>(&buf, 64 << 10), Err(Error::Codec(_))));

    // The cap can only tighten, never loosen, the built-in maximum.
    let mut buf = Vec::new();
    buf.extend_from_slice(&((wire::MAX_FRAME_LEN as u32) + 1).to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    assert!(matches!(decode_frame_capped::<Message>(&buf, usize::MAX), Err(Error::Codec(_))));
}

/// A vector count far beyond the frame size must fail fast instead of
/// reserving `count * size_of::<T>()` bytes.
#[test]
fn absurd_vector_counts_rejected() {
    // Body: a PushFragments message claiming u32::MAX fragments.
    let mut w = wire::Writer::new();
    w.u8(7); // Message::PushFragments tag
    Term(1).encode(&mut w);
    NodeId(0).encode(&mut w);
    w.u32(u32::MAX); // fragment count
    let body = w.into_bytes();
    let mut frame = Vec::new();
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&nbr_types::checksum::crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    assert!(matches!(decode_frame::<Message>(&frame), Err(Error::Codec(_))));
}

/// Same for byte-string length prefixes inside a frame body.
#[test]
fn absurd_byte_lengths_rejected() {
    let mut w = wire::Writer::new();
    ClientId(1).encode(&mut w);
    RequestId(1).encode(&mut w);
    w.u32(u32::MAX); // payload length prefix, no payload bytes
    let body = w.into_bytes();
    let mut frame = Vec::new();
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&nbr_types::checksum::crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    assert!(matches!(decode_frame::<ClientRequest>(&frame), Err(Error::Codec(_))));
}

/// Every truncation of a batched Append frame is incomplete or an error —
/// never a shorter batch silently decoded as complete.
#[test]
fn batched_append_truncations_total() {
    let frame = encode_frame(&Message::AppendEntry(AppendEntryMsg {
        term: Term(3),
        leader: NodeId(0),
        entries: entry_run(1, 8),
        leader_commit: LogIndex(0),
        verification: None,
        relay_to: vec![],
    }));
    for cut in 0..frame.len() {
        match decode_frame::<Message>(&frame[..cut]) {
            Ok(None) | Err(Error::Codec(_)) => {}
            Ok(Some(_)) => panic!("decoded a value from a truncated batch (cut={cut})"),
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }
    // The shared (zero-copy) decode path must be equally total.
    for cut in 0..frame.len() {
        let view = Bytes::copy_from_slice(&frame[..cut]);
        match wire::decode_frame_shared::<Message>(&view, wire::MAX_FRAME_LEN) {
            Ok(None) | Err(Error::Codec(_)) => {}
            Ok(Some(_)) => panic!("shared decode of a truncated batch (cut={cut})"),
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }
}

/// A hostile entry count in an Append frame fails fast: both a count that
/// exceeds the frame and a count over the batch cap (with plausible bytes
/// behind it) are rejected without building the oversized batch.
#[test]
fn hostile_append_entry_counts_rejected() {
    // Count far beyond the frame's bytes.
    let mut w = wire::Writer::new();
    w.u8(0); // Message::AppendEntry tag
    Term(3).encode(&mut w);
    NodeId(0).encode(&mut w);
    w.u32(u32::MAX); // entry count
    let body = w.into_bytes();
    let mut frame = Vec::new();
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&nbr_types::checksum::crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    assert!(matches!(decode_frame::<Message>(&frame), Err(Error::Codec(_))));

    // A structurally valid batch one past MAX_APPEND_BATCH.
    let over = Message::AppendEntry(AppendEntryMsg {
        term: Term(3),
        leader: NodeId(0),
        entries: entry_run(1, MAX_APPEND_BATCH + 1),
        leader_commit: LogIndex(0),
        verification: None,
        relay_to: vec![],
    });
    assert!(matches!(decode_frame::<Message>(&encode_frame(&over)), Err(Error::Codec(_))));
}

/// A transport-tier frame cap applies to batched Append frames: batches
/// that are individually legal but collectively oversized are refused by
/// `decode_frame_capped` before the body is decoded.
#[test]
fn batched_append_respects_transport_cap() {
    let msg = Message::AppendEntry(AppendEntryMsg {
        term: Term(3),
        leader: NodeId(0),
        entries: (0..16u64)
            .map(|i| Entry {
                index: LogIndex(1 + i),
                term: Term(3),
                prev_term: Term(if i == 0 { 2 } else { 3 }),
                origin: None,
                payload: Payload::Data(Bytes::from(vec![0xAB; 8 << 10])),
            })
            .collect(),
        leader_commit: LogIndex(0),
        verification: None,
        relay_to: vec![],
    });
    let frame = encode_frame(&msg);
    assert!(frame.len() > 64 << 10);
    assert!(decode_frame_capped::<Message>(&frame, frame.len()).unwrap().is_some());
    assert!(matches!(decode_frame_capped::<Message>(&frame, 64 << 10), Err(Error::Codec(_))));
}

/// Wrap a hand-written body in the standard `len || crc || body` framing.
fn frame_bytes(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&nbr_types::checksum::crc32(body).to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

/// The group envelope puts a u32 group id in `Peer`/`Request` and a group
/// count in `Hello`. Exhaustive single-byte corruption — every
/// offset, every bit — of group-carrying frames must stay total: decode,
/// error, or want-more, never a panic, and never an id at or above
/// `MAX_GROUPS` slipping through into demux-table indexing downstream.
#[test]
fn mutated_group_fields_total_and_bounded() {
    let frames = [
        encode_frame(&NetFrame::Peer {
            group: MAX_GROUPS - 1,
            to: NodeId(2),
            msg: Message::Heartbeat(HeartbeatMsg {
                term: Term(4),
                leader: NodeId(1),
                last_index: LogIndex(9),
                last_term: Term(4),
                leader_commit: LogIndex(8),
            }),
        }),
        encode_frame(&NetFrame::Request {
            group: 7,
            to: NodeId(1),
            req: ClientRequest {
                client: ClientId(3),
                request: RequestId(6),
                payload: Bytes::from_static(b"t=4"),
            },
        }),
        encode_frame(&NetFrame::Hello(HelloMsg {
            version: NET_PROTOCOL_VERSION,
            cluster_id: 7,
            groups: MAX_GROUPS,
            kind: PeerKind::Node(NodeId(0)),
        })),
    ];
    for frame in &frames {
        for at in 0..frame.len() {
            for bit in 0..8 {
                let mut m = frame.clone();
                m[at] ^= 1 << bit;
                match decode_frame::<NetFrame>(&m) {
                    Ok(Some((NetFrame::Peer { group, .. }, _)))
                    | Ok(Some((NetFrame::Request { group, .. }, _))) => {
                        assert!(group < MAX_GROUPS, "out-of-range group survived decode");
                    }
                    Ok(Some((NetFrame::Hello(h), _))) => {
                        assert!(
                            h.groups >= 1 && h.groups <= MAX_GROUPS,
                            "out-of-range group count survived decode"
                        );
                    }
                    _ => {} // error, want-more, or a different (valid) frame
                }
            }
        }
    }
}

/// Absurd group ids written straight into a routed frame's envelope are a
/// codec error — the bound is enforced at decode, not left to routing.
#[test]
fn absurd_group_ids_rejected() {
    for group in [MAX_GROUPS, MAX_GROUPS + 1, u32::MAX] {
        let mut w = wire::Writer::new();
        w.u8(2); // NetFrame::Request tag
        w.u32(group);
        NodeId(0).encode(&mut w);
        ClientId(1).encode(&mut w);
        RequestId(1).encode(&mut w);
        w.u32(0); // empty payload
        let frame = frame_bytes(&w.into_bytes());
        assert!(
            matches!(decode_frame::<NetFrame>(&frame), Err(Error::Codec(_))),
            "group id {group} must be refused"
        );
    }
    // Same bound on the handshake's declared group count (plus zero, which
    // no process can host).
    for groups in [0u32, MAX_GROUPS + 1, u32::MAX] {
        let mut w = wire::Writer::new();
        w.u8(0); // NetFrame::Hello tag
        w.u32(NET_PROTOCOL_VERSION as u32);
        w.u64(1);
        PeerKind::Node(NodeId(0)).encode(&mut w);
        w.u32(groups);
        let frame = frame_bytes(&w.into_bytes());
        assert!(
            matches!(decode_frame::<NetFrame>(&frame), Err(Error::Codec(_))),
            "group count {groups} must be refused"
        );
    }
}

/// Cross-version handshake: a v4 peer's `Hello` has the current layout, so
/// it must decode *cleanly* — version 4, its own group count — and the
/// transport can refuse it as an accounted version mismatch instead of
/// tearing the connection down as a corrupt stream. A truncated `Hello`
/// missing its group count must conversely read as incomplete, never as a
/// frame with an invented count.
#[test]
fn cross_version_hello_decodes_cleanly() {
    let mut w = wire::Writer::new();
    w.u8(0); // NetFrame::Hello tag
    w.u32(4); // v4
    w.u64(0xC0FFEE);
    PeerKind::Node(NodeId(2)).encode(&mut w);
    w.u32(3); // group count
    let frame = frame_bytes(&w.into_bytes());
    match decode_frame::<NetFrame>(&frame) {
        Ok(Some((NetFrame::Hello(h), used))) => {
            assert_eq!(h.version, 4);
            assert_eq!(h.cluster_id, 0xC0FFEE);
            assert_eq!(h.groups, 3);
            assert_eq!(used, frame.len());
        }
        other => panic!("v4 Hello must decode cleanly, got {other:?}"),
    }

    // A Hello truncated just before its group count: incomplete or error,
    // never a decoded value.
    let full = encode_frame(&NetFrame::Hello(HelloMsg {
        version: NET_PROTOCOL_VERSION,
        cluster_id: 0xC0FFEE,
        groups: 4,
        kind: PeerKind::Node(NodeId(2)),
    }));
    for cut in 0..full.len() {
        match decode_frame::<NetFrame>(&full[..cut]) {
            Ok(None) | Err(Error::Codec(_)) => {}
            Ok(Some(_)) => panic!("decoded a truncated Hello (cut={cut})"),
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }
}

/// Reader primitives are themselves total over random short buffers.
#[test]
fn reader_primitives_total() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..50_000u32 {
        let len = rng.random_range(0..64u64) as usize;
        let buf: Vec<u8> = (0..len).map(|_| rng.random_range(0..=255u64) as u8).collect();
        let mut r = Reader::new(&buf);
        // Interleave primitive reads until one errors out.
        loop {
            let pick = rng.random_range(0..4u64);
            let failed = match pick {
                0 => r.u8().is_err(),
                1 => r.u32().is_err(),
                2 => r.u64().is_err(),
                _ => r.bytes().is_err(),
            };
            if failed {
                break;
            }
            if r.remaining() == 0 {
                break;
            }
        }
    }
}
