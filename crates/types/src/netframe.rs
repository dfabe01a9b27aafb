//! Socket-level envelope frames for the TCP transport (`nbr-net`).
//!
//! The in-process router moves [`Message`]s between endpoints as Rust
//! values; a real transport needs a self-describing envelope that also
//! carries *addressing* (which local endpoint a frame is for) and a
//! connection *handshake*. [`NetFrame`] is that envelope. It rides inside
//! the same `len || crc || body` framing as every other wire value (see
//! [`crate::wire::encode_frame`]), so the delivery layer inherits the
//! codec's length guards and CRC integrity checking.
//!
//! Connection lifecycle: the first frame on any connection must be a
//! [`NetFrame::Hello`] declaring the protocol version, the cluster id and
//! who is connecting ([`PeerKind::Node`] for replica-to-replica links,
//! [`PeerKind::Client`] for client sessions). A receiver drops connections
//! whose version or cluster id does not match its own — this is what stops
//! a mis-configured process from silently joining the wrong cluster.
//! [`NetFrame::Ping`]/[`NetFrame::Pong`] are idle keepalives; the nonce
//! lets a sender match a pong to its ping.

use crate::error::{Error, Result};
use crate::ids::{ClientId, NodeId, RequestId};
use crate::message::{ClientRequest, ClientResponse, Message};
use crate::wire::{Reader, Wire, Writer};

/// Version of the socket envelope protocol. Bump on any change to
/// [`NetFrame`]'s encoding; handshakes with a different version are refused.
/// v2: `Append` carries a contiguous entry batch instead of a single entry.
/// v3: `Request` carries a trace id; `Ping`/`Pong` carry clock-sync
/// timestamps for cross-node trace alignment.
/// v4: `Peer`/`Request`/`Response` carry the Raft *group* they belong to,
/// so one per-peer connection multiplexes every group of a sharded
/// deployment; `Hello` declares the sender's group count.
pub const NET_PROTOCOL_VERSION: u16 = 4;

/// Upper bound on the per-process Raft group count a handshake may declare.
/// Far above any sane deployment (groups cost replica threads and inboxes);
/// exists so a corrupt or hostile `Hello` cannot smuggle an absurd count
/// into table sizing downstream.
pub const MAX_GROUPS: u32 = 1024;

/// Who is on the remote end of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerKind {
    /// A replica, identified by its node id.
    Node(NodeId),
    /// A client session, identified by its client id.
    Client(ClientId),
}

/// Connection handshake: the mandatory first frame on every connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloMsg {
    /// Envelope protocol version ([`NET_PROTOCOL_VERSION`]).
    pub version: u16,
    /// Cluster instance id; both sides must agree.
    pub cluster_id: u64,
    /// Identity of the connecting side.
    pub kind: PeerKind,
    /// Raft groups the sender's process hosts (v4+; decoding a pre-v4
    /// `Hello` defaults to 1). Both sides of a peer link must agree —
    /// mismatched group counts mean mismatched shard maps, which would
    /// silently misroute traffic, so the handshake refuses them.
    pub groups: u32,
}

/// One frame on a transport connection.
#[derive(Debug, Clone, PartialEq)]
pub enum NetFrame {
    /// Handshake (first frame, exactly once).
    Hello(HelloMsg),
    /// Replica-to-replica protocol message addressed to node `to` of Raft
    /// group `group`.
    Peer {
        /// Raft group the message belongs to (0 in unsharded deployments).
        group: u32,
        /// Sending replica.
        from: NodeId,
        /// Destination replica (the remote process may host several).
        to: NodeId,
        /// The protocol message.
        msg: Message,
    },
    /// Client request addressed to node `to` of Raft group `group`.
    Request {
        /// Raft group that owns the request's key range (0 when unsharded).
        group: u32,
        /// Destination replica.
        to: NodeId,
        /// Trace id stamped by the submitting client (instrumentation
        /// only: never consulted by the protocol; `(client, request)`
        /// remains the identity used for dedup and retries).
        trace: u64,
        /// The request.
        req: ClientRequest,
    },
    /// Response to a client session.
    Response {
        /// Raft group the responding replica belongs to (0 when unsharded).
        group: u32,
        /// Destination client.
        client: ClientId,
        /// The response.
        resp: ClientResponse,
    },
    /// Idle keepalive probe, doubling as an NTP-style clock sample.
    Ping {
        /// Echoed back in the matching [`NetFrame::Pong`].
        nonce: u64,
        /// Sender's trace clock (ns) at transmit.
        t0: u64,
    },
    /// Keepalive reply.
    Pong {
        /// Nonce of the ping being answered.
        nonce: u64,
        /// Echo of the ping's transmit timestamp.
        t0: u64,
        /// Responder's trace clock (ns) at receipt of the ping.
        t1: u64,
    },
}

/// Deterministic trace id for a client op, stamped into
/// [`NetFrame::Request`] at submission. Derived (not random) so every hop —
/// client, relaying transport, span collector — computes the same id from
/// the `(client, request)` identity without coordination.
pub fn trace_id(client: ClientId, request: RequestId) -> u64 {
    (client.0 << 32) | (request.0 & 0xFFFF_FFFF)
}

/// Group-namespaced trace id for sharded deployments: folds the owning
/// Raft group into bits 48..63 of the deterministic per-op id, so ids from
/// different groups of one process never collide in a merged trace. Like
/// [`trace_id`] it is derived, not random — every hop recomputes the same
/// value from `(group, client, request)` without coordination. Exact
/// (collision-free) whenever client ids stay below 2^16, which every
/// harness in this workspace guarantees; `group_trace_id(0, c, r)` equals
/// `trace_id(c, r)`, so unsharded traffic is unchanged.
pub fn group_trace_id(group: u32, client: ClientId, request: RequestId) -> u64 {
    (u64::from(group) << 48) ^ trace_id(client, request)
}

crate::wire_enum!(PeerKind: u8, "peer kind" { 0 => Node(id), 1 => Client(id) });

impl Wire for HelloMsg {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.version as u32);
        w.u64(self.cluster_id);
        self.kind.encode(w);
        w.u32(self.groups);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let version = r.u32()?;
        if version > u16::MAX as u32 {
            return Err(Error::Codec(format!("implausible protocol version {version}")));
        }
        let cluster_id = r.u64()?;
        let kind = PeerKind::decode(r)?;
        // The group count is a v4 addition *after* the v3 fields, so a v3
        // peer's Hello still decodes cleanly here — the handshake then
        // refuses it with an accounted version mismatch instead of a codec
        // error tearing the connection down as "corrupt".
        let groups = if version >= 4 { r.u32()? } else { 1 };
        if groups == 0 || groups > MAX_GROUPS {
            return Err(Error::Codec(format!("implausible group count {groups}")));
        }
        Ok(HelloMsg { version: version as u16, cluster_id, kind, groups })
    }
}

impl Wire for NetFrame {
    fn encode(&self, w: &mut Writer) {
        match self {
            NetFrame::Hello(h) => {
                w.u8(0);
                h.encode(w);
            }
            NetFrame::Peer { group, from, to, msg } => {
                w.u8(1);
                w.u32(*group);
                from.encode(w);
                to.encode(w);
                msg.encode(w);
            }
            NetFrame::Request { group, to, trace, req } => {
                w.u8(2);
                w.u32(*group);
                to.encode(w);
                w.u64(*trace);
                req.encode(w);
            }
            NetFrame::Response { group, client, resp } => {
                w.u8(3);
                w.u32(*group);
                client.encode(w);
                resp.encode(w);
            }
            NetFrame::Ping { nonce, t0 } => {
                w.u8(4);
                w.u64(*nonce);
                w.u64(*t0);
            }
            NetFrame::Pong { nonce, t0, t1 } => {
                w.u8(5);
                w.u64(*nonce);
                w.u64(*t0);
                w.u64(*t1);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(NetFrame::Hello(HelloMsg::decode(r)?)),
            1 => Ok(NetFrame::Peer {
                group: decode_group(r)?,
                from: NodeId::decode(r)?,
                to: NodeId::decode(r)?,
                msg: Message::decode(r)?,
            }),
            2 => Ok(NetFrame::Request {
                group: decode_group(r)?,
                to: NodeId::decode(r)?,
                trace: r.u64()?,
                req: ClientRequest::decode(r)?,
            }),
            3 => Ok(NetFrame::Response {
                group: decode_group(r)?,
                client: ClientId::decode(r)?,
                resp: ClientResponse::decode(r)?,
            }),
            4 => Ok(NetFrame::Ping { nonce: r.u64()?, t0: r.u64()? }),
            5 => Ok(NetFrame::Pong { nonce: r.u64()?, t0: r.u64()?, t1: r.u64()? }),
            v => Err(Error::Codec(format!("invalid net frame tag {v}"))),
        }
    }
}

/// Decode a routed frame's group id, bounded the same way the handshake's
/// group count is: a flipped byte in this field must surface as a codec
/// error here, not as an index into a demux table it could never fit.
fn decode_group(r: &mut Reader<'_>) -> Result<u32> {
    let group = r.u32()?;
    if group >= MAX_GROUPS {
        return Err(Error::Codec(format!("implausible group id {group}")));
    }
    Ok(group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LogIndex, RequestId, Term};
    use crate::message::HeartbeatMsg;
    use crate::wire::{decode_frame, encode_frame};
    use bytes::Bytes;

    fn samples() -> Vec<NetFrame> {
        vec![
            NetFrame::Hello(HelloMsg {
                version: NET_PROTOCOL_VERSION,
                cluster_id: 0xC0FFEE,
                kind: PeerKind::Node(NodeId(2)),
                groups: 1,
            }),
            NetFrame::Hello(HelloMsg {
                version: NET_PROTOCOL_VERSION,
                cluster_id: 1,
                kind: PeerKind::Client(ClientId(77)),
                groups: 8,
            }),
            NetFrame::Peer {
                group: 0,
                from: NodeId(1),
                to: NodeId(0),
                msg: Message::Heartbeat(HeartbeatMsg {
                    term: Term(4),
                    leader: NodeId(1),
                    last_index: LogIndex(9),
                    last_term: Term(4),
                    leader_commit: LogIndex(8),
                }),
            },
            NetFrame::Request {
                group: 3,
                to: NodeId(0),
                trace: (5u64 << 32) | 6,
                req: ClientRequest {
                    client: ClientId(5),
                    request: RequestId(6),
                    payload: Bytes::from_static(b"temp=21.5"),
                },
            },
            NetFrame::Response {
                group: MAX_GROUPS - 1,
                client: ClientId(5),
                resp: ClientResponse::Weak {
                    request: RequestId(6),
                    index: LogIndex(10),
                    term: Term(4),
                },
            },
            NetFrame::Ping { nonce: 42, t0: 1_000_000 },
            NetFrame::Pong { nonce: 42, t0: 1_000_000, t1: 1_004_500 },
        ]
    }

    #[test]
    fn net_frames_round_trip() {
        for f in samples() {
            let bytes = encode_frame(&f);
            let (back, used) = decode_frame::<NetFrame>(&bytes).unwrap().unwrap();
            assert_eq!(back, f);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn streamed_frames_decode_in_sequence() {
        // Concatenate every sample into one buffer and pull frames off the
        // front, the way a socket reader does.
        let frames = samples();
        let mut buf = Vec::new();
        for f in &frames {
            buf.extend_from_slice(&encode_frame(f));
        }
        let mut got = Vec::new();
        let mut pos = 0;
        while let Some((f, used)) = decode_frame::<NetFrame>(&buf[pos..]).unwrap() {
            got.push(f);
            pos += used;
        }
        assert_eq!(got, frames);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn invalid_tags_rejected() {
        let mut w = Writer::new();
        w.u8(9); // no frame tag 9
        let body = w.into_bytes();
        let mut r = Reader::new(&body);
        assert!(NetFrame::decode(&mut r).is_err());
    }

    #[test]
    fn implausible_version_rejected() {
        let mut w = Writer::new();
        w.u8(0); // Hello tag
        w.u32(u32::MAX); // version far beyond u16
        w.u64(0);
        PeerKind::Node(NodeId(0)).encode(&mut w);
        let body = w.into_bytes();
        let mut r = Reader::new(&body);
        assert!(NetFrame::decode(&mut r).is_err());
    }

    #[test]
    fn v3_hello_decodes_with_default_group_count() {
        // A v3 peer's Hello has no trailing group count; decoding must
        // still succeed (groups = 1) so the handshake can refuse it as a
        // *version* mismatch rather than a codec error.
        let mut w = Writer::new();
        w.u8(0); // Hello tag
        w.u32(3); // v3
        w.u64(7);
        PeerKind::Node(NodeId(2)).encode(&mut w);
        let body = w.into_bytes();
        let mut r = Reader::new(&body);
        let NetFrame::Hello(h) = NetFrame::decode(&mut r).unwrap() else {
            panic!("expected Hello");
        };
        assert_eq!(h.version, 3);
        assert_eq!(h.cluster_id, 7);
        assert_eq!(h.groups, 1);
    }

    #[test]
    fn implausible_group_counts_rejected() {
        for groups in [0u32, MAX_GROUPS + 1, u32::MAX] {
            let mut w = Writer::new();
            w.u8(0); // Hello tag
            w.u32(NET_PROTOCOL_VERSION as u32);
            w.u64(1);
            PeerKind::Node(NodeId(0)).encode(&mut w);
            w.u32(groups);
            let body = w.into_bytes();
            let mut r = Reader::new(&body);
            assert!(NetFrame::decode(&mut r).is_err(), "groups={groups} must be refused");
        }
    }

    #[test]
    fn group_trace_ids_distinct_across_groups() {
        let (c, r) = (ClientId(1_017), RequestId(42));
        assert_eq!(group_trace_id(0, c, r), trace_id(c, r));
        let mut seen = std::collections::HashSet::new();
        for g in 0..MAX_GROUPS {
            assert!(seen.insert(group_trace_id(g, c, r)));
        }
    }
}
