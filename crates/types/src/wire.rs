//! Hand-rolled binary wire codec.
//!
//! A production consensus module needs a wire format; rather than pulling in
//! a serialization framework we use an explicit, versioned, length-prefixed
//! encoding with CRC32 integrity:
//!
//! ```text
//! frame := len:u32le  crc:u32le  body
//! body  := tag:u8  fields...
//! ```
//!
//! `len` covers the body only; `crc` is computed over the body. Integers are
//! little-endian fixed width; byte strings are `len:u32le` + bytes; vectors
//! are `count:u32le` + elements. Decoding is strict: trailing bytes inside a
//! frame body are an error, which catches encoder/decoder drift early (and is
//! verified by round-trip property tests).
//!
//! Each layout is written once. A struct whose encoding is its fields in
//! order is one `wire_struct!` line (`HeartbeatMsg { term, leader, … }`);
//! an enum whose encoding is `tag || fields` is one
//! [`wire_enum!`](crate::wire_enum) table (`2 => Mismatch { index,
//! resend_from }`). Both macros generate `encode` and `decode` from that one
//! declaration, so the two cannot drift apart.
//! To add a field, put it in the declaration at its place in the layout; to
//! add a message, declare its struct and give it the next `Message` tag.
//! Either is a wire change: bump
//! [`NET_PROTOCOL_VERSION`](crate::netframe::NET_PROTOCOL_VERSION), and
//! re-pin the layout bytes in `tests/checksum_proptest.rs`.
//!
//! A layout stays hand-written only if its decoder checks more than the
//! field types, because those checks are what reject hostile input:
//! `AppendEntryMsg` (batch hardening), `Fragment` (erasure geometry),
//! `HelloMsg` and `NetFrame` (version compatibility, group bounds), and the
//! containers `Option<T>` and `Vec<T>` (tag and count checks).

use crate::checksum::crc32;
use crate::entry::{Entry, Fragment, Origin, Payload};
use crate::error::{Error, Result};
use crate::ids::{ClientId, LogIndex, NodeId, RequestId, Term};
use crate::message::{
    AcceptState, AppendEntryMsg, AppendRespMsg, ClientRequest, ClientResponse, HeartbeatMsg,
    HeartbeatRespMsg, InstallSnapshotMsg, InstallSnapshotRespMsg, Message, PullFragmentsMsg,
    PushFragmentsMsg, ReadIndexReqMsg, ReadIndexRespMsg, RequestVoteMsg, RequestVoteRespMsg,
    Verification, MAX_APPEND_BATCH,
};
use bytes::Bytes;

/// Maximum frame body we will accept; guards against corrupt length prefixes.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh writer.
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// Writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Writer {
        Writer { buf: Vec::with_capacity(cap) }
    }

    /// Finish and take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drop the contents but keep the allocation, so one `Writer` can encode
    /// many frames without reallocating (hot-path buffer reuse).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
}

/// Cursor-based decoder over a frame body.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// When the body lives in a reference-counted [`Bytes`] buffer (shared
    /// decode path), byte-string fields can alias it instead of copying.
    /// Invariant: `backing[..] == buf`.
    backing: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Decode from a body slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0, backing: None }
    }

    /// Decode from a reference-counted body: [`Self::bytes_shared`] then
    /// returns zero-copy slices of `backing` instead of fresh allocations.
    pub fn shared(backing: &'a Bytes) -> Reader<'a> {
        Reader { buf: backing, pos: 0, backing: Some(backing) }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Codec(format!(
                "truncated: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Read a length-prefixed byte string (length-checked against both the
    /// remaining frame and [`MAX_FRAME_LEN`], so a corrupt prefix cannot
    /// trigger an oversized allocation).
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME_LEN {
            return Err(Error::Codec(format!("byte string too long: {len}")));
        }
        self.take(len)
    }

    /// Read a length-prefixed byte string as owned [`Bytes`]. On a
    /// [`Self::shared`] reader this is a zero-copy slice of the backing
    /// buffer; on a plain reader it copies (same behaviour as before the
    /// shared path existed).
    pub fn bytes_shared(&mut self) -> Result<Bytes> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME_LEN {
            return Err(Error::Codec(format!("byte string too long: {len}")));
        }
        let start = self.pos;
        let s = self.take(len)?;
        Ok(match self.backing {
            Some(b) => b.slice(start..start + len),
            None => Bytes::copy_from_slice(s),
        })
    }
    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(Error::Codec(format!("invalid bool byte {v}"))),
        }
    }

    /// Error unless the body was fully consumed.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(Error::Codec(format!("{} trailing bytes in frame", self.remaining())));
        }
        Ok(())
    }
}

/// Types encodable in the wire format.
pub trait Wire: Sized {
    /// Append the encoding of `self`.
    fn encode(&self, w: &mut Writer);
    /// Decode one value.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;
}

/// `impl Wire` for types that are one fixed-width integer (or bool): plain
/// scalars read straight from the reader, newtypes wrap what they read.
macro_rules! wire_scalar {
    ($($t:ty => $rw:ident),* $(,)?) => {$(
        impl Wire for $t {
            fn encode(&self, w: &mut Writer) {
                w.$rw(*self)
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                r.$rw()
            }
        }
    )*};
    ($($t:ident($rw:ident)),* $(,)?) => {$(
        impl Wire for $t {
            fn encode(&self, w: &mut Writer) {
                w.$rw(self.0)
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok($t(r.$rw()?))
            }
        }
    )*};
}

wire_scalar!(u8 => u8, u64 => u64, bool => bool);
wire_scalar!(NodeId(u32), Term(u64), LogIndex(u64), ClientId(u64), RequestId(u64));

impl Wire for [u8; 32] {
    fn encode(&self, w: &mut Writer) {
        w.buf.extend_from_slice(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.take(32)?.try_into().unwrap())
    }
}

/// `len || bytes`; decoded zero-copy on a [`Reader::shared`] reader.
impl Wire for Bytes {
    fn encode(&self, w: &mut Writer) {
        w.bytes(self)
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.bytes_shared()
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            v => Err(Error::Codec(format!("invalid option tag {v}"))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.len() as u32);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.u32()? as usize;
        // Each element needs at least one byte; reject absurd counts early.
        if n > r.remaining() {
            return Err(Error::Codec(format!("vector count {n} exceeds frame size")));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// `impl Wire` for structs laid out as their fields in the listed order,
/// with nothing to check beyond each field's own decoding.
macro_rules! wire_struct {
    ($($name:ident { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $name {
            fn encode(&self, w: &mut Writer) {
                $(self.$field.encode(w);)*
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok($name { $($field: Wire::decode(r)?),* })
            }
        }
    )*};
}

/// `impl Wire` for an enum laid out as `tag || fields`: the tag is a `u8` or
/// `u32`, each variant lists its tag and its fields (tuple fields by a
/// binding name) in wire order, and an unknown tag decodes to
/// `invalid <what> tag <tag>`.
///
/// ```text
/// wire_enum!(Payload: u8, "payload" { 0 => Noop, 1 => Data(bytes), 2 => Fragment(f) });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($name:ident: $tag_ty:ident, $what:literal {
        $($tag:literal => $variant:ident $(($($pos:ident),*))? $({$($field:ident),*})?),* $(,)?
    }) => {
        impl $crate::wire::Wire for $name {
            fn encode(&self, w: &mut $crate::wire::Writer) {
                match self {
                    $($name::$variant $(($($pos),*))? $({$($field),*})? => {
                        w.$tag_ty($tag);
                        $($($crate::wire::Wire::encode($pos, w);)*)?
                        $($($crate::wire::Wire::encode($field, w);)*)?
                    })*
                }
            }
            fn decode(r: &mut $crate::wire::Reader<'_>) -> $crate::Result<Self> {
                match r.$tag_ty()? {
                    $($tag => {
                        $($(let $pos = $crate::wire::Wire::decode(r)?;)*)?
                        $($(let $field = $crate::wire::Wire::decode(r)?;)*)?
                        Ok($name::$variant $(($($pos),*))? $({$($field),*})?)
                    })*
                    v => Err($crate::Error::Codec(::std::format!("invalid {} tag {v}", $what))),
                }
            }
        }
    };
}

wire_struct! {
    Origin { client, request }
    Entry { index, term, prev_term, origin, payload }
    Verification { digest, signature, group }
    ClientRequest { client, request, payload }
    AppendRespMsg { term, from, state }
    HeartbeatMsg { term, leader, last_index, last_term, leader_commit }
    HeartbeatRespMsg { term, from, last_index, last_term }
    RequestVoteMsg { term, candidate, last_log_index, last_log_term }
    RequestVoteRespMsg { term, from, granted }
    PullFragmentsMsg { term, from, from_index, to_index }
    PushFragmentsMsg { term, from, fragments }
    InstallSnapshotMsg { term, leader, last_index, last_term, leader_commit, data }
    InstallSnapshotRespMsg { term, from, last_index }
    ReadIndexReqMsg { term, from, probe }
    ReadIndexRespMsg { term, read_index, probe }
}

wire_enum!(Payload: u8, "payload" { 0 => Noop, 1 => Data(data), 2 => Fragment(fragment) });

wire_enum!(AcceptState: u8, "accept state" {
    0 => Strong { last_index, last_term },
    1 => Weak { index, term },
    2 => Mismatch { index, resend_from },
});

wire_enum!(Message: u8, "message" {
    0 => AppendEntry(m),
    1 => AppendResp(m),
    2 => Heartbeat(m),
    3 => HeartbeatResp(m),
    4 => RequestVote(m),
    5 => RequestVoteResp(m),
    6 => PullFragments(m),
    7 => PushFragments(m),
    8 => InstallSnapshot(m),
    9 => InstallSnapshotResp(m),
    10 => ReadIndexReq(m),
    11 => ReadIndexResp(m),
});

wire_enum!(ClientResponse: u8, "client response" {
    0 => Weak { request, index, term },
    1 => Strong { request, index, term },
    2 => LeaderChanged { term },
    3 => NotLeader { request, hint },
});

/// Geometry is checked before the shard is read: a hostile `k`/`n` must
/// not reach the erasure decoder.
impl Wire for Fragment {
    fn encode(&self, w: &mut Writer) {
        w.u8(self.shard);
        w.u8(self.k);
        w.u8(self.n);
        w.u32(self.orig_len);
        self.data.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let shard = r.u8()?;
        let k = r.u8()?;
        let n = r.u8()?;
        if k == 0 || n == 0 || k > n || shard >= n {
            return Err(Error::Codec(format!(
                "invalid fragment geometry k={k} n={n} shard={shard}"
            )));
        }
        Ok(Fragment { shard, k, n, orig_len: r.u32()?, data: r.bytes_shared()? })
    }
}

impl Wire for AppendEntryMsg {
    fn encode(&self, w: &mut Writer) {
        self.term.encode(w);
        self.leader.encode(w);
        self.entries.encode(w);
        self.leader_commit.encode(w);
        self.verification.encode(w);
        self.relay_to.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let term = Term::decode(r)?;
        let leader = NodeId::decode(r)?;
        let entries = Vec::<Entry>::decode(r)?;
        // Batch hardening: a hostile peer must not smuggle empty, oversized,
        // or non-contiguous batches past the accept loop.
        if entries.is_empty() {
            return Err(Error::Codec("append batch is empty".into()));
        }
        if entries.len() > MAX_APPEND_BATCH {
            return Err(Error::Codec(format!(
                "append batch of {} exceeds cap {MAX_APPEND_BATCH}",
                entries.len()
            )));
        }
        for pair in entries.windows(2) {
            if !pair[0].precedes(&pair[1]) {
                return Err(Error::Codec(format!(
                    "append batch not contiguous at index {}",
                    pair[1].index.0
                )));
            }
        }
        let msg = AppendEntryMsg {
            term,
            leader,
            entries,
            leader_commit: LogIndex::decode(r)?,
            verification: Option::<Verification>::decode(r)?,
            relay_to: Vec::<NodeId>::decode(r)?,
        };
        if msg.verification.is_some() && msg.entries.len() != 1 {
            return Err(Error::Codec("verified append batches must carry one entry".into()));
        }
        Ok(msg)
    }
}

/// Encode a value into a self-describing frame: `len || crc || body`.
pub fn encode_frame<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(value, &mut out);
    out
}

/// Append a `len || crc || body` frame to `out` without allocating a
/// scratch body buffer: the body is encoded in place after an 8-byte header
/// placeholder, then the header is patched. Callers that `clear()` and
/// reuse `out` across frames amortize the allocation to zero — this is the
/// transport writer's hot path.
pub fn encode_frame_into<T: Wire>(value: &T, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 8]);
    let mut w = Writer { buf: std::mem::take(out) };
    value.encode(&mut w);
    let mut buf = w.into_bytes();
    let body_len = buf.len() - start - 8;
    let crc = crc32(&buf[start + 8..]);
    buf[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    *out = buf;
}

/// Decode one frame from the front of `buf`. Returns the value and the total
/// number of bytes consumed (header + body), or `Ok(None)` if the buffer does
/// not yet hold a complete frame (streaming use).
pub fn decode_frame<T: Wire>(buf: &[u8]) -> Result<Option<(T, usize)>> {
    decode_frame_capped(buf, MAX_FRAME_LEN)
}

/// The one frame-header check: the length of the whole frame (header +
/// body) at the front of `buf` once all of it has arrived, `Ok(None)` while
/// it is still partial, and a codec error as soon as the header shows a
/// length prefix over `max_len` (itself bounded by [`MAX_FRAME_LEN`]), so a
/// streaming reader can drop the connection before buffering the body.
pub fn frame_len(buf: &[u8], max_len: usize) -> Result<Option<usize>> {
    let max_len = max_len.min(MAX_FRAME_LEN);
    if buf.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if len > max_len {
        return Err(Error::Codec(format!("frame length {len} exceeds maximum {max_len}")));
    }
    Ok((buf.len() >= 8 + len).then_some(8 + len))
}

/// [`decode_frame`] with a caller-supplied frame-size cap (still bounded by
/// [`MAX_FRAME_LEN`]). A network transport accepting frames from untrusted
/// connections should pass the largest frame it legitimately expects: the
/// length prefix is attacker-controlled, and the cap is what stops a corrupt
/// or hostile prefix from pinning `max_len` bytes of reassembly buffer per
/// connection while the reader waits for a body that never comes.
pub fn decode_frame_capped<T: Wire>(buf: &[u8], max_len: usize) -> Result<Option<(T, usize)>> {
    let Some(end) = frame_len(buf, max_len)? else { return Ok(None) };
    Ok(Some((decode_body(&buf[..end], Reader::new(&buf[8..end]))?, end)))
}

/// [`decode_frame_capped`] over a reference-counted buffer: byte-string
/// fields of the decoded value ([`Payload::Data`], snapshot images, client
/// payloads) are zero-copy slices sharing `buf`'s allocation instead of
/// fresh copies. A streaming reader that accumulates into `bytes::BytesMut`
/// and `split_to(..).freeze()`s whole frames gets an allocation-free decode
/// path for bulk data.
pub fn decode_frame_shared<T: Wire>(buf: &Bytes, max_len: usize) -> Result<Option<(T, usize)>> {
    let Some(end) = frame_len(buf, max_len)? else { return Ok(None) };
    let body = buf.slice(8..end);
    Ok(Some((decode_body(&buf[..end], Reader::shared(&body))?, end)))
}

/// Check a whole `frame`'s CRC, then decode all of its body from `r`.
fn decode_body<T: Wire>(frame: &[u8], mut r: Reader<'_>) -> Result<T> {
    if crc32(&frame[8..]) != u32::from_le_bytes(frame[4..8].try_into().unwrap()) {
        return Err(Error::Codec("frame checksum mismatch".into()));
    }
    let v = T::decode(&mut r)?;
    r.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_append() -> Message {
        Message::AppendEntry(AppendEntryMsg {
            term: Term(3),
            leader: NodeId(0),
            entries: vec![Entry {
                index: LogIndex(11),
                term: Term(3),
                prev_term: Term(2),
                origin: Some(Origin { client: ClientId(7), request: RequestId(42) }),
                payload: Payload::Data(Bytes::from_static(b"sensor-reading")),
            }],
            leader_commit: LogIndex(9),
            verification: Some(Verification {
                digest: [1; 32],
                signature: [2; 32],
                group: vec![NodeId(1), NodeId(2)],
            }),
            relay_to: vec![NodeId(3)],
        })
    }

    fn run(first: u64, term: u64, prev: u64, n: usize) -> Vec<Entry> {
        (0..n as u64)
            .map(|i| Entry {
                index: LogIndex(first + i),
                term: Term(term),
                prev_term: Term(if i == 0 { prev } else { term }),
                origin: None,
                payload: Payload::Data(Bytes::from(format!("e{}", first + i))),
            })
            .collect()
    }

    fn batch(entries: Vec<Entry>) -> Message {
        Message::AppendEntry(AppendEntryMsg {
            term: Term(3),
            leader: NodeId(0),
            entries,
            leader_commit: LogIndex(9),
            verification: None,
            relay_to: vec![],
        })
    }

    #[test]
    fn frame_round_trip() {
        let msg = sample_append();
        let frame = encode_frame(&msg);
        let (decoded, used) = decode_frame::<Message>(&frame).unwrap().unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn batched_append_round_trips() {
        for n in [1usize, 2, 7, MAX_APPEND_BATCH] {
            let msg = batch(run(5, 3, 2, n));
            let frame = encode_frame(&msg);
            let (back, used) = decode_frame::<Message>(&frame).unwrap().unwrap();
            assert_eq!(back, msg);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn hostile_append_batches_rejected() {
        // Empty batch.
        let mut w = Writer::new();
        Term(3).encode(&mut w);
        NodeId(0).encode(&mut w);
        Vec::<Entry>::new().encode(&mut w);
        LogIndex(0).encode(&mut w);
        Option::<Verification>::None.encode(&mut w);
        Vec::<NodeId>::new().encode(&mut w);
        let body = w.into_bytes();
        let mut r = Reader::new(&body);
        assert!(AppendEntryMsg::decode(&mut r).is_err(), "empty batch must be rejected");

        // Over the batch cap.
        let over = batch(run(1, 3, 0, MAX_APPEND_BATCH + 1));
        let frame = encode_frame(&over);
        assert!(matches!(decode_frame::<Message>(&frame), Err(Error::Codec(_))));

        // Index gap inside the run.
        let mut gapped = run(1, 3, 0, 2);
        gapped[1].index = LogIndex(5);
        let frame = encode_frame(&batch(gapped));
        assert!(matches!(decode_frame::<Message>(&frame), Err(Error::Codec(_))));

        // Broken prev_term chain.
        let mut broken = run(1, 3, 0, 2);
        broken[1].prev_term = Term(9);
        let frame = encode_frame(&batch(broken));
        assert!(matches!(decode_frame::<Message>(&frame), Err(Error::Codec(_))));

        // Verification on a multi-entry batch.
        let mut verified = batch(run(1, 3, 0, 2));
        if let Message::AppendEntry(m) = &mut verified {
            m.verification =
                Some(Verification { digest: [0; 32], signature: [0; 32], group: vec![] });
        }
        let frame = encode_frame(&verified);
        assert!(matches!(decode_frame::<Message>(&frame), Err(Error::Codec(_))));
    }

    #[test]
    fn encode_frame_into_matches_and_reuses() {
        let msg = batch(run(5, 3, 2, 4));
        let fresh = encode_frame(&msg);
        let mut buf = Vec::new();
        encode_frame_into(&msg, &mut buf);
        assert_eq!(buf, fresh);

        // Appending a second frame to the same buffer keeps both intact.
        let hb = Message::Heartbeat(HeartbeatMsg {
            term: Term(2),
            leader: NodeId(0),
            last_index: LogIndex(10),
            last_term: Term(2),
            leader_commit: LogIndex(8),
        });
        encode_frame_into(&hb, &mut buf);
        let (first, used) = decode_frame::<Message>(&buf).unwrap().unwrap();
        assert_eq!(first, msg);
        let (second, used2) = decode_frame::<Message>(&buf[used..]).unwrap().unwrap();
        assert_eq!(second, hb);
        assert_eq!(used + used2, buf.len());

        // clear() + re-encode reuses the allocation.
        let cap = buf.capacity();
        buf.clear();
        encode_frame_into(&msg, &mut buf);
        assert_eq!(buf, fresh);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn shared_decode_aliases_frame_buffer() {
        let payload = Bytes::from(vec![0x5A; 4096]);
        let msg = Message::AppendEntry(AppendEntryMsg {
            term: Term(3),
            leader: NodeId(0),
            entries: vec![Entry {
                index: LogIndex(11),
                term: Term(3),
                prev_term: Term(2),
                origin: None,
                payload: Payload::Data(payload),
            }],
            leader_commit: LogIndex(9),
            verification: None,
            relay_to: vec![],
        });
        let frame = Bytes::from(encode_frame(&msg));
        let (back, used) = decode_frame_shared::<Message>(&frame, MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(back, msg);
        assert_eq!(used, frame.len());
        let Message::AppendEntry(m) = back else { panic!("decoded wrong variant") };
        let Payload::Data(data) = &m.entries[0].payload else { panic!("payload variant") };
        // Zero-copy: the decoded payload must point inside the frame buffer.
        let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        assert!(
            frame_range.contains(&(data.as_ptr() as usize)),
            "shared decode must alias the frame allocation, not copy"
        );

        // The shared path enforces the same caps and checksums.
        let mut corrupt = encode_frame(&msg);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert!(decode_frame_shared::<Message>(&Bytes::from(corrupt), MAX_FRAME_LEN).is_err());
        assert!(decode_frame_shared::<Message>(&frame, 64).is_err(), "cap still applies");
    }

    #[test]
    fn partial_frame_returns_none() {
        let frame = encode_frame(&sample_append());
        for cut in [0, 4, 7, frame.len() - 1] {
            assert!(decode_frame::<Message>(&frame[..cut]).unwrap().is_none());
        }
    }

    #[test]
    fn corrupt_body_is_detected() {
        let mut frame = encode_frame(&sample_append());
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        assert!(matches!(decode_frame::<Message>(&frame), Err(Error::Codec(_))));
    }

    #[test]
    fn trailing_bytes_rejected() {
        // Craft a frame whose body has an extra byte after a valid message.
        let mut w = Writer::new();
        Message::HeartbeatResp(HeartbeatRespMsg {
            term: Term(1),
            from: NodeId(1),
            last_index: LogIndex(1),
            last_term: Term(1),
        })
        .encode(&mut w);
        let mut body = w.into_bytes();
        body.push(0xAB);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        assert!(matches!(decode_frame::<Message>(&frame), Err(Error::Codec(_))));
    }

    #[test]
    fn invalid_tags_rejected() {
        let body = vec![12u8]; // no message tag 12
        let mut r = Reader::new(&body);
        let err = Message::decode(&mut r).unwrap_err();
        assert!(matches!(&err, Error::Codec(m) if m == "invalid message tag 12"), "{err:?}");
    }

    #[test]
    fn fragment_geometry_validated() {
        // k > n must fail.
        let frag = Fragment { shard: 0, k: 3, n: 2, orig_len: 1, data: Bytes::from_static(b"x") };
        let mut w = Writer::new();
        frag.encode(&mut w);
        let body = w.into_bytes();
        let mut r = Reader::new(&body);
        assert!(Fragment::decode(&mut r).is_err());
    }

    #[test]
    fn client_round_trips() {
        let req = ClientRequest {
            client: ClientId(5),
            request: RequestId(6),
            payload: Bytes::from_static(b"write temp=21.5"),
        };
        let frame = encode_frame(&req);
        let (back, _) = decode_frame::<ClientRequest>(&frame).unwrap().unwrap();
        assert_eq!(back, req);

        for resp in [
            ClientResponse::Weak { request: RequestId(1), index: LogIndex(2), term: Term(3) },
            ClientResponse::Strong { request: RequestId(1), index: LogIndex(2), term: Term(3) },
            ClientResponse::LeaderChanged { term: Term(9) },
            ClientResponse::NotLeader { request: RequestId(4), hint: Some(NodeId(2)) },
            ClientResponse::NotLeader { request: RequestId(4), hint: None },
        ] {
            let frame = encode_frame(&resp);
            let (back, _) = decode_frame::<ClientResponse>(&frame).unwrap().unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn all_message_kinds_round_trip() {
        let msgs = vec![
            sample_append(),
            Message::AppendResp(AppendRespMsg {
                term: Term(2),
                from: NodeId(1),
                state: AcceptState::Weak { index: LogIndex(7), term: Term(2) },
            }),
            Message::AppendResp(AppendRespMsg {
                term: Term(2),
                from: NodeId(1),
                state: AcceptState::Mismatch { index: LogIndex(7), resend_from: LogIndex(5) },
            }),
            Message::Heartbeat(HeartbeatMsg {
                term: Term(2),
                leader: NodeId(0),
                last_index: LogIndex(10),
                last_term: Term(2),
                leader_commit: LogIndex(8),
            }),
            Message::HeartbeatResp(HeartbeatRespMsg {
                term: Term(2),
                from: NodeId(2),
                last_index: LogIndex(6),
                last_term: Term(1),
            }),
            Message::RequestVote(RequestVoteMsg {
                term: Term(5),
                candidate: NodeId(2),
                last_log_index: LogIndex(30),
                last_log_term: Term(4),
            }),
            Message::RequestVoteResp(RequestVoteRespMsg {
                term: Term(5),
                from: NodeId(1),
                granted: true,
            }),
            Message::PullFragments(PullFragmentsMsg {
                term: Term(6),
                from: NodeId(0),
                from_index: LogIndex(3),
                to_index: LogIndex(9),
            }),
            Message::PushFragments(PushFragmentsMsg {
                term: Term(6),
                from: NodeId(1),
                fragments: vec![(
                    LogIndex(3),
                    Term(5),
                    Fragment {
                        shard: 1,
                        k: 2,
                        n: 3,
                        orig_len: 10,
                        data: Bytes::from_static(b"hello"),
                    },
                )],
            }),
            Message::InstallSnapshot(InstallSnapshotMsg {
                term: Term(7),
                leader: NodeId(0),
                last_index: LogIndex(100),
                last_term: Term(6),
                leader_commit: LogIndex(100),
                data: Bytes::from_static(b"snapshot image bytes"),
            }),
            Message::InstallSnapshotResp(InstallSnapshotRespMsg {
                term: Term(7),
                from: NodeId(2),
                last_index: LogIndex(100),
            }),
            Message::ReadIndexReq(ReadIndexReqMsg { term: Term(3), from: NodeId(1), probe: 17 }),
            Message::ReadIndexResp(ReadIndexRespMsg {
                term: Term(3),
                read_index: LogIndex(55),
                probe: 17,
            }),
        ];
        for msg in msgs {
            let frame = encode_frame(&msg);
            let (back, used) = decode_frame::<Message>(&frame).unwrap().unwrap();
            assert_eq!(back, msg);
            assert_eq!(used, frame.len());
        }
    }
}
