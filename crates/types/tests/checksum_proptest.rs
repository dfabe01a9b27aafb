//! The slicing CRC32 kernel computes the same function as before: any
//! buffer, at any alignment, fed through [`Crc32::update`] at any split
//! points, yields the value of an independent bit-at-a-time implementation
//! of the same reflected IEEE polynomial (sharing neither tables nor
//! stepping with the kernel), and a wire frame encoded before the kernel
//! existed still decodes and re-encodes byte for byte.

use bytes::Bytes;
use nbr_types::checksum::{crc32, Crc32};
use nbr_types::wire::{decode_frame, encode_frame};
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

#[test]
fn frame_from_the_bytewise_build_decodes_and_reencodes_identically() {
    let (msg, used) =
        decode_frame::<Message>(GOLDEN_APPEND_FRAME).unwrap().expect("complete frame");
    assert_eq!(used, GOLDEN_APPEND_FRAME.len());
    assert_eq!(msg, golden_append());
    assert_eq!(encode_frame(&msg), GOLDEN_APPEND_FRAME);
}
