//! CRC32 (IEEE 802.3 polynomial) for wire frames and WAL records.
//!
//! Implemented from scratch as a portable slicing-by-16 kernel: sixteen
//! compile-time 256-entry tables fold sixteen input bytes per step, so the
//! table lookups of one step are independent of each other instead of one
//! serial lookup per byte. The reflected algorithm matches the ubiquitous
//! zlib `crc32`, so values can be cross-checked against external tools and
//! are bit-identical to the bytewise loop this replaced (kept below as the
//! test reference).

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per kernel step.
const STEP: usize = 16;

/// `TABLES[k][b]` is the CRC state contribution of byte value `b` followed
/// by `k` zero bytes; `TABLES[0]` is the classic bytewise table.
static TABLES: [[u32; 256]; STEP] = build_tables();

const fn build_tables() -> [[u32; 256]; STEP] {
    let mut tables = [[0u32; 256]; STEP];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < STEP {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC32 state.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes. Calls may split the input anywhere: whole 16-byte steps
    /// go through the slicing kernel and the remainder through the bytewise
    /// step, and both leave the same state the bytewise loop would.
    pub fn update(&mut self, mut data: &[u8]) {
        let mut crc = self.state;
        while let Some((chunk, rest)) = data.split_first_chunk::<STEP>() {
            // The running state folds into the first four bytes; the other
            // twelve index their tables directly.
            let head = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            crc = TABLES[STEP - 1][(head & 0xFF) as usize]
                ^ TABLES[STEP - 2][((head >> 8) & 0xFF) as usize]
                ^ TABLES[STEP - 3][((head >> 16) & 0xFF) as usize]
                ^ TABLES[STEP - 4][(head >> 24) as usize];
            for (k, &b) in chunk[4..].iter().enumerate() {
                crc ^= TABLES[STEP - 5 - k][b as usize];
            }
            data = rest;
        }
        self.state = update_bytewise(crc, data);
    }

    /// Final checksum value.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One table lookup per byte on a serial dependency: the kernel's tail step,
/// and the reference implementation the tests compare the kernel against.
fn update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard zlib crc32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"hello, consensus world";
        let mut c = Crc32::new();
        c.update(&data[..5]);
        c.update(&data[5..]);
        assert_eq!(c.finalize(), crc32(data));
    }

    /// The implementation this kernel replaced: one lookup per byte.
    fn reference(data: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn every_short_length_matches_the_bytewise_reference() {
        // Head/tail edges of the 16-byte step: every length 0..=64 at every
        // start offset within a step, one-shot and at every two-way split.
        let buf: Vec<u8> =
            (0..64 + STEP as u32).map(|i| (i.wrapping_mul(167) ^ (i >> 3)) as u8).collect();
        for off in 0..STEP {
            for len in 0..=64 {
                let data = &buf[off..off + len];
                let want = reference(data);
                assert_eq!(crc32(data), want, "off {off} len {len}");
                for split in 0..=len {
                    let mut c = Crc32::new();
                    c.update(&data[..split]);
                    c.update(&data[split..]);
                    assert_eq!(c.finalize(), want, "off {off} len {len} split {split}");
                }
            }
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 128];
        let base = crc32(&data);
        data[64] ^= 0x10;
        assert_ne!(crc32(&data), base);
    }
}
