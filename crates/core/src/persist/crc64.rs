//! Dependency-free CRC-64/XZ (reflected polynomial `0xC96C5795D7870F42`),
//! the integrity check of the checkpoint frame format (DESIGN.md §15).
//!
//! CRC-64 is chosen over a cryptographic hash deliberately: the threat
//! model is *accidental* corruption — torn writes, bit rot, truncation —
//! not an adversary forging frames, and a 64-bit CRC detects every burst
//! error up to 64 bits plus random corruption with failure probability
//! `2⁻⁶⁴` at a fraction of the cost. It runs slicing-by-8: eight 256-entry
//! tables, computed at first use (`OnceLock`), fold eight input bytes per
//! step instead of one, and the codec stays allocation- and
//! dependency-free.

use std::sync::OnceLock;

/// The CRC-64/XZ reflected generator polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// `tables()[k][b]`: the CRC state contribution of byte `b` followed by
/// `k` zero bytes. Table 0 is the classic byte-at-a-time table.
fn tables() -> &'static [[u64; 256]; 8] {
    static TABLES: OnceLock<[[u64; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u64; 256]; 8];
        let [first, rest @ ..] = &mut t;
        for (i, slot) in first.iter_mut().enumerate() {
            let mut crc = crate::num::wide(i);
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *slot = crc;
        }
        let mut prev = *first;
        for table in rest {
            for (slot, &p) in table.iter_mut().zip(prev.iter()) {
                let [low, ..] = p.to_le_bytes();
                *slot = (p >> 8) ^ at(first, low);
            }
            prev = *table;
        }
        t
    })
}

/// `table[i]`; a `u8` index cannot miss a 256-entry table.
#[inline]
fn at(table: &[u64; 256], i: u8) -> u64 {
    table.get(usize::from(i)).copied().unwrap_or(0)
}

/// Incremental CRC-64/XZ state, for hashing a byte stream in pieces (the
/// dataset fingerprint feeds dimensions, directions, labels and raw
/// coordinate bit patterns through one hasher without concatenating them).
#[derive(Debug, Clone)]
pub struct Crc64 {
    state: u64,
}

impl Crc64 {
    /// A fresh hasher (CRC-64/XZ initializes to all-ones).
    pub fn new() -> Crc64 {
        Crc64 { state: u64::MAX }
    }

    /// Feeds `bytes` into the running checksum, eight bytes per step.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = tables();
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word = <[u8; 8]>::try_from(word).unwrap_or_default();
            let [b0, b1, b2, b3, b4, b5, b6, b7] = (crc ^ u64::from_le_bytes(word)).to_le_bytes();
            crc = at(t7, b0)
                ^ at(t6, b1)
                ^ at(t5, b2)
                ^ at(t4, b3)
                ^ at(t3, b4)
                ^ at(t2, b5)
                ^ at(t1, b6)
                ^ at(t0, b7);
        }
        for &b in words.remainder() {
            let [low, ..] = crc.to_le_bytes();
            crc = at(t0, low ^ b) ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Convenience for feeding a little-endian `u64`.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The final checksum (CRC-64/XZ xors out with all-ones).
    pub fn finish(&self) -> u64 {
        self.state ^ u64::MAX
    }
}

impl Default for Crc64 {
    fn default() -> Self {
        Crc64::new()
    }
}

/// One-shot checksum of a byte slice.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut h = Crc64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The standard CRC-64/XZ check value: crc("123456789").
    #[test]
    fn reference_check_value() {
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc64(b""), 0);
    }

    /// Bit-at-a-time CRC-64/XZ, independent of the tables.
    fn bitwise(bytes: &[u8]) -> u64 {
        let mut crc = u64::MAX;
        for &b in bytes {
            crc ^= u64::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        crc ^ u64::MAX
    }

    #[test]
    fn eight_bytes_per_step_equals_the_bitwise_reference_at_every_split() {
        let data: Vec<u8> = (0..67u32).map(|i| (i.wrapping_mul(151) ^ (i >> 2)) as u8).collect();
        for len in 0..=data.len() {
            let bytes = &data[..len];
            assert_eq!(crc64(bytes), bitwise(bytes), "length {len}");
            for split in 0..=len {
                let mut h = Crc64::new();
                h.update(&bytes[..split]);
                h.update(&bytes[split..]);
                assert_eq!(h.finish(), bitwise(bytes), "length {len} split at {split}");
            }
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut h = Crc64::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc64(data), "split at {split}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = [0u8; 64];
        let base = crc64(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut m = data;
                m[byte] ^= 1 << bit;
                assert_ne!(crc64(&m), base, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }
}
