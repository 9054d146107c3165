//! CRC-32C (Castagnoli) for torn-write detection.
//!
//! HOOP's GC and recovery decode memory slices straight from NVM. A crash
//! can tear a 128-byte slice mid-persist (the hardware-atomic unit is
//! 8 bytes, §II-A), so every slice carries a checksum in its padding area;
//! a torn slice fails the check and is treated as never written. The same
//! technique guards log records in real NVM systems.

/// The CRC-32C polynomial (reflected).
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic per-byte table; `TABLES[k][b]` is the CRC contribution of byte
/// `b` followed by `k` zero bytes, so one step folds 8 input bytes with 8
/// independent lookups instead of 8 dependent ones. Every slice seal and
/// verify hashes 112 bytes: 14 such steps.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
            k += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Computes CRC-32C over `data`.
///
/// # Example
///
/// ```
/// let a = simcore::crc::crc32c(b"hello");
/// let b = simcore::crc::crc32c(b"hellp");
/// assert_ne!(a, b);
/// assert_eq!(a, simcore::crc::crc32c(b"hello"));
/// ```
pub fn crc32c(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ u64::from(crc);
        let b = |shift: u32| ((v >> shift) & 0xFF) as usize;
        crc = TABLES[7][b(0)]
            ^ TABLES[6][b(8)]
            ^ TABLES[5][b(16)]
            ^ TABLES[4][b(24)]
            ^ TABLES[3][b(32)]
            ^ TABLES[2][b(40)]
            ^ TABLES[1][b(48)]
            ^ TABLES[0][b(56)];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Verifies that `data` hashes to `expected`.
pub fn verify(data: &[u8], expected: u32) -> bool {
    crc32c(data) == expected
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Byte-at-a-time, table-free reference: the definition of CRC-32C.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn known_vector() {
        // RFC 3720 test vector: 32 bytes of zeros.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 bytes of 0xFF.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn sealed_slice_vector() {
        // Bytes 0..112 of a sealed HOOP data slice (eight words, link 77,
        // tx 42, start + commit tail) and the checksum its padding carries.
        // Any change here would unseal every slice already written.
        const SLICE: &str = "00000000000000007856341200000000f0ac682400000000\
            68039d3600000000e059d1480000000058b0055b00000000d0063a6d00000000\
            485d6e7f00000000000002000001000200000200020000030002000004000200\
            000500020000060002000007000200004d00002a000000f5";
        let bytes: Vec<u8> = (0..SLICE.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&SLICE[i..i + 2], 16).expect("hex"))
            .collect();
        assert_eq!(bytes.len(), 112);
        assert_eq!(crc32c(&bytes), 0x321A_67EA);
        assert_eq!(bytewise(&bytes), 0x321A_67EA);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slicing-by-8 equals the byte-at-a-time definition on every
        /// length, and at every start offset modulo the 8-byte step.
        #[test]
        fn slicing_matches_bytewise(data in prop::collection::vec(any::<u8>(), 0..=300)) {
            for start in 0..8.min(data.len() + 1) {
                prop_assert_eq!(crc32c(&data[start..]), bytewise(&data[start..]), "start {}", start);
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = [0u8; 128];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        let base = crc32c(&data);
        for byte in 0..128 {
            for bit in 0..8 {
                let mut flipped = data;
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), base, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn empty_and_verify() {
        assert_eq!(crc32c(&[]), 0);
        assert!(verify(b"abc", crc32c(b"abc")));
        assert!(!verify(b"abc", crc32c(b"abd")));
    }
}
