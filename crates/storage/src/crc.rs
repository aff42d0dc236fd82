//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the one checksum
//! kernel of the workspace.
//!
//! Every CRC-framed byte goes through here: wire batch frames in both
//! codecs (stamped on encode, verified on decode) and segment batches
//! (WAL appends, recovery, sealed-window reads).
//!
//! The kernel is slice-by-16: sixteen 256-entry tables, built at compile
//! time by a `const fn`, fold sixteen input bytes per step with sixteen
//! independent table loads, instead of the classic byte-at-a-time loop's
//! serial load→xor→shift chain per byte. Tails shorter than sixteen bytes
//! fall back to that byte loop over the first table. The result is the
//! standard CRC-32/ISO-HDLC value — what Ethernet and zip use — so frames
//! and segment files are bit-for-bit what the byte-at-a-time kernel wrote.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the sliced loop.
const SLICE: usize = 16;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; SLICE] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut t = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < SLICE {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let (blocks, tail) = data.as_chunks::<SLICE>();
    for b in blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in tail {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition: one bit at a time, no tables. Kept as the oracle
    /// the table kernel is checked against.
    fn bitwise_reference(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    /// A seeded xorshift64* byte stream.
    fn seeded_bytes(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed >> 12;
                seed ^= seed << 25;
                seed ^= seed >> 27;
                (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_test_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn matches_bitwise_reference_at_every_length_and_offset() {
        // Every length 0..=300 from every start offset 0..16 covers each
        // split of a slice into 16-byte blocks and a tail, whatever its
        // alignment in memory.
        let buf = seeded_bytes(300 + SLICE, 0x00C2_C32E_EDB8_8320);
        for start in 0..SLICE {
            for len in 0..=300 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    bitwise_reference(data),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn matches_bitwise_reference_on_8_kib() {
        let buf = seeded_bytes(8 * 1024, 0x5EED_0008_0000_2000);
        assert_eq!(crc32(&buf), bitwise_reference(&buf));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"EnviroMeter raw tuple batch".to_vec();
        let before = crc32(&data);
        data[5] ^= 0x01;
        assert_ne!(crc32(&data), before);
    }

    #[test]
    fn detects_transposition() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }
}
