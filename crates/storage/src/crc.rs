//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the one checksum
//! kernel of the workspace.
//!
//! Every CRC-framed byte goes through here: wire batch frames in both
//! codecs (stamped on encode, verified on decode) and segment batches
//! (WAL appends, recovery, sealed-window reads).
//!
//! The kernel runs four slice-by-16 chains side by side. The input is cut
//! into 128-byte blocks, each four adjacent 32-byte lanes:
//!
//! ```text
//! block  | lane 0: 32 B | lane 1: 32 B | lane 2: 32 B | lane 3: 32 B |
//! starts | running CRC  | 0            | 0            | 0            |
//! ```
//!
//! Each lane takes two slice-by-16 steps: sixteen 256-entry tables, built at
//! compile time by a `const fn`, fold sixteen bytes with sixteen independent
//! table loads. One chain is a serial dependency, each step waiting on the
//! last; four chains that share nothing keep the loads of all four in
//! flight at once. At the end of the block the four registers fold into one,
//! left to right, by
//!
//! ```text
//! reg(A‖B) = shift_L(reg(A)) ⊕ reg₀(B)
//! ```
//!
//! where `reg₀(B)` is B's register started from 0 and `shift_L` advances a
//! register past `L` zero bytes (here `L` is one lane, 32 B).
//!
//! The fold is exact, not an approximation. Feeding one byte updates the
//! register as `r' = (r >> 8) ⊕ T[(r ⊕ byte) & 0xFF]`, and the table `T` is
//! linear over GF(2), so `r'` is linear in the register and the byte
//! together: the register after B, started from `r`, is B's own register
//! from 0 xored with `r` carried past `|B|` bytes of no input. That carried
//! part is `shift_L(r)`. As `shift_L` is linear too, it is the xor of four
//! table loads, one per byte of `r` (`SHIFT`: four rows of the same
//! `const fn`'s tables). The CRC's initial and final inversions sit outside
//! the fold.
//!
//! What follows the last whole block takes 16-byte steps, then one
//! slice-by-`n` step over the last `n < 16` bytes with the same tables. The
//! result is the standard CRC-32/ISO-HDLC value — what Ethernet and zip use —
//! so frames and segment files are bit-for-bit what the byte-at-a-time
//! kernel wrote.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per whole step; a last step may take fewer.
const SLICE: usize = 16;

/// Bytes of one lane: the `L` of `shift_L`.
const LANE: usize = 32;

/// Independent chains per block.
const LANES: usize = 4;

/// Slice-by-16 steps per lane.
const STEPS: usize = LANE / SLICE;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; SLICE] = build_tables();

/// `SHIFT[k][b]` is the register `b << 8k` advanced past `LANE` zero bytes.
/// Its first `k` bytes shift out through `TABLES[0][0] = 0`, leaving `b` to
/// cross the other `LANE - k`: the contribution table `LANE - 1 - k`.
static SHIFT: [[u32; 256]; 4] = {
    let t = build_tables::<LANE>();
    [t[LANE - 1], t[LANE - 2], t[LANE - 3], t[LANE - 4]]
};

const fn build_tables<const N: usize>() -> [[u32; 256]; N] {
    let mut t = [[0u32; 256]; N];
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
        while k < N {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// One slice-by-`n` step, `n = bytes.len() ≤ SLICE`: the register after
/// `bytes`, started from `crc`. The first `min(n, 4)` bytes xor into the
/// register's low bytes; byte `i` then looks up its contribution followed by
/// `n - 1 - i` zero bytes, all loads independent, and the register bytes no
/// input reached shift down past the `n` bytes. Inlined with a 16-byte array
/// it unrolls to the classic slice-by-16 step.
#[inline(always)]
fn step(crc: u32, bytes: &[u8]) -> u32 {
    let n = bytes.len();
    let k = n.min(4);
    let mut head = [0u8; 4];
    head[..k].copy_from_slice(&bytes[..k]);
    let lo = (crc ^ u32::from_le_bytes(head)).to_le_bytes();
    let mut out = crc.checked_shr(8 * n as u32).unwrap_or(0);
    for (i, &b) in lo[..k].iter().chain(&bytes[k..]).enumerate() {
        out ^= TABLES[n - 1 - i][b as usize];
    }
    out
}

/// `shift_L`: the register `r` advanced past `LANE` zero bytes.
#[inline(always)]
fn shift(r: u32) -> u32 {
    let s = &SHIFT;
    s[0][(r & 0xFF) as usize]
        ^ s[1][((r >> 8) & 0xFF) as usize]
        ^ s[2][((r >> 16) & 0xFF) as usize]
        ^ s[3][(r >> 24) as usize]
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let (slices, tail) = data.as_chunks::<SLICE>();
    let (blocks, rest) = slices.as_chunks::<{ LANES * STEPS }>();
    let mut crc = !0u32;
    for block in blocks {
        // Lane `l` is slices `l * STEPS..(l + 1) * STEPS` of the block.
        let mut reg = [0u32; LANES];
        reg[0] = crc;
        for s in 0..STEPS {
            for (l, r) in reg.iter_mut().enumerate() {
                *r = step(*r, &block[l * STEPS + s]);
            }
        }
        crc = reg[1..].iter().fold(reg[0], |a, &b| shift(a) ^ b);
    }
    for s in rest {
        crc = step(crc, s);
    }
    !step(crc, tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        // Two whole blocks, then a 16-byte step, then the longest tail:
        // every length up to that covers each split of a slice into blocks,
        // steps and a tail (none, one or two blocks, each step count, each
        // tail length), from every start offset 0..16 whatever its
        // alignment in memory.
        let max = 2 * LANES * LANE + SLICE + (SLICE - 1);
        let buf = seeded_bytes(max + SLICE, 0x00C2_C32E_EDB8_8320);
        for start in 0..SLICE {
            for len in 0..=max {
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
    fn shift_advances_a_register_past_one_lane_of_zero_bytes() {
        let bytes = seeded_bytes(4 * 64, 0x5EED_0000_5817_F732);
        let (regs, _) = bytes.as_chunks::<4>();
        for r in regs.iter().copied().map(u32::from_le_bytes) {
            let mut zeros = r;
            for _ in 0..LANE {
                zeros = TABLES[0][(zeros & 0xFF) as usize] ^ (zeros >> 8);
            }
            assert_eq!(shift(r), zeros, "register {r:#010x}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Buffers up to 64 KiB at any start offset: many blocks, then
        /// whatever steps and tail the length leaves.
        #[test]
        fn matches_bitwise_reference_on_random_buffers(
            len in 0usize..=64 * 1024,
            start in 0usize..64,
            seed in any::<u64>(),
        ) {
            let buf = seeded_bytes(start + len, seed);
            let data = &buf[start..];
            prop_assert_eq!(crc32(data), bitwise_reference(data));
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
