//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over record payloads.
//!
//! Hand-rolled — the store is dependency-free by design; the polynomial matches
//! zlib/`crc32fast` so checksums are stable and externally verifiable.
//!
//! Every byte the store writes is checksummed once on `put` and once more by
//! the opening scan, so the loop is slicing-by-8: eight 256-entry tables
//! (`TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes) fold eight
//! input bytes per step instead of one; the tail that is left when the length
//! is not a multiple of eight goes through the classic one-table step. Same
//! polynomial, same checksums — pinned against the bytewise loop for every
//! length and alignment in the tests below.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

#[inline]
fn step(c: u32, b: u8) -> u32 {
    TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
}

/// The CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = step(c, b);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: one byte per step, straight from the polynomial — it
    /// shares no table with `crc32`.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFF, |c, &b| {
            (0..8).fold(c ^ u32::from(b), |c, _| {
                if c & 1 != 0 {
                    POLY ^ (c >> 1)
                } else {
                    c >> 1
                }
            })
        })
    }

    /// Deterministic filler (xorshift64*), so the vectors repeat exactly.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn matches_known_vectors() {
        // Standard zlib test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn slicing_by_eight_equals_the_bytewise_loop() {
        // Every length 0..=64 at every start alignment 0..8 …
        let buf = noise(0x5EED, 64 + 8);
        for align in 0..8 {
            for len in 0..=64 {
                let slice = &buf[align..align + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "align {align} len {len}"
                );
            }
        }
        // … and megabyte inputs of odd lengths.
        for (seed, len) in [(1, 1 << 20), (2, (1 << 20) + 3), (3, (3 << 20) - 5)] {
            let bytes = noise(seed, len);
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "seed {seed}");
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let bytes = b"genealog".to_vec();
        let base = crc32(&bytes);
        for i in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&flipped), base, "bit {i}");
        }
    }
}
