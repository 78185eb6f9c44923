//! Keyed pseudo-random function for deriving per-query noise seeds, plus
//! the entropy source for the per-instance noise secret.
//!
//! The service keys every release's noise on a secret: if the mapping
//! from query to noise seed were computable (or forgeable) by an analyst,
//! they could predict the noise — or craft a second query whose noise
//! stream collides with a target's and difference it away. SipHash-2-4 is
//! a keyed PRF designed exactly for this shape of input (short messages,
//! 128-bit secret key, 64-bit output); without the key, finding two
//! inputs with equal output — or learning anything about the output — is
//! infeasible.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// SipHash-2-4 of `data` under the 128-bit `key` (Aumasson–Bernstein).
pub fn siphash24(key: [u64; 2], data: &[u8]) -> u64 {
    siphash24_parts(key, &[data])
}

/// SipHash-2-4 under `key` of the concatenation of `parts`, without
/// copying them into one buffer: equal to `siphash24` of the joined
/// bytes.
pub fn siphash24_parts(key: [u64; 2], parts: &[&[u8]]) -> u64 {
    let mut sip = SipState {
        v: [
            0x736f_6d65_7073_6575 ^ key[0],
            0x646f_7261_6e64_6f6d ^ key[1],
            0x6c79_6765_6e65_7261 ^ key[0],
            0x7465_6462_7974_6573 ^ key[1],
        ],
    };
    // Bytes not yet compressed (fewer than 8), little-endian in `tail`.
    let (mut tail, mut held, mut len) = (0u64, 0usize, 0usize);
    for part in parts {
        len += part.len();
        let mut rest = *part;
        if held > 0 {
            let fill = rest.len().min(8 - held);
            for (i, &byte) in rest[..fill].iter().enumerate() {
                tail |= u64::from(byte) << (8 * (held + i));
            }
            held += fill;
            rest = &rest[fill..];
            if held < 8 {
                continue;
            }
            sip.compress(tail);
            tail = 0;
        }
        let mut chunks = rest.chunks_exact(8);
        for chunk in &mut chunks {
            sip.compress(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for (i, &byte) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(byte) << (8 * i);
        }
        held = chunks.remainder().len();
    }
    // Final block: remaining bytes plus the message length in the top byte.
    sip.compress(((len as u64) << 56) | tail);
    sip.v[2] ^= 0xff;
    for _ in 0..4 {
        sip.round();
    }
    sip.v[0] ^ sip.v[1] ^ sip.v[2] ^ sip.v[3]
}

/// SipHash's four state words.
struct SipState {
    v: [u64; 4],
}

impl SipState {
    fn round(&mut self) {
        let [v0, v1, v2, v3] = &mut self.v;
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    }

    /// Absorb one 8-byte word (two compression rounds).
    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        self.round();
        self.round();
        self.v[0] ^= m;
    }
}

/// 64 bits of entropy from the OS, with no dependency beyond `std`:
/// `RandomState` is seeded from the operating system's randomness source
/// exactly so that `HashMap` keys are unpredictable to an adversary, and
/// each call draws a fresh instance. Process id and wall-clock nanoseconds
/// are folded in as a belt-and-braces measure.
pub fn entropy64() -> u64 {
    let mut h = RandomState::new().build_hasher();
    h.write_u64(std::process::id() as u64);
    if let Ok(elapsed) = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
        h.write_u128(elapsed.as_nanos());
    }
    let first = h.finish();
    // A second independent RandomState, so the output is not a function
    // of a single hasher's keys.
    let mut h2 = RandomState::new().build_hasher();
    h2.write_u64(first);
    h2.finish()
}

/// Expand a 64-bit seed into a 128-bit SipHash key (SplitMix64 steps).
pub fn expand_key(seed: u64) -> [u64; 2] {
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut sm = seed;
    [splitmix64(&mut sm), splitmix64(&mut sm)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_test_vectors() {
        // Official SipHash-2-4 vectors: key = 00 01 … 0f, message = the
        // first `len` bytes of 00 01 02 …
        let key = [0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908];
        let msg: Vec<u8> = (0u8..8).collect();
        let expected: [u64; 5] = [
            0x726f_db47_dd0e_0e31,
            0x74f8_39c5_93dc_67fd,
            0x0d6c_8009_d9a9_4f5a,
            0x8567_6696_d7fb_7e2d,
            0xcf27_94e0_2771_87b7,
        ];
        for (len, want) in expected.iter().enumerate() {
            assert_eq!(
                siphash24(key, &msg[..len]),
                *want,
                "vector for {len}-byte input"
            );
        }
    }

    #[test]
    fn parts_hash_as_their_concatenation() {
        let key = [0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908];
        let msg: Vec<u8> = (0u8..40).collect();
        for len in 0..msg.len() {
            let whole = siphash24(key, &msg[..len]);
            for a in 0..=len {
                for b in a..=len {
                    let parts = [&msg[..a], &msg[a..b], &msg[b..len]];
                    assert_eq!(siphash24_parts(key, &parts), whole, "{len}: {a} {b}");
                }
            }
        }
    }

    #[test]
    fn key_and_input_sensitivity() {
        let k1 = [1, 2];
        let k2 = [1, 3];
        assert_eq!(siphash24(k1, b"query"), siphash24(k1, b"query"));
        assert_ne!(siphash24(k1, b"query"), siphash24(k2, b"query"));
        assert_ne!(siphash24(k1, b"query"), siphash24(k1, b"query2"));
        // Length is part of the hash: a short message is not a prefix
        // collision of a longer one padded with zeros.
        assert_ne!(siphash24(k1, b"q\0"), siphash24(k1, b"q"));
    }

    #[test]
    fn entropy_draws_are_distinct() {
        let a = entropy64();
        let b = entropy64();
        assert_ne!(a, b, "two draws must not repeat");
    }

    #[test]
    fn expand_key_is_deterministic_and_spreading() {
        assert_eq!(expand_key(7), expand_key(7));
        assert_ne!(expand_key(7), expand_key(8));
        let [a, b] = expand_key(0);
        assert_ne!(a, b);
    }
}
