//! ECMP / LAG flow hashing (§3.2 ➅, §4 "Traffic matrix at HBM switches").
//!
//! Incoming WAN links are assumed to use ECMP or link aggregation, so
//! traffic is spread over fibers by hashing the flow 5-tuple; the output
//! ports of each HBM switch do the same to pick an egress waveguide and
//! wavelength. Two industry-standard hash functions are provided so the
//! spreading quality can be compared.

use crate::packet::FlowKey;
use serde::{Deserialize, Serialize};

/// FNV-1a 64-bit hash of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Reflected CRC-32C (Castagnoli) polynomial, 0x1EDC6F41 bit-reversed.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 tables: `CRC32C_TABLES[0]` is the CRC of every byte value
/// (one lookup per byte instead of eight shift/xor steps), and
/// `CRC32C_TABLES[j][b]` is that CRC advanced through `j` more zero
/// bytes, so eight input bytes fold in with eight independent lookups.
const CRC32C_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32C_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[j - 1][b];
            t[j][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        j += 1;
    }
    t
};

/// CRC-32C (Castagnoli) of a byte string, slice-by-8: eight bytes per
/// step, then four, then the tail one byte at a time (a 13-byte flow
/// key takes one step of each).
pub fn crc32c(bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    // Table `j` folds in a byte that has `j` more bytes after it in
    // the step.
    let fold4 = |x: u32, j: usize| {
        t[j + 3][(x & 0xFF) as usize]
            ^ t[j + 2][((x >> 8) & 0xFF) as usize]
            ^ t[j + 1][((x >> 16) & 0xFF) as usize]
            ^ t[j][(x >> 24) as usize]
    };
    let word = |w: &[u8]| u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let mut crc: u32 = !0;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        crc = fold4(crc ^ word(&w[..4]), 4) ^ fold4(word(&w[4..]), 0);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        crc = fold4(crc ^ word(rest), 0);
        rest = &rest[4..];
    }
    for &b in rest {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Which hash function an ECMP/LAG group uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HashKind {
    /// FNV-1a (fast software hash).
    Fnv1a,
    /// CRC-32C (the common hardware hash).
    Crc32c,
}

/// Hash a flow onto one of `lanes` lanes: the hash modulo `lanes`.
///
/// # Panics
/// Panics if `lanes` is zero.
pub fn lane_for(flow: FlowKey, lanes: usize, kind: HashKind) -> usize {
    assert!(lanes > 0, "lane count must be positive");
    let bytes = flow.to_bytes();
    let h = match kind {
        HashKind::Fnv1a => fnv1a(&bytes),
        HashKind::Crc32c => crc32c(&bytes) as u64,
    };
    // Every shipped lane count is a power of two, where the remainder
    // is a mask; only other counts pay for a division.
    if lanes.is_power_of_two() {
        (h & (lanes as u64 - 1)) as usize
    } else {
        (h % lanes as u64) as usize
    }
}

/// Hash a flow onto a `(fiber, wavelength)` pair out of `fibers × waves`
/// lanes (the output-port spreading of §3.2 ➅): lane `l` is fiber
/// `l / waves`, wavelength `l % waves`.
pub fn fiber_wavelength_for(
    flow: FlowKey,
    fibers: usize,
    waves: usize,
    kind: HashKind,
) -> (usize, usize) {
    let lane = lane_for(flow, fibers * waves, kind);
    if waves.is_power_of_two() {
        (lane >> waves.trailing_zeros(), lane & (waves - 1))
    } else {
        (lane / waves, lane % waves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn flow(i: u32) -> FlowKey {
        FlowKey {
            src_ip: 0x0A00_0000 + i,
            dst_ip: 0x0B00_0000u32.wrapping_add(i.wrapping_mul(2654435761)),
            src_port: (i % 50000) as u16,
            dst_port: 443,
            proto: 6,
        }
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 test vector: CRC-32C of "123456789" = 0xE3069283.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_bitwise(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    /// The bitwise CRC-32C the tables are built from, kept as the oracle.
    fn crc32c_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32C_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// The division-based lane split every caller used before the
    /// power-of-two masks, kept as the oracle.
    fn fiber_wavelength_by_division(
        flow: FlowKey,
        fibers: usize,
        waves: usize,
        kind: HashKind,
    ) -> (usize, usize) {
        let bytes = flow.to_bytes();
        let h = match kind {
            HashKind::Fnv1a => fnv1a(&bytes),
            HashKind::Crc32c => crc32c_bitwise(&bytes) as u64,
        };
        let lane = (h % (fibers * waves) as u64) as usize;
        (lane / waves, lane % waves)
    }

    fn arb_flow() -> impl Strategy<Value = FlowKey> {
        (
            any::<u32>(),
            any::<u32>(),
            any::<u16>(),
            any::<u16>(),
            any::<u8>(),
        )
            .prop_map(|(src_ip, dst_ip, src_port, dst_port, proto)| FlowKey {
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                proto,
            })
    }

    proptest! {
        #[test]
        fn table_crc32c_matches_the_bitwise_oracle(
            bytes in prop::collection::vec(any::<u8>(), 0..=64)
        ) {
            prop_assert_eq!(crc32c(&bytes), crc32c_bitwise(&bytes));
        }

        #[test]
        fn lane_split_matches_the_division_oracle(
            flow in arb_flow(),
            // Powers of two (every shipped config) and counts that are not.
            fibers in prop::sample::select(vec![1usize, 2, 3, 5, 16, 24, 64, 100]),
            waves in prop::sample::select(vec![1usize, 2, 3, 4, 6, 16, 40]),
            fnv in any::<bool>(),
        ) {
            let kind = if fnv { HashKind::Fnv1a } else { HashKind::Crc32c };
            prop_assert_eq!(
                fiber_wavelength_for(flow, fibers, waves, kind),
                fiber_wavelength_by_division(flow, fibers, waves, kind)
            );
        }
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Canonical FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hashing_is_deterministic_per_flow() {
        let f = flow(42);
        for kind in [HashKind::Fnv1a, HashKind::Crc32c] {
            assert_eq!(lane_for(f, 64, kind), lane_for(f, 64, kind));
        }
    }

    #[test]
    fn hashing_spreads_flows_evenly() {
        for kind in [HashKind::Fnv1a, HashKind::Crc32c] {
            let lanes = 16;
            let n = 32_000;
            let mut counts = vec![0u32; lanes];
            for i in 0..n {
                counts[lane_for(flow(i), lanes, kind)] += 1;
            }
            let expect = n as f64 / lanes as f64;
            for (l, &c) in counts.iter().enumerate() {
                let dev = (c as f64 - expect).abs() / expect;
                assert!(dev < 0.10, "{kind:?} lane {l}: count {c} deviates {dev:.3}");
            }
        }
    }

    #[test]
    fn fiber_wavelength_decomposition() {
        let f = flow(7);
        let (fiber, wave) = fiber_wavelength_for(f, 4, 16, HashKind::Crc32c);
        assert!(fiber < 4 && wave < 16);
        let lane = lane_for(f, 64, HashKind::Crc32c);
        assert_eq!(lane, fiber * 16 + wave);
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn zero_lanes_panics() {
        lane_for(flow(1), 0, HashKind::Fnv1a);
    }
}
