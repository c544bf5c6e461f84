//! HyperLogLog register primitives for the sketched validation pool.
//!
//! A sketch over a set of **global RR-set ids** keeps `m = 2^p` one-byte
//! registers. Each id is mixed through the same splitmix64 finalizer the
//! pool generators use, so register content is a pure function of
//! `(set_id, salt, precision)` — independent of insertion order, thread
//! schedule, and shard layout. That is what lets N-shard sketches merge
//! (register-wise max) into exactly the registers the sequential index
//! would have built.

/// Lowest supported register precision (`m = 16`).
pub const MIN_PRECISION: u8 = 4;
/// Highest supported register precision (`m = 1024`). The packed sparse
/// entry layout reserves 10 bits for the register index, which also caps
/// the ladder.
pub const MAX_PRECISION: u8 = 10;
/// Default register precision (`m = 256`, σ ≈ 6.5%).
pub const DEFAULT_PRECISION: u8 = 8;

/// Salt folded into every set-id hash. Fixed (not seed-derived) so that
/// sketches for the same pool content are identical across configs that
/// share a pool seed, and snapshot fingerprints stay meaningful.
pub const SKETCH_SALT: u64 = 0x9e6c_63d0_76cc_4191;

/// The 64-bit finalizer from splitmix64 (Steele et al.), also used by the
/// chunk-deterministic generators. Full-avalanche, bijective.
#[inline]
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Number of registers at precision `p`.
#[inline]
pub fn num_registers(precision: u8) -> usize {
    1usize << precision
}

/// Hashes a global RR-set id into `(register index, rank)` at `precision`.
///
/// The top `p` bits of the mixed hash pick the register; the rank is the
/// number of leading zeros of the remaining `64 - p` bits plus one
/// (capped at `64 - p + 1`, which fits the 6-bit rank field for all
/// supported precisions).
#[inline]
pub fn hash_set_id(set_id: u64, precision: u8) -> (u16, u8) {
    debug_assert!((MIN_PRECISION..=MAX_PRECISION).contains(&precision));
    let h = splitmix64_mix(set_id ^ SKETCH_SALT);
    let idx = (h >> (64 - precision)) as u16;
    let rest = h << precision;
    let rank = if rest == 0 {
        64 - precision + 1
    } else {
        rest.leading_zeros() as u8 + 1
    };
    (idx, rank)
}

/// Packs a `(register index, rank)` pair into the canonical sparse entry:
/// `idx << 6 | rank`. Valid for `p <= 10` (idx fits 10 bits) and ranks up
/// to 61 (rank fits 6 bits).
#[inline]
pub fn pack_entry(idx: u16, rank: u8) -> u16 {
    debug_assert!(idx < 1 << 10 && rank < 1 << 6);
    (idx << 6) | rank as u16
}

/// Inverse of [`pack_entry`].
#[inline]
pub fn unpack_entry(entry: u16) -> (u16, u8) {
    (entry >> 6, (entry & 0x3f) as u8)
}

/// Bias-correction constant `α_m` (Flajolet et al. 2007).
fn alpha_m(m: usize) -> f64 {
    match m {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m as f64),
    }
}

/// Cardinality estimate from a dense register array, with the standard
/// small-range (linear counting) correction. Pure function of register
/// content, so shard-merged registers yield bit-identical estimates.
pub fn estimate(registers: &[u8]) -> f64 {
    let m = registers.len();
    debug_assert!(m.is_power_of_two() && m >= 16);
    let mut sum = 0.0f64;
    let mut zeros = 0usize;
    for &r in registers {
        sum += f64::powi(2.0, -(r as i32));
        if r == 0 {
            zeros += 1;
        }
    }
    let raw = alpha_m(m) * (m as f64) * (m as f64) / sum;
    if raw <= 2.5 * m as f64 && zeros > 0 {
        // Linear counting dominates in the small-cardinality regime.
        (m as f64) * (m as f64 / zeros as f64).ln()
    } else {
        raw
    }
}

/// Relative standard error `σ = 1.04 / √m` at `precision`.
pub fn rel_std_error(precision: u8) -> f64 {
    1.04 / (num_registers(precision) as f64).sqrt()
}

/// How many relative standard errors a union estimate is deflated by
/// before it enters Eq. 1. The estimator is asymptotically unbiased with
/// roughly Gaussian relative error, so two sigmas keep the one-sided
/// chance that the deflated value overshoots the true coverage under
/// 2.3% per certification round — folded into the `δ` budget alongside
/// the sampling error.
pub const SLACK_SIGMAS: f64 = 2.0;

/// Register-wise max merge: `dst[i] = max(dst[i], src[i])`.
///
/// This is the (only) sketch union operation — associative, commutative,
/// and idempotent, which the proptest battery pins down.
pub fn merge_registers(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "register width mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_in_range() {
        for p in MIN_PRECISION..=MAX_PRECISION {
            for id in [0u64, 1, 7, 1 << 40, u64::MAX] {
                let (idx, rank) = hash_set_id(id, p);
                assert_eq!((idx, rank), hash_set_id(id, p));
                assert!((idx as usize) < num_registers(p));
                assert!(rank >= 1 && rank <= 64 - p + 1);
                let (i2, r2) = unpack_entry(pack_entry(idx, rank));
                assert_eq!((i2, r2), (idx, rank));
            }
        }
    }

    #[test]
    fn estimate_tracks_true_cardinality_within_error() {
        for p in [6u8, 8, 10] {
            let m = num_registers(p);
            for &n in &[50usize, 500, 5000, 50_000] {
                let mut regs = vec![0u8; m];
                for id in 0..n as u64 {
                    let (idx, rank) = hash_set_id(id, p);
                    let r = &mut regs[idx as usize];
                    *r = (*r).max(rank);
                }
                let est = estimate(&regs);
                let sigma = rel_std_error(p);
                let rel = (est - n as f64).abs() / n as f64;
                assert!(
                    rel < 4.0 * sigma,
                    "p={p} n={n} est={est:.1} rel={rel:.4} sigma={sigma:.4}"
                );
            }
        }
    }

    #[test]
    fn merge_is_max() {
        let mut a = vec![0u8, 3, 5, 7];
        let b = vec![1u8, 2, 6, 7];
        merge_registers(&mut a, &b);
        assert_eq!(a, vec![1, 3, 6, 7]);
    }
}
