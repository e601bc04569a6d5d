//! Exact order statistics over raw samples, and the output digest.

/// The `p`-th percentile (`0..=100`) of `samples`, by linear
/// interpolation between the two nearest order statistics (the
/// definition NumPy and `statistics.quantiles(method="inclusive")` use).
/// Every sample is kept, so nothing is bucketed.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: the workloads always
/// produce at least one finite sample, so either is a bug.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Mixes two values into one well-spread 64-bit value: the SplitMix64
/// finalizer of `a + b·φ`.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a.wrapping_add(b.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a/64 over `bytes`: the digest every workload folds its outputs
/// into, so two runs on one seed can be compared with one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::default();
        d.update(bytes);
        d.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!((percentile(&s, 90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(Digest::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::of(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
