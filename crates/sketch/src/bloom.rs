//! Bloom filter (Bloom 1970, \[3\] in the paper).
//!
//! K-mer analysis inserts every k-mer occurrence into its owner's Bloom
//! filter first; only k-mers seen **at least twice** enter the counting
//! hash table. Since most erroneous k-mers are singletons (95% of distinct
//! k-mers for the human data set), this cuts the main table's memory by up
//! to 85% (§3.1). The filter operates on pre-mixed 64-bit key hashes and
//! derives its `h` probe positions by double hashing.

use hipmer_dna::mix64;

/// A classic Bloom filter over pre-hashed `u64` keys.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    /// Number of addressable bits (a power of two for cheap masking).
    mask: u64,
    hashes: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Size a filter for `expected_items` at the given false-positive rate.
    ///
    /// Uses the standard optimum `m = -n·ln(p)/ln(2)²`, `h = (m/n)·ln(2)`,
    /// rounding `m` up to a power of two.
    pub fn with_rate(expected_items: usize, fp_rate: f64) -> Self {
        assert!(fp_rate > 0.0 && fp_rate < 1.0, "fp_rate must be in (0,1)");
        let n = expected_items.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-n * fp_rate.ln() / (ln2 * ln2)).ceil().max(64.0);
        let m_pow2 = (m as u64).next_power_of_two();
        let h = ((m_pow2 as f64 / n) * ln2).round().clamp(1.0, 16.0) as u32;
        BloomFilter {
            bits: vec![0u64; (m_pow2 / 64) as usize],
            mask: m_pow2 - 1,
            hashes: h,
            inserted: 0,
        }
    }

    /// Number of bits in the filter.
    pub fn num_bits(&self) -> u64 {
        self.mask + 1
    }

    /// Number of probe hashes.
    pub fn num_hashes(&self) -> u32 {
        self.hashes
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Items inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Probe positions by double hashing: `h1 + i*h2 (mod m)`, with `h2`
    /// odd so it is coprime with the power-of-two size. The iterator owns
    /// copies of what it reads, so callers can set bits while probing
    /// without collecting the positions first.
    #[inline]
    fn probes(&self, key_hash: u64) -> impl Iterator<Item = u64> {
        let (h1, h2, mask) = (key_hash, mix64(key_hash) | 1, self.mask);
        (0..self.hashes as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2))) & mask)
    }

    /// Insert a key hash. Returns `true` if the key **may have been present
    /// already** (all probe bits were set before this insert) — the signal
    /// k-mer analysis uses for "seen at least twice". Allocation-free.
    #[inline]
    pub fn insert(&mut self, key_hash: u64) -> bool {
        let mut seen = true;
        for pos in self.probes(key_hash) {
            seen &= self.set_bit(pos);
        }
        self.inserted += 1;
        seen
    }

    /// Reference for [`insert`](Self::insert): collects the probe
    /// positions into a fresh `Vec` before setting them, one allocation
    /// per insert. Kept for the differential test and the kernel bench.
    #[doc(hidden)]
    pub fn insert_reference(&mut self, key_hash: u64) -> bool {
        let mut seen = true;
        for pos in self.probes(key_hash).collect::<Vec<_>>() {
            seen &= self.set_bit(pos);
        }
        self.inserted += 1;
        seen
    }

    /// Set bit `pos`; returns whether it was already set.
    #[inline]
    fn set_bit(&mut self, pos: u64) -> bool {
        let (word, mask) = ((pos / 64) as usize, 1u64 << (pos % 64));
        let was_set = self.bits[word] & mask != 0;
        self.bits[word] |= mask;
        was_set
    }

    /// Query without inserting.
    #[inline]
    pub fn contains(&self, key_hash: u64) -> bool {
        self.probes(key_hash)
            .all(|pos| self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }

    /// Fraction of set bits (diagnostics; ~50% at design load).
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.num_bits() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_rate(10_000, 0.01);
        for k in 0..10_000u64 {
            f.insert(mix64(k));
        }
        for k in 0..10_000u64 {
            assert!(f.contains(mix64(k)), "false negative for {k}");
        }
    }

    #[test]
    fn false_positive_rate_near_design() {
        let n = 50_000;
        let mut f = BloomFilter::with_rate(n, 0.01);
        for k in 0..n as u64 {
            f.insert(mix64(k));
        }
        let fps = (n as u64..2 * n as u64)
            .filter(|&k| f.contains(mix64(k)))
            .count();
        let rate = fps as f64 / n as f64;
        assert!(rate < 0.03, "fp rate {rate} too far above design 0.01");
    }

    #[test]
    fn insert_reports_first_vs_repeat() {
        let mut f = BloomFilter::with_rate(1000, 0.001);
        assert!(!f.insert(mix64(7)), "first insert is new");
        assert!(f.insert(mix64(7)), "second insert is seen");
    }

    #[test]
    fn insert_matches_collecting_reference() {
        // Same answers and the same bit pattern as the collect-to-Vec
        // probe loop, across filter shapes (1 to 16 probes).
        for (n, rate) in [(64, 0.5), (1_000, 0.01), (5_000, 0.0001)] {
            let mut fast = BloomFilter::with_rate(n, rate);
            let mut reference = fast.clone();
            for k in 0..3 * n as u64 {
                let h = mix64(k % (2 * n as u64));
                assert_eq!(fast.insert(h), reference.insert_reference(h), "n={n} k={k}");
            }
            assert_eq!(fast.bits, reference.bits, "n={n}");
            assert_eq!(fast.inserted(), reference.inserted());
        }
    }

    #[test]
    fn fill_ratio_reasonable_at_design_load() {
        let n = 20_000;
        let mut f = BloomFilter::with_rate(n, 0.01);
        for k in 0..n as u64 {
            f.insert(mix64(k));
        }
        let fill = f.fill_ratio();
        assert!(fill > 0.2 && fill < 0.6, "fill ratio {fill}");
    }

    #[test]
    fn sizes_scale_with_items() {
        let small = BloomFilter::with_rate(1_000, 0.01);
        let large = BloomFilter::with_rate(1_000_000, 0.01);
        assert!(large.num_bits() > small.num_bits());
        assert!(small.num_hashes() >= 1);
    }

    #[test]
    #[should_panic(expected = "fp_rate")]
    fn bad_rate_panics() {
        BloomFilter::with_rate(100, 1.5);
    }
}
