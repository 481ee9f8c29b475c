//! 2-bit packed k-mers and the codec that operates on them.
//!
//! A [`Kmer`] is a bare `u128` holding up to 64 bases, two bits per base,
//! with the *first* (5'-most) base in the most significant occupied bits and
//! the *last* base in the two least significant bits. All length-dependent
//! operations live on [`KmerCodec`], which carries `k` once per table
//! instead of once per key.
//!
//! The de Bruijn graph in the paper is keyed by *canonical* k-mers: a k-mer
//! and its reverse complement denote the same node, and the lexicographically
//! (numerically, in 2-bit space) smaller of the two is the table key.

use crate::base::{decode_base, encode_base};

/// The largest supported k (two bits per base in a `u128`).
pub const MAX_K: usize = 64;

/// A k-mer length outside the supported `1..=MAX_K` range.
///
/// Returned by [`KmerCodec::try_new`] so front ends (the CLI's `-k` flag)
/// can report bad configuration instead of panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KmerLenError {
    /// The rejected length.
    pub k: usize,
}

impl std::fmt::Display for KmerLenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k must be in 1..={MAX_K}, got {}", self.k)
    }
}

impl std::error::Error for KmerLenError {}

/// A 2-bit packed k-mer of externally-known length.
///
/// Equality/ordering are bitwise, which coincides with lexicographic order
/// over the bases for k-mers of equal length.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Kmer(pub u128);

impl Kmer {
    /// The raw packed bits.
    #[inline]
    pub fn bits(self) -> u128 {
        self.0
    }
}

impl std::fmt::Debug for Kmer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kmer({:#034x})", self.0)
    }
}

/// Reverse the order of all 64 2-bit groups in a `u128`.
#[inline]
fn reverse_2bit_groups(mut x: u128) -> u128 {
    const M2: u128 = 0x3333_3333_3333_3333_3333_3333_3333_3333;
    const M4: u128 = 0x0f0f_0f0f_0f0f_0f0f_0f0f_0f0f_0f0f_0f0f;
    x = ((x & M2) << 2) | ((x >> 2) & M2);
    x = ((x & M4) << 4) | ((x >> 4) & M4);
    x.swap_bytes()
}

/// Length-aware operations over [`Kmer`]s.
///
/// One codec is shared by every k-mer of a given pipeline run; the assembler
/// constructs it once from the configured k.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KmerCodec {
    k: usize,
    /// Mask with the low `2k` bits set.
    mask: u128,
}

impl KmerCodec {
    /// Create a codec for k-mers of length `k`, rejecting out-of-range
    /// lengths with a typed error.
    ///
    /// `k == 0` would make every shift amount degenerate and `k > MAX_K`
    /// would overflow the `u128` (at `k == MAX_K` exactly, the mask and the
    /// `revcomp`/`extend_left` shift amounts are at their limits — covered
    /// by boundary tests at k = 63 and 64).
    pub fn try_new(k: usize) -> Result<Self, KmerLenError> {
        if !(1..=MAX_K).contains(&k) {
            return Err(KmerLenError { k });
        }
        // `1u128 << (2 * k)` overflows at k == MAX_K; special-case it.
        let mask = if k == MAX_K {
            u128::MAX
        } else {
            (1u128 << (2 * k)) - 1
        };
        Ok(KmerCodec { k, mask })
    }

    /// Create a codec for k-mers of length `k`.
    ///
    /// # Panics
    /// Panics unless `1 <= k <= MAX_K`; use [`KmerCodec::try_new`] where
    /// the length comes from user input.
    pub fn new(k: usize) -> Self {
        match Self::try_new(k) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// The k-mer length this codec operates on.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Packed wire bytes of one k-mer at this k: `ceil(2k / 8)` — what a
    /// real sender serializes, as opposed to `size_of::<Kmer>()` (a full
    /// 16-byte `u128` regardless of k). Used to price aggregated k-mer
    /// messages without billing the in-memory padding.
    #[inline]
    pub fn wire_bytes(&self) -> u64 {
        (2 * self.k as u64).div_ceil(8)
    }

    /// Pack an ASCII slice of exactly `k` unambiguous bases.
    ///
    /// Returns `None` if the slice has the wrong length or contains a
    /// non-ACGT byte.
    pub fn pack(&self, seq: &[u8]) -> Option<Kmer> {
        if seq.len() != self.k {
            return None;
        }
        let mut bits = 0u128;
        for &b in seq {
            bits = (bits << 2) | encode_base(b)? as u128;
        }
        Some(Kmer(bits))
    }

    /// Unpack into an ASCII `ACGT` string.
    pub fn unpack(&self, kmer: Kmer) -> Vec<u8> {
        let mut out = vec![0u8; self.k];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = decode_base(self.base_at(kmer, i));
        }
        out
    }

    /// Unpack into an owned `String` (convenience for diagnostics).
    pub fn to_string(&self, kmer: Kmer) -> String {
        String::from_utf8(self.unpack(kmer)).expect("decoded bases are ASCII")
    }

    /// The 2-bit code of the base at position `i` (0 = 5'-most).
    #[inline]
    pub fn base_at(&self, kmer: Kmer, i: usize) -> u8 {
        debug_assert!(i < self.k);
        ((kmer.0 >> (2 * (self.k - 1 - i))) & 0b11) as u8
    }

    /// The 2-bit code of the first (5'-most) base.
    #[inline]
    pub fn first_base(&self, kmer: Kmer) -> u8 {
        self.base_at(kmer, 0)
    }

    /// The 2-bit code of the last (3'-most) base.
    #[inline]
    pub fn last_base(&self, kmer: Kmer) -> u8 {
        (kmer.0 & 0b11) as u8
    }

    /// Reverse complement.
    #[inline]
    pub fn revcomp(&self, kmer: Kmer) -> Kmer {
        // Complement every base (XOR with all-ones over 2k bits), reverse
        // the 64 2-bit groups, then shift the occupied groups down.
        let comp = kmer.0 ^ self.mask;
        Kmer(reverse_2bit_groups(comp) >> (128 - 2 * self.k))
    }

    /// The canonical representative: `min(kmer, revcomp(kmer))`.
    #[inline]
    pub fn canonical(&self, kmer: Kmer) -> Kmer {
        let rc = self.revcomp(kmer);
        if rc.0 < kmer.0 {
            rc
        } else {
            kmer
        }
    }

    /// Whether `kmer` is its own canonical representative.
    #[inline]
    pub fn is_canonical(&self, kmer: Kmer) -> bool {
        kmer.0 <= self.revcomp(kmer).0
    }

    /// Whether `kmer` is its own reverse complement (only possible for even k).
    #[inline]
    pub fn is_palindrome(&self, kmer: Kmer) -> bool {
        self.revcomp(kmer) == kmer
    }

    /// Slide one base to the right: drop the first base, append `code`.
    #[inline]
    pub fn extend_right(&self, kmer: Kmer, code: u8) -> Kmer {
        debug_assert!(code < 4);
        Kmer(((kmer.0 << 2) | code as u128) & self.mask)
    }

    /// Slide one base to the left: drop the last base, prepend `code`.
    #[inline]
    pub fn extend_left(&self, kmer: Kmer, code: u8) -> Kmer {
        debug_assert!(code < 4);
        Kmer((kmer.0 >> 2) | ((code as u128) << (2 * (self.k - 1))))
    }

    /// The largest minimizer length supported by [`minimizer_hash`]
    /// (an m-mer's 2-bit code must fit the 64-bit mixer input).
    ///
    /// [`minimizer_hash`]: KmerCodec::minimizer_hash
    pub const MAX_MINIMIZER_LEN: usize = 32;

    /// The **minimizer hash** of a k-mer: the minimum, over its `k - m + 1`
    /// length-`m` windows, of `mix64` applied to the *canonical* m-mer's
    /// 2-bit code. This is the bucketing key of minimizer-based k-mer
    /// placement: two k-mers that overlap in `m` or more bases share
    /// windows, so adjacent k-mers of one read usually share a minimizer —
    /// and therefore an owner rank — collapsing the cross-rank traffic of
    /// sliding-window table access patterns.
    ///
    /// Because each window is canonicalized before hashing, the result is
    /// **strand-invariant**: `minimizer_hash(km) ==
    /// minimizer_hash(revcomp(km))` (a k-mer and its reverse complement see
    /// the same multiset of canonical m-mers, in reverse window order).
    /// With `m == k` (a single window) this degenerates to
    /// `mix64(canonical(km))`.
    ///
    /// Cost is O(k): the forward and reverse-complement m-mer words roll in
    /// a `u64` across the k-mer's bases (k shifts), and each of the
    /// `k - m + 1` windows costs one `mix64`. Streaming callers that visit
    /// every k-mer of a sequence get the same values in amortized O(1) per
    /// k-mer from [`minimizer_kmers`](Self::minimizer_kmers).
    ///
    /// # Panics
    /// Panics unless `1 <= m <= min(k, MAX_MINIMIZER_LEN)` — ownership
    /// decisions ride on this value, so the range is enforced in release
    /// builds too.
    pub fn minimizer_hash(&self, kmer: Kmer, m: usize) -> u64 {
        self.check_minimizer_len(m);
        let m_mask = u64::MAX >> (64 - 2 * m);
        let rc_shift = 2 * (m - 1);
        let (mut fwd, mut rc, mut fed, mut best) = (0u64, 0u64, 0usize, u64::MAX);
        // Bases 5' to 3': the high word holds the first `k - 32` (if any),
        // the low word the remaining ones.
        let hi_len = self.k.saturating_sub(32);
        for (word, len) in [
            ((kmer.0 >> 64) as u64, hi_len),
            (kmer.0 as u64, self.k - hi_len),
        ] {
            for i in (0..len).rev() {
                let code = (word >> (2 * i)) & 0b11;
                fwd = ((fwd << 2) | code) & m_mask;
                rc = (rc >> 2) | ((3 - code) << rc_shift);
                fed += 1;
                if fed >= m {
                    best = best.min(crate::hash::mix64(fwd.min(rc)));
                }
            }
        }
        best
    }

    /// Reference oracle for [`minimizer_hash`](Self::minimizer_hash): the
    /// per-window scan that extracts and reverse-complements every m-mer
    /// from the `u128` word. Kept for differential tests and the kernel
    /// bench; not for production use.
    #[doc(hidden)]
    pub fn minimizer_hash_reference(&self, kmer: Kmer, m: usize) -> u64 {
        self.check_minimizer_len(m);
        let mcodec = KmerCodec::new(m);
        let mut best = u64::MAX;
        for i in 0..=(self.k - m) {
            let bits = (kmer.0 >> (2 * (self.k - m - i))) & mcodec.mask;
            let canon = mcodec.canonical(Kmer(bits));
            best = best.min(crate::hash::mix64(canon.0 as u64));
        }
        best
    }

    /// The minimizer-length contract shared by the minimizer functions.
    fn check_minimizer_len(&self, m: usize) {
        assert!(
            m >= 1 && m <= self.k && m <= Self::MAX_MINIMIZER_LEN,
            "minimizer length m={m} outside 1..=min(k={}, {})",
            self.k,
            Self::MAX_MINIMIZER_LEN
        );
    }

    /// Iterate over all k-mers of `seq` (ASCII), skipping windows that
    /// contain a non-ACGT byte. Yields `(offset, kmer)` pairs.
    pub fn kmers<'a>(&self, seq: &'a [u8]) -> KmerIter<'a> {
        KmerIter {
            codec: *self,
            seq,
            pos: 0,
            valid: 0,
            bits: 0,
        }
    }

    /// Iterate over all k-mers of `seq` with their canonical forms, each
    /// position in O(1): both the forward window and its reverse complement
    /// roll incrementally (one shift-in at the high end of the RC window per
    /// base), so no per-position `revcomp` bit-reversal is paid. Yields
    /// `(offset, kmer, canonical)` triples identical to
    /// `kmers(seq).map(|(o, km)| (o, km, codec.canonical(km)))`.
    pub fn canonical_kmers<'a>(&self, seq: &'a [u8]) -> CanonicalKmerIter<'a> {
        CanonicalKmerIter {
            codec: *self,
            seq,
            pos: 0,
            valid: 0,
            bits: 0,
            rc_bits: 0,
        }
    }

    /// Iterate over all k-mers of `seq` together with their canonical forms
    /// **and** their [`minimizer_hash`](Self::minimizer_hash), each position
    /// amortized O(1): the m-mer window rolls like the k-mer window, and a
    /// monotone deque maintains the sliding-window minimum over the m-mer
    /// hashes, so no per-position rescan of the `k - m + 1` windows is paid.
    /// Yields `(offset, kmer, canonical, minimizer_hash)` quadruples
    /// identical to `canonical_kmers(seq)` zipped with per-k-mer
    /// `minimizer_hash` calls.
    ///
    /// # Panics
    /// Panics unless `1 <= m <= min(k, MAX_MINIMIZER_LEN)`.
    pub fn minimizer_kmers<'a>(&self, seq: &'a [u8], m: usize) -> MinimizerKmerIter<'a> {
        self.check_minimizer_len(m);
        MinimizerKmerIter {
            codec: *self,
            m,
            seq,
            pos: 0,
            valid: 0,
            bits: 0,
            rc_bits: 0,
            mbits: 0,
            m_rc_bits: 0,
            // At most `k - m + 2` hashes are live: the window's plus the
            // one pushed before the stale front is popped.
            window: std::collections::VecDeque::with_capacity(self.k - m + 2),
        }
    }
}

/// Rolling iterator over the k-mers of an ASCII sequence.
///
/// Maintains a 2-bit window and a count of consecutive valid bases, so a
/// single `N` only invalidates the windows that overlap it.
pub struct KmerIter<'a> {
    codec: KmerCodec,
    seq: &'a [u8],
    pos: usize,
    /// How many consecutive valid bases end at `pos` (capped at k).
    valid: usize,
    bits: u128,
}

impl<'a> Iterator for KmerIter<'a> {
    type Item = (usize, Kmer);

    fn next(&mut self) -> Option<(usize, Kmer)> {
        let k = self.codec.k;
        while self.pos < self.seq.len() {
            let b = self.seq[self.pos];
            self.pos += 1;
            match encode_base(b) {
                Some(code) => {
                    self.bits = ((self.bits << 2) | code as u128) & self.codec.mask;
                    self.valid = (self.valid + 1).min(k);
                    if self.valid == k {
                        return Some((self.pos - k, Kmer(self.bits)));
                    }
                }
                None => {
                    self.valid = 0;
                    self.bits = 0;
                }
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.seq.len().saturating_sub(self.pos)))
    }
}

/// Rolling iterator over the k-mers of an ASCII sequence together with
/// their canonical representatives.
///
/// Like [`KmerIter`], but additionally maintains the reverse-complement
/// window incrementally: appending base `c` to the forward window
/// corresponds to shifting `complement(c)` into the *high* end of the RC
/// window, so canonicalization costs a comparison instead of a full
/// bit-reversal per position.
pub struct CanonicalKmerIter<'a> {
    codec: KmerCodec,
    seq: &'a [u8],
    pos: usize,
    /// How many consecutive valid bases end at `pos` (capped at k).
    valid: usize,
    /// Forward 2-bit window (low `2k` bits).
    bits: u128,
    /// Reverse-complement 2-bit window (low `2k` bits).
    rc_bits: u128,
}

impl<'a> Iterator for CanonicalKmerIter<'a> {
    type Item = (usize, Kmer, Kmer);

    fn next(&mut self) -> Option<(usize, Kmer, Kmer)> {
        let k = self.codec.k;
        let rc_shift = 2 * (k - 1) as u32;
        while self.pos < self.seq.len() {
            let b = self.seq[self.pos];
            self.pos += 1;
            match encode_base(b) {
                Some(code) => {
                    self.bits = ((self.bits << 2) | code as u128) & self.codec.mask;
                    // The dropped base's complement falls off the low end;
                    // the new base's complement (3 - code) enters at the top.
                    self.rc_bits = (self.rc_bits >> 2) | (((3 - code) as u128) << rc_shift);
                    self.valid = (self.valid + 1).min(k);
                    if self.valid == k {
                        let fwd = Kmer(self.bits);
                        let canon = if self.rc_bits < self.bits {
                            Kmer(self.rc_bits)
                        } else {
                            fwd
                        };
                        return Some((self.pos - k, fwd, canon));
                    }
                }
                None => {
                    self.valid = 0;
                    self.bits = 0;
                    self.rc_bits = 0;
                }
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.seq.len().saturating_sub(self.pos)))
    }
}

/// Rolling iterator over the k-mers of an ASCII sequence together with
/// their canonical representatives and minimizer hashes.
///
/// Like [`CanonicalKmerIter`], plus a rolling canonical m-mer window and a
/// monotone deque over the m-mer hashes: the deque's front is always the
/// minimum hash among the m-mers inside the current k-mer window, so each
/// base is pushed and popped at most once regardless of `k - m + 1`.
pub struct MinimizerKmerIter<'a> {
    codec: KmerCodec,
    /// Minimizer length.
    m: usize,
    seq: &'a [u8],
    pos: usize,
    /// How many consecutive valid bases end at `pos` (capped at k).
    valid: usize,
    /// Forward / reverse-complement k-mer windows (low `2k` bits).
    bits: u128,
    rc_bits: u128,
    /// Forward / reverse-complement m-mer windows (low `2m` bits).
    mbits: u64,
    m_rc_bits: u64,
    /// `(m-mer offset, mix64(canonical m-mer))` with nondecreasing hashes
    /// front to back; the front is the current window minimum.
    window: std::collections::VecDeque<(usize, u64)>,
}

impl<'a> Iterator for MinimizerKmerIter<'a> {
    type Item = (usize, Kmer, Kmer, u64);

    fn next(&mut self) -> Option<(usize, Kmer, Kmer, u64)> {
        let k = self.codec.k;
        let m = self.m;
        let rc_shift = 2 * (k - 1) as u32;
        let m_mask = u64::MAX >> (64 - 2 * m);
        let m_rc_shift = 2 * (m - 1) as u32;
        while self.pos < self.seq.len() {
            let b = self.seq[self.pos];
            self.pos += 1;
            match encode_base(b) {
                Some(code) => {
                    self.bits = ((self.bits << 2) | code as u128) & self.codec.mask;
                    self.rc_bits = (self.rc_bits >> 2) | (((3 - code) as u128) << rc_shift);
                    self.mbits = ((self.mbits << 2) | code as u64) & m_mask;
                    self.m_rc_bits = (self.m_rc_bits >> 2) | (((3 - code) as u64) << m_rc_shift);
                    self.valid = (self.valid + 1).min(k);
                    if self.valid >= m {
                        let h = crate::hash::mix64(self.mbits.min(self.m_rc_bits));
                        while self.window.back().is_some_and(|&(_, bh)| bh >= h) {
                            self.window.pop_back();
                        }
                        self.window.push_back((self.pos - m, h));
                    }
                    if self.valid == k {
                        let start = self.pos - k;
                        while self.window.front().is_some_and(|&(off, _)| off < start) {
                            self.window.pop_front();
                        }
                        let fwd = Kmer(self.bits);
                        let canon = if self.rc_bits < self.bits {
                            Kmer(self.rc_bits)
                        } else {
                            fwd
                        };
                        let min_hash = self.window.front().expect("window nonempty at k").1;
                        return Some((start, fwd, canon, min_hash));
                    }
                }
                None => {
                    self.valid = 0;
                    self.bits = 0;
                    self.rc_bits = 0;
                    self.mbits = 0;
                    self.m_rc_bits = 0;
                    self.window.clear();
                }
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.seq.len().saturating_sub(self.pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let c = KmerCodec::new(5);
        let kmer = c.pack(b"ACGTA").unwrap();
        assert_eq!(c.unpack(kmer), b"ACGTA");
        assert_eq!(c.to_string(kmer), "ACGTA");
    }

    #[test]
    fn pack_rejects_bad_input() {
        let c = KmerCodec::new(4);
        assert!(c.pack(b"ACG").is_none(), "too short");
        assert!(c.pack(b"ACGTA").is_none(), "too long");
        assert!(c.pack(b"ACNT").is_none(), "ambiguous base");
    }

    #[test]
    fn base_accessors() {
        let c = KmerCodec::new(4);
        let kmer = c.pack(b"GATC").unwrap();
        assert_eq!(c.first_base(kmer), 2); // G
        assert_eq!(c.last_base(kmer), 1); // C
        assert_eq!(c.base_at(kmer, 1), 0); // A
        assert_eq!(c.base_at(kmer, 2), 3); // T
    }

    #[test]
    fn revcomp_small() {
        let c = KmerCodec::new(3);
        let kmer = c.pack(b"ATC").unwrap();
        assert_eq!(c.to_string(c.revcomp(kmer)), "GAT");
    }

    #[test]
    fn revcomp_involution_various_k() {
        for k in [1, 2, 3, 15, 16, 31, 32, 33, 63, 64] {
            let c = KmerCodec::new(k);
            // Deterministic pseudo-random bases.
            let seq: Vec<u8> = (0..k)
                .map(|i| crate::base::BASES[(i * 7 + 3) % 4])
                .collect();
            let kmer = c.pack(&seq).unwrap();
            assert_eq!(c.revcomp(c.revcomp(kmer)), kmer, "k={k}");
        }
    }

    #[test]
    fn revcomp_matches_string_revcomp() {
        let c = KmerCodec::new(7);
        let kmer = c.pack(b"AACGTGG").unwrap();
        let rc = c.revcomp(kmer);
        assert_eq!(c.to_string(rc), "CCACGTT");
    }

    #[test]
    fn canonical_is_min_and_idempotent() {
        let c = KmerCodec::new(4);
        let kmer = c.pack(b"TTTT").unwrap();
        let canon = c.canonical(kmer);
        assert_eq!(c.to_string(canon), "AAAA");
        assert_eq!(c.canonical(canon), canon);
        assert!(c.is_canonical(canon));
        assert!(!c.is_canonical(kmer));
    }

    #[test]
    fn palindrome_detection() {
        let c = KmerCodec::new(4);
        assert!(c.is_palindrome(c.pack(b"ACGT").unwrap()));
        assert!(!c.is_palindrome(c.pack(b"ACGG").unwrap()));
    }

    #[test]
    fn extend_right_slides_window() {
        let c = KmerCodec::new(3);
        let kmer = c.pack(b"ACG").unwrap();
        let next = c.extend_right(kmer, encode_base(b'T').unwrap());
        assert_eq!(c.to_string(next), "CGT");
    }

    #[test]
    fn extend_left_slides_window() {
        let c = KmerCodec::new(3);
        let kmer = c.pack(b"ACG").unwrap();
        let prev = c.extend_left(kmer, encode_base(b'T').unwrap());
        assert_eq!(c.to_string(prev), "TAC");
    }

    #[test]
    fn extensions_are_inverses() {
        let c = KmerCodec::new(9);
        let kmer = c.pack(b"ACGTACGTA").unwrap();
        let first = c.first_base(kmer);
        let last = c.last_base(kmer);
        assert_eq!(c.extend_left(c.extend_right(kmer, 2), first), kmer);
        assert_eq!(c.extend_right(c.extend_left(kmer, 1), last), kmer);
    }

    #[test]
    fn kmer_iter_simple() {
        let c = KmerCodec::new(3);
        let got: Vec<(usize, String)> = c
            .kmers(b"ACGTA")
            .map(|(off, km)| (off, c.to_string(km)))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, "ACG".to_string()),
                (1, "CGT".to_string()),
                (2, "GTA".to_string())
            ]
        );
    }

    #[test]
    fn kmer_iter_skips_n_windows() {
        let c = KmerCodec::new(3);
        let got: Vec<usize> = c.kmers(b"ACNGTAC").map(|(off, _)| off).collect();
        // Windows overlapping the N at index 2 are dropped.
        assert_eq!(got, vec![3, 4]);
    }

    #[test]
    fn kmer_iter_short_sequence_yields_nothing() {
        let c = KmerCodec::new(5);
        assert_eq!(c.kmers(b"ACGT").count(), 0);
        assert_eq!(c.kmers(b"").count(), 0);
    }

    #[test]
    fn kmer_iter_matches_pack() {
        let c = KmerCodec::new(4);
        let seq = b"GGATCCA";
        for (off, km) in c.kmers(seq) {
            assert_eq!(km, c.pack(&seq[off..off + 4]).unwrap());
        }
    }

    #[test]
    fn max_k_roundtrip() {
        let c = KmerCodec::new(64);
        let seq: Vec<u8> = (0..64).map(|i| crate::base::BASES[i % 4]).collect();
        let kmer = c.pack(&seq).unwrap();
        assert_eq!(c.unpack(kmer), seq);
        assert_eq!(c.revcomp(c.revcomp(kmer)), kmer);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_panics() {
        KmerCodec::new(0);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn oversize_k_panics() {
        KmerCodec::new(65);
    }

    #[test]
    fn try_new_rejects_out_of_range_with_typed_error() {
        assert_eq!(KmerCodec::try_new(0), Err(KmerLenError { k: 0 }));
        assert_eq!(KmerCodec::try_new(65), Err(KmerLenError { k: 65 }));
        assert_eq!(
            KmerLenError { k: 65 }.to_string(),
            "k must be in 1..=64, got 65"
        );
        assert!(KmerCodec::try_new(1).is_ok());
        assert!(KmerCodec::try_new(64).is_ok());
    }

    #[test]
    fn boundary_k_shift_paths_are_exact() {
        // k = 63 and k = 64 exercise the extreme shift amounts: the mask
        // construction (1 << 128 would overflow), revcomp's `>> (128 - 2k)`
        // (zero at k = 64), and extend_left's `<< 126`.
        for k in [63usize, 64] {
            let c = KmerCodec::new(k);
            let seq: Vec<u8> = (0..k)
                .map(|i| crate::base::BASES[(i * 11 + 1) % 4])
                .collect();
            let kmer = c.pack(&seq).unwrap();
            assert_eq!(c.unpack(kmer), seq, "k={k} pack/unpack");
            assert_eq!(
                c.unpack(c.revcomp(kmer)),
                crate::seq::revcomp(&seq),
                "k={k} revcomp"
            );
            assert_eq!(c.revcomp(c.revcomp(kmer)), kmer, "k={k} involution");
            // extend_right then extend_left with the dropped/original bases
            // restores the window at the widest shift amounts.
            let first = c.first_base(kmer);
            let last = c.last_base(kmer);
            assert_eq!(c.extend_left(c.extend_right(kmer, 2), first), kmer);
            assert_eq!(c.extend_right(c.extend_left(kmer, 1), last), kmer);
            // The canonical pick agrees with an explicit min.
            let rc = c.revcomp(kmer);
            assert_eq!(c.canonical(kmer).0, kmer.0.min(rc.0), "k={k} canonical");
        }
    }

    /// Deterministic pseudo-random DNA with occasional ambiguous bases.
    fn noisy_seq(len: usize, n_every: usize, salt: usize) -> Vec<u8> {
        (0..len)
            .map(|i| {
                if n_every != 0 && i % n_every == n_every - 1 {
                    b'N'
                } else {
                    crate::base::BASES[(i * 7 + salt) % 4]
                }
            })
            .collect()
    }

    #[test]
    fn minimizer_hash_is_strand_invariant() {
        for (k, m) in [
            (5usize, 3usize),
            (21, 7),
            (31, 7),
            (31, 15),
            (33, 11),
            (63, 7),
        ] {
            let c = KmerCodec::new(k);
            for salt in 0..8 {
                let seq = noisy_seq(k, 0, salt);
                let km = c.pack(&seq).unwrap();
                assert_eq!(
                    c.minimizer_hash(km, m),
                    c.minimizer_hash(c.revcomp(km), m),
                    "k={k} m={m} salt={salt}"
                );
            }
        }
    }

    #[test]
    fn minimizer_hash_k_equals_m_degenerates_to_canonical_hash() {
        // With a single window, the minimizer IS the canonical k-mer's hash.
        for k in [1usize, 3, 15, 31, 32] {
            let c = KmerCodec::new(k);
            let seq = noisy_seq(k, 0, 1);
            let km = c.pack(&seq).unwrap();
            let expect = crate::hash::mix64(c.canonical(km).0 as u64);
            assert_eq!(c.minimizer_hash(km, k), expect, "k={k}");
        }
    }

    /// Deterministic LCG DNA with an `N` every `n_every` bases (0 = none):
    /// aperiodic, unlike [`noisy_seq`], so every window differs.
    fn lcg_seq(len: usize, n_every: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if n_every != 0 && i % n_every == n_every - 1 {
                    b'N'
                } else {
                    crate::base::BASES[(x >> 62) as usize]
                }
            })
            .collect()
    }

    /// The (k, m) grid of the differential minimizer tests: one- and
    /// two-word k-mers, including both `u128` boundary lengths, against
    /// short, default-sized and full-`u64` minimizers.
    const MINIMIZER_GRID: [(usize, usize); 20] = [
        (11, 4),
        (21, 7),
        (31, 15),
        (32, 32),
        (33, 7),
        (33, 15),
        (33, 32),
        (55, 7),
        (55, 15),
        (55, 32),
        (63, 7),
        (63, 15),
        (63, 32),
        (64, 7),
        (64, 15),
        (64, 32),
        (3, 3),
        (7, 3),
        (40, 1),
        (64, 1),
    ];

    #[test]
    fn minimizer_hash_matches_naive_window_scan() {
        // The rolled scalar hash, the per-window reference oracle and a
        // string-level scan over packed m-mers agree at every k-mer.
        for (k, m) in MINIMIZER_GRID {
            let c = KmerCodec::new(k);
            let mc = KmerCodec::new(m);
            let seq = lcg_seq(k + 40, 0, (k * 100 + m) as u64);
            for (off, km) in c.kmers(&seq) {
                let window = &seq[off..off + k];
                let naive = (0..=k - m)
                    .map(|i| {
                        let mm = mc.pack(&window[i..i + m]).unwrap();
                        crate::hash::mix64(mc.canonical(mm).0 as u64)
                    })
                    .min()
                    .unwrap();
                assert_eq!(c.minimizer_hash(km, m), naive, "k={k} m={m} off={off}");
                assert_eq!(
                    c.minimizer_hash_reference(km, m),
                    naive,
                    "k={k} m={m} off={off} (reference)"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "minimizer length")]
    fn minimizer_hash_rejects_m_longer_than_k() {
        let c = KmerCodec::new(5);
        c.minimizer_hash(Kmer(0), 6);
    }

    #[test]
    #[should_panic(expected = "minimizer length")]
    fn minimizer_hash_rejects_m_beyond_mixer_width() {
        let c = KmerCodec::new(40);
        c.minimizer_hash(Kmer(0), 33);
    }

    #[test]
    fn minimizer_iter_matches_per_kmer_hash() {
        // Window edges are exercised by the N resets (the deque must clear)
        // and by sequence start/end; k=m covers the single-window case. At
        // every k-mer the rolled hash equals both the scalar hash and the
        // per-window reference oracle.
        for (k, m) in MINIMIZER_GRID {
            let c = KmerCodec::new(k);
            for seq in [noisy_seq(300, 71, 5), lcg_seq(400, 97, (k + m) as u64)] {
                let rolled: Vec<(usize, Kmer, Kmer, u64)> = c.minimizer_kmers(&seq, m).collect();
                let scalar: Vec<(usize, Kmer, Kmer, u64)> = c
                    .canonical_kmers(&seq)
                    .map(|(off, km, canon)| (off, km, canon, c.minimizer_hash(km, m)))
                    .collect();
                let reference: Vec<u64> = c
                    .kmers(&seq)
                    .map(|(_, km)| c.minimizer_hash_reference(km, m))
                    .collect();
                assert_eq!(rolled, scalar, "k={k} m={m}");
                assert!(
                    rolled.iter().map(|q| q.3).eq(reference.iter().copied()),
                    "k={k} m={m} (reference)"
                );
                assert!(!rolled.is_empty(), "fixture must produce k-mers");
            }
        }
    }

    #[test]
    fn adjacent_kmers_mostly_share_minimizers() {
        // The locality property placement rides on: along a read, the
        // minimizer changes far less often than once per position.
        let k = 31;
        let m = 7;
        let c = KmerCodec::new(k);
        let seq = noisy_seq(4000, 0, 3);
        let hashes: Vec<u64> = c.minimizer_kmers(&seq, m).map(|(_, _, _, h)| h).collect();
        let changes = hashes.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            changes * 4 < hashes.len(),
            "minimizer changed {changes} times over {} adjacent pairs",
            hashes.len() - 1
        );
    }

    #[test]
    fn canonical_iter_matches_per_position_canonicalization() {
        for k in [3usize, 21, 31, 63, 64] {
            let c = KmerCodec::new(k);
            let seq: Vec<u8> = (0..200)
                .map(|i| {
                    if i % 97 == 0 {
                        b'N'
                    } else {
                        crate::base::BASES[(i * 7 + 5) % 4]
                    }
                })
                .collect();
            let rolled: Vec<(usize, Kmer, Kmer)> = c.canonical_kmers(&seq).collect();
            let naive: Vec<(usize, Kmer, Kmer)> = c
                .kmers(&seq)
                .map(|(off, km)| (off, km, c.canonical(km)))
                .collect();
            assert_eq!(rolled, naive, "k={k}");
        }
    }
}
