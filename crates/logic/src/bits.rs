//! A compact growable bit vector.

use std::fmt;

/// A growable, compact vector of bits backed by `u64` words.
///
/// Used throughout the toolkit for fully specified stimuli, captured
/// responses and scan-chain images, where a `Vec<bool>` would waste memory on
/// large circuits (s38417-class profiles carry 1600+ scan cells per image and
/// the stitching engine keeps one image per hidden fault).
///
/// # Examples
///
/// ```
/// use tvs_logic::BitVec;
///
/// let mut bv = BitVec::zeros(70);
/// bv.set(69, true);
/// assert!(bv.get(69));
/// assert_eq!(bv.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bit vector from an iterator of booleans.
    pub fn from_bools<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bv = BitVec::new();
        for b in iter {
            bv.push(b);
        }
        bv
    }

    /// Number of bits stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no bits are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Writes the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % 64);
        if value {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Appends a bit.
    #[inline]
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        self.set(self.len - 1, value);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the bits, in index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { bv: self, pos: 0 }
    }

    /// XORs another bit vector into this one, elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "BitVec length mismatch in xor_with");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Returns `true` if any bit in `range` differs between `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or the range exceeds the length.
    pub fn differs_in(&self, other: &BitVec, range: std::ops::Range<usize>) -> bool {
        assert_eq!(self.len, other.len, "BitVec length mismatch in differs_in");
        assert!(range.end <= self.len, "range out of bounds");
        range.into_iter().any(|i| self.get(i) != other.get(i))
    }

    /// Flips the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn flip(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] ^= 1u64 << (index % 64);
    }

    /// The backing words: bit `i` is bit `i % 64` of word `i / 64`, and the
    /// bits past `len()` in the last word are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Appends every bit of `other`, a word at a time.
    pub fn append(&mut self, other: &BitVec) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &w in &other.words {
                if let Some(last) = self.words.last_mut() {
                    *last |= w << shift;
                }
                self.words.push(w >> (64 - shift));
            }
        }
        self.len += other.len;
        self.words.truncate(self.len.div_ceil(64));
    }

    /// Extracts `range` as a new bit vector, preserving bit order.
    ///
    /// The canonical slicing helper for the toolkit's stimulus/response
    /// plumbing (splitting a test vector into its PI and scan-chain parts,
    /// or a response into PO and captured-chain parts). Works a word at a
    /// time: each output word is two shifted source words.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > len()`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> BitVec {
        assert!(range.end <= self.len, "slice range out of bounds");
        let len = range.end.saturating_sub(range.start);
        let (first, shift) = (range.start / 64, range.start % 64);
        let mut words: Vec<u64> = (0..len.div_ceil(64))
            .map(|j| {
                let lo = self.words[first + j] >> shift;
                match self.words.get(first + j + 1) {
                    Some(&hi) if shift != 0 => lo | hi << (64 - shift),
                    _ => lo,
                }
            })
            .collect();
        if let Some(last) = words.last_mut() {
            if !len.is_multiple_of(64) {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        BitVec { words, len }
    }

    /// Extracts `range` with the bit order reversed: the *last* bit of the
    /// range comes out first.
    ///
    /// This is the scan-in ordering transform: the content destined for
    /// chain cells `0..k` must enter the chain with the bit for cell `k-1`
    /// first, i.e. `rev_slice(offset..offset + k)` of the full vector.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > len()`.
    pub fn rev_slice(&self, range: std::ops::Range<usize>) -> BitVec {
        assert!(range.end <= self.len, "rev_slice range out of bounds");
        range.rev().map(|i| self.get(i)).collect()
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bools(iter)
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

/// Iterator over the bits of a [`BitVec`], produced by [`BitVec::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    bv: &'a BitVec,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.pos < self.bv.len() {
            let b = self.bv.get(self.pos);
            self.pos += 1;
            Some(b)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.bv.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    #[test]
    fn zeros_and_set_get() {
        let mut bv = BitVec::zeros(130);
        assert_eq!(bv.len(), 130);
        assert_eq!(bv.count_ones(), 0);
        bv.set(0, true);
        bv.set(64, true);
        bv.set(129, true);
        assert!(bv.get(0) && bv.get(64) && bv.get(129));
        assert!(!bv.get(1) && !bv.get(63) && !bv.get(128));
        assert_eq!(bv.count_ones(), 3);
        bv.set(64, false);
        assert_eq!(bv.count_ones(), 2);
    }

    #[test]
    fn push_across_word_boundary() {
        let mut bv = BitVec::new();
        for i in 0..200 {
            bv.push(i % 3 == 0);
        }
        assert_eq!(bv.len(), 200);
        for i in 0..200 {
            assert_eq!(bv.get(i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(8).get(8);
    }

    #[test]
    fn xor_with_flips() {
        let a = BitVec::from_bools([true, false, true, false]);
        let b = BitVec::from_bools([true, true, false, false]);
        let mut c = a.clone();
        c.xor_with(&b);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![false, true, true, false]);
    }

    #[test]
    fn differs_in_range_only() {
        let a = BitVec::from_bools([true, false, true, false]);
        let b = BitVec::from_bools([true, true, true, false]);
        assert!(!a.differs_in(&b, 0..1));
        assert!(a.differs_in(&b, 0..2));
        assert!(a.differs_in(&b, 1..2));
        assert!(!a.differs_in(&b, 2..4));
    }

    #[test]
    fn slice_extracts_subranges() {
        let a = BitVec::from_bools([true, false, true, true, false]);
        assert_eq!(a.slice(0..5), a);
        assert_eq!(a.slice(1..4).to_string(), "011");
        assert_eq!(a.slice(2..2).len(), 0);
        // Across a word boundary.
        let mut big = BitVec::zeros(130);
        big.set(63, true);
        big.set(64, true);
        assert_eq!(big.slice(62..66).to_string(), "0110");
    }

    #[test]
    fn rev_slice_reverses_bit_order() {
        let a = BitVec::from_bools([true, false, true, true, false]);
        assert_eq!(a.rev_slice(0..3).to_string(), "101");
        assert_eq!(a.rev_slice(1..4).to_string(), "110");
        assert_eq!(a.rev_slice(0..0).len(), 0);
        // rev_slice is slice followed by reversal.
        let fwd: Vec<bool> = a.slice(1..5).iter().collect();
        let rev: Vec<bool> = a.rev_slice(1..5).iter().collect();
        assert_eq!(rev, fwd.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn slice_matches_get_at_word_boundaries() {
        let mut rng = Prng::seed_from_u64(0xB177);
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 200, 256] {
            let bv: BitVec = (0..len).map(|_| rng.next_bool()).collect();
            let mut ends = vec![0, 1, 62, 63, 64, 65, 127, 128, 129, 192, len];
            ends.retain(|&e| e <= len);
            for &start in &ends {
                for &end in &ends {
                    let got = bv.slice(start..end);
                    let want: BitVec = (start..end.max(start)).map(|i| bv.get(i)).collect();
                    assert_eq!(got, want, "len {len}, {start}..{end}");
                    assert_eq!(got.len(), end.saturating_sub(start));
                }
            }
            assert_eq!(bv.slice(0..len), bv, "full range of {len}");
        }
    }

    #[test]
    fn append_matches_bitwise_extend() {
        let mut rng = Prng::seed_from_u64(0xB178);
        for a_len in [0usize, 1, 63, 64, 65, 130] {
            for b_len in [0usize, 1, 63, 64, 65, 130] {
                let a: BitVec = (0..a_len).map(|_| rng.next_bool()).collect();
                let b: BitVec = (0..b_len).map(|_| rng.next_bool()).collect();
                let mut got = a.clone();
                got.append(&b);
                let mut want = a.clone();
                want.extend(b.iter());
                assert_eq!(got, want, "{a_len} + {b_len}");
            }
        }
    }

    #[test]
    fn flip_toggles_one_bit() {
        let mut bv = BitVec::zeros(70);
        bv.flip(65);
        assert!(bv.get(65));
        assert_eq!(bv.count_ones(), 1);
        bv.flip(65);
        assert_eq!(bv, BitVec::zeros(70));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_range_panics() {
        BitVec::zeros(4).slice(2..5);
    }

    #[test]
    fn display_round_trip() {
        let a = BitVec::from_bools([true, false, true]);
        assert_eq!(a.to_string(), "101");
        assert_eq!(format!("{a:?}"), "BitVec[101]");
    }

    #[test]
    fn from_bools_round_trips() {
        let mut rng = Prng::seed_from_u64(0xB175);
        for _ in 0..128 {
            let bits: Vec<bool> = (0..rng.gen_range(0..300))
                .map(|_| rng.next_bool())
                .collect();
            let bv: BitVec = bits.iter().copied().collect();
            assert_eq!(bv.len(), bits.len());
            let back: Vec<bool> = bv.iter().collect();
            assert_eq!(back, bits);
            assert_eq!(bv.count_ones(), bits.iter().filter(|&&b| b).count());
        }
    }

    #[test]
    fn xor_is_involutive() {
        let mut rng = Prng::seed_from_u64(0xB176);
        for _ in 0..128 {
            let bits: Vec<bool> = (0..rng.gen_range(1..200))
                .map(|_| rng.next_bool())
                .collect();
            let a: BitVec = bits.iter().copied().collect();
            let b: BitVec = bits.iter().map(|b| !b).collect();
            let mut c = a.clone();
            c.xor_with(&b);
            c.xor_with(&b);
            assert_eq!(c, a);
        }
    }
}
