//! A fixed-capacity set of process ranks stored as a word bitset.
//!
//! The snapshot mechanism keeps several per-peer flags (active initiators,
//! owed answers, queried candidates) and, on every `end_snp`, elects the
//! smallest or largest active rank. A [`RankSet`] answers that election with
//! [`RankSet::first`] / [`RankSet::last`] in `P / 64` word tests instead of
//! a `P`-step scan, and holds `P` flags in `P / 8` bytes.

/// Bits per storage word.
const WORD: usize = u64::BITS as usize;

/// A set of ranks in `0..capacity`, one bit per rank.
///
/// Bits at or above `capacity` in the last word are always zero, so
/// [`first`](Self::first), [`last`](Self::last) and iteration never report
/// a rank out of range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankSet {
    /// Boxed, not a `Vec`: the set never grows, and the 8 bytes saved per
    /// set keep `SnapshotMechanism`, the largest variant, from enlarging the
    /// `AnyMechanism` every engine process holds whatever its mechanism.
    words: Box<[u64]>,
    capacity: usize,
}

impl RankSet {
    /// An empty set able to hold ranks `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        RankSet {
            words: vec![0; capacity.div_ceil(WORD)].into_boxed_slice(),
            capacity,
        }
    }

    #[inline]
    fn slot(&self, rank: usize) -> (usize, u64) {
        assert!(
            rank < self.capacity,
            "rank {rank} out of range 0..{}",
            self.capacity
        );
        (rank / WORD, 1 << (rank % WORD))
    }

    /// Add `rank`; returns whether it was absent.
    #[inline]
    pub fn insert(&mut self, rank: usize) -> bool {
        let (w, bit) = self.slot(rank);
        let absent = self.words[w] & bit == 0;
        self.words[w] |= bit;
        absent
    }

    /// Remove `rank`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, rank: usize) -> bool {
        let (w, bit) = self.slot(rank);
        let present = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        present
    }

    /// Whether `rank` is in the set.
    #[inline]
    pub fn contains(&self, rank: usize) -> bool {
        let (w, bit) = self.slot(rank);
        self.words[w] & bit != 0
    }

    /// Smallest rank in the set.
    pub fn first(&self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|i| i * WORD + self.words[i].trailing_zeros() as usize)
    }

    /// Largest rank in the set.
    pub fn last(&self) -> Option<usize> {
        self.words
            .iter()
            .rposition(|&w| w != 0)
            .map(|i| i * WORD + (WORD - 1 - self.words[i].leading_zeros() as usize))
    }

    /// Ranks in the set, in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            next_word: 0,
            base: 0,
            bits: 0,
        }
    }

    /// Remove every rank.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Insert every rank in `0..capacity`.
    pub fn fill(&mut self) {
        self.words.fill(!0);
        let tail = self.capacity % WORD;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last = (1 << tail) - 1;
            }
        }
    }
}

/// Ascending iterator over the ranks of a [`RankSet`].
pub struct Iter<'a> {
    words: &'a [u64],
    /// Index of the next word to load once `bits` is exhausted.
    next_word: usize,
    /// Rank of bit 0 of `bits`.
    base: usize,
    /// Not-yet-yielded bits of the current word.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            let &w = self.words.get(self.next_word)?;
            self.bits = w;
            self.base = self.next_word * WORD;
            self.next_word += 1;
        }
        let rank = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_past_capacity_panics() {
        RankSet::new(64).insert(64);
    }
}
