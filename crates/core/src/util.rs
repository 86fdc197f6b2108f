//! A small fixed-capacity bit set used as the data-flow fact over the
//! check universe.

/// Fixed-capacity bit set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over a universe of `len` elements.
    pub fn empty(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A full set over a universe of `len` elements.
    pub fn full(len: usize) -> BitSet {
        let mut s = BitSet {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        s.clear_tail();
        s
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Universe size.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts an element.
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes an element.
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// True if `self` and `other` share an element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// True if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// True if no element is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of elements set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over set elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = BitSet::empty(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn set_algebra() {
        let mut a = BitSet::empty(70);
        let mut b = BitSet::empty(70);
        a.insert(3);
        a.insert(65);
        b.insert(65);
        b.insert(69);
        assert!(a.intersects(&b));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 3);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![65]);
        assert!(i.is_subset(&a) && i.is_subset(&b) && !a.is_subset(&b));
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn full_masks_tail() {
        let f = BitSet::full(65);
        assert_eq!(f.count(), 65);
        assert!(f.contains(64));
        assert!(!BitSet::empty(0).intersects(&BitSet::empty(0)));
    }
}
