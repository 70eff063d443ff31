//! A fixed-capacity vector for allocation-free message payloads.
//!
//! Every shuffle payload in the workspace — Croupier's descriptor subsets and piggy-backed
//! estimates, Cyclon/Gozar/Nylon's descriptor lists, Gozar's relay lists — is bounded by
//! one of the paper's compile-time constants (a handful of entries), yet used to be a
//! heap-allocated `Vec` living for exactly one delivery. [`InlineVec`] stores up to `N`
//! elements inline in the containing message, with `N` derived from the bound the
//! protocol actually has, so the message plane performs zero allocations per exchange.
//!
//! The build environment has no crates.io access (no `arrayvec`), so the type is
//! hand-rolled — deliberately without `unsafe`: the buffer is a plain `[T; N]`
//! initialised with `T::default()`, which is free for the `Copy` payload element types and
//! keeps the implementation trivially sound.

/// A vector of at most `N` elements, stored inline.
///
/// Dereferences to `[T]`, so slice-based call sites (`&payload.descriptors`) work
/// unchanged. The element type must implement [`Default`] (used as filler) and [`Clone`].
///
/// # Examples
///
/// ```
/// use croupier_simulator::InlineVec;
///
/// let mut v: InlineVec<u32, 4> = InlineVec::new();
/// for i in 0..4 {
///     v.push(i);
/// }
/// assert_eq!(v.len(), 4);
/// assert_eq!(&v[..3], &[0, 1, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct InlineVec<T, const N: usize> {
    /// Number of live elements, at the front of `buf`.
    len: usize,
    /// `buf[..len]` is live; the rest holds `T::default()` filler.
    buf: [T; N],
}

impl<T: Default + Clone, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector.
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            buf: std::array::from_fn(|_| T::default()),
        }
    }

    /// Appends an element.
    ///
    /// # Panics
    ///
    /// Panics if the vector already holds `N` elements: `N` is the payload's bound, so
    /// exceeding it is a protocol bug, not an input to accommodate.
    pub fn push(&mut self, value: T) {
        assert!(self.len < N, "InlineVec is full at its capacity of {N}");
        self.buf[self.len] = value;
        self.len += 1;
    }

    /// Removes and returns the last element, or `None` when empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(std::mem::take(&mut self.buf[self.len]))
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Shortens the vector to at most `new_len` elements.
    pub fn truncate(&mut self, new_len: usize) {
        while self.len > new_len {
            self.len -= 1;
            self.buf[self.len] = T::default();
        }
    }

    /// The live elements as a slice.
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.buf[..self.len]
    }

    /// The live elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.buf[..self.len]
    }

    /// Iterates over the live elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Default + Clone, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> std::ops::Deref for InlineVec<T, N>
where
    T: Default + Clone,
{
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> std::ops::DerefMut for InlineVec<T, N>
where
    T: Default + Clone,
{
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Default + Clone + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Default + Clone + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Default + Clone, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        v.extend(iter);
        v
    }
}

impl<T: Default + Clone, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<'a, T: Default + Clone, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Default + Clone, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_inline() {
        let v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.as_slice(), &[] as &[u32]);
    }

    #[test]
    fn pushes_within_inline_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert_eq!(v.len(), 4);
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "capacity of 4")]
    fn a_push_past_the_capacity_panics() {
        let mut v: InlineVec<u32, 4> = (0..4).collect();
        v.push(4);
    }

    #[test]
    fn pop_returns_lifo_and_clears_slots() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        v.push(1);
        v.push(2);
        assert_eq!(v.pop(), Some(2));
        assert_eq!(v.pop(), Some(1));
        assert_eq!(v.pop(), None);
    }

    #[test]
    fn clear_and_truncate_work_in_both_representations() {
        let mut v: InlineVec<u32, 4> = (0..4).collect();
        v.truncate(6);
        assert_eq!(
            v.len(),
            4,
            "truncating to a longer length keeps every element"
        );
        v.truncate(1);
        assert_eq!(v.as_slice(), &[0]);
        v.clear();
        assert!(v.is_empty());
        v.extend(5..9);
        assert_eq!(v.as_slice(), &[5, 6, 7, 8], "a cleared vector refills to N");
    }

    #[test]
    fn deref_enables_slice_apis() {
        let mut v: InlineVec<u32, 4> = (0..4).collect();
        assert_eq!(v.first(), Some(&0));
        assert_eq!(&v[1..3], &[1, 2]);
        v.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(v.as_slice(), &[3, 2, 1, 0]);
    }

    #[test]
    fn equality_ignores_representation() {
        let mut a: InlineVec<u32, 4> = (0..4).collect();
        a.truncate(3);
        let b: InlineVec<u32, 4> = (0..3).collect();
        assert_eq!(a, b, "filler behind the live elements does not compare");
        let wider: InlineVec<u32, 8> = (0..3).collect();
        assert_eq!(a.as_slice(), wider.as_slice());
    }

    #[test]
    fn owned_iteration_yields_every_element() {
        let strings: InlineVec<String, 4> = ["a", "b"].into_iter().map(String::from).collect();
        assert_eq!(strings.into_iter().collect::<Vec<_>>(), vec!["a", "b"]);
        let full: InlineVec<u32, 5> = (0..5).collect();
        assert_eq!(full.into_iter().sum::<u32>(), 10);
    }

    #[test]
    fn extend_and_clone_round_trip() {
        let mut v: InlineVec<u32, 8> = InlineVec::new();
        v.extend(0..3);
        let clone = v.clone();
        assert_eq!(v, clone);
        v.extend(3..8);
        assert_eq!(v.len(), 8);
        assert_eq!(clone.len(), 3, "clone is independent");
    }

    #[test]
    fn non_copy_elements_are_supported() {
        let mut v: InlineVec<Vec<u32>, 3> = InlineVec::new();
        v.push(vec![1]);
        v.push(vec![2, 2]);
        v.push(vec![3, 3, 3]);
        assert_eq!(v.len(), 3);
        assert_eq!(v[2], vec![3, 3, 3]);
        assert_eq!(v.pop(), Some(vec![3, 3, 3]));
    }
}
