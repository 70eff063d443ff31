//! A small-buffer vector for allocation-free message payloads.
//!
//! Every shuffle payload in the workspace — Croupier's descriptor subsets and piggy-backed
//! estimates, Cyclon/Gozar/Nylon's descriptor lists — is bounded by the paper's
//! view-subset parameters (a handful of entries), yet used to be a heap-allocated `Vec`
//! living for exactly one delivery. [`InlineVec`] stores up to `N` elements inline in the
//! containing message and only *spills* to a heap `Vec` when a payload exceeds the inline
//! capacity (oversized experiment configurations), so the steady-state message plane
//! performs zero allocations per exchange.
//!
//! The build environment has no crates.io access (no `smallvec`/`arrayvec`), so the type
//! is hand-rolled — deliberately without `unsafe`: the inline buffer is a plain `[T; N]`
//! initialised with `T::default()`, which is free for the `Copy` payload element types and
//! keeps the implementation trivially sound.

/// The backing storage: inline array until the length exceeds `N`, then a heap `Vec`.
#[derive(Clone, Debug)]
enum Repr<T, const N: usize> {
    /// Up to `N` live elements in `buf[..len]`; the rest hold `T::default()` filler.
    Inline { len: usize, buf: [T; N] },
    /// Spilled: all elements on the heap. A spilled vector never moves back inline, so
    /// repeated push/clear cycles at spilled size reuse one heap allocation.
    Heap(Vec<T>),
}

/// A vector storing up to `N` elements inline, spilling to the heap beyond that.
///
/// Dereferences to `[T]`, so slice-based call sites (`&payload.descriptors`) work
/// unchanged. The element type must implement [`Default`] (used as inline filler) and
/// [`Clone`].
///
/// # Examples
///
/// ```
/// use croupier_simulator::InlineVec;
///
/// let mut v: InlineVec<u32, 4> = InlineVec::new();
/// for i in 0..6 {
///     v.push(i); // spills to the heap at the fifth push
/// }
/// assert_eq!(v.len(), 6);
/// assert_eq!(&v[..3], &[0, 1, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct InlineVec<T, const N: usize> {
    repr: Repr<T, N>,
}

impl<T: Default + Clone, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector (no heap allocation).
    pub fn new() -> Self {
        InlineVec {
            repr: Repr::Inline {
                len: 0,
                buf: std::array::from_fn(|_| T::default()),
            },
        }
    }

    /// Appends an element, spilling to the heap when the inline capacity is exceeded.
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if *len < N {
                    buf[*len] = value;
                    *len += 1;
                } else {
                    let mut heap = Vec::with_capacity(N * 2);
                    for slot in buf.iter_mut() {
                        heap.push(std::mem::take(slot));
                    }
                    heap.push(value);
                    self.repr = Repr::Heap(heap);
                }
            }
            Repr::Heap(vec) => vec.push(value),
        }
    }

    /// Removes and returns the last element, or `None` when empty.
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if *len == 0 {
                    None
                } else {
                    *len -= 1;
                    Some(std::mem::take(&mut buf[*len]))
                }
            }
            Repr::Heap(vec) => vec.pop(),
        }
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len,
            Repr::Heap(vec) => vec.len(),
        }
    }

    /// Returns `true` when the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every element. A spilled vector keeps its heap capacity.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                for slot in buf[..*len].iter_mut() {
                    *slot = T::default();
                }
                *len = 0;
            }
            Repr::Heap(vec) => vec.clear(),
        }
    }

    /// Shortens the vector to at most `new_len` elements.
    pub fn truncate(&mut self, new_len: usize) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                while *len > new_len {
                    *len -= 1;
                    buf[*len] = T::default();
                }
            }
            Repr::Heap(vec) => vec.truncate(new_len),
        }
    }

    /// The live elements as a slice.
    pub(crate) fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len],
            Repr::Heap(vec) => vec,
        }
    }

    /// The live elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..*len],
            Repr::Heap(vec) => vec,
        }
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
        for item in iter {
            v.push(item);
        }
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

impl<T: Default + Clone, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(vec: Vec<T>) -> Self {
        if vec.len() > N {
            InlineVec {
                repr: Repr::Heap(vec),
            }
        } else {
            vec.into_iter().collect()
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

/// Owned iterator over an [`InlineVec`].
pub struct IntoIter<T, const N: usize> {
    inner: IntoIterRepr<T, N>,
}

enum IntoIterRepr<T, const N: usize> {
    Inline(std::iter::Take<std::array::IntoIter<T, N>>),
    Heap(std::vec::IntoIter<T>),
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match &mut self.inner {
            IntoIterRepr::Inline(iter) => iter.next(),
            IntoIterRepr::Heap(iter) => iter.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            IntoIterRepr::Inline(iter) => iter.size_hint(),
            IntoIterRepr::Heap(iter) => iter.size_hint(),
        }
    }
}

impl<T: Default + Clone, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;

    fn into_iter(self) -> Self::IntoIter {
        let inner = match self.repr {
            Repr::Inline { len, buf } => IntoIterRepr::Inline(buf.into_iter().take(len)),
            Repr::Heap(vec) => IntoIterRepr::Heap(vec.into_iter()),
        };
        IntoIter { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Default + Clone, const N: usize> InlineVec<T, N> {
        /// Returns `true` once the vector has spilled to the heap.
        fn spilled(&self) -> bool {
            matches!(self.repr, Repr::Heap(_))
        }
    }

    #[test]
    fn starts_empty_and_inline() {
        let v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[] as &[u32]);
    }

    #[test]
    fn pushes_within_inline_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert_eq!(v.len(), 4);
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn spills_beyond_capacity_and_preserves_order() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..10 {
            v.push(i);
        }
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
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
        let mut inline: InlineVec<u32, 4> = (0..3).collect();
        inline.truncate(1);
        assert_eq!(inline.as_slice(), &[0]);
        inline.clear();
        assert!(inline.is_empty());

        let mut heap: InlineVec<u32, 4> = (0..8).collect();
        assert!(heap.spilled());
        heap.truncate(6);
        assert_eq!(heap.len(), 6);
        heap.clear();
        assert!(heap.is_empty());
        assert!(heap.spilled(), "a spilled vector keeps its heap buffer");
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
        let inline: InlineVec<u32, 8> = (0..5).collect();
        let spilled: InlineVec<u32, 4> = (0..5).collect();
        assert_eq!(inline.as_slice(), spilled.as_slice());
        let a: InlineVec<u32, 4> = (0..3).collect();
        let b: InlineVec<u32, 4> = (0..3).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn from_vec_keeps_large_inputs_on_the_heap() {
        let v: InlineVec<u32, 2> = vec![1, 2, 3].into();
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        let w: InlineVec<u32, 4> = vec![1, 2].into();
        assert!(!w.spilled());
        assert_eq!(w.as_slice(), &[1, 2]);
    }

    #[test]
    fn owned_iteration_yields_every_element() {
        let inline: InlineVec<String, 4> = ["a", "b"].into_iter().map(String::from).collect();
        assert_eq!(inline.into_iter().collect::<Vec<_>>(), vec!["a", "b"]);
        let spilled: InlineVec<u32, 2> = (0..5).collect();
        assert_eq!(spilled.into_iter().sum::<u32>(), 10);
    }

    #[test]
    fn extend_and_clone_round_trip() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        v.extend(0..3);
        let clone = v.clone();
        assert_eq!(v, clone);
        v.extend(3..9);
        assert!(v.spilled());
        assert_eq!(v.len(), 9);
        assert_eq!(clone.len(), 3, "clone is independent");
    }

    #[test]
    fn non_copy_elements_are_supported() {
        let mut v: InlineVec<Vec<u32>, 2> = InlineVec::new();
        v.push(vec![1]);
        v.push(vec![2, 2]);
        v.push(vec![3, 3, 3]); // spills
        assert_eq!(v.len(), 3);
        assert_eq!(v[2], vec![3, 3, 3]);
    }
}
