//! A minimal, API-compatible stand-in for the subset of the `bytes`
//! crate this workspace uses: [`Bytes`], a cheaply cloneable and
//! sliceable contiguous byte buffer.
//!
//! The build environment has no access to a crate registry, so the
//! workspace vendors this local implementation instead. Clones and
//! slices share one reference-counted allocation, which is the property
//! the DFS layer relies on (replica readers hold views of stored blocks
//! without copying). As in the real crate, `Bytes::from(Vec<u8>)` keeps
//! the vector's allocation instead of copying it.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, contiguous, immutable slice of memory.
#[derive(Clone, Default)]
pub struct Bytes {
    /// The buffer a `Vec` was turned into, moved and never copied.
    data: Arc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Creates a buffer from a static slice (copied; the real `bytes`
    /// crate borrows, but the workspace only uses this in tests).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A view of the bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.start + self.len]
    }

    /// Returns a slice of self for the provided range, sharing the
    /// underlying allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(begin <= end, "slice range reversed: {begin} > {end}");
        assert!(
            end <= self.len,
            "slice end {end} beyond length {}",
            self.len
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            len: end - begin,
        }
    }

    /// Copies the bytes into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_slice() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        assert_eq!(&b[..], &[1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let ss = s.slice(1..);
        assert_eq!(ss.to_vec(), vec![3, 4]);
        assert_eq!(b.slice(..), b);
    }

    #[test]
    fn clones_share_storage() {
        let b = Bytes::from(vec![9u8; 1024]);
        let c = b.clone();
        assert_eq!(b, c);
        assert!(Arc::ptr_eq(&b.data, &c.data));
    }

    /// A vector's buffer becomes the `Bytes`' buffer, and slices and
    /// clones point into it.
    #[test]
    fn from_vec_keeps_the_allocation() {
        let v: Vec<u8> = (0..=255).collect();
        let buffer = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), buffer);
        assert_eq!(b.clone().as_ptr(), buffer);
        let s = b.slice(10..20);
        assert_eq!(s.as_ptr(), buffer.wrapping_add(10));
        assert_eq!(s.slice(5..).as_ptr(), buffer.wrapping_add(15));
        assert_eq!(&s[..], &(10..20).collect::<Vec<u8>>()[..]);
        let text = String::from("a string's buffer");
        let buffer = text.as_ptr();
        assert_eq!(Bytes::from(text).as_ptr(), buffer);
    }

    #[test]
    #[should_panic(expected = "beyond length")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![0u8; 4]);
        let _ = b.slice(0..5);
    }
}
