//! Offline stand-in for the `bytes` crate (see `crates/shims/README.md`).
//!
//! Implements the subset this workspace uses: [`Bytes`] (cheaply clonable,
//! reference-counted immutable byte slices), [`BytesMut`] (a growable
//! buffer), and the [`Buf`]/[`BufMut`] cursor traits with the big-endian
//! fixed-width accessors the codec relies on.

use std::fmt;
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable, sliceable, immutable byte buffer.
///
/// A view is a pointer and a length into a `Vec` kept alive by the shared
/// `owner`: converting a `Vec<u8>` moves it behind the `Arc` without
/// copying its bytes (as upstream's `From<Vec<u8>>` does), and a read
/// reaches the bytes through `ptr` alone, one pointer chase.
#[derive(Clone)]
pub struct Bytes {
    ptr: *const u8,
    len: usize,
    owner: Arc<Vec<u8>>,
}

// SAFETY: `ptr` points into `owner`'s heap buffer, which is never written
// or moved while any view holds the `Arc`, so a `Bytes` is shared,
// immutable data exactly like the `Vec<u8>` it owns.
unsafe impl Send for Bytes {}
unsafe impl Sync for Bytes {}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::from(Vec::new())
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static byte slice (copied once; the shim does not keep the
    /// zero-copy static-lifetime optimization of the real crate).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes remaining in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a sub-slice view sharing the same allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice out of bounds");
        Bytes {
            // SAFETY: `begin <= len`, so the pointer stays inside the view.
            ptr: unsafe { self.ptr.add(begin) },
            len: end - begin,
            owner: Arc::clone(&self.owner),
        }
    }

    /// The bytes as a plain slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr..ptr + len` lies inside `owner`'s buffer (every
        // constructor and cursor step keeps it so), which outlives `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Copies the remaining bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
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
    /// Moves the vector behind the shared owner; its bytes are not copied.
    fn from(v: Vec<u8>) -> Self {
        let owner = Arc::new(v);
        Bytes {
            ptr: owner.as_ptr(),
            len: owner.len(),
            owner,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{:?}", self.as_slice())
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// `true` iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Reserves capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.vec.extend_from_slice(data);
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

/// Read cursor over a byte source. Multi-byte accessors are big-endian,
/// matching the real `bytes` crate.
///
/// The readers and both slice cursors' `remaining`/`chunk`/`advance` are
/// `#[inline]`, like the writers below: every decoding crate calls them
/// once per field, and as out-of-line calls they made decoding a
/// checkpoint image ≈ 1.3× slower.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// The next contiguous chunk of unconsumed bytes.
    fn chunk(&self) -> &[u8];

    /// Consumes `n` bytes.
    fn advance(&mut self, n: usize);

    /// `true` iff any bytes remain.
    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copies `dst.len()` bytes out, consuming them.
    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        let mut copied = 0;
        while copied < dst.len() {
            let chunk = self.chunk();
            let n = chunk.len().min(dst.len() - copied);
            dst[copied..copied + n].copy_from_slice(&chunk[..n]);
            self.advance(n);
            copied += n;
        }
    }

    /// Takes the next `len` bytes as a [`Bytes`]: a copy, except from a
    /// [`Bytes`] cursor, which hands out a view of its own allocation (as
    /// upstream's does).
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let mut out = vec![0; len];
        self.copy_to_slice(&mut out);
        Bytes::from(out)
    }

    /// Reads one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a big-endian `u16`.
    #[inline]
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Reads a big-endian `u32`.
    #[inline]
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Reads a big-endian `u64`.
    #[inline]
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    /// Reads a big-endian `i64`.
    #[inline]
    fn get_i64(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_be_bytes(b)
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len, "advance past end");
        // SAFETY: `n <= len`, so the pointer stays inside the view.
        self.ptr = unsafe { self.ptr.add(n) };
        self.len -= n;
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = self.slice(..len);
        self.advance(len);
        out
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

impl<T: Buf + ?Sized> Buf for &mut T {
    #[inline]
    fn remaining(&self) -> usize {
        (**self).remaining()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        (**self).advance(n)
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        (**self).copy_to_bytes(len)
    }
}

/// Write cursor. Multi-byte writers are big-endian.
///
/// The writers and `Vec<u8>`'s `put_slice` are `#[inline]`, as upstream's
/// are: the codec calls them once per field from other crates, and as
/// out-of-line calls they made encoding a checkpoint image ≈ 3× slower.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, data: &[u8]);

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `i64`.
    #[inline]
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, data: &[u8]) {
        self.vec.extend_from_slice(data);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, data: &[u8]) {
        self.extend_from_slice(data);
    }
}

impl<T: BufMut + ?Sized> BufMut for &mut T {
    fn put_slice(&mut self, data: &[u8]) {
        (**self).put_slice(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_fixed_width() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(42);
        buf.put_i64(-5);
        buf.put_slice(b"xy");
        let mut b = buf.freeze();
        assert_eq!(b.remaining(), 1 + 4 + 8 + 8 + 2);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32(), 0xDEAD_BEEF);
        assert_eq!(b.get_u64(), 42);
        assert_eq!(b.get_i64(), -5);
        let mut rest = [0u8; 2];
        b.copy_to_slice(&mut rest);
        assert_eq!(&rest, b"xy");
        assert!(!b.has_remaining());
    }

    #[test]
    fn clone_and_slice_share_data() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let c = s.clone();
        assert_eq!(c, s);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn copy_to_bytes_views_a_bytes_cursor_and_copies_a_slice() {
        let mut b = Bytes::from(vec![1, 2, 3, 4]);
        let head = b.copy_to_bytes(3);
        assert_eq!((&head[..], &b[..]), (&[1, 2, 3][..], &[4][..]));
        assert!(Arc::ptr_eq(&head.owner, &b.owner), "a view, not a copy");
        let mut s: &[u8] = &[5, 6, 7];
        assert_eq!(&s.copy_to_bytes(2)[..], &[5, 6]);
        assert_eq!(s, &[7]);
    }

    #[test]
    fn from_vec_keeps_the_vec_allocation() {
        let v = vec![1u8, 2, 3, 4];
        let heap = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), heap, "moved, not copied");
        let tail = b.slice(2..);
        assert_eq!(tail.as_ptr(), heap.wrapping_add(2));
        assert_eq!(&tail[..], &[3, 4]);
        assert!(Bytes::default().is_empty());
    }

    #[test]
    fn advance_moves_view() {
        let mut b = Bytes::from(vec![9, 8, 7]);
        b.advance(1);
        assert_eq!(&b[..], &[8, 7]);
    }
}
