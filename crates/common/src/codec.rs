//! One byte codec, and one declaration per wire type.
//!
//! The paper serializes transaction updates into Kafka log records and ships
//! RPC payloads over Thrift, whose IDL declares each message once. This
//! reproduction uses an explicit length-checked binary codec over the `bytes`
//! crate for both purposes: log records in `dynamast-replication` and message
//! payloads in `dynamast-network`. Encoding everything to real bytes keeps the
//! network-traffic accounting honest (paper Appendix D reports MB/s per
//! traffic category), so the byte layout is part of what is measured.
//!
//! A message or record states its layout once, as an ordinary struct or enum
//! declaration inside [`wire!`](crate::wire): its fields go on the wire in
//! declaration order, each through its own type's impl, and an enum puts the
//! `u8` tag its variant names first. `encode`, `encoded_len` and `decode`
//! all come from that one statement. The field types' layouts are:
//!
//! * `u8`, `u32`, `u64`: fixed width, big-endian; `bool`: one byte,
//!   `0` or `1`;
//! * `Bytes` and `Vec<T>`: a `u32` count, then the bytes or the items;
//! * `Option<T>`: `0`, or `1` then the value; `Result<T, E>`: `1` then the
//!   value, or `0` then the error;
//! * 2- and 3-tuples: their fields in order;
//! * the id types: their raw integer (`SiteId`/`TableId` `u32`,
//!   `PartitionId` `u64`).
//!
//! Decoding is bounded by its input: a count is checked against the bytes
//! left before anything is allocated for it ([`check_count`]).

use bytes::Bytes;
pub use bytes::{Buf, BufMut};

use crate::error::{DynaError, Result};

/// Types that can serialize themselves into a byte buffer.
pub trait Encode {
    /// Appends the encoded form to `buf`.
    fn encode(&self, buf: &mut impl BufMut);

    /// Exact number of bytes [`Encode::encode`] will append.
    fn encoded_len(&self) -> usize;
}

/// Types that can deserialize themselves from a byte buffer.
pub trait Decode: Sized {
    /// Consumes the encoded form from `buf`.
    fn decode(buf: &mut impl Buf) -> Result<Self>;
}

fn need(buf: &impl Buf, n: usize, what: &'static str) -> Result<()> {
    if buf.remaining() < n {
        Err(DynaError::Codec {
            what,
            needed: n,
            remaining: buf.remaining(),
        })
    } else {
        Ok(())
    }
}

/// Checks a decoded element count against the input. Every element of a
/// wire sequence takes at least one byte, so a count above the bytes left is
/// corrupt input, refused before anything is allocated for it.
pub fn check_count(count: u64, buf: &impl Buf, what: &'static str) -> Result<usize> {
    match usize::try_from(count) {
        Ok(n) if n <= buf.remaining() => Ok(n),
        _ => Err(DynaError::Codec {
            what,
            needed: usize::try_from(count).unwrap_or(usize::MAX),
            remaining: buf.remaining(),
        }),
    }
}

/// The error for a tag byte that no variant of `what` claims.
pub fn unknown_tag(what: &'static str, buf: &impl Buf) -> DynaError {
    DynaError::Codec {
        what,
        needed: 0,
        remaining: buf.remaining(),
    }
}

/// Reads a `u8`, failing cleanly on truncated input.
pub fn get_u8(buf: &mut impl Buf) -> Result<u8> {
    need(buf, 1, "u8")?;
    Ok(buf.get_u8())
}

/// Reads a big-endian `u32`, failing cleanly on truncated input.
pub fn get_u32(buf: &mut impl Buf) -> Result<u32> {
    need(buf, 4, "u32")?;
    Ok(buf.get_u32())
}

/// Reads a big-endian `u64`, failing cleanly on truncated input.
pub fn get_u64(buf: &mut impl Buf) -> Result<u64> {
    need(buf, 8, "u64")?;
    Ok(buf.get_u64())
}

/// Reads a big-endian `i64`, failing cleanly on truncated input.
pub fn get_i64(buf: &mut impl Buf) -> Result<i64> {
    need(buf, 8, "i64")?;
    Ok(buf.get_i64())
}

/// Reads a length-prefixed byte string.
pub fn get_bytes(buf: &mut impl Buf) -> Result<Vec<u8>> {
    let len = get_u32(buf)? as usize;
    need(buf, len, "bytes body")?;
    let mut out = vec![0u8; len];
    buf.copy_to_slice(&mut out);
    Ok(out)
}

/// Writes a length-prefixed byte string.
pub fn put_bytes(buf: &mut impl BufMut, data: &[u8]) {
    buf.put_u32(data.len() as u32);
    buf.put_slice(data);
}

/// Encoded size of a length-prefixed byte string.
pub fn bytes_len(data: &[u8]) -> usize {
    4 + data.len()
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_string(buf: &mut impl Buf) -> Result<String> {
    let raw = get_bytes(buf)?;
    String::from_utf8(raw).map_err(|_| DynaError::Codec {
        what: "utf8 string",
        needed: 0,
        remaining: 0,
    })
}

/// Encodes a whole value into a fresh byte vector.
pub fn encode_to_vec<T: Encode>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(value.encoded_len());
    value.encode(&mut buf);
    debug_assert_eq!(buf.len(), value.encoded_len(), "encoded_len mismatch");
    buf
}

macro_rules! fixed_width {
    ($($ty:ty: $put:ident, $get:ident;)*) => {$(
        impl Encode for $ty {
            fn encode(&self, buf: &mut impl BufMut) {
                buf.$put(*self);
            }

            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$ty>()
            }
        }

        impl Decode for $ty {
            fn decode(buf: &mut impl Buf) -> Result<Self> {
                $get(buf)
            }
        }
    )*};
}

fixed_width! {
    u8: put_u8, get_u8;
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
}

impl Encode for bool {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(u8::from(*self));
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        match get_u8(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(unknown_tag("bool", buf)),
        }
    }
}

impl Encode for Bytes {
    fn encode(&self, buf: &mut impl BufMut) {
        put_bytes(buf, self);
    }

    fn encoded_len(&self) -> usize {
        bytes_len(self)
    }
}

impl Decode for Bytes {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        get_bytes(buf).map(Bytes::from)
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32(self.len() as u32);
        for item in self {
            item.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut impl BufMut) {
        self.as_slice().encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.as_slice().encoded_len()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        let n = check_count(get_u32(buf)?.into(), buf, "sequence count")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            None => buf.put_u8(0),
            Some(value) => {
                buf.put_u8(1);
                value.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        match get_u8(buf)? {
            0 => Ok(None),
            1 => T::decode(buf).map(Some),
            _ => Err(unknown_tag("Option tag", buf)),
        }
    }
}

impl<T: Encode, E: Encode> Encode for std::result::Result<T, E> {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Ok(value) => {
                buf.put_u8(1);
                value.encode(buf);
            }
            Err(error) => {
                buf.put_u8(0);
                error.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Ok(value) => value.encoded_len(),
            Err(error) => error.encoded_len(),
        }
    }
}

impl<T: Decode, E: Decode> Decode for std::result::Result<T, E> {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        match get_u8(buf)? {
            0 => E::decode(buf).map(Err),
            1 => T::decode(buf).map(Ok),
            _ => Err(unknown_tag("Result tag", buf)),
        }
    }
}

macro_rules! tuple {
    ($($field:ident: $ty:ident),+) => {
        impl<$($ty: Encode),+> Encode for ($($ty,)+) {
            fn encode(&self, buf: &mut impl BufMut) {
                let ($($field,)+) = self;
                $($field.encode(buf);)+
            }

            fn encoded_len(&self) -> usize {
                let ($($field,)+) = self;
                0 $(+ $field.encoded_len())+
            }
        }

        impl<$($ty: Decode),+> Decode for ($($ty,)+) {
            fn decode(buf: &mut impl Buf) -> Result<Self> {
                Ok(($($ty::decode(buf)?,)+))
            }
        }
    };
}

tuple!(a: A, b: B);
tuple!(a: A, b: B, c: C);

/// Declares a wire type: an ordinary struct, or an enum whose every variant
/// names its `u8` tag (`Variant { .. } = 3`), emitted together with its
/// [`Encode`] and [`Decode`] impls. Fields are encoded in declaration order,
/// each through its own type's impl; an enum writes its tag first. A tag no
/// variant claims decodes to a [`DynaError::Codec`] naming the type, and two
/// variants claiming one tag do not compile.
///
/// ```
/// dynamast_common::wire! {
///     /// A move acknowledgement.
///     #[derive(Debug, PartialEq)]
///     pub enum Ack {
///         /// Done at this epoch.
///         Done { epoch: u64 } = 1,
///         /// Refused.
///         Refused = 2,
///     }
/// }
/// use dynamast_common::codec::{encode_to_vec, Decode};
/// let bytes = encode_to_vec(&Ack::Done { epoch: 7 });
/// assert_eq!(bytes, [1, 0, 0, 0, 0, 0, 0, 0, 7]);
/// assert_eq!(Ack::decode(&mut &bytes[..]).unwrap(), Ack::Done { epoch: 7 });
/// assert!(Ack::decode(&mut &[3u8][..]).is_err());
/// ```
///
/// ```compile_fail
/// dynamast_common::wire! {
///     pub enum Twice { A = 1, B = 1 }
/// }
/// ```
#[macro_export]
macro_rules! wire {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_attr:meta])* $field_vis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$field_attr])* $field_vis $field: $ty),*
        }

        impl $crate::codec::Encode for $name {
            fn encode(&self, buf: &mut impl $crate::codec::BufMut) {
                $($crate::codec::Encode::encode(&self.$field, buf);)*
            }

            fn encoded_len(&self) -> usize {
                0 $(+ $crate::codec::Encode::encoded_len(&self.$field))*
            }
        }

        impl $crate::codec::Decode for $name {
            fn decode(buf: &mut impl $crate::codec::Buf) -> $crate::Result<Self> {
                Ok($name {
                    $($field: $crate::codec::Decode::decode(buf)?,)*
                })
            }
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$variant_attr:meta])*
                $variant:ident $({
                    $($(#[$field_attr:meta])* $field:ident: $ty:ty),* $(,)?
                })? = $tag:literal
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $(
                $(#[$variant_attr])*
                $variant $({ $($(#[$field_attr])* $field: $ty),* })?
            ),*
        }

        impl $crate::codec::Encode for $name {
            fn encode(&self, buf: &mut impl $crate::codec::BufMut) {
                match self {
                    $($name::$variant $({ $($field),* })? => {
                        $crate::codec::BufMut::put_u8(buf, $tag);
                        $($($crate::codec::Encode::encode($field, buf);)*)?
                    })*
                }
            }

            fn encoded_len(&self) -> usize {
                1 + match self {
                    $($name::$variant $({ $($field),* })? => {
                        0 $($(+ $crate::codec::Encode::encoded_len($field))*)?
                    })*
                }
            }
        }

        impl $crate::codec::Decode for $name {
            #[deny(unreachable_patterns)]
            fn decode(buf: &mut impl $crate::codec::Buf) -> $crate::Result<Self> {
                match $crate::codec::get_u8(buf)? {
                    $($tag => Ok($name::$variant $({
                        $($field: $crate::codec::Decode::decode(buf)?,)*
                    })?),)*
                    _ => Err($crate::codec::unknown_tag(
                        concat!(stringify!($name), " tag"),
                        buf,
                    )),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_reads_fail_on_truncated_input() {
        let mut empty: &[u8] = &[];
        assert!(get_u64(&mut empty).is_err());
        let mut short: &[u8] = &[0, 0, 1];
        assert!(get_u32(&mut short).is_err());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello");
        assert_eq!(buf.len(), bytes_len(b"hello"));
        let mut slice = &buf[..];
        assert_eq!(get_bytes(&mut slice).unwrap(), b"hello");
    }

    #[test]
    fn bytes_reject_truncated_body() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello");
        let mut truncated = &buf[..buf.len() - 2];
        assert!(get_bytes(&mut truncated).is_err());
    }

    #[test]
    fn string_rejects_invalid_utf8() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let mut slice = &buf[..];
        assert!(get_string(&mut slice).is_err());
    }

    #[test]
    fn seq_roundtrip_via_version_vectors() {
        use crate::vv::VersionVector;
        let items = vec![
            VersionVector::from_counts(vec![1, 2]),
            VersionVector::from_counts(vec![3, 4]),
        ];
        let buf = encode_to_vec(&items);
        assert_eq!(buf.len(), items.encoded_len());
        let mut slice = &buf[..];
        let back: Vec<VersionVector> = Decode::decode(&mut slice).unwrap();
        assert_eq!(back, items);
    }

    #[test]
    fn a_count_the_input_cannot_hold_is_refused_before_allocating() {
        let mut huge: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0, 0];
        assert!(Vec::<u64>::decode(&mut huge).is_err());
        assert!(check_count(u64::MAX, &&[0u8; 4][..], "count").is_err());
        assert_eq!(check_count(4, &&[0u8; 4][..], "count").unwrap(), 4);
    }

    #[test]
    fn option_result_and_tuples_follow_the_stated_layout() {
        type Item = (Option<u32>, std::result::Result<u8, bool>, bool);
        let value: Vec<Item> = vec![(Some(7), Ok(9), true), (None, Err(false), false)];
        #[rustfmt::skip]
        let golden = [
            0, 0, 0, 2,
            1, 0, 0, 0, 7, 1, 9, 1,
            0, 0, 0, 0,
        ];
        assert_eq!(encode_to_vec(&value), golden);
        assert_eq!(Vec::<Item>::decode(&mut &golden[..]).unwrap(), value);
        for bad in [[2u8, 0], [0, 2]] {
            let mut slice = &bad[..];
            assert!(<(Option<u8>, bool)>::decode(&mut slice).is_err());
        }
    }
}
