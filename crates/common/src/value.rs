//! Cell values and rows.
//!
//! The storage engine is row-oriented (§V-A1); a [`Row`] is a fixed-arity
//! vector of [`Value`] cells matching the owning table's schema. Values are
//! deliberately simple — the benchmark workloads (YCSB, TPC-C, SmallBank)
//! need integers, floats-as-fixed-point, and strings.

use std::fmt;
use std::sync::Arc;

use bytes::{Buf, BufMut};

use crate::codec::{self, Decode, Encode};
use crate::error::{DynaError, Result};

/// A single cell value.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Unsigned 64-bit integer (ids, counts).
    U64(u64),
    /// Signed 64-bit integer. Monetary amounts are stored as fixed-point
    /// cents (TPC-C, SmallBank) to keep rows hashable and comparisons exact.
    I64(i64),
    /// UTF-8 string (names, payload fields).
    Str(String),
    /// Raw bytes (YCSB payload).
    Bytes(Vec<u8>),
}

impl Value {
    /// Unwraps a `U64`, or errors.
    pub fn as_u64(&self) -> Result<u64> {
        match self {
            Value::U64(v) => Ok(*v),
            _ => Err(DynaError::Internal("value is not u64")),
        }
    }

    /// Unwraps an `I64`, or errors.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::I64(v) => Ok(*v),
            _ => Err(DynaError::Internal("value is not i64")),
        }
    }

    /// Unwraps a `Str`, or errors.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(DynaError::Internal("value is not str")),
        }
    }

    /// In-memory payload size in bytes (used for traffic accounting).
    pub fn payload_size(&self) -> usize {
        match self {
            Value::U64(_) | Value::I64(_) => 8,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}u"),
            Value::I64(v) => write!(f, "{v}i"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Encode for Value {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Value::U64(v) => {
                buf.put_u8(0);
                buf.put_u64(*v);
            }
            Value::I64(v) => {
                buf.put_u8(1);
                buf.put_i64(*v);
            }
            Value::Str(s) => {
                buf.put_u8(2);
                codec::put_bytes(buf, s.as_bytes());
            }
            Value::Bytes(b) => {
                buf.put_u8(3);
                codec::put_bytes(buf, b);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Value::U64(_) | Value::I64(_) => 8,
            Value::Str(s) => codec::bytes_len(s.as_bytes()),
            Value::Bytes(b) => codec::bytes_len(b),
        }
    }
}

impl Decode for Value {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        match codec::get_u8(buf)? {
            0 => Ok(Value::U64(codec::get_u64(buf)?)),
            1 => Ok(Value::I64(codec::get_i64(buf)?)),
            2 => Ok(Value::Str(codec::get_string(buf)?)),
            3 => Ok(Value::Bytes(codec::get_bytes(buf)?)),
            _ => Err(codec::unknown_tag("value tag", buf)),
        }
    }
}

/// A row: one cell per schema column, immutable once built.
///
/// The cells sit behind one shared allocation, so a clone — a version chain
/// handing a row to a reader, one loaded row fanned to every replica, a
/// buffered write read back — is a reference-count bump. Nothing can change
/// a row after construction; an update installs a new row.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Row {
    cells: Arc<[Value]>,
}

impl Row {
    /// Builds a row from cells.
    pub fn new(cells: Vec<Value>) -> Self {
        Row {
            cells: cells.into(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cells.len()
    }

    /// The cell at `column`.
    pub fn cell(&self, column: usize) -> &Value {
        &self.cells[column]
    }

    /// All cells in order.
    pub fn cells(&self) -> &[Value] {
        &self.cells
    }

    /// In-memory payload size in bytes across all cells.
    pub fn payload_size(&self) -> usize {
        self.cells.iter().map(Value::payload_size).sum()
    }
}

impl Encode for Row {
    fn encode(&self, buf: &mut impl BufMut) {
        self.cells().encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.cells().encoded_len()
    }
}

impl Decode for Row {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        // Every encoded cell is at least a tag byte, which bounds the
        // allocation by the input before any of it is trusted.
        let arity = codec::check_count(codec::get_u32(buf)?.into(), buf, "row arity")?;
        // Collecting an exact-size iterator fills the shared allocation
        // directly (no `Vec` first), so the first failure is carried out
        // beside it and the remaining slots take a placeholder.
        let mut failed = None;
        let cells = (0..arity)
            .map(|_| {
                if failed.is_none() {
                    match Value::decode(buf) {
                        Ok(value) => return value,
                        Err(e) => failed = Some(e),
                    }
                }
                Value::U64(0)
            })
            .collect();
        match failed {
            Some(e) => Err(e),
            None => Ok(Row { cells }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_enforce_types() {
        let v = Value::U64(7);
        assert_eq!(v.as_u64().unwrap(), 7);
        assert!(v.as_i64().is_err());
        assert!(Value::Str("x".into()).as_str().is_ok());
    }

    #[test]
    fn value_roundtrips_all_variants() {
        for v in [
            Value::U64(42),
            Value::I64(-42),
            Value::Str("hello".into()),
            Value::Bytes(vec![1, 2, 3]),
        ] {
            let buf = codec::encode_to_vec(&v);
            let mut slice = &buf[..];
            assert_eq!(Value::decode(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn row_roundtrips_and_reports_sizes() {
        let row = Row::new(vec![Value::U64(1), Value::Str("abcd".into())]);
        assert_eq!(row.arity(), 2);
        assert_eq!(row.payload_size(), 12);
        let buf = codec::encode_to_vec(&row);
        let mut slice = &buf[..];
        assert_eq!(Row::decode(&mut slice).unwrap(), row);
    }

    #[test]
    fn a_cloned_row_is_indistinguishable_from_its_source() {
        use std::hash::{BuildHasher, RandomState};
        let row = Row::new(vec![
            Value::I64(100),
            Value::Str("abcd".into()),
            Value::Bytes(vec![7; 9]),
        ]);
        let copy = row.clone();
        assert_eq!(copy, row);
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(&copy), hasher.hash_one(&row));
        let bytes = codec::encode_to_vec(&row);
        assert_eq!(codec::encode_to_vec(&copy), bytes);
        assert_eq!(bytes.len(), row.encoded_len());
        let mut slice = &bytes[..];
        assert_eq!(Row::decode(&mut slice).unwrap(), row);
        assert!(slice.is_empty());
        assert_eq!(Row::default(), Row::new(Vec::new()));
    }

    #[test]
    fn row_decode_rejects_truncated_and_oversized_input() {
        let bytes = codec::encode_to_vec(&Row::new(vec![Value::U64(1), Value::Str("ab".into())]));
        for cut in 0..bytes.len() {
            assert!(Row::decode(&mut &bytes[..cut]).is_err(), "cut at {cut}");
        }
        // An arity the input cannot hold is refused before allocating for it.
        let mut huge: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0, 0];
        assert!(Row::decode(&mut huge).is_err());
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut bad: &[u8] = &[9, 0, 0];
        assert!(Value::decode(&mut bad).is_err());
    }
}
