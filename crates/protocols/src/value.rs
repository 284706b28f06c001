//! Replicated values and value–timestamp pairs.

use crate::timestamp::Timestamp;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// An opaque replicated value.
///
/// Values are immutable byte strings held in shared storage: cloning one
/// (a server answering a read, storing a write, or gossiping a record)
/// bumps a reference count instead of copying the bytes.  Equality,
/// ordering and hashing are by content, exactly as for a byte vector.
/// Helpers are provided for the common case of numeric payloads used in
/// tests and experiments.
///
/// # Examples
///
/// ```
/// use pqs_protocols::value::Value;
/// let v = Value::from_u64(7);
/// assert_eq!(v.as_u64(), Some(7));
/// assert_eq!(Value::new(vec![1, 2, 3]).as_bytes(), &[1, 2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Value(Arc<[u8]>);

impl Value {
    /// Wraps raw bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        Value(bytes.into())
    }

    /// Encodes a `u64` as a little-endian value.
    pub fn from_u64(v: u64) -> Self {
        Value(Arc::new(v.to_le_bytes()))
    }

    /// Encodes a string.
    pub fn from_str_value(s: &str) -> Self {
        Value(Arc::from(s.as_bytes()))
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Decodes the value as a little-endian `u64`, if it is exactly 8 bytes.
    pub fn as_u64(&self) -> Option<u64> {
        (*self.0).try_into().ok().map(u64::from_le_bytes)
    }

    /// Length of the value in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for a zero-length value.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_u64() {
            Some(v) => write!(f, "u64:{v}"),
            None => write!(f, "bytes[{}]", self.0.len()),
        }
    }
}

impl From<Vec<u8>> for Value {
    fn from(bytes: Vec<u8>) -> Self {
        Value::new(bytes)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::from_u64(v)
    }
}

impl AsRef<[u8]> for Value {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A value together with the timestamp of the write that produced it — the
/// `⟨v, t⟩` pairs exchanged by the Section 3.1 protocols.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaggedValue {
    /// The written value.
    pub value: Value,
    /// The timestamp the writer attached to it.
    pub timestamp: Timestamp,
}

impl TaggedValue {
    /// Creates a value–timestamp pair.
    pub fn new(value: Value, timestamp: Timestamp) -> Self {
        TaggedValue { value, timestamp }
    }

    /// The pair every replica starts with: an empty value at
    /// [`Timestamp::ZERO`].  Allocation-free: the empty shared slice is a
    /// static.
    pub fn initial() -> Self {
        TaggedValue {
            value: Value(Arc::default()),
            timestamp: Timestamp::ZERO,
        }
    }

    /// Returns whichever of the two pairs carries the higher timestamp.
    pub fn fresher(self, other: TaggedValue) -> TaggedValue {
        if other.timestamp > self.timestamp {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for TaggedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.value, self.timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrips() {
        assert_eq!(Value::from_u64(123).as_u64(), Some(123));
        assert_eq!(Value::new(vec![1, 2]).as_u64(), None);
        assert_eq!(Value::from_str_value("hi").as_bytes(), b"hi");
        assert_eq!(Value::from(9u64), Value::from_u64(9));
        assert_eq!(Value::from(vec![3u8]).len(), 1);
        assert!(Value::new(vec![]).is_empty());
        assert_eq!(Value::from_u64(5).as_ref().len(), 8);
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::from_u64(4).to_string(), "u64:4");
        assert_eq!(Value::new(vec![1, 2, 3]).to_string(), "bytes[3]");
    }

    #[test]
    fn clones_share_storage() {
        let v = Value::from_str_value("shared payload");
        let c = v.clone();
        assert_eq!(v.as_bytes().as_ptr(), c.as_bytes().as_ptr());
        let tv = TaggedValue::new(v, Timestamp::new(1, 1));
        assert_eq!(
            tv.clone().value.as_bytes().as_ptr(),
            c.as_bytes().as_ptr(),
            "cloning the pair bumps a count, it copies no bytes"
        );
        // Equal content in separate storage is still equal.
        let other = Value::from_str_value("shared payload");
        assert_ne!(other.as_bytes().as_ptr(), c.as_bytes().as_ptr());
        assert_eq!(other, c);
    }

    #[test]
    fn comparisons_and_hashing_match_the_byte_vector() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn hash_of<T: Hash>(t: &T) -> u64 {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        }
        let samples: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![1, 2, 3],
            vec![1, 2],
            vec![1, 2, 3, 0],
            vec![255; 8],
            7u64.to_le_bytes().to_vec(),
            b"FORGED".to_vec(),
        ];
        for a in &samples {
            let va = Value::new(a.clone());
            assert_eq!(hash_of(&va), hash_of(a), "hash of {a:?}");
            assert_eq!(
                va.as_u64(),
                a.as_slice().try_into().ok().map(u64::from_le_bytes)
            );
            let shown = match va.as_u64() {
                Some(x) => format!("u64:{x}"),
                None => format!("bytes[{}]", a.len()),
            };
            assert_eq!(va.to_string(), shown);
            for b in &samples {
                let vb = Value::new(b.clone());
                assert_eq!(va == vb, a == b, "{a:?} == {b:?}");
                assert_eq!(va.cmp(&vb), a.cmp(b), "{a:?} cmp {b:?}");
            }
        }
        assert_eq!(TaggedValue::initial().value, Value::new(Vec::new()));
    }

    #[test]
    fn tagged_value_freshness() {
        let old = TaggedValue::new(Value::from_u64(1), Timestamp::new(1, 0));
        let newer = TaggedValue::new(Value::from_u64(2), Timestamp::new(2, 0));
        assert_eq!(old.clone().fresher(newer.clone()), newer);
        assert_eq!(newer.clone().fresher(old.clone()), newer);
        // Ties keep the receiver (self).
        let tie = TaggedValue::new(Value::from_u64(3), Timestamp::new(2, 0));
        assert_eq!(newer.clone().fresher(tie).value, Value::from_u64(2));
        assert_eq!(TaggedValue::initial().timestamp, Timestamp::ZERO);
        assert!(old.to_string().contains("u64:1"));
    }
}
