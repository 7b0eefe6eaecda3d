//! Index records.
//!
//! An LSM index logs *modifications*: inserts and updates carry a payload,
//! deletes are logged as tombstone records that cancel earlier versions
//! during merges (§II-A of the paper). Updates are represented as `Put`
//! records — during a merge the upper (newer) record for a key wins.

use bytes::Bytes;

/// Key type. The paper uses 4-byte unsigned integers in `[0, 10^9]`;
/// `u64` is strictly more general and keeps the arithmetic simple.
pub type Key = u64;

/// The kind of modification a record logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Insert or update: key now maps to the payload.
    Put,
    /// Delete: key is removed; cancels older versions below.
    Delete,
}

/// One index record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The record key.
    pub key: Key,
    /// Put or Delete.
    pub op: OpKind,
    /// Payload bytes (empty for deletes).
    pub payload: Bytes,
}

impl Record {
    /// A Put record.
    pub fn put(key: Key, payload: impl Into<Bytes>) -> Self {
        Record { key, op: OpKind::Put, payload: payload.into() }
    }

    /// A Delete tombstone.
    pub fn delete(key: Key) -> Self {
        Record { key, op: OpKind::Delete, payload: Bytes::new() }
    }

    /// True for tombstones.
    #[inline]
    pub fn is_tombstone(&self) -> bool {
        self.op == OpKind::Delete
    }

    /// What a reader sees of a key whose newest version this is: the
    /// payload of a put, nothing of a tombstone.
    #[inline]
    pub(crate) fn into_value(self) -> Option<Bytes> {
        match self.op {
            OpKind::Put => Some(self.payload),
            OpKind::Delete => None,
        }
    }

    /// Serialized size of this record inside a data block:
    /// `key (8) + op (1) + payload_len (4) + payload`.
    #[inline]
    pub fn encoded_len(&self) -> usize {
        8 + 1 + 4 + self.payload.len()
    }
}

/// A modification request against the index — what workloads produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Insert or update `key` with the payload.
    Put(Key, Bytes),
    /// Delete `key`.
    Delete(Key),
}

impl Request {
    /// The key the request addresses.
    pub fn key(&self) -> Key {
        match self {
            Request::Put(k, _) => *k,
            Request::Delete(k) => *k,
        }
    }

    /// Bytes of "request volume" this request represents. The paper reports
    /// costs per MB *worth of requests*: a request counts as one record's
    /// worth of bytes (key + metadata + payload for puts; key + metadata
    /// for deletes is rounded up to the same record size so that a 50/50
    /// workload has a well-defined volume).
    pub fn volume_bytes(&self, record_size: usize) -> usize {
        let _ = self;
        record_size
    }
}

/// Anything that produces an endless stream of requests. Workload
/// generators implement this; the Mixed-policy learner consumes it.
pub trait RequestSource {
    /// Produce the next request.
    fn next_request(&mut self) -> Request;
}

impl<T: RequestSource + ?Sized> RequestSource for &mut T {
    fn next_request(&mut self) -> Request {
        (**self).next_request()
    }
}

impl<T: RequestSource + ?Sized> RequestSource for Box<T> {
    fn next_request(&mut self) -> Request {
        (**self).next_request()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_constructors() {
        let p = Record::put(5, vec![1, 2, 3]);
        assert_eq!(p.key, 5);
        assert!(!p.is_tombstone());
        assert_eq!(p.encoded_len(), 8 + 1 + 4 + 3);

        let d = Record::delete(9);
        assert!(d.is_tombstone());
        assert!(d.payload.is_empty());
        assert_eq!(d.encoded_len(), 13);
    }

    #[test]
    fn request_key_and_volume() {
        let r = Request::Put(7, Bytes::from_static(b"x"));
        assert_eq!(r.key(), 7);
        assert_eq!(r.volume_bytes(113), 113);
        assert_eq!(Request::Delete(9).key(), 9);
    }
}
