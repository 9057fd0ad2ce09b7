//! `Bytes`/`BytesMut` over `Arc<[u8]>`/`Vec<u8>` with the `Buf`/`BufMut`
//! methods relstore's codec uses. The getters panic on underflow like the
//! real crate; relstore checks `remaining()` first.

use std::ops::Deref;
use std::sync::Arc;

/// An immutable byte buffer with a read cursor; clones share the bytes.
#[derive(Debug, Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes::default()
    }

    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
            start: 0,
            end: data.len(),
        }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::from(v),
            start: 0,
            end,
        }
    }
}

/// Read access to a buffer of bytes with a cursor.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);
    fn copy_to_bytes(&mut self, len: usize) -> Bytes;

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let n = dst.len();
        dst.copy_from_slice(&self.chunk()[..n]);
        self.advance(n);
    }

    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        self.copy_to_slice(&mut raw);
        u32::from_le_bytes(raw)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        self.copy_to_slice(&mut raw);
        u64::from_le_bytes(raw)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past the end of Bytes");
        self.start += cnt;
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(len <= self.len(), "copy_to_bytes past the end of Bytes");
        let out = Bytes {
            data: self.data.clone(),
            start: self.start,
            end: self.start + len,
        };
        self.start += len;
        out
    }
}

/// A growable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }

    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Write access to a growable buffer of bytes.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }

    fn put_u8(&mut self, v: u8) {
        self.0.push(v);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}
