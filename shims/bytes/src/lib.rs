//! Offline stand-in for the `bytes` crate: the little-endian cursor
//! subset the binary log codec uses. As in the real crate, a byte slice
//! is a read cursor (`Buf for &[u8]`, advancing by re-slicing, so reads
//! borrow the input instead of copying it) and a `Vec<u8>` is a write
//! buffer (`BufMut for Vec<u8>`).

/// Read cursor operations. Panics on underflow, like the real crate.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Advance the cursor.
    fn advance(&mut self, n: usize);

    /// Whether any bytes are left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }
    /// Read a little-endian u16.
    fn get_u16_le(&mut self) -> u16 {
        let mut raw = [0u8; 2];
        self.copy_to_slice(&mut raw);
        u16::from_le_bytes(raw)
    }
    /// Read a little-endian u32.
    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        self.copy_to_slice(&mut raw);
        u32::from_le_bytes(raw)
    }
    /// Copy bytes out into `dst`.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.remaining(), "copy past end");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end");
        *self = &self[n..];
    }
}

/// Write operations.
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, b: u8) {
        self.put_slice(&[b]);
    }
    /// Append a little-endian u16.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    fn put_u8(&mut self, b: u8) {
        self.push(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut w = Vec::with_capacity(8);
        w.put_u8(7);
        w.put_u16_le(0xBEEF);
        w.put_u32_le(0xDEADBEEF);
        w.put_slice(b"xy");
        let mut r = &w[..];
        assert_eq!(r.remaining(), 9);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u32_le(), 0xDEADBEEF);
        assert_eq!(r.chunk(), b"xy");
        r.advance(2);
        assert!(!r.has_remaining());
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn reads_past_the_end_panic() {
        let mut r: &[u8] = &[1, 2, 3];
        r.get_u32_le();
    }
}
