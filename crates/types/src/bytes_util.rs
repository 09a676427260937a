//! Little-endian binary codecs used by the PAX layout and index formats.
//!
//! Everything in a HAIL block is little-endian. These helpers are written
//! against `&[u8]`/`Vec<u8>` so callers can work with either owned buffers
//! or borrowed slices of a datanode "disk".

use crate::error::{HailError, Result};

/// Appends a `u32` in little-endian order.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i32` in little-endian order.
#[inline]
pub fn put_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64` in little-endian order.
#[inline]
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string (u16 length).
pub fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<()> {
    let len: u16 = s
        .len()
        .try_into()
        .map_err(|_| HailError::Schema(format!("string too long to encode: {} bytes", s.len())))?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Moves the cursor to an absolute offset.
    pub fn seek(&mut self, pos: usize) -> Result<()> {
        if pos > self.buf.len() {
            return Err(HailError::Corrupt(format!(
                "seek to {pos} beyond buffer of {} bytes",
                self.buf.len()
            )));
        }
        self.pos = pos;
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(HailError::Corrupt(format!(
                "truncated read: wanted {n} bytes at offset {}, only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a length-prefixed UTF-8 string written by [`put_str`].
    pub fn str(&mut self) -> Result<String> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().unwrap()) as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| HailError::Corrupt("invalid UTF-8 in encoded string".into()))
    }

    /// Borrows `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads a zero-terminated byte sequence starting at the cursor,
    /// returning the content without the terminator.
    pub fn cstr(&mut self) -> Result<&'a [u8]> {
        let rest = &self.buf[self.pos..];
        let nul = rest
            .iter()
            .position(|&b| b == 0)
            .ok_or_else(|| HailError::Corrupt("unterminated zero-terminated value".into()))?;
        let out = &rest[..nul];
        self.pos += nul + 1;
        Ok(out)
    }
}

/// Reads the i-th fixed-width little-endian `u32` from a slice viewed as a
/// dense array. Used for index-array and offset-list access.
#[inline]
pub fn u32_at(buf: &[u8], index: usize) -> Result<u32> {
    let off = index * 4;
    let bytes: [u8; 4] = buf
        .get(off..off + 4)
        .ok_or_else(|| HailError::Corrupt(format!("u32 index {index} out of range")))?
        .try_into()
        .unwrap();
    Ok(u32::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_i32(&mut buf, -9);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        put_i64(&mut buf, i64::MIN);
        put_f64(&mut buf, 2.5);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.i32().unwrap(), -9);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn round_trip_string() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hail").unwrap();
        put_str(&mut buf, "").unwrap();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.str().unwrap(), "hail");
        assert_eq!(r.str().unwrap(), "");
    }

    #[test]
    fn truncated_read_errors() {
        let buf = [1u8, 2, 3];
        let mut r = ByteReader::new(&buf);
        assert!(r.u32().is_err());
        // Cursor must not advance on failure past the end.
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn cstr_reads_until_nul() {
        let buf = b"abc\0def\0";
        let mut r = ByteReader::new(buf);
        assert_eq!(r.cstr().unwrap(), b"abc");
        assert_eq!(r.cstr().unwrap(), b"def");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn cstr_unterminated_errors() {
        let buf = b"abc";
        let mut r = ByteReader::new(buf);
        assert!(r.cstr().is_err());
    }

    #[test]
    fn seek_bounds() {
        let buf = [0u8; 8];
        let mut r = ByteReader::new(&buf);
        assert!(r.seek(8).is_ok());
        assert!(r.seek(9).is_err());
    }

    #[test]
    fn u32_at_indexing() {
        let mut buf = Vec::new();
        for v in [10u32, 20, 30] {
            put_u32(&mut buf, v);
        }
        assert_eq!(u32_at(&buf, 0).unwrap(), 10);
        assert_eq!(u32_at(&buf, 2).unwrap(), 30);
        assert!(u32_at(&buf, 3).is_err());
    }
}
