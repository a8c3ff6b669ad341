//! A total, panic-free reader over untrusted frame bytes.
//!
//! Every `decoy-wire` decoder parses attacker-controlled input. [`ByteCursor`]
//! centralises the only bounds checks those decoders need: every read is
//! fallible, every failure carries the byte offset it happened at, and no
//! code path indexes a slice directly. Clippy's panic wall forbids raw
//! indexing in the decoders precisely so that all conversions funnel
//! through this audited module.

use crate::error::{WireError, WireErrorKind, WireProtocol};

/// A forward-only cursor over a byte slice with fallible, offset-tracking
/// reads. Lifetimes tie returned slices to the underlying buffer, so
/// decoding is zero-copy until a decoder chooses to allocate.
#[derive(Debug, Clone)]
pub struct ByteCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    base: usize,
    protocol: WireProtocol,
}

impl<'a> ByteCursor<'a> {
    /// A cursor over `buf`, attributing violations to `protocol`.
    pub fn new(buf: &'a [u8], protocol: WireProtocol) -> Self {
        ByteCursor {
            buf,
            pos: 0,
            base: 0,
            protocol,
        }
    }

    /// A cursor whose reported offsets start at `base` — used when `buf` is
    /// a sub-slice of a larger frame (e.g. a packet body after its header).
    pub fn with_base(buf: &'a [u8], protocol: WireProtocol, base: usize) -> Self {
        ByteCursor {
            buf,
            pos: 0,
            base,
            protocol,
        }
    }

    /// The offset of the next unread byte, relative to the original frame.
    pub fn offset(&self) -> usize {
        self.base.saturating_add(self.pos)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Build a [`WireError`] at the current offset. Public so decoders can
    /// report grammar-level violations with accurate positions.
    pub fn err(&self, kind: WireErrorKind) -> WireError {
        WireError::new(self.protocol, self.offset(), kind)
    }

    /// Peek the next byte without consuming it.
    pub fn peek_u8(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
    }

    /// Consume `n` bytes and return them.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end));
        match slice {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(self.err(WireErrorKind::Truncated {
                needed: n,
                available: self.remaining(),
            })),
        }
    }

    /// Consume and discard `n` bytes.
    pub fn skip(&mut self, n: usize) -> Result<(), WireError> {
        self.take(n).map(|_| ())
    }

    /// Consume everything that remains.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = self.buf.get(self.pos..).unwrap_or(&[]);
        self.pos = self.buf.len();
        s
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let s = self.take(N)?;
        match s.first_chunk::<N>() {
            Some(a) => Ok(*a),
            // Unreachable in practice (`take` returned exactly N bytes) but
            // handled totally rather than asserted.
            None => Err(self.err(WireErrorKind::Truncated {
                needed: N,
                available: s.len(),
            })),
        }
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.array::<1>().map(|[b]| b)
    }

    /// Consume a big-endian `u16`.
    pub fn u16_be(&mut self) -> Result<u16, WireError> {
        self.array::<2>().map(u16::from_be_bytes)
    }

    /// Consume a little-endian `u16`.
    pub fn u16_le(&mut self) -> Result<u16, WireError> {
        self.array::<2>().map(u16::from_le_bytes)
    }

    /// Consume a big-endian `u32`.
    pub fn u32_be(&mut self) -> Result<u32, WireError> {
        self.array::<4>().map(u32::from_be_bytes)
    }

    /// Consume a little-endian `u32`.
    pub fn u32_le(&mut self) -> Result<u32, WireError> {
        self.array::<4>().map(u32::from_le_bytes)
    }

    /// Consume a little-endian `i32`.
    pub fn i32_le(&mut self) -> Result<i32, WireError> {
        self.array::<4>().map(i32::from_le_bytes)
    }

    /// Consume a big-endian `i32`.
    pub fn i32_be(&mut self) -> Result<i32, WireError> {
        self.array::<4>().map(i32::from_be_bytes)
    }

    /// Consume a little-endian `i64`.
    pub fn i64_le(&mut self) -> Result<i64, WireError> {
        self.array::<8>().map(i64::from_le_bytes)
    }

    /// Consume a little-endian IEEE-754 `f64`.
    pub fn f64_le(&mut self) -> Result<f64, WireError> {
        self.array::<8>().map(f64::from_le_bytes)
    }

    /// Consume a NUL-terminated byte string (terminator consumed, not
    /// returned).
    pub fn cstring_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let tail = self.buf.get(self.pos..).unwrap_or(&[]);
        match tail.iter().position(|&b| b == 0) {
            Some(nul) => {
                let s = self.take(nul)?;
                self.skip(1)?;
                Ok(s)
            }
            None => Err(self.err(WireErrorKind::Unterminated { what: "cstring" })),
        }
    }

    /// Consume a NUL-terminated string, replacing invalid UTF-8 (attackers
    /// send arbitrary bytes as credentials; we capture them lossily rather
    /// than reject the frame).
    pub fn cstring_lossy(&mut self) -> Result<String, WireError> {
        self.cstring_bytes()
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// Validate an attacker-declared length against `max` and convert it to
    /// `usize`. Negative or oversized declarations are violations at the
    /// cursor's current offset.
    pub fn checked_len(&self, declared: i64, max: usize) -> Result<usize, WireError> {
        let ok = usize::try_from(declared).ok().filter(|&n| n <= max);
        ok.ok_or_else(|| {
            self.err(WireErrorKind::LengthOutOfRange {
                declared: u64::try_from(declared).unwrap_or(0),
                max: u64::try_from(max).unwrap_or(u64::MAX),
            })
        })
    }
}

/// Total `u32` → `usize` for decode-side length words. Saturates on
/// (hypothetical) 16-bit targets so an oversized value fails the caller's
/// range check instead of wrapping.
pub fn usize_from(v: u32) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// Saturating `usize` → `u32` for encode-side length prefixes. Frames we
/// build ourselves are bounded far below 4 GiB; saturation keeps the encode
/// path total without a panic edge.
pub fn sat_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Saturating `usize` → `i32` for BSON/Mongo length prefixes.
pub fn sat_i32(n: usize) -> i32 {
    i32::try_from(n).unwrap_or(i32::MAX)
}

/// Saturating `usize` → `i64` for RESP integer replies and BSON counts.
pub fn sat_i64(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// Saturating `usize` → `u16` for TDS packet lengths.
pub fn sat_u16(n: usize) -> u16 {
    u16::try_from(n).unwrap_or(u16::MAX)
}

/// Saturating `usize` → `u8` for single-byte length prefixes.
pub fn sat_u8(n: usize) -> u8 {
    u8::try_from(n).unwrap_or(u8::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_track_offsets() {
        let data = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06];
        let mut c = ByteCursor::new(&data, WireProtocol::Mongo);
        assert_eq!(c.u8().unwrap(), 0x01);
        assert_eq!(c.u16_be().unwrap(), 0x0203);
        assert_eq!(c.offset(), 3);
        assert_eq!(c.remaining(), 3);
        let err = c.u32_le().unwrap_err();
        assert_eq!(err.offset, 3);
        assert!(matches!(
            err.kind,
            WireErrorKind::Truncated {
                needed: 4,
                available: 3
            }
        ));
        // a failed read consumes nothing
        assert_eq!(c.remaining(), 3);
    }

    #[test]
    fn base_offset_is_reported() {
        let data = [0u8; 2];
        let mut c = ByteCursor::with_base(&data, WireProtocol::Tds, 8);
        c.skip(2).unwrap();
        assert_eq!(c.offset(), 10);
        assert_eq!(c.u8().unwrap_err().offset, 10);
    }

    #[test]
    fn cstring_reads() {
        let data = b"user\0pa\xffss\0trailing";
        let mut c = ByteCursor::new(data, WireProtocol::Pgwire);
        assert_eq!(c.cstring_lossy().unwrap(), "user");
        assert_eq!(c.cstring_lossy().unwrap(), "pa\u{fffd}ss");
        let err = c.cstring_lossy().unwrap_err();
        assert!(matches!(
            err.kind,
            WireErrorKind::Unterminated { what: "cstring" }
        ));
    }

    #[test]
    fn checked_len_bounds() {
        let c = ByteCursor::new(&[], WireProtocol::Bson);
        assert_eq!(c.checked_len(5, 10).unwrap(), 5);
        assert!(c.checked_len(-1, 10).is_err());
        assert!(c.checked_len(11, 10).is_err());
        assert_eq!(c.checked_len(0, 0).unwrap(), 0);
    }

    #[test]
    fn rest_and_empty() {
        let data = [1u8, 2, 3];
        let mut c = ByteCursor::new(&data, WireProtocol::Resp);
        c.u8().unwrap();
        assert_eq!(c.rest(), &[2, 3]);
        assert!(c.is_empty());
        assert_eq!(c.rest(), &[] as &[u8]);
    }

    #[test]
    fn saturating_conversions() {
        assert_eq!(sat_u32(7), 7);
        assert_eq!(sat_u32(usize::MAX), u32::MAX);
        assert_eq!(sat_i32(usize::MAX), i32::MAX);
        assert_eq!(sat_u16(70_000), u16::MAX);
        assert_eq!(sat_u8(300), u8::MAX);
    }
}
