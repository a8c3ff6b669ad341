//! The byte buffers of the wire path, std only. [`Bytes`] is shared
//! storage plus a range, cloned and sliced without a copy. [`RecvBuf`] is
//! a read buffer whose [`split_to`](RecvBuf::split_to) hands frames out as
//! views of its own storage. It writes into that storage again once no
//! frame holds it; while a live frame does, the next read first moves only
//! the unconsumed bytes to fresh storage. Encoders write into a `Vec<u8>`.

// decoy-hot-path: file -- every inbound byte is buffered here and every frame is split from it

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable view of shared bytes; cloning and slicing share storage.
#[derive(Clone, Default)]
pub struct Bytes {
    store: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// A view of a copy of `bytes`.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        // decoy-lint: allow(alloc-to-vec) -- the copy is this constructor's contract
        Bytes::from(bytes.to_vec())
    }

    /// A view of a copy of static bytes.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// The bytes of `range` (clamped to this view), sharing storage.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        let end = range.end.min(self.len());
        Bytes {
            store: Arc::clone(&self.store),
            start: self.start.saturating_add(range.start.min(end)),
            end: self.start.saturating_add(end),
        }
    }

    /// The view of `subset`, a slice borrowed from this view, sharing
    /// storage. A slice from elsewhere is copied.
    pub fn slice_ref(&self, subset: &[u8]) -> Bytes {
        let from = (subset.as_ptr() as usize).wrapping_sub(self.as_ptr() as usize);
        match from.checked_add(subset.len()) {
            Some(to) if to <= self.len() => self.slice(from..to),
            _ => Bytes::copy_from_slice(subset),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.store.get(self.start..self.end).unwrap_or_default()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.escape_ascii())
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            store: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

/// A connection's read buffer: a view of the received, unconsumed bytes,
/// whose storage past the view's end is spare room for the next read.
/// `RecvBuf::from(vec)` holds `vec` unconsumed, its spare capacity kept.
#[derive(Default)]
pub struct RecvBuf(Bytes);

impl RecvBuf {
    /// At least `min` writable bytes after the received ones, to read into
    /// and then [`commit`](Self::commit).
    pub fn spare(&mut self, min: usize) -> &mut [u8] {
        let view = &mut self.0;
        let len = view.len();
        if Arc::strong_count(&view.store) > 1 {
            // A live frame holds the storage: only the unconsumed bytes move.
            // decoy-lint: allow(alloc-vec) -- fresh storage, needed only while a frame holds the old
            let mut fresh = Vec::with_capacity(len.saturating_add(min));
            fresh.extend_from_slice(view);
            *view = Bytes::from(fresh);
        }
        let store = Arc::make_mut(&mut view.store);
        if view.start > 0 && store.len().saturating_sub(view.end) < min {
            store.copy_within(view.start..view.end, 0);
            (view.start, view.end) = (0, len);
        }
        let want = view.end.saturating_add(min);
        if store.len() < want {
            store.resize(want.max(store.capacity()), 0);
        }
        store.get_mut(view.end..).unwrap_or_default()
    }

    /// Mark `n` bytes of the last [`spare`](Self::spare) slice as received.
    pub fn commit(&mut self, n: usize) {
        self.0.end = self.0.end.saturating_add(n).min(self.0.store.len());
    }

    /// Append a copy of `bytes`.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        if let Some(dst) = self.spare(bytes.len()).get_mut(..bytes.len()) {
            dst.copy_from_slice(bytes);
        }
        self.commit(bytes.len());
    }

    /// Consume the first `n` bytes (at most all of them).
    pub fn advance(&mut self, n: usize) {
        self.0.start = self.0.start.saturating_add(n).min(self.0.end);
    }

    /// Consume the first `n` bytes (at most all of them) and return them as
    /// a view of this buffer's storage.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        let frame = self.0.slice(0..n);
        self.0.start = frame.end;
        frame
    }
}

impl Deref for RecvBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for RecvBuf {
    fn from(v: Vec<u8>) -> Self {
        RecvBuf(Bytes::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_base::rng::{for_all, Rng};

    /// Random extend / spare+commit / split / advance sequences, keeping
    /// and dropping frames, leave the unconsumed bytes and every kept
    /// frame equal to a `Vec<u8>` oracle's.
    #[test]
    fn matches_a_vec_oracle_under_any_op_sequence() {
        let op = |r: &mut Rng| (r.gen_range(0..5), r.gen_range(0..100), r.gen_bool(0.5));
        let gen = |r: &mut Rng| (0..r.gen_range(0..64)).map(|_| op(r)).collect::<Vec<_>>();
        for_all(0xB0F0_0001, 2_000, gen, |ops| {
            let (mut buf, mut oracle, mut kept) = (RecvBuf::default(), Vec::new(), Vec::new());
            for (i, &(kind, n, keep)) in ops.iter().enumerate() {
                let bytes: Vec<u8> = (0..n).map(|j| (i * 31 + j) as u8).collect();
                let part = if keep { n } else { n / 2 };
                match kind {
                    0 => {
                        buf.extend_from_slice(&bytes);
                        oracle.extend_from_slice(&bytes);
                    }
                    1 => {
                        let spare = buf.spare(n);
                        assert!(spare.len() >= n, "asked for {n}, got {}", spare.len());
                        spare[..part].copy_from_slice(&bytes[..part]);
                        buf.commit(part);
                        oracle.extend_from_slice(&bytes[..part]);
                    }
                    2 => {
                        let frame = buf.split_to(n);
                        let expect: Vec<u8> = oracle.drain(..n.min(oracle.len())).collect();
                        assert_eq!(*frame, *expect);
                        if keep {
                            kept.push((frame, expect));
                        }
                    }
                    3 => {
                        buf.advance(n);
                        oracle.drain(..n.min(oracle.len()));
                    }
                    _ => kept.clear(),
                }
                assert_eq!(*buf, *oracle);
                assert!(kept.iter().all(|(frame, expect)| **frame == **expect));
            }
        });
    }

    /// A split frame is a view of the buffer's storage, not a copy. While
    /// it lives, a read moves only the unconsumed bytes; once no frame
    /// holds the storage, the buffer writes into it again.
    #[test]
    fn split_frames_share_the_buffer_storage() {
        let mut buf = RecvBuf::from(Vec::with_capacity(64));
        buf.extend_from_slice(b"header|payload|rest");
        let base = buf.as_ptr();
        let (head, payload) = (buf.split_to(7), buf.split_to(8));
        let inner = payload.slice_ref(&payload[1..4]);
        assert_eq!(head.as_ptr(), base);
        assert_eq!(payload.as_ptr(), base.wrapping_add(7));
        assert_eq!(inner.as_ptr(), base.wrapping_add(8));
        assert_ne!(payload.slice_ref(b"ayl").as_ptr(), inner.as_ptr(), "copied");
        assert_eq!(*Bytes::from("0123").slice(2..9), *b"23");
        buf.extend_from_slice(b"!"); // frames hold the storage: "rest" moves
        assert_ne!(buf.as_ptr(), base.wrapping_add(15));
        assert_eq!(
            (&*buf, &*head, &*inner),
            (&b"rest!"[..], &b"header|"[..], &b"ayl"[..])
        );
        drop((head, payload, inner)); // released: the next read reuses it
        let fresh = buf.as_ptr();
        buf.advance(5);
        buf.extend_from_slice(b"xyz");
        assert_eq!((buf.as_ptr(), &*buf), (fresh, &b"xyz"[..]));
        assert_eq!(format!("{:?}", Bytes::from("a\0")), "b\"a\\x00\"");
    }
}
