//! A small thread-safe buffer pool for the wire hot path.
//!
//! Every session owns a read and a write buffer for its whole lifetime; at
//! 100k+ sessions/min the allocator churn of creating and dropping those
//! buffers per connection is measurable. [`BufferPool`] keeps cleared
//! `Vec<u8>` buffers in two size classes and hands them back out on the
//! next checkout. The pool is intentionally simple:
//!
//! * **Two size classes.** [`SMALL_CLASS`] (4 KiB) covers session framing
//!   buffers; [`LARGE_CLASS`] (64 KiB) covers HTTP bodies and other bulk
//!   payloads. Requests larger than the large class bypass the pool.
//! * **Bounded retention.** Each class retains at most a fixed number of
//!   buffers ([`SMALL_RETAIN`] / [`LARGE_RETAIN`]); beyond that, restored
//!   buffers are simply dropped, so a burst cannot pin memory forever.
//! * **No poisoning propagation.** The pool is a cache: its shelves are
//!   [`decoy_base::sync::Mutex`]es, so a panic mid-push elsewhere cannot
//!   take down every session that shares the pool.
//!
//! [`PooledBuf`] is the RAII face of the pool used by
//! [`crate::framed::Framed`] for its write buffer: it derefs to `Vec<u8>`
//! and restores the buffer on drop. The critical section is a `Vec`
//! push/pop, far below contention concern. (The read side needs no pool:
//! a `decoy_wire::buf::RecvBuf` reuses its own storage once no frame
//! holds it.)

use decoy_base::sync::Mutex;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

/// Capacity of a small-class buffer: one session framing buffer.
pub const SMALL_CLASS: usize = 4 * 1024;
/// Capacity of a large-class buffer: an HTTP body or bulk payload staging
/// area.
pub const LARGE_CLASS: usize = 64 * 1024;
/// Small buffers retained across checkouts (two per session at the fleet's
/// default connection cap).
pub const SMALL_RETAIN: usize = 1024;
/// Large buffers retained across checkouts.
pub const LARGE_RETAIN: usize = 64;

/// A thread-safe pool of reusable `Vec<u8>` buffers in two size classes.
pub struct BufferPool {
    small: Mutex<Vec<Vec<u8>>>,
    large: Mutex<Vec<Vec<u8>>>,
}

/// Counts of buffers currently resting in the pool, for tests and
/// observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers resting in the small class.
    pub small: usize,
    /// Buffers resting in the large class.
    pub large: usize,
}

impl BufferPool {
    /// An empty pool.
    pub const fn new() -> Self {
        BufferPool {
            small: Mutex::new(Vec::new()),
            large: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide pool shared by [`crate::framed::Framed`] and the
    /// honeypot session writers.
    pub fn global() -> &'static BufferPool {
        static GLOBAL: OnceLock<BufferPool> = OnceLock::new();
        GLOBAL.get_or_init(BufferPool::new)
    }

    /// Check out a cleared buffer with at least `min_capacity` writable
    /// bytes. Small requests are served from the small class, mid-size from
    /// the large class, and oversize requests get a fresh allocation (they
    /// will be dropped, not retained, on restore).
    pub fn checkout(&self, min_capacity: usize) -> Vec<u8> {
        let (class, cap) = if min_capacity <= SMALL_CLASS {
            (&self.small, SMALL_CLASS)
        } else if min_capacity <= LARGE_CLASS {
            (&self.large, LARGE_CLASS)
        } else {
            return Vec::with_capacity(min_capacity);
        };
        match class.lock().pop() {
            Some(mut buf) => {
                // A shelved buffer may hold as little as half its class.
                buf.reserve(cap);
                buf
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// Return `buf` to the pool. The buffer is cleared; it is retained only
    /// if its capacity still fits a class and the class shelf is not full.
    pub fn restore(&self, mut buf: Vec<u8>) {
        buf.clear();
        let cap = buf.capacity();
        // A buffer below half its class or grown past the large class is
        // not worth keeping.
        let (class, retain) = if (SMALL_CLASS / 2..LARGE_CLASS / 2).contains(&cap) {
            (&self.small, SMALL_RETAIN)
        } else if (LARGE_CLASS / 2..=2 * LARGE_CLASS).contains(&cap) {
            (&self.large, LARGE_RETAIN)
        } else {
            return;
        };
        let mut shelf = class.lock();
        if shelf.len() < retain {
            shelf.push(buf);
        }
    }

    /// Check out a buffer wrapped in an RAII guard that restores it to this
    /// pool on drop.
    pub fn checkout_guarded(&'static self, min_capacity: usize) -> PooledBuf {
        PooledBuf {
            buf: self.checkout(min_capacity),
            pool: self,
        }
    }

    /// Buffers currently resting in the pool.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            small: self.small.lock().len(),
            large: self.large.lock().len(),
        }
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new()
    }
}

/// A `Vec<u8>` checked out of a [`BufferPool`], restored on drop.
///
/// Derefs to `Vec<u8>` so codec and I/O code is oblivious to pooling.
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: &'static BufferPool,
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        self.pool.restore(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_restore_reuses_buffers() {
        let pool = BufferPool::new();
        let mut a = pool.checkout(100);
        assert!(a.capacity() >= SMALL_CLASS);
        a.extend_from_slice(b"dirty bytes");
        pool.restore(a);
        assert_eq!(pool.stats(), PoolStats { small: 1, large: 0 });
        let b = pool.checkout(100);
        assert!(b.is_empty(), "restored buffers are cleared");
        assert_eq!(pool.stats(), PoolStats { small: 0, large: 0 });
    }

    #[test]
    fn size_classes_route_requests() {
        let pool = BufferPool::new();
        let small = pool.checkout(SMALL_CLASS);
        let large = pool.checkout(SMALL_CLASS + 1);
        assert!(small.capacity() >= SMALL_CLASS);
        assert!(large.capacity() >= LARGE_CLASS);
        pool.restore(small);
        pool.restore(large);
        assert_eq!(pool.stats(), PoolStats { small: 1, large: 1 });
    }

    #[test]
    fn oversize_requests_bypass_the_pool() {
        let pool = BufferPool::new();
        let huge = pool.checkout(4 * LARGE_CLASS);
        assert!(huge.capacity() >= 4 * LARGE_CLASS);
        pool.restore(huge);
        assert_eq!(pool.stats(), PoolStats { small: 0, large: 0 });
    }

    #[test]
    fn retention_is_capped() {
        let pool = BufferPool::new();
        let bufs: Vec<Vec<u8>> = (0..LARGE_RETAIN + 10)
            .map(|_| pool.checkout(LARGE_CLASS))
            .collect();
        for b in bufs {
            pool.restore(b);
        }
        assert_eq!(pool.stats().large, LARGE_RETAIN);
    }

    #[test]
    fn guard_restores_on_drop() {
        let pool = BufferPool::global();
        let before = pool.stats().small;
        {
            let mut g = pool.checkout_guarded(64);
            g.extend_from_slice(b"abc");
        }
        assert!(pool.stats().small > before || pool.stats().small == SMALL_RETAIN);
    }
}
