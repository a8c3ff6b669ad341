//! Property tests for the wire-path buffer pool (`decoy-net::pool`,
//! DESIGN.md §11): for arbitrary interleavings of checkouts and restores,
//!
//! * a checked-out buffer always has the requested writable capacity and is
//!   empty — restored bytes can never leak into a later session's buffer,
//! * the per-class retention caps hold, so a checkout burst can never pin
//!   unbounded memory in the pool, and
//! * the same invariants survive real thread-level concurrency.

use decoy_base::rng::{for_all, Rng};
use decoy_net::pool::{BufferPool, LARGE_CLASS, LARGE_RETAIN, SMALL_CLASS, SMALL_RETAIN};

/// One step of the pool workout.
#[derive(Debug, Clone)]
enum Op {
    /// Check a buffer out, write `fill` bytes into it, and keep it live.
    Checkout { min_capacity: usize, fill: usize },
    /// Restore the oldest live buffer (no-op when none are live).
    Restore,
}

/// Checkouts and restores, three to two.
fn arb_op(rng: &mut Rng) -> Op {
    if rng.gen_range(0..5) < 3 {
        Op::Checkout {
            min_capacity: rng.gen_range(0..3 * LARGE_CLASS),
            fill: rng.gen_range(0..256),
        }
    } else {
        Op::Restore
    }
}

/// Checkouts are always empty with enough capacity, dirty restores
/// never leak, and the retention caps hold at every step.
#[test]
fn pool_invariants_hold_for_any_interleaving() {
    let gen = |rng: &mut Rng| (0..rng.gen_range(0..64)).map(|_| arb_op(rng)).collect();
    for_all(0x9001, 256, gen, |ops: &Vec<Op>| {
        let pool = BufferPool::new();
        let mut live: Vec<Vec<u8>> = Vec::new();
        for op in ops {
            match *op {
                Op::Checkout { min_capacity, fill } => {
                    let mut buf = pool.checkout(min_capacity);
                    assert!(
                        buf.is_empty(),
                        "checkout returned {} stale bytes",
                        buf.len()
                    );
                    assert!(
                        buf.capacity() >= min_capacity,
                        "asked for {min_capacity}, got {}",
                        buf.capacity()
                    );
                    // dirty the buffer so a retention bug would be visible
                    // as stale bytes on the next checkout
                    buf.extend_from_slice(&vec![0xAB; fill]);
                    live.push(buf);
                }
                Op::Restore => {
                    if !live.is_empty() {
                        pool.restore(live.remove(0));
                    }
                }
            }
            let stats = pool.stats();
            assert!(
                stats.small <= SMALL_RETAIN,
                "small shelf over cap: {}",
                stats.small
            );
            assert!(
                stats.large <= LARGE_RETAIN,
                "large shelf over cap: {}",
                stats.large
            );
        }
    });
}

/// Guards restore on drop; a drained guard sequence leaves every
/// subsequent checkout empty regardless of what was written.
#[test]
fn guards_never_leak_written_bytes() {
    let gen = |rng: &mut Rng| -> Vec<usize> {
        (0..rng.gen_range(1..16))
            .map(|_| rng.gen_range(1..2048))
            .collect()
    };
    for_all(0x9002, 256, gen, |fills| {
        let pool = BufferPool::global();
        for &fill in fills {
            let mut g = pool.checkout_guarded(fill);
            g.extend_from_slice(&vec![0xCD; fill]);
            // dropped here: restored (or discarded) via the guard
        }
        let fresh = pool.checkout(SMALL_CLASS);
        assert!(fresh.is_empty());
        pool.restore(fresh);
    });
}

/// The mutex-guarded shelves under genuine contention: many threads
/// hammering checkout/restore must preserve the caps and the cleared-on-
/// checkout contract.
#[test]
fn pool_survives_thread_contention() {
    static POOL: BufferPool = BufferPool::new();
    std::thread::scope(|scope| {
        for worker in 0..8 {
            scope.spawn(move || {
                for round in 0..200 {
                    let size = match (worker + round) % 3 {
                        0 => 64,
                        1 => SMALL_CLASS + 1,
                        _ => LARGE_CLASS + 1,
                    };
                    let mut buf = POOL.checkout(size);
                    assert!(buf.is_empty(), "stale bytes under contention");
                    assert!(buf.capacity() >= size);
                    buf.extend_from_slice(b"contended write");
                    POOL.restore(buf);
                }
            });
        }
    });
    let stats = POOL.stats();
    assert!(stats.small <= SMALL_RETAIN);
    assert!(stats.large <= LARGE_RETAIN);
}
