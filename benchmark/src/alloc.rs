//! The counting global allocator behind `allocs_per_job` and
//! `alloc_kb_per_job`.
//!
//! The engine and the server run inside the benchmark process, so one
//! `#[global_allocator]` sees every heap request they make. Counters are
//! sharded per thread, so a test can read its own thread's shard while
//! other tests allocate; a reading is the sum of the shards — exact once
//! the counted threads are quiescent, which is when the slice boundaries
//! read it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SHARDS: usize = 64;

#[repr(align(128))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Shard = Shard {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static COUNTS: [Shard; SHARDS] = [EMPTY; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and `Drop`-free, so touching it from inside the
    // allocator neither allocates nor registers a destructor.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn count(bytes: usize) {
    // `try_with` fails only while a thread's locals are being torn down;
    // those few requests land on shard 0.
    let shard = SHARD
        .try_with(|slot| {
            let mut s = slot.get();
            if s == usize::MAX {
                s = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
                slot.set(s);
            }
            s
        })
        .unwrap_or(0);
    // Relaxed: pure statistics, they publish no other data.
    COUNTS[shard].allocs.fetch_add(1, Ordering::Relaxed);
    COUNTS[shard]
        .bytes
        .fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Counts every allocation request and forwards it to the system
/// allocator. A `realloc` is one request of its new size.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// `(allocation requests, bytes requested)` since process start.
pub fn totals() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(a, b), s| {
        (
            a + s.allocs.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_known_pattern_is_counted_exactly() {
        // Other test threads allocate concurrently, so run the pattern on
        // a thread of its own and read that thread's shard alone.
        std::thread::spawn(|| {
            let v: Vec<u8> = Vec::with_capacity(1); // claims the shard
            drop(v);
            let shard = SHARD.with(Cell::get);
            let read = || {
                (
                    COUNTS[shard].allocs.load(Ordering::Relaxed),
                    COUNTS[shard].bytes.load(Ordering::Relaxed),
                )
            };
            let before = read();
            let a: Vec<u64> = Vec::with_capacity(100); // 1 request, 800 bytes
            let mut b: Vec<u8> = Vec::with_capacity(10); // 1 request, 10 bytes
            b.extend_from_slice(&[0; 10]);
            b.reserve_exact(90); // realloc: 1 request, 100 bytes
            let c = Box::new([0u8; 4096]); // 1 request, 4096 bytes
            let after = read();
            std::hint::black_box((&a, &b, &c));
            // Shards are shared modulo SHARDS only past 64 threads.
            assert_eq!(after.0 - before.0, 4);
            assert_eq!(after.1 - before.1, 800 + 10 + 100 + 4096);
        })
        .join()
        .unwrap();
    }
}
