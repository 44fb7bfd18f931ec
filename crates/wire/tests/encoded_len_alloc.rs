//! `encoded_len` measures without allocating: a counting sink, not a
//! `to_vec` whose buffer is thrown away. This file holds one test so that
//! nothing else in the process allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter does not touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[derive(Debug, PartialEq)]
struct Relay {
    to: u32,
    name: String,
    hops: Vec<u64>,
    payload: Vec<u8>,
}
beehive_wire::wire_struct!(Relay {
    to,
    name,
    hops,
    payload: bytes
});

fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATED.load(Ordering::Relaxed) - before)
}

#[test]
fn encoded_len_allocates_nothing() {
    let relay = Relay {
        to: 7,
        name: "macs".into(),
        hops: vec![1, 2, 3],
        payload: vec![0xAB; 16_384],
    };
    let (len, measuring) = allocated_by(|| beehive_wire::encoded_len(&relay).unwrap());
    let (buf, encoding) = allocated_by(|| beehive_wire::to_vec(&relay).unwrap());
    assert_eq!(len, buf.len());
    assert_eq!(measuring, 0, "encoded_len allocated {measuring} bytes");
    // The counter does see an encode's buffer.
    assert!(encoding >= 16_384);
}
