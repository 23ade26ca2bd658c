//! Hostile-bytes fuzz for the summary decoder under an allocation cap:
//! no single heap request made while decoding may exceed what the input
//! length can justify.
//!
//! A length-prefixed decoder that trusts its count (`Vec::with_capacity`
//! on a raw `u32`) asks for gigabytes on one flipped byte. On a host
//! with memory overcommit that reservation succeeds virtually and the
//! bug hides; here a counting global allocator refuses any request over
//! the cap, so the regression fails loudly on every host. The cap is
//! armed per thread, so the test harness's own allocations on other
//! threads are never judged. This file holds a single test (the
//! `alloc_discipline.rs` idiom).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use xmlest::core::{summary, Summaries, SummaryConfig};
use xmlest::prelude::*;

struct CappedAllocator;

thread_local! {
    /// Largest single request allowed on this thread (`usize::MAX` =
    /// unarmed). Const-initialized and drop-free, so reading it inside
    /// the allocator never allocates.
    static CAP: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Size of the largest request refused so far (0 = none).
static REFUSED: AtomicUsize = AtomicUsize::new(0);
/// Size of the largest request granted while a cap was armed.
static LARGEST_ARMED: AtomicUsize = AtomicUsize::new(0);

impl CappedAllocator {
    /// Whether a request of `size` bytes may proceed on this thread.
    fn admit(size: usize) -> bool {
        let cap = CAP.with(Cell::get);
        if cap == usize::MAX {
            return true;
        }
        if size > cap {
            REFUSED.fetch_max(size, Ordering::SeqCst);
            return false;
        }
        LARGEST_ARMED.fetch_max(size, Ordering::SeqCst);
        true
    }
}

// SAFETY: pass-through to `System` for every admitted request; a
// refused request returns null, which the GlobalAlloc contract permits
// (the caller then reports an allocation failure).
unsafe impl GlobalAlloc for CappedAllocator {
    // SAFETY: caller upholds GlobalAlloc's layout contract; the same
    // layout is forwarded to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !Self::admit(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller guarantees `ptr` came from this allocator with
    // `layout`; `System` performed the original allocation.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` pair is the one `System.alloc` returned.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller guarantees `ptr`/`layout` describe a live System
    // allocation and `new_size` is valid per the GlobalAlloc contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !Self::admit(new_size) {
            return std::ptr::null_mut();
        }
        // SAFETY: forwarded verbatim; `System` owns the allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CappedAllocator = CappedAllocator;

/// Decodes `bytes` with this thread's allocation cap armed at a small
/// multiple of the input length: every structure the decoder builds is
/// bounded by the bytes it consumed (a grid boundary is 4 bytes, a
/// level count 8, a histogram's CSR offsets one per grid row).
fn decode_capped(bytes: &[u8]) {
    let cap = 4 * bytes.len() + 4096;
    CAP.with(|c| c.set(cap));
    let _ = summary::from_bytes(bytes);
    CAP.with(|c| c.set(usize::MAX));
}

#[test]
fn hostile_summary_bytes_never_over_allocate() {
    let tree = xmlest::datagen::example::fig1_tree();
    let mut catalog = Catalog::new();
    catalog.define_all_tags(&tree);
    let summaries = Summaries::build(&tree, &catalog, &SummaryConfig::paper_defaults()).unwrap();
    let bytes = summary::to_bytes(&summaries);

    // The intact stream decodes under the cap (the cap is not so tight
    // that honest input trips it).
    decode_capped(&bytes);
    assert_eq!(REFUSED.load(Ordering::SeqCst), 0, "honest input refused");
    assert!(
        LARGEST_ARMED.load(Ordering::SeqCst) > 0,
        "cap was never armed"
    );

    let mut cases = 0usize;
    // Every 32-bit window overwritten with huge and moderate counts: a
    // length prefix anywhere in the stream claims far more elements
    // than the input holds.
    for i in 0..bytes.len().saturating_sub(3) {
        for claim in [u32::MAX, 0x7FFF_FFFF, 0x0100_0000, 0x0001_0000] {
            let mut bad = bytes.clone();
            bad[i..i + 4].copy_from_slice(&claim.to_le_bytes());
            decode_capped(&bad);
            cases += 1;
        }
    }
    // Every single-byte flip, and every truncation.
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xFF;
        decode_capped(&bad);
        decode_capped(&bytes[..i]);
        cases += 2;
    }
    assert_eq!(
        REFUSED.load(Ordering::SeqCst),
        0,
        "a decoder requested more than the input length justifies"
    );
    assert!(cases > 4 * bytes.len());
}
