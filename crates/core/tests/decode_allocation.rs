//! Decoders bound their allocations by the bytes they were given.
//!
//! A counting global allocator records the largest single allocation made on
//! the test's own thread while a crafted payload is decoded. Each payload
//! claims as many elements as it has bytes left — the most the length check
//! admits — so any up-front reservation of `len × size_of::<T>()` shows up as
//! an allocation far larger than the input.

use recon_base::wire::{write_uvarint, Decode};
use recon_sos::cascading::CascadingDigest;
use recon_sos::multiround::ChildPatch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct LargestAllocation;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// Slack for the decoders' fixed-size bookkeeping.
const SLACK: usize = 4096;

/// `prefix`, then a sequence length claiming nearly every byte still to
/// come, then zeros up to `total` bytes.
fn crafted(prefix: &[u8], total: usize) -> Vec<u8> {
    let mut bytes = prefix.to_vec();
    // Leave room for the length's own uvarint (at most 4 bytes here), so
    // the claim passes the decoder's length-versus-remaining-bytes check.
    let claim = total - prefix.len() - 4;
    let mut len = Vec::new();
    write_uvarint(&mut len, claim as u64);
    bytes.extend_from_slice(&len);
    bytes.resize(total, 0);
    bytes
}

/// Decode `input` as `T` and return the largest single allocation made.
fn largest_allocation_decoding<T: Decode>(input: &[u8]) -> usize {
    LARGEST.with(|largest| largest.set(0));
    let decoded = T::from_bytes(input);
    let largest = LARGEST.with(Cell::get);
    assert!(decoded.is_err(), "the crafted payload is garbage after its header");
    largest
}

#[test]
fn crafted_sequence_lengths_allocate_no_more_than_the_input() {
    let total = 64 << 10;
    // `CascadingDigest`: diff_bound = 0, then a `levels` length claiming
    // ~64 Ki tables of `size_of::<Iblt>()` in-memory bytes each.
    let cascading = crafted(&[0], total);
    let largest = largest_allocation_decoding::<CascadingDigest>(&cascading);
    assert!(largest <= total + SLACK, "CascadingDigest: {largest} bytes from a {total}-byte input");

    // The multi-round protocol's final round: a bare `Vec<ChildPatch>`.
    let patches = crafted(&[], total);
    let largest = largest_allocation_decoding::<Vec<ChildPatch>>(&patches);
    assert!(largest <= total + SLACK, "Vec<ChildPatch>: {largest} bytes from a {total}-byte input");
}
