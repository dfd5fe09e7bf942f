//! Allocation shape: a log recycles the AppendEntries lists it builds, a
//! client payload is one allocation, an empty list costs none, and a log's
//! slot tail allocates one block per block of slots it ever needs at once.
//!
//! An AppendEntries list is its admitted entries cloned into a buffer the
//! log keeps a handle to. Once every earlier list has dropped, the next one
//! is written into a pooled buffer and costs no allocator call, whether the
//! range is dense or has holes; one collected while an earlier list is held
//! gets a new buffer (its handle and its storage) and leaves the held list
//! as it was. A client payload collected from an exact-length iterator is
//! one `Bytes` allocation. This test counts the calls of each construction
//! exactly, so a list that allocates in steady state, or a second copy,
//! shows as a failure here rather than as a drift in `perf`'s per-op
//! averages.
//!
//! The slot tail keeps its entries in fixed blocks of [`BLOCK`] slots and
//! reuses the blocks compaction empties, so growing a log costs one call
//! per block (plus the growth of its block table), and a log whose
//! append→compact cycles repeat one shape allocates nothing after its
//! first cycle.
//!
//! Own test binary, own `#[global_allocator]`, and the calls are counted
//! per thread: nothing else allocates on a test's thread while a
//! construction is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use bytes::Bytes;
use wire::{
    AppendBudget, EntryId, LogEntry, LogIndex, NodeId, SessionId, SparseLog, Term,
    MAX_BYTES_PER_APPEND,
};

thread_local! {
    /// This thread's allocator calls (`alloc` + `realloc`, `perf`'s rule).
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Slots per block of `SparseLog`'s slot tail (`BLOCK` in `log.rs`).
const BLOCK: u64 = 128;

fn count_call() {
    // `try_with`: the allocator may run while the thread is shutting down.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is the only addition.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `build` and returns its result with the allocator calls it made.
/// The result is dropped by the caller, outside the count.
fn counted<T>(build: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = build();
    (out, CALLS.with(Cell::get) - before)
}

fn entry(seq: u64) -> LogEntry {
    LogEntry::write(
        Term(1),
        EntryId::new(NodeId(1), seq),
        SessionId::client(1),
        seq,
        Bytes::from_static(b"sixty-four bytes of client payload, more or less, for the budget"),
    )
}

#[test]
fn a_list_buffer_is_recycled_once_no_list_holds_it() {
    // 2,000 contiguous entries, sixteen blocks of slots.
    let mut log = SparseLog::new();
    for seq in 1..=2_000 {
        log.append(entry(seq));
    }
    let budget = AppendBudget::new(64, MAX_BYTES_PER_APPEND);
    let at = |from: u64, to: u64| (LogIndex(from), LogIndex(to));

    let (from, to) = at(1_500, 2_000);
    let (dense, calls) = counted(|| log.collect_range_budgeted(from, to, budget));
    assert_eq!(dense.len(), 64);
    assert_eq!(
        calls, 3,
        "the first list: its handle, its storage, the pool"
    );
    let buffer = dense.as_ptr();
    drop(dense);

    for hole in [1_502, 1_510, 1_577] {
        log.remove(LogIndex(hole));
    }
    let (gapped, calls) = counted(|| log.collect_range_budgeted(from, to, budget));
    assert_eq!(gapped.len(), 64);
    assert_eq!(gapped[2].0, LogIndex(1_503), "holes are skipped");
    assert_eq!(calls, 0, "with every earlier list dropped, a list is free");
    assert_eq!(gapped.as_ptr(), buffer, "in the same buffer");

    // Held: the next list takes a buffer of its own, and the held one keeps
    // its contents and its allocation.
    let held = gapped.to_vec();
    let (from, to) = at(10, 2_000);
    let (deep, calls) = counted(|| log.collect_range_budgeted(from, to, budget));
    assert_eq!((deep.len(), deep[0].0), (64, LogIndex(10)));
    assert_eq!(
        calls, 2,
        "a list beside a held one: its handle, its storage"
    );
    assert_eq!((gapped.as_slice(), gapped.as_ptr()), (&held[..], buffer));
    assert_ne!(deep.as_ptr(), buffer);

    for (from, to) in [at(2_001, 3_000), at(1_502, 1_502), at(7, 6)] {
        let (empty, calls) = counted(|| log.collect_range_budgeted(from, to, budget));
        assert!(empty.is_empty());
        assert_eq!(calls, 0, "an empty list allocates nothing");
    }
    drop((gapped, deep));

    // A leader whose every dispatch is in flight until the next one: two
    // buffers take turns, and no dispatch allocates.
    let mut in_flight = log.collect_range_budgeted(from, to, budget);
    for step in 0..100 {
        let (from, to) = at(10 + step, 2_000);
        let (next, calls) = counted(|| log.collect_range_budgeted(from, to, budget));
        assert_eq!((next.len(), next[0].0), (64, from));
        assert_eq!(calls, 0, "dispatch {step} reuses a buffer");
        in_flight = next;
    }
    assert_eq!(in_flight[0].0, LogIndex(109));
}

#[test]
fn an_exact_length_payload_is_one_allocation() {
    let key = 0x1234_5678_9abc_def0_u64.to_be_bytes();
    let (payload, calls) = counted(|| {
        key.into_iter()
            .chain(std::iter::repeat(0))
            .take(512)
            .collect::<Bytes>()
    });
    assert_eq!((payload.len(), &payload[..8]), (512, &key[..]));
    assert_eq!(calls, 1, "an exact-length payload is one allocation");
}

#[test]
fn growing_a_log_allocates_one_block_per_block_of_slots() {
    for n in [
        1,
        2,
        BLOCK - 1,
        BLOCK,
        BLOCK + 1,
        1_000,
        1_200,
        2_000,
        5_000,
    ] {
        let entries: Vec<LogEntry> = (1..=n).map(entry).collect();
        let mut log = SparseLog::new();
        let ((), calls) = counted(|| {
            for e in entries {
                log.append(e);
            }
        });
        assert_eq!(log.len() as u64, n);
        // The block table is a deque of one pointer per block; a deque of
        // `usize` grown to the same length makes the same calls.
        let blocks = n.div_ceil(BLOCK);
        let mut table = VecDeque::new();
        let ((), table_calls) = counted(|| (0..blocks).for_each(|b| table.push_back(b)));
        assert_eq!(
            calls,
            blocks + table_calls,
            "{n} entries: one call per {BLOCK}-slot block, plus the block table's"
        );
    }
}

#[test]
fn a_compacting_log_allocates_nothing_after_its_first_cycle() {
    // Like a replica's log: compaction keeps a short tail (half a block)
    // and each cycle appends seven blocks' worth on top of it, so every
    // compaction empties seven blocks at once into the pool.
    let mut seq = 0;
    let mut batch = |n: u64| -> Vec<LogEntry> {
        (0..n)
            .map(|_| {
                seq += 1;
                entry(seq)
            })
            .collect()
    };
    let mut log = SparseLog::new();
    for e in batch(BLOCK / 2) {
        log.append(e);
    }
    for cycle in 0..5 {
        let entries = batch(7 * BLOCK);
        let ((), calls) = counted(|| {
            for e in entries {
                log.append(e);
            }
            log.compact_to(LogIndex(log.last_index().as_u64() - BLOCK / 2));
        });
        assert_eq!(log.len() as u64, BLOCK / 2);
        if cycle == 0 {
            assert!(calls >= 7, "the first cycle allocates the blocks");
        } else {
            assert_eq!(calls, 0, "cycle {cycle} reuses the pooled blocks");
        }
    }
}
