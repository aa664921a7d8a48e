//! The fast-tier simulator's zero-allocation contract.
//!
//! `SimScratch` promises that once its buffers have grown to the largest
//! problem size and lane count seen, further `simulate_time` and
//! `simulate_time_lanes` calls perform **zero** heap allocations. This file
//! installs a counting global allocator (so it must stay its own
//! integration-test binary) and measures the fast path directly. Counting
//! and the count itself are const-initialised thread-locals, so the test
//! harness's own threads (which allocate freely) and the other test never
//! pollute a measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use autopipe_sim::analytic::{
    simulate_time, simulate_time_lanes, simulate_time_masked, OverlapModel, SimScratch, LANES,
};
use autopipe_sim::StageCosts;

thread_local! {
    /// True only inside this thread's measurement window.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn record() {
    if COUNTING.with(|c| c.get()) {
        ALLOCS.with(|a| a.set(a.get() + 1));
    }
}

/// Allocations `f` makes on the calling thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(|a| a.get())
}

/// `System`, with every allocation and reallocation on a measuring thread
/// counted.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// An 8-stage pipeline with distinct stage times, scaled by `scale`.
fn big(scale: f64) -> StageCosts {
    StageCosts::new(
        (0..8).map(|x| scale * (1.0 + 0.13 * x as f64)).collect(),
        (0..8).map(|x| scale * (2.0 + 0.07 * x as f64)).collect(),
        3e-3,
    )
}

#[test]
fn simulate_time_is_allocation_free_after_warmup() {
    let m = 16;
    let costs = big(1.0);
    let small = StageCosts::new(vec![1.0, 2.5], vec![2.0, 3.5], 1e-3);

    let mut scratch = SimScratch::new();
    // Warmup: the first call at the largest problem size grows the buffers.
    let reference = simulate_time(&costs, m, &mut scratch);

    let mut sink = 0.0;
    let counted = allocations_in(|| {
        for _ in 0..100 {
            // Same-size calls and strictly smaller ones both fit the warmed
            // buffers; none of them may touch the allocator.
            sink += simulate_time(&costs, m, &mut scratch).iteration_time;
            sink += simulate_time(&small, 4, &mut scratch).iteration_time;
        }
    });

    assert_eq!(
        counted, 0,
        "fast path allocated {counted} times after warmup"
    );
    assert!(sink > 0.0);
    // And the warmed-up runs still compute the same answer.
    let again = simulate_time(&costs, m, &mut scratch);
    assert_eq!(again, reference);
}

#[test]
fn multi_lane_sweep_is_allocation_free_after_warmup() {
    let m = 16;
    let group = [big(1.0), big(1.1), big(0.9), big(1.0)];
    let small = StageCosts::new(vec![1.0, 2.5], vec![2.0, 3.5], 1e-3);
    let mask = [true, false, true, false, false, true, false, true];
    let ov = OverlapModel {
        latency: 1e-3,
        chunks: 4,
    };
    let masks = std::array::from_fn(|l| (l % 2 == 0).then_some(&mask[..]));

    let mut scratch = SimScratch::new();
    // Warmup: the largest problem at the full lane count, in the overlapped
    // mode that sizes the arrival buffers too.
    let reference = simulate_time_lanes(group.each_ref(), m, &mut scratch, Some(&ov), masks);

    let mut sink = 0.0;
    let counted = allocations_in(|| {
        for _ in 0..100 {
            // Full lanes in every mode, a re-key to a smaller problem, and
            // the one-lane sweep over the same scratch.
            for r in simulate_time_lanes(group.each_ref(), m, &mut scratch, Some(&ov), masks) {
                sink += r.iteration_time;
            }
            for r in simulate_time_lanes(group.each_ref(), m, &mut scratch, None, [None; LANES]) {
                sink += r.iteration_time;
            }
            let smalls = [&small; LANES];
            for r in simulate_time_lanes(smalls, 4, &mut scratch, Some(&ov), [None; LANES]) {
                sink += r.iteration_time;
            }
            sink += simulate_time_masked(&small, 3, &mut scratch, None, None).iteration_time;
        }
    });

    assert_eq!(
        counted, 0,
        "multi-lane sweep allocated {counted} times after warmup"
    );
    assert!(sink > 0.0);
    let again = simulate_time_lanes(group.each_ref(), m, &mut scratch, Some(&ov), masks);
    assert_eq!(again, reference);
}
