//! Allocation budget of the AuLang front end: the set-up of the
//! `corpus_cycle` benchmark workload, which parses the nine corpus
//! programs, compiles each for Selective tracing and untraced, and builds
//! the static graph and filter behind the extraction pre-pass.
//!
//! Allocation counts repeat exactly from run to run, so they guard the
//! front end's cost without timing noise: each step may allocate at most
//! 5 % more than it was measured to, and the whole set-up must stay under
//! 1,400 allocations, well below the 3,611 it made before expressions
//! moved into one arena per program and the static facts were built once.
//! `analyze` and `StaticFilter::new` only copy rows out of facts a
//! Selective compile already built, so together they stay under 15
//! allocations a program: walking the AST again, or allocating per edge,
//! fails that.

use autonomizer::lang::{compile_program, corpus, parse, static_analysis, TraceMode};
use autonomizer::trace::StaticFilter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations and reallocations
/// made on each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made on this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Each step's allocations over the nine corpus programs, as measured.
const MEASURED: [(&str, u64); 5] = [
    ("parse", 272),
    ("compile_program Selective", 615),
    ("compile_program Off", 337),
    ("static_analysis::analyze", 90),
    ("StaticFilter::new", 36),
];

/// The ceiling on the whole set-up's allocations.
const TOTAL_BUDGET: u64 = 1_400;

/// The ceiling on `analyze` plus `StaticFilter::new`, per program.
const STATIC_PER_PROGRAM: u64 = 15;

/// Each step's allocations over the nine corpus programs, and the most
/// that `analyze` and `StaticFilter::new` made for one program.
fn front_end() -> ([u64; 5], u64) {
    let (mut counts, mut static_max) = ([0; 5], 0);
    for p in corpus::all() {
        let a0 = allocs();
        let program = parse(p.src).expect("corpus programs parse");
        let a1 = allocs();
        let traced = compile_program(&program, TraceMode::Selective);
        let a2 = allocs();
        let untraced = compile_program(&program, TraceMode::Off);
        let a3 = allocs();
        let db = static_analysis::analyze(&program);
        let a4 = allocs();
        let filter = StaticFilter::new(&db);
        let a5 = allocs();
        let marks = [a0, a1, a2, a3, a4, a5];
        static_max = static_max.max(a5 - a3);
        for (count, step) in counts.iter_mut().zip(marks.windows(2)) {
            *count += step[1] - step[0];
        }
        drop((program, traced, untraced, db, filter));
    }
    (counts, static_max)
}

#[test]
fn front_end_allocations_stay_within_budget() {
    // A first pass leaves out whatever the runtime allocates on first use.
    front_end();
    let (counts, static_max) = front_end();
    assert_eq!(
        (counts, static_max),
        front_end(),
        "allocation counts repeat"
    );
    for ((step, measured), got) in MEASURED.into_iter().zip(counts) {
        let budget = measured + measured / 20;
        assert!(
            got <= budget,
            "{step}: {got} allocations, budget {budget} ({measured} measured + 5 %)"
        );
    }
    let total: u64 = counts.iter().sum();
    assert!(
        total < TOTAL_BUDGET,
        "{total} allocations in all, not under {TOTAL_BUDGET}"
    );
    assert!(
        static_max < STATIC_PER_PROGRAM,
        "analyze and StaticFilter::new made {static_max} allocations for one program"
    );
}
