//! The header-only parse allocates nothing for an accepted line whose
//! source is already interned — the property the streaming ingest
//! path's per-line cost rests on. A counting global allocator sees
//! every allocation in this test binary, which holds this one test so
//! no other test thread allocates while it counts.

use sclog_parse::LogReader;
use sclog_types::SystemId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counter is
// a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn accepted_headers_allocate_nothing() {
    let cases = [
        (
            SystemId::Liberty,
            "Dec 12 00:00:01 ln1 pbs_mom: task_check, cannot tm_reply to 9 task 1",
        ),
        (
            SystemId::BlueGeneL,
            "2005-06-03-15.42.50.363779 R02-M1-N0-C:J12-U11 RAS KERNEL INFO cache parity error",
        ),
        (
            SystemId::RedStorm,
            "EV 1142800000 c3-0c1s4n2 ec_heartbeat_stop src:::c3-0c1s4n2 warn",
        ),
        (
            SystemId::RedStorm,
            "Mar 19 10:00:00 nid00042 CRIT kernel: LustreError: timeout",
        ),
    ];
    for (system, line) in cases {
        let mut reader = LogReader::for_system(system);
        // The first sight of a source interns its name; that may
        // allocate. Every later line from the same source must not.
        assert!(reader.push_header(line).is_some(), "{line}");
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..100 {
            assert!(reader.push_header(line).is_some());
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocs, 0,
            "{system:?}: {allocs} allocations in 100 header parses"
        );
        assert_eq!(reader.stats().parsed, 101);
    }
}
