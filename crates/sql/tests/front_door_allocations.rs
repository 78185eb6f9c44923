//! How often the SQL front door calls the allocator.
//!
//! Every request to the service that is not a repeat of a text already
//! served from the cache runs parse → canonicalize and print
//! (`canonical_form`, one walk). This test counts allocator calls
//! (`alloc`, `alloc_zeroed` and `realloc`) on the test's own thread,
//! over the benchmark's three main shapes, and holds each to the count
//! measured when canonicalization started printing each node once.
//! Timing gates flake on a shared machine; an allocation count does not.
//!
//! Measured counts (release and debug agree): before the front door
//! stopped copying tokens, trees and names; after that; and since the
//! canonical text is written by the canonicalizing walk itself and a
//! thread's token vector is reused from one parse to the next (so a
//! parse allocates only what its AST keeps):
//!
//! | shape | before | after | one walk |
//! |---|---|---|---|
//! | filter count | 128 | 39 | 32 |
//! | city histogram | 166 | 42 | 39 |
//! | three-way join | 276 | 66 | 59 |

use flex_sql::{canonical_form, parse_query};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls of one parse + owned canonicalize-and-print of `sql`.
fn front_door_calls(sql: &str) -> usize {
    let before = CALLS.with(Cell::get);
    let parsed = parse_query(sql).expect("benchmark SQL parses");
    let (_, key) = canonical_form(parsed);
    let after = CALLS.with(Cell::get);
    assert!(!key.is_empty());
    after - before
}

#[test]
fn the_front_door_allocates_no_more_than_measured() {
    // (shape, text as an analyst writes it, allocator calls measured).
    let shapes = [
        (
            "filter count",
            "SELECT COUNT(*) FROM trips WHERE city_id = 5 \
             AND trip_date BETWEEN '2016-03-01' AND '2016-03-30' \
             AND status = 'completed' AND fare > 12.34567",
            32,
        ),
        (
            "city histogram",
            "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
             WHERE t.trip_date BETWEEN '2016-03-01' AND '2016-03-30' \
             AND t.fare > 12.34567 GROUP BY c.name",
            39,
        ),
        (
            "three-way join",
            "SELECT COUNT(DISTINCT d.id) FROM trips t \
             JOIN drivers d ON t.driver_id = d.id JOIN cities c ON t.city_id = c.id \
             WHERE c.name = 'hong kong' AND t.status = 'completed' \
             AND d.city_id <> t.city_id AND t.fare > 42.99999",
            59,
        ),
    ];
    for (shape, sql, measured) in shapes {
        // The first call may pay for one-time setup; count the second.
        front_door_calls(sql);
        let calls = front_door_calls(sql);
        assert_eq!(calls, front_door_calls(sql), "{shape}: count is not stable");
        assert!(
            calls <= measured,
            "{shape}: {calls} allocator calls, more than the {measured} measured"
        );
    }
}
