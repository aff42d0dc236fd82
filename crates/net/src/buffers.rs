//! Thread-local buffer recycling for the batched serving hot path.
//!
//! Batch frames carry `Vec`s of query tuples and values, and the protocol
//! types own those `Vec`s — a natural design that would cost two heap
//! allocations per frame. The server and clients instead *take* a warmed
//! buffer from their thread's pool before decoding and *recycle* it after
//! encoding, so a steady-state session thread reuses the same two buffers
//! for every frame it serves.
//!
//! Recycling is strictly an optimization: a buffer that is never recycled
//! (error path, early return) is simply dropped, and the next take falls
//! back to a fresh empty `Vec`.

use crate::protocol::MAX_BATCH;
use enviro_data::QueryTuple;
use std::cell::Cell;

thread_local! {
    static QUERIES: Cell<Vec<QueryTuple>> = const { Cell::new(Vec::new()) };
    static VALUES: Cell<Vec<Option<f64>>> = const { Cell::new(Vec::new()) };
}

/// Takes this thread's recycled query-tuple buffer (empty, but with its
/// previous capacity), or a fresh `Vec` when none is pooled.
pub fn take_queries() -> Vec<QueryTuple> {
    QUERIES.take()
}

/// Returns a query-tuple buffer to this thread's pool for the next
/// [`take_queries`]. Buffers above [`MAX_BATCH`] capacity are dropped to
/// bound pooled memory.
pub fn recycle_queries(mut buf: Vec<QueryTuple>) {
    buf.clear();
    if buf.capacity() <= MAX_BATCH {
        QUERIES.set(buf);
    }
}

/// Takes this thread's recycled value buffer (empty, but with its previous
/// capacity), or a fresh `Vec` when none is pooled.
pub fn take_values() -> Vec<Option<f64>> {
    VALUES.take()
}

/// Returns a value buffer to this thread's pool for the next
/// [`take_values`]. Buffers above [`MAX_BATCH`] capacity are dropped to
/// bound pooled memory.
pub fn recycle_values(mut buf: Vec<Option<f64>>) {
    buf.clear();
    if buf.capacity() <= MAX_BATCH {
        VALUES.set(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviro_data::Timestamp;
    use enviro_geo::Point;

    #[test]
    fn recycled_capacity_is_reused() {
        let mut q = take_queries();
        q.reserve(128);
        let cap = q.capacity();
        let ptr = q.as_ptr();
        recycle_queries(q);
        let q2 = take_queries();
        assert!(q2.is_empty());
        assert_eq!(q2.capacity(), cap);
        assert_eq!(q2.as_ptr(), ptr, "same allocation must come back");
    }

    #[test]
    fn recycle_clears_contents() {
        let mut q = take_queries();
        q.push(QueryTuple::new(Timestamp::ZERO, Point::origin()));
        recycle_queries(q);
        assert!(take_queries().is_empty());
    }

    #[test]
    fn oversized_buffers_are_dropped() {
        let mut v = take_values();
        v.reserve(MAX_BATCH + 1);
        let big = v.capacity();
        recycle_values(v);
        assert!(take_values().capacity() < big);
    }

    #[test]
    fn nested_take_yields_fresh_buffer() {
        let a = take_queries();
        let b = take_queries(); // pool is empty now; must not panic
        assert!(b.is_empty());
        recycle_queries(a);
        recycle_queries(b);
    }
}
