//! [`DeepSize`] implementations for the geometric primitives.

use crate::{BoundingBox, CellId, Grid, Point, Polyline};
use enviro_memsize::DeepSize;

impl DeepSize for Point {
    #[inline]
    fn heap_size(&self) -> usize {
        0
    }
}

impl DeepSize for BoundingBox {
    #[inline]
    fn heap_size(&self) -> usize {
        0
    }
}

impl DeepSize for CellId {
    #[inline]
    fn heap_size(&self) -> usize {
        0
    }
}

impl DeepSize for Grid {
    #[inline]
    fn heap_size(&self) -> usize {
        0 // all fields inline
    }
}

impl DeepSize for Polyline {
    fn heap_size(&self) -> usize {
        // Vertices plus the cumulative-length table (same length).
        std::mem::size_of_val(self.vertices()) + self.vertices().len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_is_flat() {
        assert_eq!(Point::new(1.0, 2.0).deep_size_of(), 16);
    }

    #[test]
    fn polyline_counts_vertices_and_cumlen() {
        let pl = Polyline::new(vec![Point::origin(), Point::new(1.0, 0.0)]);
        assert_eq!(pl.heap_size(), 2 * 16 + 2 * 8);
    }
}
