//! Uniform grid decomposition of a bounding box.
//!
//! Two EnviroMeter components are grid-shaped: the *grid index* baseline in
//! `enviro-index` (bucketing raw tuples by cell) and the *heatmap service* in
//! `enviro-meter` (evaluating the model cover at cell centers). Both share
//! this geometry-only [`Grid`] type.

use crate::{BoundingBox, Point};

/// Identifier of a grid cell: column (`col`) and row (`row`) indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Zero-based column (west → east).
    pub col: u32,
    /// Zero-based row (south → north).
    pub row: u32,
}

impl CellId {
    /// Creates a cell id.
    pub const fn new(col: u32, row: u32) -> Self {
        Self { col, row }
    }
}

/// A uniform grid laid over a bounding box.
///
/// The extent is divided into `cols × rows` equal cells. Points on the shared
/// edge of two cells belong to the cell with the larger index, except on the
/// outer max edge, which is clamped inward so the whole closed extent maps to
/// a valid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    extent: BoundingBox,
    cols: u32,
    rows: u32,
    cell_w: f64,
    cell_h: f64,
}

impl Grid {
    /// Creates a grid with the given cell counts.
    ///
    /// # Panics
    /// Panics if `cols` or `rows` is zero or the extent is empty.
    pub fn new(extent: BoundingBox, cols: u32, rows: u32) -> Self {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        assert!(!extent.is_empty(), "grid extent must be non-empty");
        Self {
            extent,
            cols,
            rows,
            cell_w: extent.width() / cols as f64,
            cell_h: extent.height() / rows as f64,
        }
    }

    /// Creates a grid whose cells are approximately `cell_size` meters wide,
    /// covering `extent` (the last row/column may be narrower logically but
    /// the grid always spans the full extent with equal cells).
    pub fn with_cell_size(extent: BoundingBox, cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        let cols = (extent.width() / cell_size).ceil().max(1.0) as u32;
        let rows = (extent.height() / cell_size).ceil().max(1.0) as u32;
        Self::new(extent, cols, rows)
    }

    /// The covered extent.
    #[inline]
    pub fn extent(&self) -> &BoundingBox {
        &self.extent
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// Always `false`: a grid has at least one cell by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Maps a point to its cell, or `None` if outside the extent.
    pub fn cell_of(&self, p: &Point) -> Option<CellId> {
        if !self.extent.contains(p) {
            return None;
        }
        let col = ((p.x - self.extent.min.x) / self.cell_w) as u32;
        let row = ((p.y - self.extent.min.y) / self.cell_h) as u32;
        Some(CellId::new(col.min(self.cols - 1), row.min(self.rows - 1)))
    }

    /// Flattened index of a cell (row-major), for dense per-cell storage.
    #[inline]
    pub fn flat_index(&self, cell: CellId) -> usize {
        cell.row as usize * self.cols as usize + cell.col as usize
    }

    /// The bounding box of a cell.
    pub fn cell_bounds(&self, cell: CellId) -> BoundingBox {
        let min = Point::new(
            self.extent.min.x + cell.col as f64 * self.cell_w,
            self.extent.min.y + cell.row as f64 * self.cell_h,
        );
        BoundingBox::new(min, Point::new(min.x + self.cell_w, min.y + self.cell_h))
    }

    /// The center of a cell — the sample position used by the heatmap.
    pub fn cell_center(&self, cell: CellId) -> Point {
        Point::new(
            self.extent.min.x + (cell.col as f64 + 0.5) * self.cell_w,
            self.extent.min.y + (cell.row as f64 + 0.5) * self.cell_h,
        )
    }

    /// Visits every cell intersecting the disk of `radius` around `p`,
    /// without allocating.
    ///
    /// The visit is conservative at cell granularity: every visited cell's
    /// box intersects the disk; cells arrive in row-major order. This is
    /// the radius-scan primitive of the serving hot path, so it must not
    /// heap-allocate per call — collectors should go through
    /// [`Grid::cells_in_radius`] instead.
    pub fn for_each_cell_in_radius(&self, p: &Point, radius: f64, visit: &mut dyn FnMut(CellId)) {
        let lo_x = (p.x - radius).max(self.extent.min.x);
        let hi_x = (p.x + radius).min(self.extent.max.x);
        let lo_y = (p.y - radius).max(self.extent.min.y);
        let hi_y = (p.y + radius).min(self.extent.max.y);
        if lo_x > hi_x || lo_y > hi_y {
            return;
        }
        let c0 = (((lo_x - self.extent.min.x) / self.cell_w) as u32).min(self.cols - 1);
        let c1 = (((hi_x - self.extent.min.x) / self.cell_w) as u32).min(self.cols - 1);
        let r0 = (((lo_y - self.extent.min.y) / self.cell_h) as u32).min(self.rows - 1);
        let r1 = (((hi_y - self.extent.min.y) / self.cell_h) as u32).min(self.rows - 1);
        for row in r0..=r1 {
            for col in c0..=c1 {
                let cell = CellId::new(col, row);
                if self.cell_bounds(cell).intersects_circle(p, radius) {
                    visit(cell);
                }
            }
        }
    }

    /// Collects all cells intersecting the disk of `radius` around `p`.
    ///
    /// Allocating convenience over [`Grid::for_each_cell_in_radius`]; same
    /// conservative semantics and row-major order.
    pub fn cells_in_radius(&self, p: &Point, radius: f64) -> Vec<CellId> {
        let mut out = Vec::new();
        self.for_each_cell_in_radius(p, radius, &mut |cell| out.push(cell));
        out
    }

    /// Iterates over every cell id in row-major order.
    pub fn iter_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.rows).flat_map(move |row| (0..self.cols).map(move |col| CellId::new(col, row)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_10x10() -> Grid {
        Grid::new(
            BoundingBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            10,
            10,
        )
    }

    #[test]
    fn cell_of_interior_point() {
        let g = grid_10x10();
        assert_eq!(g.cell_of(&Point::new(5.0, 5.0)), Some(CellId::new(0, 0)));
        assert_eq!(g.cell_of(&Point::new(95.0, 15.0)), Some(CellId::new(9, 1)));
    }

    #[test]
    fn cell_of_outside_returns_none() {
        let g = grid_10x10();
        assert_eq!(g.cell_of(&Point::new(-0.1, 5.0)), None);
        assert_eq!(g.cell_of(&Point::new(5.0, 100.1)), None);
    }

    #[test]
    fn max_edge_clamps_to_last_cell() {
        let g = grid_10x10();
        assert_eq!(
            g.cell_of(&Point::new(100.0, 100.0)),
            Some(CellId::new(9, 9))
        );
    }

    #[test]
    fn shared_edge_belongs_to_higher_cell() {
        let g = grid_10x10();
        assert_eq!(g.cell_of(&Point::new(10.0, 0.0)), Some(CellId::new(1, 0)));
    }

    #[test]
    fn flat_index_roundtrip() {
        // Over every cell, the flat indices hit 0..len() once each.
        let g = grid_10x10();
        let mut hits = vec![0u32; g.len()];
        for cell in g.iter_cells() {
            hits[g.flat_index(cell)] += 1;
        }
        assert!(hits.iter().all(|&n| n == 1), "{hits:?}");
    }

    #[test]
    fn cell_bounds_tile_the_extent() {
        let g = grid_10x10();
        let total: f64 = g.iter_cells().map(|c| g.cell_bounds(c).area()).sum();
        assert!((total - g.extent().area()).abs() < 1e-6);
    }

    #[test]
    fn cell_center_is_inside_cell() {
        let g = grid_10x10();
        for c in g.iter_cells() {
            assert!(g.cell_bounds(c).contains(&g.cell_center(c)));
            assert_eq!(g.cell_of(&g.cell_center(c)), Some(c));
        }
    }

    #[test]
    fn with_cell_size_produces_expected_counts() {
        let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(95.0, 42.0));
        let g = Grid::with_cell_size(extent, 10.0);
        assert_eq!(g.cols(), 10);
        assert_eq!(g.rows(), 5);
    }

    #[test]
    fn cells_in_radius_conservative_cover() {
        let g = grid_10x10();
        let center = Point::new(50.0, 50.0);
        let cells = g.cells_in_radius(&center, 15.0);
        // Every cell whose box touches the circle must be present.
        for c in g.iter_cells() {
            let should = g.cell_bounds(c).intersects_circle(&center, 15.0);
            assert_eq!(cells.contains(&c), should, "cell {c:?}");
        }
    }

    #[test]
    fn cells_in_radius_far_outside_is_empty() {
        let g = grid_10x10();
        assert!(g
            .cells_in_radius(&Point::new(500.0, 500.0), 10.0)
            .is_empty());
    }

    #[test]
    fn cells_in_radius_zero_radius() {
        let g = grid_10x10();
        let cells = g.cells_in_radius(&Point::new(55.0, 55.0), 0.0);
        assert_eq!(cells, vec![CellId::new(5, 5)]);
    }

    #[test]
    fn iter_cells_counts_match() {
        let g = Grid::new(
            BoundingBox::new(Point::new(0.0, 0.0), Point::new(4.0, 3.0)),
            4,
            3,
        );
        assert_eq!(g.iter_cells().count(), 12);
        assert_eq!(g.len(), 12);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cols_panics() {
        Grid::new(
            BoundingBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
            0,
            3,
        );
    }
}
