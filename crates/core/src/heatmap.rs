//! Heatmap visualization — the web interface's third mode (§3).
//!
//! "The emitting points are the centroids computed by the Ad-KMN algorithm
//! with its pollution level. The points are colored in a scale going from
//! acceptable (green) to dangerous to human health (red)." The builder
//! evaluates a model cover at every cell center of a uniform grid; the
//! result renders to a PPM image or an ASCII preview.

use crate::cover::ModelCover;
use enviro_data::{Pollutant, Timestamp};
use enviro_geo::{BoundingBox, Grid, Point};

/// A computed heatmap: one interpolated value per grid cell.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// The grid geometry.
    pub grid: Grid,
    /// The evaluation time.
    pub time: Timestamp,
    /// The pollutant rendered.
    pub pollutant: Pollutant,
    /// Interpolated value per cell, row-major ([`Grid::flat_index`] order).
    pub values: Vec<f64>,
    /// Centroid positions and their local pollution level (the "emitting
    /// points" drawn on the web map).
    pub emitters: Vec<(Point, f64)>,
}

/// Builds heatmaps from model covers.
#[derive(Debug, Clone)]
pub struct HeatmapBuilder {
    cols: u32,
    rows: u32,
}

impl HeatmapBuilder {
    /// A builder producing `cols × rows` heatmaps.
    pub fn new(cols: u32, rows: u32) -> Self {
        assert!(cols > 0 && rows > 0, "heatmap needs at least one cell");
        Self { cols, rows }
    }

    /// Evaluates `cover` over `extent` at time `t`.
    ///
    /// Returns `None` for an empty cover (nothing to render).
    pub fn build(&self, cover: &ModelCover, extent: BoundingBox, t: Timestamp) -> Option<Heatmap> {
        if cover.is_empty() || extent.is_empty() {
            return None;
        }
        let grid = Grid::new(extent, self.cols, self.rows);
        let mut values = Vec::with_capacity(grid.len());
        for cell in grid.iter_cells() {
            let center = grid.cell_center(cell);
            values.push(
                cover
                    .interpolate(t, &center)
                    .expect("non-empty cover answers everywhere"),
            );
        }
        let emitters = cover
            .regions
            .iter()
            .map(|r| {
                let level = r.model.predict(t, &r.centroid);
                (r.centroid, level)
            })
            .collect();
        Some(Heatmap {
            grid,
            time: t,
            pollutant: cover.pollutant,
            values,
            emitters,
        })
    }
}

impl Heatmap {
    /// The value range `(min, max)` over the map.
    pub fn value_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// The green→red color of a value on this map's scale.
    ///
    /// Colors interpolate hue from green (map minimum) through yellow to
    /// red (map maximum), matching the web UI's scale.
    pub fn color_of(&self, value: f64) -> (u8, u8, u8) {
        color_in(value, self.value_range())
    }

    /// Renders the heatmap to a binary PPM (P6) image, one pixel per cell,
    /// north up (row 0 of the image is the northernmost grid row).
    pub fn to_ppm(&self) -> Vec<u8> {
        let (w, h) = (self.grid.cols(), self.grid.rows());
        let range = self.value_range();
        let mut out = format!("P6\n{w} {h}\n255\n").into_bytes();
        out.reserve(self.values.len() * 3);
        for row in (0..h).rev() {
            for col in 0..w {
                let idx = self.grid.flat_index(enviro_geo::CellId::new(col, row));
                let (r, g, b) = color_in(self.values[idx], range);
                out.extend_from_slice(&[r, g, b]);
            }
        }
        out
    }

    /// Renders an ASCII preview: one character per cell, `.`→`#` by
    /// intensity, north up. Useful for terminal demos and tests.
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b".:-=+*%@#";
        let (lo, hi) = self.value_range();
        let span = (hi - lo).max(1e-12);
        let (w, h) = (self.grid.cols(), self.grid.rows());
        let mut out = String::with_capacity((w as usize + 1) * h as usize);
        for row in (0..h).rev() {
            for col in 0..w {
                let idx = self.grid.flat_index(enviro_geo::CellId::new(col, row));
                let t = ((self.values[idx] - lo) / span).clamp(0.0, 1.0);
                let ci = ((t * (RAMP.len() - 1) as f64).round()) as usize;
                out.push(RAMP[ci] as char);
            }
            out.push('\n');
        }
        out
    }
}

/// The green → yellow → red color of `value` on the scale `(lo, hi)`.
fn color_in(value: f64, (lo, hi): (f64, f64)) -> (u8, u8, u8) {
    let t = if hi > lo {
        ((value - lo) / (hi - lo)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    if t < 0.5 {
        let k = t * 2.0;
        (((k * 255.0) as u8), 200, 40)
    } else {
        let k = (t - 0.5) * 2.0;
        (255, ((1.0 - k) * 200.0) as u8, 40)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::AdKmnConfig;
    use crate::cover::CoverBuilder;
    use enviro_data::{Dataset, RawTuple, WindowSpec, Windows};

    fn gradient_cover() -> ModelCover {
        // Values rise eastwards: the heatmap must be brighter on the right.
        let tuples: Vec<RawTuple> = (0..100)
            .map(|i| {
                let x = (i % 10) as f64 * 100.0;
                let y = (i / 10) as f64 * 100.0;
                RawTuple::new(Timestamp::from_secs(i), Point::new(x, y), 400.0 + 0.5 * x)
            })
            .collect();
        let ds = Dataset::from_tuples(Pollutant::Co2, tuples).unwrap();
        let w = Windows::new(&ds, WindowSpec::ByCount(100)).next().unwrap();
        CoverBuilder::new(AdKmnConfig::default()).build(&w, Pollutant::Co2)
    }

    fn extent() -> BoundingBox {
        BoundingBox::new(Point::new(0.0, 0.0), Point::new(900.0, 900.0))
    }

    #[test]
    fn build_fills_every_cell() {
        let hm = HeatmapBuilder::new(16, 12)
            .build(&gradient_cover(), extent(), Timestamp::from_secs(50))
            .unwrap();
        assert_eq!(hm.values.len(), 16 * 12);
        assert!(hm.values.iter().all(|v| v.is_finite()));
        assert!(!hm.emitters.is_empty());
    }

    #[test]
    fn empty_cover_gives_none() {
        let cover = ModelCover {
            pollutant: Pollutant::Co2,
            window_id: 0,
            valid_until: Timestamp::ZERO,
            regions: Vec::new(),
        };
        assert!(HeatmapBuilder::new(4, 4)
            .build(&cover, extent(), Timestamp::ZERO)
            .is_none());
    }

    #[test]
    fn gradient_shows_in_values() {
        let hm = HeatmapBuilder::new(10, 10)
            .build(&gradient_cover(), extent(), Timestamp::from_secs(50))
            .unwrap();
        // Mean of the west column vs the east column.
        let west: f64 = (0..10)
            .map(|row| hm.values[hm.grid.flat_index(enviro_geo::CellId::new(0, row))])
            .sum::<f64>()
            / 10.0;
        let east: f64 = (0..10)
            .map(|row| hm.values[hm.grid.flat_index(enviro_geo::CellId::new(9, row))])
            .sum::<f64>()
            / 10.0;
        assert!(east > west + 100.0, "east {east} vs west {west}");
    }

    #[test]
    fn ppm_header_and_size() {
        let hm = HeatmapBuilder::new(8, 6)
            .build(&gradient_cover(), extent(), Timestamp::from_secs(0))
            .unwrap();
        let ppm = hm.to_ppm();
        let header = b"P6\n8 6\n255\n";
        assert_eq!(&ppm[..header.len()], header);
        assert_eq!(ppm.len(), header.len() + 8 * 6 * 3);
    }

    #[test]
    fn a_large_ppm_reads_its_scale_once() {
        // 2^20 cells, each value its flat index: the south-west cell is the
        // minimum and the north-east cell the maximum. Reading the scale
        // per pixel would take 2^40 comparisons.
        let (w, h) = (1024u32, 1024u32);
        let grid = Grid::new(extent(), w, h);
        let hm = Heatmap {
            values: (0..grid.len()).map(|i| i as f64).collect(),
            grid,
            time: Timestamp::ZERO,
            pollutant: Pollutant::Co2,
            emitters: Vec::new(),
        };
        let ppm = hm.to_ppm();
        let header = b"P6\n1024 1024\n255\n";
        assert_eq!(&ppm[..header.len()], header);
        assert_eq!(ppm.len(), header.len() + 3 * 1024 * 1024);
        let pixel = |row: usize, col: usize| {
            let at = header.len() + 3 * (row * w as usize + col);
            (ppm[at], ppm[at + 1], ppm[at + 2])
        };
        // Image row 0 is the northernmost grid row.
        assert_eq!(pixel(h as usize - 1, 0), (0, 200, 40), "minimum is green");
        assert_eq!(pixel(0, w as usize - 1), (255, 0, 40), "maximum is red");
    }

    #[test]
    fn color_scale_endpoints() {
        let hm = HeatmapBuilder::new(4, 4)
            .build(&gradient_cover(), extent(), Timestamp::from_secs(0))
            .unwrap();
        let (lo, hi) = hm.value_range();
        let (r_lo, g_lo, _) = hm.color_of(lo);
        let (r_hi, g_hi, _) = hm.color_of(hi);
        assert!(g_lo > r_lo, "minimum is green");
        assert!(r_hi > g_hi, "maximum is red");
    }

    #[test]
    fn ascii_has_grid_shape() {
        let hm = HeatmapBuilder::new(12, 5)
            .build(&gradient_cover(), extent(), Timestamp::from_secs(0))
            .unwrap();
        let text = hm.to_ascii();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines.iter().all(|l| l.chars().count() == 12));
        // Gradient rises eastwards: last char of a row should be "denser"
        // than the first.
        assert_ne!(lines[2].chars().next(), lines[2].chars().last());
    }

    #[test]
    fn value_range_is_tight() {
        let hm = HeatmapBuilder::new(6, 6)
            .build(&gradient_cover(), extent(), Timestamp::from_secs(0))
            .unwrap();
        let (lo, hi) = hm.value_range();
        assert!(hm.values.iter().all(|&v| v >= lo && v <= hi));
        assert!(hi > lo);
    }
}
