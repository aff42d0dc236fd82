//! The model cover: the queryable abstraction replacing raw tuples.
//!
//! "A model cover is defined as a set of models `M = {M₁..M_O}` that are
//! respectively responsible for modeling the sub-regions `R₁..R_O` of `R`"
//! (§2.1). The sub-regions are the Voronoi cells of the cluster centroids
//! `µ`; querying means finding the nearest centroid and evaluating its
//! model. A cover carries the validity horizon `t_n` so clients can cache it
//! (§2.3).

use crate::cluster::{nearest_centroid, AdKmn, AdKmnConfig};
use crate::model::{LinearModel, RegionModel};
use enviro_data::{Pollutant, Timestamp, Window};
use enviro_geo::Point;
use enviro_memsize::DeepSize;

/// One sub-region of a cover: centroid + model + training diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverRegion {
    /// The cluster centroid `µ_j` owning this Voronoi cell.
    pub centroid: Point,
    /// The model `M_j` for the cell.
    pub model: RegionModel,
    /// Training approximation error of `M_j` on its window tuples.
    pub training_error_percent: f64,
    /// Number of window tuples that trained this model.
    pub population: usize,
}

impl CoverRegion {
    /// Verifies what a region needs to answer queries: a finite centroid
    /// (a NaN centroid wins no nearest-centroid comparison and silently
    /// shadows its cell) and a model that passes
    /// [`RegionModel::check_invariants`]. The wire carries nothing else
    /// of a region, so a decoded cover is checked with exactly this.
    pub fn check_queryable(&self) -> Result<(), String> {
        if !self.centroid.is_finite() {
            return Err("non-finite centroid".into());
        }
        self.model.check_invariants()
    }
}

/// A complete model cover for one window: `(t_n, µ, M)` in the paper's
/// notation, plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCover {
    /// The pollutant the models predict.
    pub pollutant: Pollutant,
    /// The id `c` of the window `W_c` this cover was learned from.
    pub window_id: u64,
    /// The time `t_n` until which this cover is valid.
    pub valid_until: Timestamp,
    /// The regions, in centroid order.
    pub regions: Vec<CoverRegion>,
}

impl ModelCover {
    /// Number of models `O`.
    #[inline]
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// `true` when the cover holds no models (learned from an empty window).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// `true` if the cover may still serve queries at time `t`
    /// (the model-cache check `t_l < t_n`).
    ///
    /// The boundary is **exclusive**: `t_n` is the first instant the next
    /// window is responsible for, so a query at exactly `t_n` must refresh
    /// rather than be answered by the expiring cover (a cover whose window
    /// is `[t_0, t_n)` was trained on no data at `t_n`).
    #[inline]
    pub fn is_valid_at(&self, t: Timestamp) -> bool {
        t < self.valid_until
    }

    /// The index and region of the centroid nearest to `p` (ties: lowest
    /// index), or `None` for an empty cover.
    pub fn nearest_region(&self, p: &Point) -> Option<(usize, &CoverRegion)> {
        let i = nearest_centroid(self.regions.iter().map(|r| &r.centroid), p);
        self.regions.get(i).map(|r| (i, r))
    }

    /// Interpolates the sensor value at `(t, p)`: nearest centroid `µ*`,
    /// then `M*`'s prediction — the paper's model-cover query method.
    pub fn interpolate(&self, t: Timestamp, p: &Point) -> Option<f64> {
        self.nearest_region(p).map(|(_, r)| r.model.predict(t, p))
    }

    /// Worst training error across regions (0 for an empty cover).
    pub fn worst_training_error_percent(&self) -> f64 {
        self.regions
            .iter()
            .map(|r| r.training_error_percent)
            .fold(0.0, f64::max)
    }

    /// Verifies the cover's semantic invariants, returning the first
    /// violation found.
    ///
    /// A cover is what phones cache and query, so a malformed one must be
    /// caught at the factory ([`CoverBuilder`] checks this in debug
    /// builds), not discovered as NaN interpolations in the field:
    /// * every region passes [`CoverRegion::check_queryable`]: a finite
    ///   centroid and a model that satisfies its own numeric invariants;
    /// * every region was trained on at least one tuple (empty Voronoi
    ///   cells are dropped at assembly);
    /// * training errors are finite and non-negative.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, region) in self.regions.iter().enumerate() {
            region
                .check_queryable()
                .map_err(|e| format!("region {i}: {e}"))?;
            if region.population == 0 {
                return Err(format!("region {i}: no training tuples"));
            }
            if !region.training_error_percent.is_finite() || region.training_error_percent < 0.0 {
                return Err(format!(
                    "region {i}: bad training error {}",
                    region.training_error_percent
                ));
            }
        }
        Ok(())
    }
}

/// Model tags of the binary form.
const MEAN_TAG: u8 = 0;
const LINEAR_TAG: u8 = 1;
/// Bytes of the smallest encoded region: centroid, tag, a mean, training
/// error and population.
const MIN_REGION_BYTES: usize = 8 + 8 + 1 + 8 + 8 + 8;

impl ModelCover {
    /// Appends the cover's exact binary form to `out`; [`ModelCover::decode`]
    /// gives back a bit-identical cover. Little-endian, every `f64` as its
    /// raw bits:
    ///
    /// ```text
    /// u8 pollutant (index in Pollutant::ALL) ++ u64 window_id
    ///   ++ i64 valid_until ++ u32 region count ++ region*
    /// region = f64 centroid.x ++ f64 centroid.y ++ u8 model ++ coefficients
    ///   ++ f64 training_error_percent ++ u64 population
    /// ```
    ///
    /// where model 0 is a mean (one `f64`) and model 1 a linear model (its
    /// [`LinearModel::COEFFICIENT_COUNT`] coefficients, in
    /// [`LinearModel::to_coefficients`] order).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let pollutant = Pollutant::ALL
            .iter()
            .position(|&p| p == self.pollutant)
            .unwrap_or_default() as u8;
        out.push(pollutant);
        out.extend_from_slice(&self.window_id.to_le_bytes());
        out.extend_from_slice(&self.valid_until.as_secs().to_le_bytes());
        out.extend_from_slice(&(self.regions.len() as u32).to_le_bytes());
        let put = |out: &mut Vec<u8>, v: f64| out.extend_from_slice(&v.to_bits().to_le_bytes());
        for region in &self.regions {
            put(out, region.centroid.x);
            put(out, region.centroid.y);
            match &region.model {
                RegionModel::Mean(v) => {
                    out.push(MEAN_TAG);
                    put(out, *v);
                }
                RegionModel::Linear(m) => {
                    out.push(LINEAR_TAG);
                    for c in m.to_coefficients() {
                        put(out, c);
                    }
                }
            }
            put(out, region.training_error_percent);
            out.extend_from_slice(&(region.population as u64).to_le_bytes());
        }
    }

    /// Decodes the form [`ModelCover::encode_into`] writes; `None` unless
    /// `bytes` is exactly one well-formed cover.
    pub fn decode(bytes: &[u8]) -> Option<ModelCover> {
        let mut r = Reader(bytes);
        let pollutant = *Pollutant::ALL.get(usize::from(r.u8()?))?;
        let window_id = r.u64()?;
        let valid_until = Timestamp::from_secs(r.u64()? as i64);
        let count = r.u32()? as usize;
        if count > r.0.len() / MIN_REGION_BYTES {
            return None;
        }
        let mut regions = Vec::with_capacity(count);
        for _ in 0..count {
            let centroid = Point::new(r.f64()?, r.f64()?);
            let model = match r.u8()? {
                MEAN_TAG => RegionModel::Mean(r.f64()?),
                LINEAR_TAG => {
                    let mut c = [0.0; LinearModel::COEFFICIENT_COUNT];
                    for v in &mut c {
                        *v = r.f64()?;
                    }
                    RegionModel::Linear(LinearModel::from_coefficients(&c))
                }
                _ => return None,
            };
            regions.push(CoverRegion {
                centroid,
                model,
                training_error_percent: r.f64()?,
                population: usize::try_from(r.u64()?).ok()?,
            });
        }
        r.0.is_empty().then_some(ModelCover {
            pollutant,
            window_id,
            valid_until,
            regions,
        })
    }
}

/// A cursor over little-endian fields; every read is `None` past the end.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
}

impl DeepSize for ModelCover {
    fn heap_size(&self) -> usize {
        self.regions.capacity() * std::mem::size_of::<CoverRegion>()
            + self
                .regions
                .iter()
                .map(|r| r.model.heap_size())
                .sum::<usize>()
    }
}

/// Builds model covers from windows by running Ad-KMN.
#[derive(Debug, Clone)]
pub struct CoverBuilder {
    adkmn: AdKmn,
}

impl CoverBuilder {
    /// Creates a builder with the given Ad-KMN configuration.
    pub fn new(config: AdKmnConfig) -> Self {
        Self {
            adkmn: AdKmn::new(config),
        }
    }

    /// The Ad-KMN configuration in use.
    pub fn config(&self) -> &AdKmnConfig {
        self.adkmn.config()
    }

    /// Learns the cover for one window.
    ///
    /// Regions that end up with no members (possible when many tuples share
    /// one position) are dropped — an unpopulated Voronoi cell has no data
    /// behind its model and must not answer queries.
    pub fn build(&self, window: &Window<'_>, pollutant: Pollutant) -> ModelCover {
        let result = self.adkmn.run(window.tuples, pollutant);
        let mut population = vec![0usize; result.centroids.len()];
        for &a in &result.assignment {
            population[a] += 1;
        }
        // Sized to the populated regions: a collected `filter` would grow
        // to a power of two, and a cover stays resident for its window.
        let mut regions = Vec::with_capacity(population.iter().filter(|&&pop| pop > 0).count());
        regions.extend(
            result
                .centroids
                .iter()
                .zip(&result.models)
                .zip(&result.errors)
                .zip(&population)
                .filter(|&(_, &pop)| pop > 0)
                .map(|(((centroid, model), error), &pop)| CoverRegion {
                    centroid: *centroid,
                    model: model.clone(),
                    training_error_percent: error.percent(),
                    population: pop,
                }),
        );
        let cover = ModelCover {
            pollutant,
            window_id: window.id,
            valid_until: window.valid_until,
            regions,
        };
        debug_assert_eq!(cover.check_invariants(), Ok(()));
        cover
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviro_data::{Dataset, RawTuple, WindowSpec, Windows};

    fn tup(t: i64, x: f64, y: f64, v: f64) -> RawTuple {
        RawTuple::new(Timestamp::from_secs(t), Point::new(x, y), v)
    }

    fn window_dataset() -> Dataset {
        let mut tuples = Vec::new();
        for i in 0..60 {
            let x = (i % 10) as f64 * 100.0;
            let y = (i / 10) as f64 * 100.0;
            tuples.push(tup(i, x, y, 400.0 + 0.05 * x + 0.02 * y));
        }
        Dataset::from_tuples(Pollutant::Co2, tuples).unwrap()
    }

    fn build_cover(ds: &Dataset) -> ModelCover {
        let w = Windows::new(ds, WindowSpec::ByCount(ds.len()))
            .next()
            .unwrap();
        CoverBuilder::new(AdKmnConfig::default()).build(&w, Pollutant::Co2)
    }

    #[test]
    fn cover_from_window_has_models() {
        let ds = window_dataset();
        let cover = build_cover(&ds);
        assert!(!cover.is_empty());
        assert_eq!(cover.window_id, 0);
        assert!(cover.regions.iter().all(|r| r.population > 0));
    }

    #[test]
    fn a_built_cover_holds_no_spare_region_slots() {
        let cover = build_cover(&window_dataset());
        assert_eq!(cover.regions.capacity(), cover.len());
    }

    #[test]
    fn interpolation_close_to_truth_on_smooth_field() {
        let ds = window_dataset();
        let cover = build_cover(&ds);
        let p = Point::new(450.0, 250.0);
        let truth = 400.0 + 0.05 * 450.0 + 0.02 * 250.0;
        let got = cover.interpolate(Timestamp::from_secs(30), &p).unwrap();
        assert!((got - truth).abs() < 5.0, "{got} vs {truth}");
    }

    #[test]
    fn empty_window_gives_empty_cover() {
        let ds = Dataset::new(Pollutant::Co2);
        let w = Window {
            id: 3,
            tuples: ds.tuples(),
            valid_until: Timestamp::from_secs(100),
        };
        let cover = CoverBuilder::new(AdKmnConfig::default()).build(&w, Pollutant::Co2);
        assert!(cover.is_empty());
        assert_eq!(cover.interpolate(Timestamp::ZERO, &Point::origin()), None);
        assert!(cover.nearest_region(&Point::origin()).is_none());
    }

    #[test]
    fn validity_horizon_from_window() {
        let ds = window_dataset();
        let cover = build_cover(&ds);
        assert!(cover.is_valid_at(Timestamp::from_secs(0)));
        assert!(cover.is_valid_at(cover.valid_until + (-1)));
        // The paper defines validity as `t_l < t_n`: the horizon itself is
        // the first instant of the *next* window, so it must not be served
        // from this cover (regression test for the inclusive-boundary bug).
        assert!(!cover.is_valid_at(cover.valid_until));
        assert!(!cover.is_valid_at(cover.valid_until + 1));
    }

    #[test]
    fn nearest_region_is_actually_nearest() {
        let ds = window_dataset();
        let cover = build_cover(&ds);
        let q = Point::new(123.0, 456.0);
        let (idx, _) = cover.nearest_region(&q).unwrap();
        for (i, r) in cover.regions.iter().enumerate() {
            assert!(
                cover.regions[idx].centroid.distance_sq(&q) <= r.centroid.distance_sq(&q),
                "region {i} closer than chosen {idx}"
            );
        }
    }

    #[test]
    fn deep_size_scales_with_regions() {
        let ds = window_dataset();
        let cover = build_cover(&ds);
        let sz = cover.deep_size_of();
        assert!(sz >= cover.len() * std::mem::size_of::<CoverRegion>());
        // A model cover must be far smaller than the raw tuples it replaces.
        assert!(sz < ds.len() * std::mem::size_of::<RawTuple>() * 2);
    }

    /// The bytes of a cover's binary form.
    fn encoded(cover: &ModelCover) -> Vec<u8> {
        let mut out = Vec::new();
        cover.encode_into(&mut out);
        out
    }

    #[test]
    fn binary_form_roundtrips_bit_for_bit() {
        let mut cover = build_cover(&window_dataset());
        cover.pollutant = Pollutant::Pm25;
        cover.window_id = 7;
        cover.regions.push(CoverRegion {
            centroid: Point::new(-0.0, 1e-300),
            model: RegionModel::Mean(f64::MIN_POSITIVE),
            training_error_percent: 0.0,
            population: 1,
        });
        assert!(cover
            .regions
            .iter()
            .any(|r| matches!(r.model, RegionModel::Linear(_))));
        let bytes = encoded(&cover);
        let back = ModelCover::decode(&bytes).expect("decodes");
        assert_eq!(encoded(&back), bytes);
        assert_eq!(back, cover);
        assert_eq!(back.regions.capacity(), back.regions.len());
        let empty = ModelCover {
            regions: Vec::new(),
            ..cover
        };
        assert_eq!(ModelCover::decode(&encoded(&empty)), Some(empty));
    }

    #[test]
    fn malformed_binary_forms_decode_to_none() {
        let bytes = encoded(&build_cover(&window_dataset()));
        for cut in 0..bytes.len() {
            assert_eq!(ModelCover::decode(&bytes[..cut]), None, "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(ModelCover::decode(&trailing), None);
        let mut pollutant = bytes.clone();
        pollutant[0] = Pollutant::ALL.len() as u8;
        assert_eq!(ModelCover::decode(&pollutant), None);
        let mut tag = bytes.clone();
        tag[1 + 8 + 8 + 4 + 16] = 9; // the first region's model tag
        assert_eq!(ModelCover::decode(&tag), None);
        let mut count = bytes;
        count[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(ModelCover::decode(&count), None);
    }

    #[test]
    fn identical_position_window_single_populated_region() {
        let tuples: Vec<RawTuple> = (0..10).map(|i| tup(i, 5.0, 5.0, 400.0)).collect();
        let ds = Dataset::from_tuples(Pollutant::Co2, tuples).unwrap();
        let cover = build_cover(&ds);
        assert!(!cover.is_empty());
        assert!(cover.regions.iter().all(|r| r.population > 0));
        let got = cover
            .interpolate(Timestamp::from_secs(5), &Point::new(5.0, 5.0))
            .unwrap();
        assert!((got - 400.0).abs() < 1.0);
    }
}
