//! Golden fitted covers: every window of a fixed simulated dataset must
//! produce bit-for-bit the same regions, centroids and model coefficients.
//!
//! The digest covers each region's centroid, model coefficients, training
//! error and population, so any change in the order or rounding of the
//! Ad-KMN or regression arithmetic shows up here. If a change is *meant* to
//! move the fit, re-record the expected values and say so in the change log.
//!
//! Re-pinning these covers also requires bumping `COVER_FRAME_VERSION` in
//! `enviro_net::ingest`: an ingesting server restarts from the covers its
//! sealed window files hold, so without the bump an upgraded server would
//! keep serving covers fitted by the old algorithm.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{LausanneSim, SimConfig, WindowSpec, Windows};
use enviro_meter::{AdKmnConfig, CoverBuilder, RegionModel};

/// 64-bit FNV-1a, written out because std's `DefaultHasher` is not stable
/// across Rust releases.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }
}

#[test]
fn fitted_covers_match_the_recorded_digest() {
    let sim = LausanneSim::lausanne(SimConfig {
        duration_secs: 12 * 3600,
        seed: 11,
        ..SimConfig::default()
    });
    let dataset = sim.generate();
    let builder = CoverBuilder::new(AdKmnConfig::default());

    let mut hash = Fnv1a::new();
    let (mut windows, mut regions, mut linear) = (0usize, 0usize, 0usize);
    for window in Windows::new(&dataset, WindowSpec::ByCount(240)) {
        let cover = builder.build(&window, dataset.pollutant());
        windows += 1;
        hash.write_u64(cover.window_id);
        hash.write_u64(cover.len() as u64);
        for region in &cover.regions {
            regions += 1;
            hash.write_f64(region.centroid.x);
            hash.write_f64(region.centroid.y);
            hash.write_f64(region.training_error_percent);
            hash.write_u64(region.population as u64);
            match &region.model {
                RegionModel::Linear(m) => {
                    linear += 1;
                    m.to_coefficients().iter().for_each(|&c| hash.write_f64(c));
                }
                RegionModel::Mean(v) => hash.write_f64(*v),
            }
        }
    }

    assert_eq!((windows, regions, linear), (6, 26, 26), "cover shape");
    assert_eq!(
        hash.0, 0xb2d9_7eb3_8e19_6822,
        "cover digest {:#018x}",
        hash.0
    );
}
