//! Golden simulator output: fixed configurations must generate bit-for-bit
//! the same tuples, and `generate` must equal a plain sequential loop for
//! any tick count.
//!
//! The digest covers each tuple's time, position and value bits, so any
//! change to the draw order, the noise arithmetic, the field's operation
//! order or the way generation is split across threads shows up here.
//! Every paper figure, perfbench workload and golden cover rests on these
//! datasets; if a change is *meant* to move them, re-record the digests and
//! say so in the change log.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::sim::{lausanne_bus_lines, lausanne_co2_field};
use enviro_data::{
    Dataset, LausanneSim, Pollutant, PollutionField, RawTuple, SimConfig, Timestamp,
};
use enviro_geo::Point;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// The tuple count and digest of a dataset.
fn digest(dataset: &Dataset) -> (usize, u64) {
    let mut hash = Fnv1a::new();
    for t in dataset.tuples() {
        hash.write_u64(t.time.as_secs() as u64);
        hash.write_f64(t.pos.x);
        hash.write_f64(t.pos.y);
        hash.write_f64(t.value);
    }
    (dataset.len(), hash.0)
}

/// The CO₂ scenario at 60 s over `ticks` ticks, on the first `lines` lines.
fn ticks_sim(ticks: i64, lines: usize, seed: u64) -> LausanneSim {
    let config = SimConfig {
        duration_secs: ticks * 60,
        sampling_interval_secs: 60,
        seed,
        ..SimConfig::default()
    };
    let mut routes = lausanne_bus_lines();
    routes.truncate(lines);
    LausanneSim::new(config, routes, lausanne_co2_field())
}

/// perfbench's simulator: `days` days at 30 s.
fn perfbench_sim(seed: u64, days: i64) -> LausanneSim {
    LausanneSim::lausanne(SimConfig {
        duration_secs: days * 86_400,
        sampling_interval_secs: 30,
        seed,
        ..SimConfig::default()
    })
}

fn check(name: &str, sim: &LausanneSim, expected: (usize, u64)) {
    let got = digest(&sim.generate());
    assert_eq!(got, expected, "{name}: (len, digest {:#018x})", got.1);
}

#[test]
fn paper_scale_dataset_matches_the_recorded_digest() {
    check(
        "paper_scale(0)",
        &LausanneSim::lausanne(SimConfig::paper_scale(0)),
        (172_800, 0x0251_a6ef_11e2_8610),
    );
}

#[test]
fn perfbench_histories_match_the_recorded_digests() {
    check(
        "30 days, seed 3",
        &perfbench_sim(3, 30),
        (172_800, 0x0f9f_4505_e97d_21cc),
    );
    check(
        "14 days, seed 11",
        &perfbench_sim(11, 14),
        (80_640, 0x1bc7_c0f8_3841_bd14),
    );
}

#[test]
fn pollutant_scenarios_match_the_recorded_digests() {
    let week = SimConfig::default();
    for (pollutant, expected) in [
        (Pollutant::Co, (20_160, 0xde05_dc91_17c2_5693)),
        (Pollutant::Pm25, (20_160, 0xcf1d_ce8a_7730_6dcf)),
        (Pollutant::No2, (20_160, 0xbf54_6266_e142_c2c1)),
    ] {
        let sim = LausanneSim::lausanne_for(pollutant, week.clone());
        check(&format!("{pollutant:?}"), &sim, expected);
    }
}

#[test]
fn odd_tick_counts_match_the_recorded_digests() {
    for (ticks, lines, expected) in [
        (1, 1, (1, 0x6a6a_b418_3ae8_5fe7)),
        (1, 2, (2, 0xba29_73cb_57de_5a33)),
        (1_001, 1, (1_001, 0xcb01_6808_ad3c_c7e3)),
        (1_001, 2, (2_002, 0x456e_ae64_73c1_e7a9)),
        (10_007, 1, (10_007, 0xeef5_306e_d3b8_ebcf)),
        (10_007, 2, (20_014, 0x8e65_5db6_1f3f_a2ec)),
    ] {
        check(
            &format!("{ticks} ticks, {lines} lines"),
            &ticks_sim(ticks, lines, 5),
            expected,
        );
    }
}

/// Box–Muller over two uniform draws, as the simulator draws its noise.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The generator as one sequential stream: per tick, per line, GPS noise
/// in x then y, then sensor noise on the field's value at the true position.
fn sequential(sim: &LausanneSim) -> Vec<RawTuple> {
    let config = sim.config();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let ticks = config.duration_secs / config.sampling_interval_secs;
    let mut tuples = Vec::new();
    for k in 0..ticks {
        let t = Timestamp::from_secs(k * config.sampling_interval_secs);
        for line in sim.lines() {
            let true_pos = line.position_at(t);
            let pos = Point::new(
                true_pos.x + gaussian(&mut rng) * config.gps_noise_std,
                true_pos.y + gaussian(&mut rng) * config.gps_noise_std,
            );
            let value =
                sim.field().value(t, &true_pos) + gaussian(&mut rng) * config.sensor_noise_std;
            tuples.push(RawTuple::new(t, pos, value));
        }
    }
    tuples
}

fn bits(tuples: &[RawTuple]) -> Vec<(i64, u64, u64, u64)> {
    tuples
        .iter()
        .map(|t| {
            (
                t.time.as_secs(),
                t.pos.x.to_bits(),
                t.pos.y.to_bits(),
                t.value.to_bits(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generate_equals_the_sequential_stream(
        ticks in 1i64..12_000,
        lines in 1usize..3,
        seed in any::<u64>(),
    ) {
        let sim = ticks_sim(ticks, lines, seed);
        let dataset = sim.generate();
        prop_assert_eq!(bits(dataset.tuples()), bits(&sequential(&sim)));
    }
}
