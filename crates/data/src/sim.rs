//! The `lausanne-sim` community-sensing simulator.
//!
//! Substitutes for the proprietary OpenSense `lausanne-data` trace (see
//! DESIGN.md §2). Two public-transport buses drive fixed routes through a
//! Lausanne-like street plan, each sampling the ground-truth pollution field
//! at a fixed interval with sensor and GPS noise. The essential property the
//! paper's evaluation depends on — *geo-temporal skew*, i.e. data
//! concentrated along two bus corridors while most of the region is never
//! sampled — is reproduced by construction.

use crate::dataset::Dataset;
use crate::default_parallelism;
use crate::field::{DiurnalCycle, GaussianPlume, PollutionField, SyntheticField};
use crate::pollutant::Pollutant;
use crate::tuple::{QueryTuple, RawTuple, Timestamp};
use enviro_geo::{Point, Polyline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A bus line: a named route driven back and forth at constant speed.
#[derive(Debug, Clone)]
pub struct BusLine {
    /// Line name (for diagnostics).
    pub name: String,
    /// The route in the metric plane.
    pub route: Polyline,
    /// Cruise speed in meters per second.
    pub speed_mps: f64,
}

impl BusLine {
    /// The bus position at time `t`, ping-ponging along the route.
    pub fn position_at(&self, t: Timestamp) -> Point {
        let len = self.route.length();
        let travelled = self.speed_mps * t.as_secs_f64().max(0.0);
        // Fold the distance onto [0, 2·len) and reflect the second half.
        let cycle = travelled.rem_euclid(2.0 * len);
        let s = if cycle <= len {
            cycle
        } else {
            2.0 * len - cycle
        };
        self.route.point_at(s)
    }
}

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The monitored pollutant.
    pub pollutant: Pollutant,
    /// Total simulated duration in seconds.
    pub duration_secs: i64,
    /// Sampling interval per bus, in seconds (OpenSense: 60 s).
    pub sampling_interval_secs: i64,
    /// Standard deviation of additive sensor noise, in the pollutant unit.
    pub sensor_noise_std: f64,
    /// Standard deviation of GPS position noise, in meters.
    pub gps_noise_std: f64,
    /// RNG seed: equal seeds give bit-identical datasets.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            pollutant: Pollutant::Co2,
            duration_secs: 7 * 86_400, // one week
            sampling_interval_secs: 60,
            sensor_noise_std: 15.0, // ppm — typical NDIR CO₂ sensor
            gps_noise_std: 5.0,
            seed: 0x454E_5649, // "ENVI", arbitrary fixed default
        }
    }
}

impl SimConfig {
    /// The paper-scale configuration: ~173 K tuples ≈ the 176 K of
    /// `lausanne-data` (two buses, 30 days; we sample every 30 s where
    /// OpenSense's two buses produced 176 K over a month — the tuple
    /// *density along the corridors* is what matters for query processing).
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            duration_secs: 30 * 86_400,
            sampling_interval_secs: 30,
            seed,
            ..Self::default()
        }
    }
}

/// The Lausanne community-sensing simulator: bus lines + ground-truth field.
#[derive(Debug, Clone)]
pub struct LausanneSim {
    config: SimConfig,
    lines: Vec<BusLine>,
    field: SyntheticField,
}

impl LausanneSim {
    /// Builds a simulator with explicit lines and field.
    ///
    /// # Panics
    /// Panics if `lines` is empty, the duration or sampling interval is not
    /// positive, or a line cannot be driven: its route's length is zero or
    /// not finite, or its speed is not finite. The panic names the line.
    pub fn new(config: SimConfig, lines: Vec<BusLine>, field: SyntheticField) -> Self {
        assert!(!lines.is_empty(), "need at least one bus line");
        assert!(config.duration_secs > 0, "duration must be positive");
        assert!(
            config.sampling_interval_secs > 0,
            "sampling interval must be positive"
        );
        for line in &lines {
            let (len, speed) = (line.route.length(), line.speed_mps);
            assert!(
                len > 0.0 && len.is_finite() && speed.is_finite(),
                "bus line {:?} cannot be driven: route length {len} m, speed {speed} m/s",
                line.name
            );
        }
        Self {
            config,
            lines,
            field,
        }
    }

    /// The standard Lausanne scenario: two bus lines over a ~6 × 4 km
    /// street plan and a CO₂ field with lake-to-center gradient, commuter
    /// diurnal cycle and four traffic/industrial hot-spots.
    pub fn lausanne(config: SimConfig) -> Self {
        Self::new(config, lausanne_bus_lines(), lausanne_co2_field())
    }

    /// The Lausanne scenario for an arbitrary pollutant: the same street
    /// plan and hot-spot geometry, with field levels rescaled to the
    /// pollutant's ambient range and sensor noise scaled accordingly
    /// (~1.3 % of the normal-range width, matching the CO₂ default).
    pub fn lausanne_for(pollutant: Pollutant, config: SimConfig) -> Self {
        let width = pollutant.normal_range_width();
        let config = SimConfig {
            pollutant,
            sensor_noise_std: width * 0.013,
            ..config
        };
        Self::new(config, lausanne_bus_lines(), lausanne_field_for(pollutant))
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The bus lines.
    pub fn lines(&self) -> &[BusLine] {
        &self.lines
    }

    /// The ground-truth field.
    pub fn field(&self) -> &SyntheticField {
        &self.field
    }

    /// The exact field value at `(t, p)` — the NRMSE reference.
    pub fn true_value(&self, t: Timestamp, p: &Point) -> f64 {
        self.field.value(t, p)
    }

    /// Runs the simulation and returns the community-sensed dataset.
    ///
    /// Tuples are generated per bus per sampling tick, positions carry GPS
    /// noise, and values carry sensor noise. Deterministic in the seed.
    ///
    /// A long simulation is split into one contiguous run of ticks per
    /// [`default_parallelism`] core; a short one (under a day's ticks at
    /// 30 s) generates on the caller's thread alone. The output is
    /// bit-identical for every thread count.
    pub fn generate(&self) -> Dataset {
        let chunks = if self.ticks() < Self::PARALLEL_MIN_TICKS {
            1
        } else {
            default_parallelism()
        };
        self.generate_in(chunks)
    }

    /// Runs shorter than this many ticks (a day at 30 s) generate on the
    /// caller's thread. On a 2-core host two threads win from about 256
    /// ticks, but under a day they save at most ~0.8 ms (1.65 → 0.89 ms
    /// median at 2 880 ticks), so the many small simulations of tests,
    /// examples and schedule harnesses spawn nothing.
    const PARALLEL_MIN_TICKS: usize = 2_880;

    fn ticks(&self) -> usize {
        (self.config.duration_secs / self.config.sampling_interval_secs) as usize
    }

    /// Generates the dataset in `chunks` contiguous runs of ticks, all but
    /// the last on scoped worker threads and the last on the caller's.
    ///
    /// The output equals one sequential stream bit for bit. Each run
    /// starts from the RNG state the sequential loop reaches at its first
    /// tick: the caller hands run *k* a copy of its RNG, then replays run
    /// *k*'s uniform draws ([`skip_noise`]) to reach run *k + 1*'s state.
    /// Each run writes its own slice of one exactly sized buffer.
    fn generate_in(&self, chunks: usize) -> Dataset {
        let lines = self.lines.len();
        let ticks = self.ticks();
        let run_ticks = ticks.div_ceil(chunks).max(1);
        let blank = RawTuple::new(Timestamp::ZERO, Point::origin(), 0.0);
        let mut tuples = vec![blank; ticks * lines];
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        std::thread::scope(|scope| {
            let mut runs = tuples.chunks_mut(run_ticks * lines).enumerate().peekable();
            while let Some((k, run)) = runs.next() {
                if runs.peek().is_none() {
                    self.fill(k * run_ticks, run, &mut rng);
                } else {
                    let len = run.len();
                    let mut start = rng.clone();
                    scope.spawn(move || self.fill(k * run_ticks, run, &mut start));
                    skip_noise(&mut rng, len);
                }
            }
        });
        Dataset::from_tuples(self.config.pollutant, tuples)
            .expect("simulator produces finite tuples")
    }

    /// Generates the tuples of the ticks from `first_tick` on into `run`
    /// (`lines` tuples per tick), drawing noise from `rng`.
    fn fill(&self, first_tick: usize, run: &mut [RawTuple], rng: &mut StdRng) {
        let config = &self.config;
        for (k, slots) in (first_tick..).zip(run.chunks_mut(self.lines.len())) {
            let t = Timestamp::from_secs(k as i64 * config.sampling_interval_secs);
            let diurnal = self.field.cycle.factor(t);
            for (line, slot) in self.lines.iter().zip(slots) {
                let true_pos = line.position_at(t);
                let pos = Point::new(
                    true_pos.x + gaussian(rng) * config.gps_noise_std,
                    true_pos.y + gaussian(rng) * config.gps_noise_std,
                );
                let value = self.field.value_with_factor(diurnal, &true_pos)
                    + gaussian(rng) * config.sensor_noise_std;
                *slot = RawTuple::new(t, pos, value);
            }
        }
    }

    /// Generates a point-query workload of `n` queries.
    ///
    /// Query positions follow the paper's usage model — pedestrians and
    /// vehicles *near the sensed corridors* asking for the pollution around
    /// them: a uniformly random point on a random bus route, displaced
    /// laterally by Gaussian noise of `spread` meters. Query times are
    /// uniform over `[0, duration)`.
    pub fn query_workload(&self, n: usize, spread: f64, seed: u64) -> Vec<QueryTuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let line = &self.lines[rng.gen_range(0..self.lines.len())];
                let s = rng.gen_range(0.0..line.route.length());
                let on_route = line.route.point_at(s);
                let pos = Point::new(
                    on_route.x + gaussian(&mut rng) * spread,
                    on_route.y + gaussian(&mut rng) * spread,
                );
                let t = Timestamp::from_secs(rng.gen_range(0..self.config.duration_secs));
                QueryTuple::new(t, pos)
            })
            .collect()
    }

    /// Generates a continuous-query trajectory: `n` query tuples emitted at
    /// `interval_secs` by one mobile object walking a straight path between
    /// two random corridor points (the paper's `v_q` with uniform
    /// `|t_{l+1} − t_l|`).
    pub fn continuous_trajectory(
        &self,
        n: usize,
        interval_secs: i64,
        seed: u64,
    ) -> Vec<QueryTuple> {
        assert!(n >= 1 && interval_secs > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let line = &self.lines[rng.gen_range(0..self.lines.len())];
        let a = line.route.point_at(rng.gen_range(0.0..line.route.length()));
        let b = line.route.point_at(rng.gen_range(0.0..line.route.length()));
        let t0 = rng.gen_range(0..self.config.duration_secs.max(2) / 2);
        (0..n)
            .map(|i| {
                let frac = if n == 1 {
                    0.0
                } else {
                    i as f64 / (n - 1) as f64
                };
                QueryTuple::new(
                    Timestamp::from_secs(t0 + i as i64 * interval_secs),
                    a.lerp(&b, frac),
                )
            })
            .collect()
    }
}

/// A standard-normal sample via Box–Muller (keeps us independent of
/// `rand_distr`, which is outside the approved crate list).
fn gaussian(rng: &mut StdRng) -> f64 {
    let (u1, u2) = uniform_pair(rng);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The two uniform draws behind one [`gaussian`] sample.
fn uniform_pair(rng: &mut StdRng) -> (f64, f64) {
    (rng.gen_range(f64::EPSILON..1.0), rng.gen_range(0.0..1.0))
}

/// Advances `rng` past the noise of `tuples` generated tuples (three
/// [`gaussian`] samples each) by making the same uniform draws, so the
/// state it reaches does not depend on how many RNG words a draw takes.
fn skip_noise(rng: &mut StdRng, tuples: usize) {
    for _ in 0..3 * tuples {
        uniform_pair(rng);
    }
}

/// The two bus lines of the standard scenario, in the metric plane
/// (origin = Lausanne center; extent ≈ 6 km east-west × 4 km north-south).
///
/// Line M1 runs roughly east-west along the lake shore with a climb into the
/// center; line M2 runs south-north from the lake up the hill — echoing
/// Lausanne's actual metro/bus geometry.
pub fn lausanne_bus_lines() -> Vec<BusLine> {
    let m1 = Polyline::new(vec![
        Point::new(-3_000.0, -1_500.0),
        Point::new(-1_800.0, -1_200.0),
        Point::new(-900.0, -600.0),
        Point::new(0.0, -200.0),
        Point::new(800.0, 100.0),
        Point::new(1_900.0, 300.0),
        Point::new(3_000.0, 200.0),
    ]);
    let m2 = Polyline::new(vec![
        Point::new(200.0, -2_000.0),
        Point::new(100.0, -1_100.0),
        Point::new(0.0, -200.0),
        Point::new(-200.0, 700.0),
        Point::new(-100.0, 1_500.0),
        Point::new(150.0, 2_000.0),
    ]);
    vec![
        BusLine {
            name: "M1 lake-shore".into(),
            route: m1,
            speed_mps: 8.0, // ~29 km/h urban average
        },
        BusLine {
            name: "M2 hill-climb".into(),
            route: m2,
            speed_mps: 7.0,
        },
    ]
}

/// The Lausanne field shape rescaled to any pollutant's ambient range:
/// background at 6 % of the range above its floor, a 5 %-of-range diurnal
/// swing, and the four hot-spots at 16/10/8/6 % of the range.
pub fn lausanne_field_for(pollutant: Pollutant) -> SyntheticField {
    let (lo, _) = pollutant.normal_range();
    let w = pollutant.normal_range_width();
    SyntheticField {
        background: lo + 0.06 * w,
        gradient: (5.2e-6 * w, 7.8e-6 * w),
        diurnal_amplitude: 0.052 * w,
        cycle: DiurnalCycle::COMMUTER,
        plumes: vec![
            GaussianPlume {
                center: Point::new(0.0, -200.0),
                amplitude: 0.157 * w,
                sigma: 350.0,
                diurnal: true,
            },
            GaussianPlume {
                center: Point::new(2_200.0, 300.0),
                amplitude: 0.104 * w,
                sigma: 500.0,
                diurnal: true,
            },
            GaussianPlume {
                center: Point::new(-2_200.0, -1_000.0),
                amplitude: 0.078 * w,
                sigma: 600.0,
                diurnal: false,
            },
            GaussianPlume {
                center: Point::new(-100.0, 1_200.0),
                amplitude: 0.061 * w,
                sigma: 300.0,
                diurnal: true,
            },
        ],
    }
}

/// The standard CO₂ field over the Lausanne plan.
pub fn lausanne_co2_field() -> SyntheticField {
    SyntheticField {
        background: 420.0,
        // Slightly cleaner air towards the lake (south), denser towards the
        // center/north-east.
        gradient: (6.0e-3, 9.0e-3),
        diurnal_amplitude: 60.0,
        cycle: DiurnalCycle::COMMUTER,
        plumes: vec![
            // Major interchange at the center: strong, traffic-driven.
            GaussianPlume {
                center: Point::new(0.0, -200.0),
                amplitude: 180.0,
                sigma: 350.0,
                diurnal: true,
            },
            // Motorway junction to the east.
            GaussianPlume {
                center: Point::new(2_200.0, 300.0),
                amplitude: 120.0,
                sigma: 500.0,
                diurnal: true,
            },
            // Industrial zone to the west: constant.
            GaussianPlume {
                center: Point::new(-2_200.0, -1_000.0),
                amplitude: 90.0,
                sigma: 600.0,
                diurnal: false,
            },
            // Dense old town on the hill.
            GaussianPlume {
                center: Point::new(-100.0, 1_200.0),
                amplitude: 70.0,
                sigma: 300.0,
                diurnal: true,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64) -> SimConfig {
        SimConfig {
            duration_secs: 6 * 3_600,
            sampling_interval_secs: 60,
            seed,
            ..SimConfig::default()
        }
    }

    #[test]
    fn bus_pingpongs_along_route() {
        let line = BusLine {
            name: "test".into(),
            route: Polyline::new(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]),
            speed_mps: 10.0,
        };
        assert_eq!(
            line.position_at(Timestamp::from_secs(0)),
            Point::new(0.0, 0.0)
        );
        assert_eq!(
            line.position_at(Timestamp::from_secs(5)),
            Point::new(50.0, 0.0)
        );
        assert_eq!(
            line.position_at(Timestamp::from_secs(10)),
            Point::new(100.0, 0.0)
        );
        // After the terminus the bus heads back.
        assert_eq!(
            line.position_at(Timestamp::from_secs(15)),
            Point::new(50.0, 0.0)
        );
        assert_eq!(
            line.position_at(Timestamp::from_secs(20)),
            Point::new(0.0, 0.0)
        );
        // Full cycle repeats.
        assert_eq!(
            line.position_at(Timestamp::from_secs(25)),
            Point::new(50.0, 0.0)
        );
    }

    #[test]
    fn chunked_generation_equals_one_stream_for_every_chunk_count() {
        for (hours, lines) in [(1, 1), (6, 2), (25, 2)] {
            let mut config = small_config(21);
            config.duration_secs = hours * 3_600 + 60;
            let mut routes = lausanne_bus_lines();
            routes.truncate(lines);
            let sim = LausanneSim::new(config, routes, lausanne_co2_field());
            let one = sim.generate_in(1);
            for chunks in 2..=7 {
                assert_eq!(sim.generate_in(chunks), one, "{hours} h, {chunks} chunks");
            }
            assert_eq!(sim.generate(), one);
        }
    }

    #[test]
    #[should_panic(expected = "bus line \"stuck\" cannot be driven: route length 0 m")]
    fn a_zero_length_route_is_refused() {
        let stuck = BusLine {
            name: "stuck".into(),
            route: Polyline::new(vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)]),
            speed_mps: 8.0,
        };
        LausanneSim::new(small_config(1), vec![stuck], lausanne_co2_field());
    }

    #[test]
    #[should_panic(
        expected = "bus line \"warp\" cannot be driven: route length 100 m, speed inf m/s"
    )]
    fn a_non_finite_speed_is_refused() {
        let warp = BusLine {
            name: "warp".into(),
            route: Polyline::new(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]),
            speed_mps: f64::INFINITY,
        };
        let mut lines = lausanne_bus_lines();
        lines.push(warp);
        LausanneSim::new(small_config(1), lines, lausanne_co2_field());
    }

    #[test]
    fn generate_expected_tuple_count() {
        let sim = LausanneSim::lausanne(small_config(1));
        let ds = sim.generate();
        // 6 h at 60 s × 2 buses = 720 tuples.
        assert_eq!(ds.len(), 720);
    }

    #[test]
    fn generate_is_deterministic_in_seed() {
        let a = LausanneSim::lausanne(small_config(7)).generate();
        let b = LausanneSim::lausanne(small_config(7)).generate();
        assert_eq!(a, b);
        let c = LausanneSim::lausanne(small_config(8)).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn tuples_are_time_sorted_and_finite() {
        let ds = LausanneSim::lausanne(small_config(2)).generate();
        for w in ds.tuples().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(ds.tuples().iter().all(RawTuple::is_finite));
    }

    #[test]
    fn positions_hug_the_corridors() {
        let sim = LausanneSim::lausanne(small_config(3));
        let ds = sim.generate();
        // Every sample must be within a few GPS sigmas of some route.
        let max_gps = 6.0 * sim.config().gps_noise_std;
        for t in ds.tuples() {
            let d = sim
                .lines()
                .iter()
                .map(|l| l.route.project(&t.pos).0)
                .fold(f64::INFINITY, f64::min);
            assert!(d <= max_gps, "sample {d} m off-route");
        }
    }

    #[test]
    fn values_near_field_truth() {
        let sim = LausanneSim::lausanne(SimConfig {
            gps_noise_std: 0.0,
            ..small_config(4)
        });
        let ds = sim.generate();
        let noise = sim.config().sensor_noise_std;
        let mut worst: f64 = 0.0;
        for t in ds.tuples() {
            let truth = sim.true_value(t.time, &t.pos);
            worst = worst.max((t.value - truth).abs());
        }
        // All within 6 sigma, and noise is actually present.
        assert!(worst <= 6.0 * noise, "worst deviation {worst}");
        assert!(worst > 0.0);
    }

    #[test]
    fn query_workload_near_corridors_and_in_time_range() {
        let sim = LausanneSim::lausanne(small_config(5));
        let qs = sim.query_workload(500, 400.0, 42);
        assert_eq!(qs.len(), 500);
        for q in &qs {
            assert!(q.time.as_secs() >= 0 && q.time.as_secs() < 6 * 3_600);
            let d = sim
                .lines()
                .iter()
                .map(|l| l.route.project(&q.pos).0)
                .fold(f64::INFINITY, f64::min);
            assert!(d < 400.0 * 6.0);
        }
    }

    #[test]
    fn query_workload_deterministic() {
        let sim = LausanneSim::lausanne(small_config(5));
        assert_eq!(
            sim.query_workload(50, 100.0, 1),
            sim.query_workload(50, 100.0, 1)
        );
    }

    #[test]
    fn continuous_trajectory_uniform_interval() {
        let sim = LausanneSim::lausanne(small_config(6));
        let traj = sim.continuous_trajectory(100, 30, 9);
        assert_eq!(traj.len(), 100);
        for w in traj.windows(2) {
            assert_eq!(w[1].time - w[0].time, 30);
        }
    }

    #[test]
    fn paper_scale_tuple_count_close_to_176k() {
        let config = SimConfig::paper_scale(0);
        let ticks = config.duration_secs / config.sampling_interval_secs;
        let expected = (ticks * 2) as usize;
        assert!(
            (150_000..200_000).contains(&expected),
            "paper-scale count {expected}"
        );
    }

    #[test]
    fn pollutant_scaled_scenarios_are_plausible() {
        for pollutant in [Pollutant::Co, Pollutant::Pm25, Pollutant::No2] {
            let sim = LausanneSim::lausanne_for(pollutant, small_config(31));
            let ds = sim.generate();
            assert_eq!(ds.pollutant(), pollutant);
            let stats = ds.stats().unwrap();
            let (lo, hi) = pollutant.normal_range();
            // Values live inside a generously padded ambient range.
            let pad = (hi - lo) * 0.25;
            assert!(stats.min > lo - pad, "{pollutant}: min {}", stats.min);
            assert!(stats.max < hi + pad, "{pollutant}: max {}", stats.max);
            // And they actually vary (the field is not flat).
            assert!(stats.std_dev > (hi - lo) * 0.005, "{pollutant}");
        }
    }

    #[test]
    fn pollutant_scaled_noise_tracks_range() {
        let co = LausanneSim::lausanne_for(Pollutant::Co, small_config(32));
        let pm = LausanneSim::lausanne_for(Pollutant::Pm25, small_config(32));
        let ratio = co.config().sensor_noise_std / pm.config().sensor_noise_std;
        let expected = Pollutant::Co.normal_range_width() / Pollutant::Pm25.normal_range_width();
        assert!((ratio - expected).abs() < 1e-9);
    }

    #[test]
    fn co2_scaled_field_close_to_handtuned() {
        // The generic scaling reproduces the hand-tuned CO2 field closely.
        let generic = lausanne_field_for(Pollutant::Co2);
        let tuned = lausanne_co2_field();
        let t = Timestamp::from_hours(8);
        for p in [Point::new(0.0, -200.0), Point::new(-2_000.0, 0.0)] {
            let a = generic.value(t, &p);
            let b = tuned.value(t, &p);
            assert!((a - b).abs() < 30.0, "{a} vs {b}");
        }
    }

    #[test]
    fn field_varies_over_space() {
        // Sanity: the standard field is not constant — Ad-KMN has something
        // to adapt to.
        let f = lausanne_co2_field();
        let t = Timestamp::from_hours(8);
        let a = f.value(t, &Point::new(0.0, -200.0));
        let b = f.value(t, &Point::new(-3_000.0, -1_500.0));
        assert!((a - b).abs() > 30.0, "field too flat: {a} vs {b}");
    }
}
