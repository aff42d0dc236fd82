//! Ground-truth pollution fields.
//!
//! The proprietary `lausanne-data` trace gives the paper's evaluation its
//! input but *not* a ground truth — the paper measures accuracy as NRMSE
//! against held-out neighbourhood averages. The simulator substitution lets
//! us do better: sensors sample a known analytic field, so NRMSE is computed
//! against the exact value at each query position.
//!
//! A [`SyntheticField`] composes the ingredients that make urban CO₂ both
//! *smooth enough to model* and *varying enough that one global model
//! fails* (the premise of Ad-KMN):
//!
//! * a constant ambient background,
//! * a city-scale linear spatial gradient (e.g. lake shore → dense center),
//! * a diurnal cycle with morning and evening traffic peaks,
//! * a set of [`GaussianPlume`] hot-spots (intersections, industrial
//!   sources) whose strength follows the diurnal cycle.

use crate::tuple::Timestamp;
use enviro_geo::Point;

/// An analytic spatio-temporal scalar field: the "true" pollution surface
/// that community sensors sample with noise.
pub trait PollutionField {
    /// The field value at time `t` and position `p`, in the pollutant unit.
    fn value(&self, t: Timestamp, p: &Point) -> f64;
}

/// A diurnal (24-hour) modulation profile with two traffic peaks.
///
/// Produces a dimensionless factor in `[0, 1]`: 0 at deep night, 1 at the
/// strongest peak. The profile is the sum of two Gaussian bumps over
/// hour-of-day, wrapped across midnight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalCycle {
    /// Hour of the morning peak (e.g. 8.0).
    pub morning_peak: f64,
    /// Hour of the evening peak (e.g. 18.0).
    pub evening_peak: f64,
    /// Width (standard deviation, hours) of each peak.
    pub width_hours: f64,
}

impl DiurnalCycle {
    /// The standard commuter profile: peaks at 08:00 and 18:00, 2.5 h wide.
    pub const COMMUTER: DiurnalCycle = DiurnalCycle {
        morning_peak: 8.0,
        evening_peak: 18.0,
        width_hours: 2.5,
    };

    /// The modulation factor at time `t`, in `[0, 1]`.
    pub fn factor(&self, t: Timestamp) -> f64 {
        let h = t.hour_of_day();
        let bump = |peak: f64| -> f64 {
            // Wrap the hour difference onto [-12, 12] so 23:00 is 9 h from
            // 08:00, not 15 h.
            let mut d = h - peak;
            if d > 12.0 {
                d -= 24.0;
            } else if d < -12.0 {
                d += 24.0;
            }
            (-0.5 * (d / self.width_hours).powi(2)).exp()
        };
        (bump(self.morning_peak) + bump(self.evening_peak)).min(1.0)
    }
}

/// A stationary Gaussian concentration plume centered on a hot-spot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianPlume {
    /// Plume center (intersection, industrial stack, …).
    pub center: Point,
    /// Peak concentration contribution at the center, in the pollutant unit.
    pub amplitude: f64,
    /// Spatial spread (standard deviation) in meters.
    pub sigma: f64,
    /// If `true`, the plume strength is modulated by the diurnal cycle
    /// (traffic hot-spot); if `false` it is constant (industrial source).
    pub diurnal: bool,
}

impl GaussianPlume {
    /// The plume's contribution at position `p`, before diurnal modulation.
    pub fn spatial_contribution(&self, p: &Point) -> f64 {
        let d2 = self.center.distance_sq(p);
        self.amplitude * (-0.5 * d2 / (self.sigma * self.sigma)).exp()
    }
}

/// The composed synthetic field used by the Lausanne simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticField {
    /// Ambient background level (e.g. 420 ppm CO₂).
    pub background: f64,
    /// Linear spatial gradient `(∂s/∂x, ∂s/∂y)` in unit per meter.
    pub gradient: (f64, f64),
    /// Amplitude of the city-wide diurnal swing, added uniformly.
    pub diurnal_amplitude: f64,
    /// The diurnal profile shared by the uniform swing and traffic plumes.
    pub cycle: DiurnalCycle,
    /// Local hot-spots.
    pub plumes: Vec<GaussianPlume>,
}

impl SyntheticField {
    /// A flat, time-invariant field — useful as a degenerate test case.
    pub fn constant(level: f64) -> Self {
        Self {
            background: level,
            gradient: (0.0, 0.0),
            diurnal_amplitude: 0.0,
            cycle: DiurnalCycle::COMMUTER,
            plumes: Vec::new(),
        }
    }

    /// The field value at `p` at a time whose diurnal factor
    /// (`self.cycle.factor(t)`) is `diurnal`: [`PollutionField::value`]
    /// with the factor computed once, for callers that sample many
    /// positions at one time.
    pub fn value_with_factor(&self, diurnal: f64, p: &Point) -> f64 {
        let mut v = self.background
            + self.gradient.0 * p.x
            + self.gradient.1 * p.y
            + self.diurnal_amplitude * diurnal;
        for plume in &self.plumes {
            let c = plume.spatial_contribution(p);
            v += if plume.diurnal { c * diurnal } else { c };
        }
        v
    }
}

impl PollutionField for SyntheticField {
    fn value(&self, t: Timestamp, p: &Point) -> f64 {
        self.value_with_factor(self.cycle.factor(t), p)
    }
}

impl<F: PollutionField + ?Sized> PollutionField for &F {
    fn value(&self, t: Timestamp, p: &Point) -> f64 {
        (**self).value(t, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_field_is_constant() {
        let f = SyntheticField::constant(400.0);
        assert_eq!(f.value(Timestamp::ZERO, &Point::origin()), 400.0);
        assert_eq!(
            f.value(Timestamp::from_hours(13), &Point::new(1e4, -3e3)),
            400.0
        );
    }

    #[test]
    fn diurnal_factor_bounded() {
        let c = DiurnalCycle::COMMUTER;
        for h in 0..48 {
            let f = c.factor(Timestamp::from_hours(h));
            assert!((0.0..=1.0).contains(&f), "hour {h}: {f}");
        }
    }

    #[test]
    fn diurnal_peaks_at_rush_hours() {
        let c = DiurnalCycle::COMMUTER;
        let at = |h: f64| c.factor(Timestamp::from_secs((h * 3600.0) as i64));
        assert!(at(8.0) > at(3.0), "morning rush above deep night");
        assert!(at(18.0) > at(3.0), "evening rush above deep night");
        assert!(at(8.0) > at(12.5) * 0.99, "peak above midday lull");
    }

    #[test]
    fn diurnal_wraps_midnight() {
        let c = DiurnalCycle {
            morning_peak: 0.5,
            evening_peak: 12.0,
            width_hours: 1.0,
        };
        // 23:30 is one hour from the 00:30 peak; without wrapping it would
        // be 23 hours away and the factor would be ~0.
        let late = c.factor(Timestamp::from_secs((23.5 * 3600.0) as i64));
        assert!(late > 0.5, "got {late}");
    }

    #[test]
    fn plume_decays_with_distance() {
        let plume = GaussianPlume {
            center: Point::origin(),
            amplitude: 100.0,
            sigma: 200.0,
            diurnal: false,
        };
        let at = |x: f64| plume.spatial_contribution(&Point::new(x, 0.0));
        assert_eq!(at(0.0), 100.0);
        assert!(at(100.0) > at(200.0));
        assert!(at(200.0) > at(400.0));
        assert!(at(2_000.0) < 1e-15);
    }

    #[test]
    fn gradient_tilts_the_plane() {
        let f = SyntheticField {
            background: 400.0,
            gradient: (0.01, -0.02),
            diurnal_amplitude: 0.0,
            cycle: DiurnalCycle::COMMUTER,
            plumes: Vec::new(),
        };
        let v = f.value(Timestamp::ZERO, &Point::new(100.0, 100.0));
        assert!((v - (400.0 + 1.0 - 2.0)).abs() < 1e-12);
    }

    #[test]
    fn diurnal_plume_modulated_constant_plume_not() {
        let mk = |diurnal| SyntheticField {
            background: 0.0,
            gradient: (0.0, 0.0),
            diurnal_amplitude: 0.0,
            cycle: DiurnalCycle::COMMUTER,
            plumes: vec![GaussianPlume {
                center: Point::origin(),
                amplitude: 100.0,
                sigma: 100.0,
                diurnal,
            }],
        };
        let night = Timestamp::from_hours(3);
        let rush = Timestamp::from_hours(8);
        let p = Point::origin();
        let traffic = mk(true);
        let industry = mk(false);
        assert!(traffic.value(rush, &p) > traffic.value(night, &p) * 5.0);
        assert!((industry.value(rush, &p) - industry.value(night, &p)).abs() < 1e-12);
    }

    #[test]
    fn field_value_is_sum_of_components() {
        let f = SyntheticField {
            background: 400.0,
            gradient: (0.0, 0.0),
            diurnal_amplitude: 50.0,
            cycle: DiurnalCycle::COMMUTER,
            plumes: vec![GaussianPlume {
                center: Point::origin(),
                amplitude: 80.0,
                sigma: 100.0,
                diurnal: false,
            }],
        };
        let t = Timestamp::from_hours(8);
        let expected = 400.0 + 50.0 * f.cycle.factor(t) + 80.0;
        assert!((f.value(t, &Point::origin()) - expected).abs() < 1e-9);
    }
}
