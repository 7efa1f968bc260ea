//! RMF\* — the paper's enhanced future-location predictor (§5).
//!
//! "RMF\* incorporates the advantages of linear extrapolation for the steady
//! parts of the flights, while at the same time exploits additional
//! information regarding any shift in the motion type provided by critical
//! points, before activating the full pattern-matching mode. … the
//! algorithm continuously checks for drifts to non-linear phases, i.e. the
//! beginning of turn and/or altitude change, activating the proper
//! differential approximator accordingly, including sections of circular,
//! ellipsoid, parabolic, hyperbolic or general quadratic trajectory."
//!
//! This implementation:
//!
//! 1. classifies the recent window as *steady* (near-constant velocity) or
//!    *non-linear* (heading or speed drift above thresholds — the same
//!    signals the synopses generator turns into critical points);
//! 2. steady → mean-velocity linear extrapolation (robust to noise);
//! 3. non-linear → fits the motion primitives {linear, circular
//!    (constant turn rate), quadratic} on the head of the window, validates
//!    each on the held-out tail, and predicts with the best-matching one.

use crate::flp::Predictor;
use crate::linalg::{polyfit, polyval};

/// RMF\* configuration.
#[derive(Debug, Clone)]
pub struct RmfStarPredictor {
    /// Heading spread (degrees) below which the window counts as steady.
    pub steady_heading_deg: f64,
    /// Relative speed spread below which the window counts as steady.
    pub steady_speed_ratio: f64,
    /// Fraction of the window held out to validate primitive fits.
    pub validation_fraction: f64,
    /// A non-linear primitive must beat linear extrapolation by this factor
    /// on the hold-out tail before it is trusted — conservative mode
    /// switching keeps sensor noise from triggering spurious curvature.
    pub nonlinear_margin: f64,
}

impl Default for RmfStarPredictor {
    fn default() -> Self {
        Self {
            steady_heading_deg: 6.0,
            steady_speed_ratio: 0.08,
            validation_fraction: 0.3,
            nonlinear_margin: 1.0,
        }
    }
}

/// Velocity samples between consecutive points: `(vx, vy, heading_rad,
/// speed)` at the segment midpoints.
fn velocities(history: &[(f64, f64, f64)]) -> Vec<(f64, f64, f64, f64)> {
    history
        .windows(2)
        .filter_map(|w| {
            let dt = w[1].2 - w[0].2;
            if dt <= 0.0 {
                return None;
            }
            let vx = (w[1].0 - w[0].0) / dt;
            let vy = (w[1].1 - w[0].1) / dt;
            let speed = (vx * vx + vy * vy).sqrt();
            Some((vx, vy, vx.atan2(vy), speed))
        })
        .collect()
}

/// Smallest signed angle difference in radians.
fn angle_diff(a: f64, b: f64) -> f64 {
    let mut d = (a - b) % std::f64::consts::TAU;
    if d > std::f64::consts::PI {
        d -= std::f64::consts::TAU;
    }
    if d < -std::f64::consts::PI {
        d += std::f64::consts::TAU;
    }
    d
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Linear,
    Circular,
    Quadratic,
}

impl RmfStarPredictor {
    fn is_steady(&self, vels: &[(f64, f64, f64, f64)]) -> bool {
        if vels.len() < 2 {
            return true;
        }
        let mean_speed = vels.iter().map(|v| v.3).sum::<f64>() / vels.len() as f64;
        if mean_speed < 1e-6 {
            return true; // stationary: linear extrapolation handles it
        }
        let base = vels[0].2;
        let max_turn = vels
            .iter()
            .map(|v| angle_diff(v.2, base).abs())
            .fold(0.0f64, f64::max);
        let max_speed_dev = vels
            .iter()
            .map(|v| (v.3 - mean_speed).abs() / mean_speed)
            .fold(0.0f64, f64::max);
        max_turn.to_degrees() < self.steady_heading_deg && max_speed_dev < self.steady_speed_ratio
    }

    /// Linear extrapolation from the last point with the mean velocity of
    /// the most recent segments — enough smoothing to beat sensor noise,
    /// recent enough to track speed changes during climb and approach.
    fn linear(history: &[(f64, f64, f64)], vels: &[(f64, f64, f64, f64)], future_times: &[f64]) -> Vec<(f64, f64)> {
        let last = *history.last().expect("non-empty history");
        let recent = &vels[vels.len().saturating_sub(4)..];
        let (vx, vy) = if recent.is_empty() {
            (0.0, 0.0)
        } else {
            (
                recent.iter().map(|v| v.0).sum::<f64>() / recent.len() as f64,
                recent.iter().map(|v| v.1).sum::<f64>() / recent.len() as f64,
            )
        };
        future_times
            .iter()
            .map(|&t| {
                let tau = t - last.2;
                (last.0 + vx * tau, last.1 + vy * tau)
            })
            .collect()
    }

    /// Constant-turn-rate (circular-arc) prediction.
    fn circular(history: &[(f64, f64, f64)], vels: &[(f64, f64, f64, f64)], future_times: &[f64]) -> Vec<(f64, f64)> {
        let last = *history.last().expect("non-empty history");
        if vels.len() < 2 {
            return Self::linear(history, vels, future_times);
        }
        // Turn rate from consecutive heading differences.
        let mut omega_sum = 0.0;
        let mut omega_n = 0;
        for w in vels.windows(2) {
            omega_sum += angle_diff(w[1].2, w[0].2);
            omega_n += 1;
        }
        // Headings are at segment midpoints, one per inter-sample interval.
        let mean_dt = (history.last().expect("non-empty").2 - history[0].2) / (history.len() - 1).max(1) as f64;
        let omega = omega_sum / (omega_n as f64 * mean_dt.max(1e-6));
        let speed = vels.iter().map(|v| v.3).sum::<f64>() / vels.len() as f64;
        // Manoeuvres are finite: assume the remaining turn is bounded by the
        // turn already observed in the window, then roll out straight. This
        // keeps long-horizon arc extrapolation from orbiting past the
        // turn's actual exit.
        let mut turn_budget = omega_sum.abs();
        // Segment headings live at segment midpoints: advance half a step so
        // the integration starts from the heading *at* the last sample.
        let mut heading = vels.last().expect("len >= 2").2 + omega * mean_dt / 2.0;
        let mut x = last.0;
        let mut y = last.1;
        let mut t = last.2;
        future_times
            .iter()
            .map(|&ft| {
                let tau = ft - t;
                // Integrate the arc in one step per horizon (closed form),
                // splitting the step where the turn budget runs out.
                let full_turn = omega * tau;
                if omega.abs() < 1e-9 || turn_budget <= 0.0 {
                    x += speed * heading.sin() * tau;
                    y += speed * heading.cos() * tau;
                } else if full_turn.abs() <= turn_budget {
                    let h2 = heading + full_turn;
                    x += speed / omega * (-h2.cos() + heading.cos());
                    y += speed / omega * (h2.sin() - heading.sin());
                    heading = h2;
                    turn_budget -= full_turn.abs();
                } else {
                    // Turn for the budgeted angle, then straight.
                    let turn_tau = turn_budget / omega.abs();
                    let h2 = heading + omega.signum() * turn_budget;
                    x += speed / omega * (-h2.cos() + heading.cos());
                    y += speed / omega * (h2.sin() - heading.sin());
                    heading = h2;
                    turn_budget = 0.0;
                    let straight_tau = tau - turn_tau;
                    x += speed * heading.sin() * straight_tau;
                    y += speed * heading.cos() * straight_tau;
                }
                t = ft;
                (x, y)
            })
            .collect()
    }

    /// Quadratic polynomial fit per coordinate.
    fn quadratic(history: &[(f64, f64, f64)], future_times: &[f64]) -> Option<Vec<(f64, f64)>> {
        let t0 = history[0].2;
        let ts: Vec<f64> = history.iter().map(|p| p.2 - t0).collect();
        let xs: Vec<f64> = history.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = history.iter().map(|p| p.1).collect();
        let cx = polyfit(&ts, &xs, 2, 1e-6)?;
        let cy = polyfit(&ts, &ys, 2, 1e-6)?;
        Some(
            future_times
                .iter()
                .map(|&t| (polyval(&cx, t - t0), polyval(&cy, t - t0)))
                .collect(),
        )
    }

    fn predict_with(
        mode: Mode,
        history: &[(f64, f64, f64)],
        future_times: &[f64],
    ) -> Vec<(f64, f64)> {
        let vels = velocities(history);
        match mode {
            Mode::Linear => Self::linear(history, &vels, future_times),
            Mode::Circular => Self::circular(history, &vels, future_times),
            Mode::Quadratic => Self::quadratic(history, future_times)
                .unwrap_or_else(|| Self::linear(history, &vels, future_times)),
        }
    }

    /// Chooses the best primitive by fitting on the head of the window and
    /// validating on the held-out tail.
    fn select_mode(&self, history: &[(f64, f64, f64)]) -> Mode {
        let n = history.len();
        // Fitting needs at least 4 head points and 2 held-out ones; shorter
        // histories have nothing to validate on.
        if n < 6 {
            return Mode::Linear;
        }
        let holdout = ((n as f64 * self.validation_fraction) as usize).clamp(2, n - 4);
        if n < holdout + 4 {
            return Mode::Linear;
        }
        let head = &history[..n - holdout];
        let tail = &history[n - holdout..];
        let tail_times: Vec<f64> = tail.iter().map(|p| p.2).collect();
        let score = |mode: Mode| -> f64 {
            Self::predict_with(mode, head, &tail_times)
                .iter()
                .zip(tail)
                .map(|((px, py), (ax, ay, _))| ((px - ax).powi(2) + (py - ay).powi(2)).sqrt())
                .sum()
        };
        let linear_err = score(Mode::Linear);
        let mut best = Mode::Linear;
        let mut best_err = linear_err;
        for mode in [Mode::Circular, Mode::Quadratic] {
            let err = score(mode);
            // Conservative switching: curvature must clearly out-predict.
            if err < best_err && err < linear_err * self.nonlinear_margin {
                best_err = err;
                best = mode;
            }
        }
        best
    }
}

impl Predictor for RmfStarPredictor {
    fn predict(&self, history: &[(f64, f64, f64)], future_times: &[f64]) -> Vec<(f64, f64)> {
        if history.is_empty() {
            return vec![(0.0, 0.0); future_times.len()];
        }
        if history.len() < 4 {
            let vels = velocities(history);
            return Self::linear(history, &vels, future_times);
        }
        let vels = velocities(history);
        if self.is_steady(&vels) {
            return Self::linear(history, &vels, future_times);
        }
        let mode = self.select_mode(history);
        Self::predict_with(mode, history, future_times)
    }

    fn name(&self) -> &'static str {
        "RMF*"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn futures(last_t: f64, dt: f64, k: usize) -> Vec<f64> {
        (1..=k).map(|i| last_t + dt * i as f64).collect()
    }

    #[test]
    fn steady_straight_flight_uses_linear_and_is_exact() {
        let h: Vec<(f64, f64, f64)> = (0..10).map(|i| (50.0 * i as f64, -20.0 * i as f64, 8.0 * i as f64)).collect();
        let p = RmfStarPredictor::default();
        let preds = p.predict(&h, &futures(72.0, 8.0, 3));
        for (k, (px, py)) in preds.iter().enumerate() {
            let t = 72.0 + 8.0 * (k + 1) as f64;
            assert!((px - 50.0 / 8.0 * t).abs() < 1e-6, "step {k}");
            assert!((py - -20.0 / 8.0 * t).abs() < 1e-6);
        }
    }

    #[test]
    fn circular_turn_is_tracked() {
        // Constant-rate turn: heading advances 3 degrees per second.
        let omega = 3.0f64.to_radians();
        let speed = 100.0;
        let dt = 8.0;
        let h: Vec<(f64, f64, f64)> = (0..12)
            .map(|i| {
                let t = i as f64 * dt;
                // Circle of radius speed/omega around origin.
                let r = speed / omega;
                (r * (omega * t).sin(), r * (omega * t).cos(), t)
            })
            .collect();
        let p = RmfStarPredictor::default();
        let last_t = h.last().unwrap().2;
        let preds = p.predict(&h, &futures(last_t, dt, 4));
        let r = speed / omega;
        for (k, (px, py)) in preds.iter().enumerate() {
            let t = last_t + dt * (k + 1) as f64;
            let (ax, ay) = (r * (omega * t).sin(), r * (omega * t).cos());
            let err = ((px - ax).powi(2) + (py - ay).powi(2)).sqrt();
            // One minute of 3 deg/s turning covers 96 degrees of arc; linear
            // extrapolation would be off by kilometres, the arc model stays
            // within tens of metres.
            assert!(err < 60.0, "step {k}: err {err}");
        }
    }

    #[test]
    fn beats_linear_on_turns() {
        use crate::flp::{LinearExtrapolation, Predictor as _};
        let omega = 2.0f64.to_radians();
        let speed = 80.0;
        let dt = 8.0;
        let h: Vec<(f64, f64, f64)> = (0..12)
            .map(|i| {
                let t = i as f64 * dt;
                let r = speed / omega;
                (r * (omega * t).sin(), r * (omega * t).cos(), t)
            })
            .collect();
        let last_t = h.last().unwrap().2;
        let fut = futures(last_t, dt, 6);
        let star = RmfStarPredictor::default().predict(&h, &fut);
        let lin = LinearExtrapolation.predict(&h, &fut);
        let r = speed / omega;
        let err = |preds: &[(f64, f64)]| {
            preds
                .iter()
                .enumerate()
                .map(|(k, (px, py))| {
                    let t = last_t + dt * (k + 1) as f64;
                    ((px - r * (omega * t).sin()).powi(2) + (py - r * (omega * t).cos()).powi(2)).sqrt()
                })
                .sum::<f64>()
        };
        assert!(
            err(&star) < err(&lin) / 3.0,
            "star {} vs linear {}",
            err(&star),
            err(&lin)
        );
    }

    #[test]
    fn accelerating_motion_prefers_quadratic() {
        // Uniform acceleration along x.
        let h: Vec<(f64, f64, f64)> = (0..12)
            .map(|i| {
                let t = i as f64 * 8.0;
                (0.5 * 0.8 * t * t, 0.0, t)
            })
            .collect();
        let p = RmfStarPredictor::default();
        let last_t = h.last().unwrap().2;
        let preds = p.predict(&h, &futures(last_t, 8.0, 3));
        for (k, (px, _)) in preds.iter().enumerate() {
            let t = last_t + 8.0 * (k + 1) as f64;
            let expected = 0.5 * 0.8 * t * t;
            assert!((px - expected).abs() / expected < 0.02, "step {k}: {px} vs {expected}");
        }
    }

    #[test]
    fn degenerate_histories_do_not_panic() {
        let p = RmfStarPredictor::default();
        assert_eq!(p.predict(&[], &[1.0]).len(), 1);
        assert_eq!(p.predict(&[(1.0, 1.0, 0.0)], &[1.0, 2.0]).len(), 2);
        // Duplicate timestamps.
        let h = vec![(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)];
        assert_eq!(p.predict(&h, &[1.0]).len(), 1);
    }

    /// A zig-zag track: alternating headings, so the velocities are never
    /// steady and `predict` reaches mode selection from 4 points on.
    fn zig_zag(n: usize) -> Vec<(f64, f64, f64)> {
        (0..n)
            .map(|i| (100.0 * i as f64, if i % 2 == 0 { 0.0 } else { 80.0 }, 10.0 * i as f64))
            .collect()
    }

    #[test]
    fn short_non_steady_histories_fall_back_to_linear() {
        let p = RmfStarPredictor::default();
        for n in 1..=7 {
            let h = zig_zag(n);
            let last_t = h.last().unwrap().2;
            let fut = futures(last_t, 10.0, 4);
            let preds = p.predict(&h, &fut);
            assert_eq!(preds.len(), fut.len(), "n = {n}");
            assert!(preds.iter().all(|(x, y)| x.is_finite() && y.is_finite()), "n = {n}");
            if n < 6 {
                assert_eq!(p.select_mode(&h), Mode::Linear, "n = {n}");
            }
        }
    }
}
