//! Orca's two-level control law and reward function.
//!
//! Equation (1): `cwnd = f_cwnd(a, cwnd_TCP) = 2^(2a) · cwnd_TCP` with the
//! agent action `a ∈ [−1, 1]`, so one agent decision can at most quadruple
//! or quarter the kernel-proposed window.
//!
//! Equations (2)–(3): the power-metric reward
//! `R = (thr − ζ·l) / delay′` normalized by `thr_max / d_min`, where
//! `delay′` forgives queuing delays below `β·d_min`.

use canopy_absint::Interval;
use serde::{Deserialize, Serialize};

/// Hard window bounds applied after Eq. (1), in packets.
pub(crate) const CWND_MIN: f64 = 2.0;
/// Upper window clamp, packets — the kernel-memory-style cap Orca inherits
/// from the host stack. Sized to comfortably exceed the evaluation
/// envelope's BDP-plus-buffer (≈ 4000 packets at 192 Mbps, 40 ms, 5 BDP)
/// while stopping the exponential self-multiplication of Eq. (1) from
/// manufacturing windows no real socket would reach.
pub(crate) const CWND_MAX: f64 = 8_192.0;

/// The two-level control law of Eq. (1).
///
/// # Examples
///
/// ```
/// use canopy_core::orca::f_cwnd;
///
/// assert_eq!(f_cwnd(0.0, 100.0), 100.0); // a = 0: keep TCP's window
/// assert_eq!(f_cwnd(1.0, 100.0), 400.0); // a = 1: quadruple
/// assert_eq!(f_cwnd(-1.0, 100.0), 25.0); // a = −1: quarter
/// ```
pub fn f_cwnd(action: f64, cwnd_tcp: f64) -> f64 {
    let a = action.clamp(-1.0, 1.0);
    // `exp2`, not `2.0.powf(..)`: optimised builds rewrite `pow(2, x)` to
    // `exp2(x)` and unoptimised ones call `pow`, which differs by an ULP
    // on some actions — every profile must produce the same windows.
    ((2.0 * a).exp2() * cwnd_tcp).clamp(CWND_MIN, CWND_MAX)
}

/// The abstract counterpart of [`f_cwnd`] (Eq. 5): lifts an action interval
/// to the interval of windows the controller can produce. `2^(2a)` is
/// monotone, so the interval image is exact up to outward rounding.
pub fn f_cwnd_abstract(action: Interval, cwnd_tcp: f64) -> Interval {
    f_cwnd_scaled(cwnd_factor(action), cwnd_tcp)
}

/// The flow-independent half of [`f_cwnd_abstract`]: the factor interval
/// `2^(2·clamp(a))`.
pub(crate) fn cwnd_factor(action: Interval) -> Interval {
    let a = Interval::new(action.lo.clamp(-1.0, 1.0), action.hi.clamp(-1.0, 1.0));
    a.scale(2.0).exp2()
}

/// The per-flow half of [`f_cwnd_abstract`]: a [`cwnd_factor`] scaled by
/// the flow's `cwnd_tcp`, then clamped to the window range.
pub(crate) fn f_cwnd_scaled(factor: Interval, cwnd_tcp: f64) -> Interval {
    let w = factor.scale(cwnd_tcp);
    Interval::new(
        w.lo.clamp(CWND_MIN, CWND_MAX),
        w.hi.clamp(CWND_MIN, CWND_MAX),
    )
}

/// Reward hyperparameters (Eqs. 2–3).
///
/// `d_min` in the paper's Eq. (3) is the flow's minimum observed delay
/// (the propagation RTT), so the reward is the power metric
/// `throughput / relative delay`: full utilization with a modest standing
/// queue outscores a starved link with a pristine RTT, and bufferbloat is
/// punished in proportion to `sRTT / minRTT`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RewardConfig {
    /// Loss-rate penalty coefficient ζ.
    pub zeta: f64,
    /// Delay forgiveness factor β (> 1): smoothed RTTs up to `β·minRTT`
    /// count as `minRTT` (Eq. 3).
    pub beta: f64,
}

impl Default for RewardConfig {
    fn default() -> RewardConfig {
        RewardConfig {
            zeta: 5.0,
            beta: 1.25,
        }
    }
}

impl RewardConfig {
    /// The normalized Orca reward for one monitor interval.
    ///
    /// `thr_norm` is throughput normalized to `[0, 1]` by the link's peak
    /// rate (the `thr_max` of Eq. 2), `loss_rate ∈ [0, 1]`, and the delays
    /// are the smoothed and minimum RTT in milliseconds. The result is
    /// bounded in `[−ζ, 1]`.
    pub fn reward(&self, thr_norm: f64, loss_rate: f64, srtt_ms: f64, min_rtt_ms: f64) -> f64 {
        let d_min = min_rtt_ms.max(0.01);
        let delay = srtt_ms.max(d_min);
        let delay_prime = if delay <= self.beta * d_min {
            d_min
        } else {
            delay
        };
        (thr_norm - self.zeta * loss_rate) * d_min / delay_prime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_cwnd_endpoints_and_midpoint() {
        assert!((f_cwnd(0.5, 100.0) - 200.0).abs() < 1e-9);
        assert!((f_cwnd(-0.5, 100.0) - 50.0).abs() < 1e-9);
        // Out-of-range actions clamp.
        assert_eq!(f_cwnd(5.0, 100.0), 400.0);
        assert_eq!(f_cwnd(-5.0, 100.0), 25.0);
    }

    #[test]
    fn f_cwnd_is_exp2_bit_for_bit() {
        // A dense grid over the action range at a power-of-two window, so
        // the product is exact and any ULP in `2^(2a)` shows in the result.
        let n = 200_000;
        for i in 0..=n {
            let a = -1.0 + 2.0 * i as f64 / n as f64;
            let want = (2.0 * a).exp2() * 1024.0;
            assert_eq!(f_cwnd(a, 1024.0).to_bits(), want.to_bits(), "a = {a:e}");
        }
    }

    #[test]
    fn f_cwnd_respects_hard_bounds() {
        assert_eq!(f_cwnd(-1.0, 2.0), CWND_MIN);
        assert_eq!(f_cwnd(1.0, 50_000.0), CWND_MAX);
    }

    #[test]
    fn abstract_f_cwnd_contains_concrete() {
        let cases = [
            (Interval::new(-0.3, 0.4), 120.0),
            (Interval::new(-1.0, 1.0), 10.0),
            (Interval::point(0.25), 64.0),
        ];
        for (a, w) in cases {
            let out = f_cwnd_abstract(a, w);
            for i in 0..=20 {
                let action = a.lo + (a.hi - a.lo) * i as f64 / 20.0;
                let c = f_cwnd(action, w);
                assert!(out.contains(c), "{c} outside {out:?} for a={action}");
            }
        }
    }

    #[test]
    fn abstract_f_cwnd_is_monotone_tight() {
        let a = Interval::new(-0.5, 0.5);
        let out = f_cwnd_abstract(a, 100.0);
        assert!((out.lo - 50.0).abs() < 1e-6);
        assert!((out.hi - 200.0).abs() < 1e-6);
    }

    #[test]
    fn reward_favours_throughput_punishes_loss_and_delay() {
        let cfg = RewardConfig::default();
        let good = cfg.reward(0.9, 0.0, 40.0, 40.0);
        let lossy = cfg.reward(0.9, 0.1, 40.0, 40.0);
        let delayed = cfg.reward(0.9, 0.0, 200.0, 40.0);
        assert!(good > lossy);
        assert!(good > delayed);
        assert!(good <= 1.0 && good > 0.0);
    }

    #[test]
    fn utilization_beats_starvation() {
        // The failure mode this guards: a starved link (low throughput,
        // pristine RTT) must not outscore a utilized link with a modest
        // standing queue.
        let cfg = RewardConfig::default();
        let starved = cfg.reward(0.1, 0.0, 40.0, 40.0);
        let utilized = cfg.reward(0.95, 0.0, 60.0, 40.0);
        assert!(utilized > starved, "{utilized} vs {starved}");
    }

    #[test]
    fn delay_forgiveness_region() {
        let cfg = RewardConfig {
            zeta: 1.0,
            beta: 2.0,
        };
        // Up to β·minRTT = 80 ms the reward is delay-insensitive.
        assert_eq!(
            cfg.reward(0.5, 0.0, 45.0, 40.0),
            cfg.reward(0.5, 0.0, 79.0, 40.0)
        );
        // Above it, larger delay means smaller reward.
        assert!(cfg.reward(0.5, 0.0, 120.0, 40.0) < cfg.reward(0.5, 0.0, 79.0, 40.0));
    }
}
