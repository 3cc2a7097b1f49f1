//! TCP Cubic (RFC 8312).
//!
//! Cubic grows its window as a cubic function of time since the last
//! congestion event, plateauing at the window where loss last occurred
//! (`w_max`) and probing beyond it. A TCP-friendly region keeps it at least
//! as aggressive as Reno on short-RTT paths, and fast convergence releases
//! bandwidth to new flows.

use canopy_netsim::{AckInfo, CongestionControl, LossInfo, Time};

/// The cubic scaling constant `C` (units: packets/s³).
pub(crate) const CUBIC_C: f64 = 0.4;
/// Multiplicative decrease factor `β`.
pub(crate) const CUBIC_BETA: f64 = 0.7;
/// Initial window, packets (RFC 6928's IW10).
pub const INITIAL_CWND: f64 = 10.0;

/// TCP Cubic congestion control.
#[derive(Clone, Debug)]
pub struct Cubic {
    cwnd: f64,
    ssthresh: f64,
    /// Window size just before the last congestion event.
    w_max: f64,
    /// `w_max` before the previous event (for fast convergence).
    w_last_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<Time>,
    /// Time offset at which the cubic curve crosses `w_max`.
    k: f64,
    /// Latest smoothed RTT estimate fed by ACKs.
    last_rtt: Time,
    /// Reno-equivalent window for the TCP-friendly region.
    w_est: f64,
}

impl Default for Cubic {
    fn default() -> Self {
        Cubic::new()
    }
}

impl Cubic {
    /// A fresh Cubic instance in slow start.
    pub fn new() -> Cubic {
        Cubic {
            cwnd: INITIAL_CWND,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            w_last_max: 0.0,
            epoch_start: None,
            k: 0.0,
            last_rtt: Time::from_millis(100),
            w_est: 0.0,
        }
    }

    /// Whether the controller is still in slow start.
    pub(crate) fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// The window the cubic curve prescribes `t` seconds into the epoch.
    fn w_cubic(&self, t: f64) -> f64 {
        CUBIC_C * (t - self.k).powi(3) + self.w_max
    }

    fn enter_epoch(&mut self, now: Time) {
        self.epoch_start = Some(now);
        if self.cwnd < self.w_max {
            self.k = ((self.w_max - self.cwnd) / CUBIC_C).cbrt();
        } else {
            self.k = 0.0;
        }
        self.w_est = self.cwnd;
    }

    fn congestion_avoidance(&mut self, now: Time, acked: u64) {
        if self.epoch_start.is_none() {
            self.enter_epoch(now);
        }
        let epoch_start = self.epoch_start.expect("epoch entered above");
        let t = now.saturating_sub(epoch_start).as_secs_f64();
        let rtt = self.last_rtt.as_secs_f64().max(1e-4);
        let target = self.w_cubic(t + rtt);
        for _ in 0..acked {
            // TCP-friendly Reno estimate: +3(1-β)/(1+β) packets per RTT.
            self.w_est += 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA) / self.cwnd;
            if target > self.cwnd {
                self.cwnd += (target - self.cwnd) / self.cwnd;
            } else {
                // In the concave plateau region Cubic still creeps up.
                self.cwnd += 0.01 / self.cwnd;
            }
        }
        if self.w_est > self.cwnd {
            self.cwnd = self.w_est;
        }
    }
}

impl CongestionControl for Cubic {
    fn on_ack(&mut self, now: Time, info: &AckInfo) {
        if let Some(rtt) = info.rtt {
            self.last_rtt = rtt;
        }
        if info.newly_acked == 0 {
            return;
        }
        if self.in_slow_start() {
            self.cwnd += info.newly_acked as f64;
            if self.cwnd >= self.ssthresh {
                self.cwnd = self.ssthresh;
                self.enter_epoch(now);
            }
        } else {
            self.congestion_avoidance(now, info.newly_acked);
        }
    }

    fn on_loss(&mut self, now: Time, _info: &LossInfo) {
        // Fast convergence: if this event arrived below the previous
        // plateau, shrink the remembered plateau to release bandwidth.
        if self.cwnd < self.w_last_max {
            self.w_last_max = self.cwnd;
            self.w_max = self.cwnd * (1.0 + CUBIC_BETA) / 2.0;
        } else {
            self.w_last_max = self.cwnd;
            self.w_max = self.cwnd;
        }
        self.cwnd = (self.cwnd * CUBIC_BETA).max(2.0);
        self.ssthresh = self.cwnd;
        self.enter_epoch(now);
    }

    fn on_timeout(&mut self, _now: Time) {
        self.w_last_max = self.cwnd;
        self.w_max = self.cwnd;
        self.ssthresh = (self.cwnd * CUBIC_BETA).max(2.0);
        self.cwnd = 1.0;
        self.epoch_start = None;
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn set_cwnd(&mut self, cwnd: f64) {
        self.cwnd = cwnd.max(1.0);
    }

    fn name(&self) -> &'static str {
        "cubic"
    }

    fn ssthresh(&self) -> Option<f64> {
        Some(self.ssthresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(newly: u64, rtt_ms: u64) -> AckInfo {
        AckInfo {
            newly_acked: newly,
            rtt: Some(Time::from_millis(rtt_ms)),
            min_rtt: Time::from_millis(rtt_ms),
            inflight: 10,
            delivered: 0,
            elapsed: Time::ZERO,
            is_duplicate: false,
        }
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = Cubic::new();
        let w0 = c.cwnd();
        // One RTT worth of ACKs: every in-flight packet acked once.
        c.on_ack(Time::from_millis(40), &ack(w0 as u64, 40));
        assert!((c.cwnd() - 2.0 * w0).abs() < 1e-9);
        assert!(c.in_slow_start());
    }

    #[test]
    fn loss_applies_beta() {
        let mut c = Cubic::new();
        c.set_cwnd(100.0);
        c.on_loss(
            Time::from_secs(1),
            &LossInfo {
                seq: 0,
                inflight: 100,
            },
        );
        assert!((c.cwnd() - 70.0).abs() < 1e-9);
        assert!(!c.in_slow_start());
        assert_eq!(c.ssthresh().unwrap(), c.cwnd());
    }

    #[test]
    fn cubic_growth_reaches_w_max_at_k() {
        let mut c = Cubic::new();
        c.set_cwnd(100.0);
        let t0 = Time::from_secs(1);
        c.on_loss(
            t0,
            &LossInfo {
                seq: 0,
                inflight: 100,
            },
        );
        // K = cbrt(w_max (1-beta) / C) = cbrt(100*0.3/0.4) = cbrt(75).
        let expect_k = (100.0 * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        assert!((c.k - expect_k).abs() < 1e-9);
        // Drive ACKs for 2*K seconds; window must pass w_max.
        let mut now = t0;
        let steps = 400;
        let dt = Time::from_secs_f64(2.0 * expect_k / steps as f64);
        for _ in 0..steps {
            now += dt;
            c.on_ack(now, &ack(c.cwnd() as u64, 40));
        }
        assert!(
            c.cwnd() > 100.0,
            "window {} should have grown past w_max=100",
            c.cwnd()
        );
    }

    /// RFC 8312's closed form: after one reduction from `W_max`, with ACKs
    /// arriving one by one at a fixed RTT and no loss, `cwnd` follows
    /// `W(t) = C(t − K)³ + W_max`, `K = cbrt(W_max (1 − β) / C)` (as
    /// `enter_epoch` computes it), through the concave and the convex
    /// region alike. Each ACK moves `cwnd` a `1/cwnd` share of the way to
    /// `W(t + RTT)`, a first-order lag of one RTT that cancels the
    /// look-ahead, so the window stays within half a packet of the curve
    /// (0.05 % of `W_max`; it strays about 0.12).
    /// `W_max` is large enough that the Reno estimate stays below the curve
    /// all the way, so the cubic term alone sets the window.
    #[test]
    fn window_follows_the_closed_form_after_a_reduction() {
        let w_max = 1000.0;
        let rtt = Time::from_millis(100);
        let mut c = Cubic::new();
        c.set_cwnd(w_max);
        let t0 = Time::from_secs(1);
        c.on_loss(
            t0,
            &LossInfo {
                seq: 0,
                inflight: 1000,
            },
        );
        let k = ((w_max - c.cwnd()) / CUBIC_C).cbrt();
        assert_eq!(c.k, k);
        assert!((k - (w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt()).abs() < 1e-9);
        let closed_form = |t: f64| CUBIC_C * (t - k).powi(3) + w_max;
        let mut now = t0;
        let mut worst: f64 = 0.0;
        let mut checked = 0;
        while now - t0 < Time::from_secs_f64(2.0 * k) {
            now += Time::from_secs_f64(rtt.as_secs_f64() / c.cwnd());
            c.on_ack(now, &ack(1, 100));
            let t = (now - t0).as_secs_f64();
            assert!(c.w_est < closed_form(t), "Reno estimate took over at {t} s");
            worst = worst.max((c.cwnd() - closed_form(t)).abs());
            checked += 1;
        }
        assert!(checked > 10_000, "{checked} ACKs");
        assert!(
            worst <= 0.5,
            "cwnd strayed {worst} packets from C(t − K)³ + W_max"
        );
        // Two K on, the window is well past the old plateau.
        assert!(c.cwnd() > 1.25 * w_max, "{}", c.cwnd());
    }

    #[test]
    fn concave_then_convex_shape() {
        // Growth rate decelerates approaching w_max, accelerates after.
        let mut c = Cubic::new();
        c.set_cwnd(200.0);
        let t0 = Time::from_secs(1);
        c.on_loss(
            t0,
            &LossInfo {
                seq: 0,
                inflight: 200,
            },
        );
        let mut now = t0;
        let mut deltas = Vec::new();
        let mut prev = c.cwnd();
        for _ in 0..60 {
            now += Time::from_millis(100);
            c.on_ack(now, &ack(c.cwnd() as u64, 40));
            deltas.push(c.cwnd() - prev);
            prev = c.cwnd();
        }
        // Early growth (toward the plateau) exceeds mid growth (at the
        // plateau): concave region decelerates.
        let early: f64 = deltas[..10].iter().sum();
        let mid: f64 = deltas[25..35].iter().sum();
        assert!(early > mid, "early {early} mid {mid}");
    }

    #[test]
    fn timeout_resets_to_one() {
        let mut c = Cubic::new();
        c.set_cwnd(64.0);
        c.on_timeout(Time::from_secs(1));
        assert_eq!(c.cwnd(), 1.0);
        assert!(c.in_slow_start());
        assert!((c.ssthresh().unwrap() - 64.0 * CUBIC_BETA).abs() < 1e-9);
    }

    #[test]
    fn fast_convergence_shrinks_plateau() {
        let mut c = Cubic::new();
        c.set_cwnd(100.0);
        c.on_loss(
            Time::from_secs(1),
            &LossInfo {
                seq: 0,
                inflight: 0,
            },
        );
        // Second loss below the previous w_max triggers fast convergence.
        let w_before = c.cwnd(); // 70
        c.on_loss(
            Time::from_secs(2),
            &LossInfo {
                seq: 1,
                inflight: 0,
            },
        );
        assert!((c.w_max - w_before * (1.0 + CUBIC_BETA) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn set_cwnd_override_respected() {
        // This is the Orca control path: an external agent multiplies the
        // kernel window and Cubic evolves from the written value.
        let mut c = Cubic::new();
        c.set_cwnd(50.0);
        assert_eq!(c.cwnd(), 50.0);
        c.set_cwnd(0.1);
        assert_eq!(c.cwnd(), 1.0);
    }

    #[test]
    fn duplicate_acks_do_not_grow_window() {
        let mut c = Cubic::new();
        let w0 = c.cwnd();
        let dup = AckInfo {
            newly_acked: 0,
            rtt: None,
            min_rtt: Time::from_millis(40),
            inflight: 10,
            delivered: 0,
            elapsed: Time::ZERO,
            is_duplicate: true,
        };
        c.on_ack(Time::from_millis(10), &dup);
        assert_eq!(c.cwnd(), w0);
    }
}
