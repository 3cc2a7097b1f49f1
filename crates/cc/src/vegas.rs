//! TCP Vegas (Brakmo & Peterson): delay-based congestion avoidance.
//!
//! Vegas compares the expected rate `cwnd / baseRTT` with the actual rate
//! `cwnd / RTT` and keeps between `alpha` and `beta` packets resident in the
//! bottleneck queue, backing off *before* loss. It is the low-delay /
//! low-aggressiveness baseline in the paper's Figures 9 and 10.

use canopy_netsim::{AckInfo, CongestionControl, LossInfo, Time};

/// Lower bound on queued packets before increasing.
pub(crate) const VEGAS_ALPHA: f64 = 2.0;
/// Upper bound on queued packets before decreasing.
pub(crate) const VEGAS_BETA: f64 = 4.0;
/// Slow-start exit threshold on queued packets.
pub(crate) const VEGAS_GAMMA: f64 = 1.0;
/// Initial window, packets.
pub const INITIAL_CWND: f64 = 10.0;

/// TCP Vegas congestion control.
#[derive(Clone, Debug)]
pub struct Vegas {
    cwnd: f64,
    /// Minimum RTT ever observed (the propagation estimate).
    base_rtt: Option<Time>,
    /// Smallest RTT seen in the current observation epoch.
    epoch_min_rtt: Option<Time>,
    /// End of the current once-per-RTT adjustment epoch.
    epoch_end: Time,
    in_slow_start: bool,
    /// Slow start doubles only every other RTT.
    ss_grow_this_epoch: bool,
}

impl Default for Vegas {
    fn default() -> Self {
        Vegas::new()
    }
}

impl Vegas {
    /// A fresh instance in Vegas slow start.
    pub fn new() -> Vegas {
        Vegas {
            cwnd: INITIAL_CWND,
            base_rtt: None,
            epoch_min_rtt: None,
            epoch_end: Time::ZERO,
            in_slow_start: true,
            ss_grow_this_epoch: true,
        }
    }

    /// Estimated packets resident in the queue given the epoch's best RTT.
    fn queued_packets(&self, rtt: Time) -> f64 {
        let base = match self.base_rtt {
            Some(b) => b.as_secs_f64(),
            None => return 0.0,
        };
        let rtt = rtt.as_secs_f64().max(base);
        // diff = cwnd * (1 - base/rtt) — expected minus actual, scaled.
        self.cwnd * (1.0 - base / rtt)
    }

    fn end_of_epoch(&mut self) {
        let Some(rtt) = self.epoch_min_rtt.take() else {
            return;
        };
        let diff = self.queued_packets(rtt);
        if self.in_slow_start {
            if diff > VEGAS_GAMMA {
                self.in_slow_start = false;
                self.cwnd = (self.cwnd - diff).max(2.0);
            } else if self.ss_grow_this_epoch {
                self.cwnd *= 2.0;
            }
            self.ss_grow_this_epoch = !self.ss_grow_this_epoch;
        } else if diff < VEGAS_ALPHA {
            self.cwnd += 1.0;
        } else if diff > VEGAS_BETA {
            self.cwnd = (self.cwnd - 1.0).max(2.0);
        }
    }
}

impl CongestionControl for Vegas {
    fn on_ack(&mut self, now: Time, info: &AckInfo) {
        if let Some(rtt) = info.rtt {
            if self.base_rtt.is_none_or(|b| rtt < b) {
                self.base_rtt = Some(rtt);
            }
            if self.epoch_min_rtt.is_none_or(|m| rtt < m) {
                self.epoch_min_rtt = Some(rtt);
            }
        }
        if now >= self.epoch_end {
            self.end_of_epoch();
            let rtt = self.base_rtt.unwrap_or(Time::from_millis(100));
            self.epoch_end = now + rtt;
        }
    }

    fn on_loss(&mut self, _now: Time, _info: &LossInfo) {
        self.cwnd = (self.cwnd * 0.75).max(2.0);
        self.in_slow_start = false;
    }

    fn on_timeout(&mut self, _now: Time) {
        self.cwnd = 2.0;
        self.in_slow_start = true;
        self.ss_grow_this_epoch = true;
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn set_cwnd(&mut self, cwnd: f64) {
        self.cwnd = cwnd.max(1.0);
    }

    fn name(&self) -> &'static str {
        "vegas"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack_rtt(rtt_ms: u64) -> AckInfo {
        AckInfo {
            newly_acked: 1,
            rtt: Some(Time::from_millis(rtt_ms)),
            min_rtt: Time::from_millis(rtt_ms),
            inflight: 10,
            delivered: 0,
            elapsed: Time::ZERO,
            is_duplicate: false,
        }
    }

    #[test]
    fn increases_when_queue_empty() {
        let mut v = Vegas::new();
        v.in_slow_start = false;
        // Constant RTT at the base: diff = 0 < alpha → +1 per epoch.
        let mut now = Time::ZERO;
        let w0 = v.cwnd();
        for _ in 0..10 {
            now += Time::from_millis(50);
            v.on_ack(now, &ack_rtt(40));
        }
        assert!(v.cwnd() > w0, "{} > {w0}", v.cwnd());
    }

    #[test]
    fn decreases_when_queue_builds() {
        let mut v = Vegas::new();
        v.in_slow_start = false;
        v.set_cwnd(50.0);
        // Establish base RTT, then present much larger RTTs:
        // diff = 50·(1 − 40/80) = 25 > beta → −1 per epoch.
        v.on_ack(Time::ZERO, &ack_rtt(40));
        let mut now = Time::ZERO;
        for _ in 0..10 {
            now += Time::from_millis(100);
            v.on_ack(now, &ack_rtt(80));
        }
        assert!(v.cwnd() < 50.0, "{}", v.cwnd());
    }

    #[test]
    fn holds_inside_band() {
        let mut v = Vegas::new();
        v.in_slow_start = false;
        v.set_cwnd(40.0);
        // The first ACK both establishes the base RTT and runs an epoch
        // adjustment at diff = 0, so the window steps once to 41.
        v.on_ack(Time::ZERO, &ack_rtt(40));
        // RTT 43.2ms with base 40: diff = 41·(1−40/43.2) ≈ 3.04 ∈ (α, β).
        let mut now = Time::ZERO;
        for _ in 0..6 {
            now += Time::from_millis(100);
            v.on_ack(
                now,
                &AckInfo {
                    rtt: Some(Time::from_micros(43_200)),
                    ..ack_rtt(43)
                },
            );
        }
        assert!((v.cwnd() - 41.0).abs() < 1e-9, "{}", v.cwnd());
    }

    #[test]
    fn slow_start_exits_on_queueing() {
        let mut v = Vegas::new();
        v.on_ack(Time::ZERO, &ack_rtt(40));
        let mut now = Time::ZERO;
        for _ in 0..20 {
            now += Time::from_millis(50);
            v.on_ack(now, &ack_rtt(80)); // heavy queueing
        }
        assert!(!v.in_slow_start);
    }

    #[test]
    fn loss_backs_off() {
        let mut v = Vegas::new();
        v.set_cwnd(40.0);
        v.on_loss(
            Time::ZERO,
            &LossInfo {
                seq: 0,
                inflight: 40,
            },
        );
        assert_eq!(v.cwnd(), 30.0);
    }

    #[test]
    fn timeout_resets() {
        let mut v = Vegas::new();
        v.set_cwnd(40.0);
        v.on_timeout(Time::ZERO);
        assert_eq!(v.cwnd(), 2.0);
    }
}
