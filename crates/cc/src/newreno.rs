//! TCP NewReno (RFC 5681/6582): classic AIMD.

use canopy_netsim::{AckInfo, CongestionControl, LossInfo, Time};

/// Initial window, packets.
pub const INITIAL_CWND: f64 = 10.0;

/// TCP NewReno congestion control: slow start, additive increase of one
/// packet per RTT, multiplicative decrease by half on loss.
#[derive(Clone, Debug)]
pub struct NewReno {
    cwnd: f64,
    ssthresh: f64,
}

impl Default for NewReno {
    fn default() -> Self {
        NewReno::new()
    }
}

impl NewReno {
    /// A fresh instance in slow start.
    pub fn new() -> NewReno {
        NewReno {
            cwnd: INITIAL_CWND,
            ssthresh: f64::INFINITY,
        }
    }

    /// Whether the controller is still in slow start.
    pub(crate) fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

impl CongestionControl for NewReno {
    fn on_ack(&mut self, _now: Time, info: &AckInfo) {
        if info.newly_acked == 0 {
            return;
        }
        if self.in_slow_start() {
            self.cwnd += info.newly_acked as f64;
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh;
            }
        } else {
            // +1 packet per window per RTT.
            self.cwnd += info.newly_acked as f64 / self.cwnd;
        }
    }

    fn on_loss(&mut self, _now: Time, _info: &LossInfo) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
    }

    fn on_timeout(&mut self, _now: Time) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn set_cwnd(&mut self, cwnd: f64) {
        self.cwnd = cwnd.max(1.0);
    }

    fn name(&self) -> &'static str {
        "newreno"
    }

    fn ssthresh(&self) -> Option<f64> {
        Some(self.ssthresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(newly: u64) -> AckInfo {
        AckInfo {
            newly_acked: newly,
            rtt: Some(Time::from_millis(40)),
            min_rtt: Time::from_millis(40),
            inflight: 10,
            delivered: 0,
            elapsed: Time::ZERO,
            is_duplicate: false,
        }
    }

    #[test]
    fn slow_start_exponential() {
        let mut cc = NewReno::new();
        cc.on_ack(Time::ZERO, &ack(10));
        assert_eq!(cc.cwnd(), 20.0);
    }

    #[test]
    fn additive_increase_after_loss() {
        let mut cc = NewReno::new();
        cc.set_cwnd(40.0);
        cc.on_loss(
            Time::ZERO,
            &LossInfo {
                seq: 0,
                inflight: 40,
            },
        );
        assert_eq!(cc.cwnd(), 20.0);
        assert!(!cc.in_slow_start());
        // One full window of ACKs grows the window by ~1 packet.
        let w = cc.cwnd();
        cc.on_ack(Time::ZERO, &ack(w as u64));
        assert!((cc.cwnd() - (w + 1.0)).abs() < 0.05);
    }

    #[test]
    fn timeout_restarts_slow_start() {
        let mut cc = NewReno::new();
        cc.set_cwnd(64.0);
        cc.on_timeout(Time::ZERO);
        assert_eq!(cc.cwnd(), 1.0);
        assert_eq!(cc.ssthresh().unwrap(), 32.0);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn halving_floors_at_two() {
        let mut cc = NewReno::new();
        cc.set_cwnd(2.0);
        cc.on_loss(
            Time::ZERO,
            &LossInfo {
                seq: 0,
                inflight: 2,
            },
        );
        assert_eq!(cc.cwnd(), 2.0);
    }
}
