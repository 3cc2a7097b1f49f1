//! A simplified, window-based BBRv1.
//!
//! BBR models the path with two quantities — the bottleneck bandwidth
//! (windowed-max filter over delivery-rate samples) and the round-trip
//! propagation time (windowed-min filter over RTT samples) — and sizes the
//! congestion window as a gain times their product. The state machine
//! follows the BBRv1 draft: `Startup` (gain 2/ln2 ≈ 2.89) until bandwidth
//! plateaus, a `Drain` phase to empty the startup queue, a steady-state
//! `ProbeBw` eight-phase gain cycle, and periodic `ProbeRtt` dips to
//! re-measure the propagation delay.
//!
//! Simplification vs. the reference: there is no pacing — the simulator is
//! purely window-clocked — so short-term burstiness is higher than a paced
//! BBR, but the equilibrium operating point (rate ≈ bottleneck bandwidth,
//! bounded queue) is the same, which is what the paper's comparisons use.

use std::collections::VecDeque;

use canopy_netsim::{AckInfo, CongestionControl, LossInfo, Time, MSS_BYTES};

/// Startup / drain gains (2/ln 2 and its inverse).
pub(crate) const STARTUP_GAIN: f64 = 2.885;
/// ProbeBW gain cycle.
pub(crate) const PROBE_BW_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// How long ProbeRTT pins the window down.
pub(crate) const PROBE_RTT_DURATION: Time = Time::from_millis(200);
/// How often ProbeRTT triggers.
pub(crate) const PROBE_RTT_INTERVAL: Time = Time::from_secs(10);
/// Bandwidth filter window, in estimated round trips.
pub(crate) const BW_FILTER_RTTS: u32 = 10;
/// Minimum window during ProbeRTT, packets.
pub(crate) const PROBE_RTT_CWND: f64 = 4.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

/// Simplified BBR congestion control.
#[derive(Clone, Debug)]
pub(crate) struct Bbr {
    cwnd: f64,
    state: State,
    /// Windowed max-filter over delivery-rate samples: (expiry, bytes/s).
    bw_samples: VecDeque<(Time, f64)>,
    /// Windowed min-filter over RTT samples: (expiry, rtt).
    rtt_samples: VecDeque<(Time, Time)>,
    /// Bandwidth plateau detection in Startup.
    full_bw: f64,
    full_bw_count: u32,
    /// ProbeBW phase index and when it advances.
    cycle_index: usize,
    cycle_deadline: Time,
    /// ProbeRTT scheduling.
    probe_rtt_due: Time,
    probe_rtt_until: Option<Time>,
}

impl Default for Bbr {
    fn default() -> Self {
        Bbr::new()
    }
}

impl Bbr {
    /// A fresh instance in Startup.
    pub fn new() -> Bbr {
        Bbr {
            cwnd: 10.0,
            state: State::Startup,
            bw_samples: VecDeque::new(),
            rtt_samples: VecDeque::new(),
            full_bw: 0.0,
            full_bw_count: 0,
            cycle_index: 0,
            cycle_deadline: Time::ZERO,
            probe_rtt_due: PROBE_RTT_INTERVAL,
            probe_rtt_until: None,
        }
    }

    /// Current bottleneck-bandwidth estimate in bytes per second.
    pub(crate) fn btl_bw(&self) -> f64 {
        self.bw_samples
            .iter()
            .map(|&(_, bw)| bw)
            .fold(0.0, f64::max)
    }

    /// Current propagation-RTT estimate.
    pub(crate) fn rt_prop(&self) -> Option<Time> {
        self.rtt_samples.iter().map(|&(_, r)| r).min()
    }

    /// The BDP estimate in packets.
    pub fn bdp_packets(&self) -> Option<f64> {
        let rtprop = self.rt_prop()?;
        let bw = self.btl_bw();
        if bw <= 0.0 {
            return None;
        }
        Some(bw * rtprop.as_secs_f64() / MSS_BYTES as f64)
    }

    fn gain(&self) -> f64 {
        match self.state {
            State::Startup => STARTUP_GAIN,
            State::Drain => 1.0 / STARTUP_GAIN,
            State::ProbeBw => PROBE_BW_GAINS[self.cycle_index],
            State::ProbeRtt => 0.0, // cwnd pinned separately
        }
    }

    fn expire_filters(&mut self, now: Time) {
        while self
            .bw_samples
            .front()
            .is_some_and(|&(expiry, _)| expiry <= now)
        {
            self.bw_samples.pop_front();
        }
        while self
            .rtt_samples
            .front()
            .is_some_and(|&(expiry, _)| expiry <= now)
        {
            self.rtt_samples.pop_front();
        }
    }

    fn check_full_pipe(&mut self) {
        let bw = self.btl_bw();
        if bw > self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_count = 0;
        } else {
            self.full_bw_count += 1;
        }
    }

    fn advance_state(&mut self, now: Time, info: &AckInfo) {
        match self.state {
            State::Startup => {
                if self.full_bw_count >= 3 {
                    self.state = State::Drain;
                }
            }
            State::Drain => {
                if let Some(bdp) = self.bdp_packets() {
                    if (info.inflight as f64) <= bdp {
                        self.state = State::ProbeBw;
                        self.cycle_index = 2; // start in a cruise phase
                        self.cycle_deadline =
                            now + self.rt_prop().unwrap_or(Time::from_millis(100));
                    }
                }
            }
            State::ProbeBw => {
                if now >= self.cycle_deadline {
                    self.cycle_index = (self.cycle_index + 1) % PROBE_BW_GAINS.len();
                    self.cycle_deadline = now + self.rt_prop().unwrap_or(Time::from_millis(100));
                }
                if now >= self.probe_rtt_due {
                    self.state = State::ProbeRtt;
                    self.probe_rtt_until = Some(now + PROBE_RTT_DURATION);
                }
            }
            State::ProbeRtt => {
                if self.probe_rtt_until.is_some_and(|t| now >= t) {
                    self.probe_rtt_until = None;
                    self.probe_rtt_due = now + PROBE_RTT_INTERVAL;
                    self.state = State::ProbeBw;
                    self.cycle_index = 2;
                    self.cycle_deadline = now;
                }
            }
        }
    }
}

impl CongestionControl for Bbr {
    fn on_ack(&mut self, now: Time, info: &AckInfo) {
        self.expire_filters(now);
        let rtprop_guess = self
            .rt_prop()
            .unwrap_or(info.rtt.unwrap_or(Time::from_millis(100)));
        if let Some(bw) = info.delivery_rate() {
            let window = rtprop_guess
                .mul_f64(BW_FILTER_RTTS as f64)
                .max(Time::from_secs(1));
            let had_growth = self.bw_samples.is_empty();
            self.bw_samples.push_back((now + window, bw));
            if info.newly_acked > 0 || had_growth {
                self.check_full_pipe();
            }
        }
        if let Some(rtt) = info.rtt {
            self.rtt_samples.push_back((now + PROBE_RTT_INTERVAL, rtt));
        }
        self.advance_state(now, info);

        if self.state == State::ProbeRtt {
            self.cwnd = PROBE_RTT_CWND;
            return;
        }
        match self.bdp_packets() {
            Some(bdp) => {
                // Track gain·BDP directly; excess inflight drains naturally
                // because the sender is window-clocked.
                self.cwnd = (self.gain() * bdp).max(PROBE_RTT_CWND);
            }
            None => {
                // No estimates yet: slow-start-like growth.
                self.cwnd += info.newly_acked as f64;
            }
        }
    }

    fn on_loss(&mut self, _now: Time, _info: &LossInfo) {
        // BBRv1 deliberately does not react to individual losses.
    }

    fn on_timeout(&mut self, _now: Time) {
        // Conservative fallback on a lost window.
        self.cwnd = PROBE_RTT_CWND;
        self.state = State::Startup;
        self.full_bw = 0.0;
        self.full_bw_count = 0;
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn set_cwnd(&mut self, cwnd: f64) {
        self.cwnd = cwnd.max(1.0);
    }

    fn name(&self) -> &'static str {
        "bbr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(rtt_ms: u64, rate: f64, inflight: u64) -> AckInfo {
        AckInfo {
            newly_acked: 1,
            rtt: Some(Time::from_millis(rtt_ms)),
            min_rtt: Time::from_millis(rtt_ms),
            inflight,
            // One second at `rate`: every rate these tests use is whole.
            delivered: rate as u64,
            elapsed: Time::from_secs(1),
            is_duplicate: false,
        }
    }

    #[test]
    fn filters_track_max_bw_and_min_rtt() {
        let mut b = Bbr::new();
        b.on_ack(Time::from_millis(1), &ack(50, 1e6, 10));
        b.on_ack(Time::from_millis(2), &ack(40, 2e6, 10));
        b.on_ack(Time::from_millis(3), &ack(60, 1.5e6, 10));
        assert_eq!(b.btl_bw(), 2e6);
        assert_eq!(b.rt_prop(), Some(Time::from_millis(40)));
    }

    #[test]
    fn startup_exits_on_bandwidth_plateau() {
        let mut b = Bbr::new();
        let mut now = Time::ZERO;
        // Growing bandwidth: stays in Startup.
        for i in 1..=5 {
            now += Time::from_millis(10);
            b.on_ack(now, &ack(40, i as f64 * 1e6, 20));
        }
        assert_eq!(b.state, State::Startup);
        // Plateau for >3 ACKs: exits to Drain.
        for _ in 0..4 {
            now += Time::from_millis(10);
            b.on_ack(now, &ack(40, 5e6, 20));
        }
        assert_ne!(b.state, State::Startup);
    }

    #[test]
    fn drain_transitions_to_probe_bw_when_inflight_below_bdp() {
        let mut b = Bbr::new();
        let mut now = Time::ZERO;
        for i in 1..=5 {
            now += Time::from_millis(10);
            b.on_ack(now, &ack(40, i as f64 * 1e6, 200));
        }
        for _ in 0..4 {
            now += Time::from_millis(10);
            b.on_ack(now, &ack(40, 5e6, 200));
        }
        assert_eq!(b.state, State::Drain);
        // BDP = 5e6 B/s * 0.04 s / 1448 ≈ 138 packets; inflight below that.
        now += Time::from_millis(10);
        b.on_ack(now, &ack(40, 5e6, 100));
        assert_eq!(b.state, State::ProbeBw);
    }

    #[test]
    fn cwnd_tracks_gain_times_bdp() {
        let mut b = Bbr::new();
        let mut now = Time::ZERO;
        for i in 1..=9 {
            now += Time::from_millis(10);
            b.on_ack(now, &ack(40, (i.min(5)) as f64 * 1e6, 100));
        }
        // Reach ProbeBW.
        now += Time::from_millis(10);
        b.on_ack(now, &ack(40, 5e6, 50));
        assert_eq!(b.state, State::ProbeBw);
        let bdp = b.bdp_packets().unwrap();
        now += Time::from_millis(10);
        b.on_ack(now, &ack(40, 5e6, 50));
        assert!(
            b.cwnd() <= 1.3 * bdp && b.cwnd() >= 0.7 * bdp,
            "cwnd {} bdp {bdp}",
            b.cwnd()
        );
    }

    #[test]
    fn probe_rtt_pins_window() {
        let mut b = Bbr::new();
        let mut now = Time::ZERO;
        for i in 1..=9 {
            now += Time::from_millis(10);
            b.on_ack(now, &ack(40, (i.min(5)) as f64 * 1e6, 100));
        }
        now += Time::from_millis(10);
        b.on_ack(now, &ack(40, 5e6, 50)); // → ProbeBw
                                          // Jump past the ProbeRTT due time.
        now = Time::from_secs(11);
        b.on_ack(now, &ack(40, 5e6, 50));
        assert_eq!(b.state, State::ProbeRtt);
        assert_eq!(b.cwnd(), PROBE_RTT_CWND);
        // And it leaves ProbeRTT after the dwell.
        now += Time::from_millis(250);
        b.on_ack(now, &ack(40, 5e6, 4));
        assert_eq!(b.state, State::ProbeBw);
    }

    #[test]
    fn loss_is_ignored_timeout_is_not() {
        let mut b = Bbr::new();
        b.set_cwnd(100.0);
        b.on_loss(
            Time::ZERO,
            &LossInfo {
                seq: 0,
                inflight: 50,
            },
        );
        assert_eq!(b.cwnd(), 100.0);
        b.on_timeout(Time::ZERO);
        assert_eq!(b.cwnd(), PROBE_RTT_CWND);
        assert_eq!(b.state, State::Startup);
    }
}
