//! Per-flow statistics: lifetime counters, delay sample series, and the
//! per-monitor-interval aggregates a learned controller consumes.

use serde::{Deserialize, Serialize};

use crate::time::Time;

/// One delay observation, recorded per acknowledged packet.
#[derive(Clone, Copy, Debug)]
pub struct DelaySample {
    /// When the ACK arrived at the sender.
    pub at: Time,
    /// The round-trip time sample.
    pub rtt: Time,
    /// The bottleneck queueing delay the packet experienced.
    pub queue_delay: Time,
}

/// Lifetime statistics for a flow.
#[derive(Clone, Debug, Default)]
pub struct FlowStats {
    /// Packets handed to the bottleneck (including retransmissions).
    pub sent_packets: u64,
    /// Packets dropped at the bottleneck queue.
    pub dropped_packets: u64,
    /// Packets cumulatively or selectively acknowledged.
    pub acked_packets: u64,
    /// Bytes acknowledged.
    pub acked_bytes: u64,
    /// Losses declared by the sender (fast retransmit + timeout).
    pub declared_losses: u64,
    /// Retransmitted packets.
    pub retransmits: u64,
    /// Timeout events.
    pub timeouts: u64,
    /// Packets lost to non-congestive (random) impairment after
    /// transmission.
    pub random_losses: u64,
    /// Smallest RTT observed so far ([`Time::MAX`] until the first sample).
    pub min_rtt: Time,
    /// When the application started sending (`None` before its start
    /// event fires).
    pub started_at: Option<Time>,
    /// When the application departed (`None` while still active).
    pub stopped_at: Option<Time>,
    /// Per-ACK delay samples (empty when recording is disabled).
    pub samples: Vec<DelaySample>,
}

impl FlowStats {
    /// Creates empty statistics.
    pub fn new() -> FlowStats {
        FlowStats {
            min_rtt: Time::MAX,
            ..FlowStats::default()
        }
    }

    /// The flow's active interval as of time `now`: from when the
    /// application actually started to when it departed (or `now` while
    /// still running). A flow whose start event has not fired yet has an
    /// empty interval. Rate metrics (throughput, utilization) must be
    /// normalized over this interval, not the run length, or late-starting
    /// and early-finishing flows read as artificially slow.
    pub fn active_interval(&self, now: Time) -> (Time, Time) {
        let start = match self.started_at {
            Some(t) => t.min(now),
            None => return (now, now),
        };
        let end = self.stopped_at.unwrap_or(now).min(now).max(start);
        (start, end)
    }

    /// Length of [`active_interval`](Self::active_interval).
    pub fn active_duration(&self, now: Time) -> Time {
        let (start, end) = self.active_interval(now);
        end - start
    }

    /// Goodput in Mbps over the flow's active interval as of `now` (zero
    /// for a flow that never became active). The one normalization rule
    /// every consumer — evaluation metrics, fairness shares — must agree
    /// on.
    pub fn throughput_mbps(&self, now: Time) -> f64 {
        let active_s = self.active_duration(now).as_secs_f64();
        if active_s > 0.0 {
            self.acked_bytes as f64 * 8.0 / active_s / 1e6
        } else {
            0.0
        }
    }

    /// Mean RTT over all recorded samples, in milliseconds.
    pub fn mean_rtt_ms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.samples.iter().map(|s| s.rtt.as_millis_f64()).sum();
        sum / self.samples.len() as f64
    }

    /// The `q`-quantile (0..=1) of recorded RTTs, in milliseconds.
    pub fn rtt_quantile_ms(&self, q: f64) -> f64 {
        quantile_ms(self.samples.iter().map(|s| s.rtt), q)
    }

    /// The `q`-quantile (0..=1) of recorded queueing delays, in milliseconds.
    pub fn queue_delay_quantile_ms(&self, q: f64) -> f64 {
        quantile_ms(self.samples.iter().map(|s| s.queue_delay), q)
    }

    /// Mean queueing delay over all recorded samples, in milliseconds.
    pub fn mean_queue_delay_ms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .samples
            .iter()
            .map(|s| s.queue_delay.as_millis_f64())
            .sum();
        sum / self.samples.len() as f64
    }
}

fn quantile_ms(samples: impl Iterator<Item = Time>, q: f64) -> f64 {
    let mut v: Vec<f64> = samples.map(|t| t.as_millis_f64()).collect();
    if v.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    // Selection puts the same order statistic at `idx` as a full sort.
    *v.select_nth_unstable_by(idx, |a, b| {
        a.partial_cmp(b).expect("delay samples are finite")
    })
    .1
}

/// Aggregated network feedback over one monitor interval — the raw material
/// for Orca's observation vector (Table 1 of the paper).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MonitorSample {
    /// End of the interval (simulation time).
    pub at: Time,
    /// Interval length (`m` in Table 1).
    pub duration: Time,
    /// Packets acknowledged in the interval (`n` in Table 1).
    pub acked_packets: u64,
    /// Bytes acknowledged in the interval.
    pub acked_bytes: u64,
    /// Losses declared in the interval.
    pub lost_packets: u64,
    /// Average throughput over the interval in bits per second (`thr`).
    pub throughput_bps: f64,
    /// Loss rate `l` = lost / (lost + acked), zero when idle.
    pub loss_rate: f64,
    /// Mean RTT over the interval's samples; falls back to the smoothed RTT
    /// when no sample arrived.
    pub avg_rtt: Time,
    /// Mean bottleneck queueing delay over the interval's samples.
    pub avg_queue_delay: Time,
    /// Smoothed RTT (`sRTT`) at the end of the interval.
    pub srtt: Time,
    /// Lifetime minimum RTT at the end of the interval.
    pub min_rtt: Time,
    /// Congestion window at the end of the interval, in packets.
    pub cwnd: f64,
    /// Packets in flight at the end of the interval.
    pub inflight: u64,
}

impl MonitorSample {
    /// Queuing delay estimated the way Orca does it: smoothed RTT minus the
    /// minimum RTT, in milliseconds.
    pub fn orca_queue_delay_ms(&self) -> f64 {
        if self.min_rtt == Time::MAX {
            return 0.0;
        }
        self.srtt.saturating_sub(self.min_rtt).as_millis_f64()
    }
}

/// Accumulators the simulator fills between monitor drains.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonitorAccum {
    pub(crate) last_drain: Time,
    pub(crate) acked_packets: u64,
    pub(crate) acked_bytes: u64,
    pub(crate) lost_packets: u64,
    pub(crate) rtt_sum_ns: u128,
    pub(crate) rtt_count: u64,
    pub(crate) qdelay_sum_ns: u128,
    pub(crate) qdelay_count: u64,
}

impl MonitorAccum {
    /// Drains the accumulators into a [`MonitorSample`], resetting them.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn drain(
        &mut self,
        now: Time,
        srtt: Time,
        min_rtt: Time,
        cwnd: f64,
        inflight: u64,
    ) -> MonitorSample {
        let duration = now.saturating_sub(self.last_drain);
        let dt = duration.as_secs_f64();
        let throughput_bps = if dt > 0.0 {
            self.acked_bytes as f64 * 8.0 / dt
        } else {
            0.0
        };
        let total = self.acked_packets + self.lost_packets;
        let loss_rate = if total > 0 {
            self.lost_packets as f64 / total as f64
        } else {
            0.0
        };
        let avg_rtt = if self.rtt_count > 0 {
            Time::from_nanos((self.rtt_sum_ns / self.rtt_count as u128) as u64)
        } else {
            srtt
        };
        let avg_queue_delay = if self.qdelay_count > 0 {
            Time::from_nanos((self.qdelay_sum_ns / self.qdelay_count as u128) as u64)
        } else {
            Time::ZERO
        };
        let sample = MonitorSample {
            at: now,
            duration,
            acked_packets: self.acked_packets,
            acked_bytes: self.acked_bytes,
            lost_packets: self.lost_packets,
            throughput_bps,
            loss_rate,
            avg_rtt,
            avg_queue_delay,
            srtt,
            min_rtt,
            cwnd,
            inflight,
        };
        *self = MonitorAccum {
            last_drain: now,
            ..MonitorAccum::default()
        };
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        let mut stats = FlowStats::new();
        for i in 1..=100u64 {
            stats.samples.push(DelaySample {
                at: Time::from_millis(i),
                rtt: Time::from_millis(i),
                queue_delay: Time::from_millis(i / 2),
            });
        }
        assert!((stats.rtt_quantile_ms(0.95) - 95.0).abs() < 1.01);
        assert!((stats.rtt_quantile_ms(0.0) - 1.0).abs() < 1e-9);
        assert!((stats.rtt_quantile_ms(1.0) - 100.0).abs() < 1e-9);
        assert!((stats.mean_rtt_ms() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = FlowStats::new();
        assert_eq!(stats.mean_rtt_ms(), 0.0);
        assert_eq!(stats.rtt_quantile_ms(0.95), 0.0);
        assert_eq!(stats.mean_queue_delay_ms(), 0.0);
    }

    #[test]
    fn accumulator_drain_computes_rates() {
        let mut acc = MonitorAccum {
            acked_packets: 10,
            acked_bytes: 10_000,
            lost_packets: 10,
            rtt_sum_ns: 10 * 20_000_000,
            rtt_count: 10,
            ..MonitorAccum::default()
        };
        let s = acc.drain(
            Time::from_millis(100),
            Time::from_millis(21),
            Time::from_millis(10),
            12.0,
            5,
        );
        assert_eq!(s.duration, Time::from_millis(100));
        assert!((s.throughput_bps - 800_000.0).abs() < 1.0);
        assert!((s.loss_rate - 0.5).abs() < 1e-12);
        assert_eq!(s.avg_rtt, Time::from_millis(20));
        assert_eq!(s.cwnd, 12.0);
        // Drained: next interval starts fresh.
        assert_eq!(acc.acked_packets, 0);
        assert_eq!(acc.last_drain, Time::from_millis(100));
    }

    #[test]
    fn orca_queue_delay_is_srtt_above_min_rtt() {
        let s = MonitorSample {
            at: Time::from_secs(1),
            duration: Time::from_millis(20),
            acked_packets: 1,
            acked_bytes: 1448,
            lost_packets: 0,
            throughput_bps: 1e6,
            loss_rate: 0.0,
            avg_rtt: Time::from_millis(40),
            avg_queue_delay: Time::from_millis(20),
            srtt: Time::from_millis(40),
            min_rtt: Time::from_millis(20),
            cwnd: 10.0,
            inflight: 3,
        };
        assert!((s.orca_queue_delay_ms() - 20.0).abs() < 1e-9);
    }
}
