//! The congestion-control interface the simulated sender drives.
//!
//! Classic kernels (Cubic, NewReno, Vegas, BBR) live in the `canopy-cc`
//! crate; learned controllers modulate a classic kernel through
//! [`CongestionControl::set_cwnd`], exactly as Orca patches the Linux
//! kernel's `cwnd` from user space.

use crate::time::Time;

/// Information delivered to the controller on every acknowledgement.
#[derive(Clone, Copy, Debug)]
pub struct AckInfo {
    /// Packets newly acknowledged cumulatively by this ACK.
    pub newly_acked: u64,
    /// RTT sample from the echoed packet, absent for retransmissions
    /// (Karn's algorithm).
    pub rtt: Option<Time>,
    /// The flow's current minimum observed RTT.
    pub min_rtt: Time,
    /// Packets currently outstanding (sent, not yet acknowledged or lost).
    pub inflight: u64,
    /// Bytes delivered between the echoed packet's send and this ACK
    /// (what this ACK itself acknowledges not included).
    pub delivered: u64,
    /// Time since the echoed packet was sent.
    pub elapsed: Time,
    /// Whether the ACK was a duplicate (did not advance the cumulative ACK).
    pub is_duplicate: bool,
}

impl AckInfo {
    /// Delivery-rate sample in bytes per second — [`delivered`](Self::delivered)
    /// over [`elapsed`](Self::elapsed) — when any time elapsed; BBR's
    /// bandwidth filter consumes it. Computed on demand: most kernels never
    /// ask.
    #[inline]
    pub fn delivery_rate(&self) -> Option<f64> {
        (self.elapsed > Time::ZERO).then(|| self.delivered as f64 / self.elapsed.as_secs_f64())
    }
}

/// Information delivered on a fast-retransmit-style loss detection.
#[derive(Clone, Copy, Debug)]
pub struct LossInfo {
    /// Sequence number of the packet declared lost.
    pub seq: u64,
    /// Packets outstanding at detection time.
    pub inflight: u64,
}

/// A congestion-control algorithm driven by the simulated sender.
///
/// Implementations own a congestion window measured in packets. The sender
/// calls the `on_*` hooks as events arrive and reads [`cwnd`](Self::cwnd)
/// to decide whether it may transmit.
pub trait CongestionControl: Send {
    /// Called on every acknowledgement arrival.
    fn on_ack(&mut self, now: Time, info: &AckInfo);

    /// Called when a loss is detected via duplicate ACKs (fast retransmit).
    /// Invoked at most once per window (the sender suppresses re-entry
    /// while in recovery).
    fn on_loss(&mut self, now: Time, info: &LossInfo);

    /// Called when the retransmission timer fires.
    fn on_timeout(&mut self, now: Time);

    /// The current congestion window, in packets. Values below 1.0 are
    /// treated as 1.0 by the sender.
    fn cwnd(&self) -> f64;

    /// Overrides the congestion window, in packets.
    ///
    /// This is the hook a learned controller uses for coarse-grained
    /// control: Orca computes `2^(2a) · cwnd_tcp` and writes it back, and
    /// the kernel algorithm continues evolving from the written value.
    fn set_cwnd(&mut self, cwnd: f64);

    /// A short human-readable name for experiment output.
    fn name(&self) -> &'static str;

    /// The current slow-start threshold in packets, if the algorithm has one.
    fn ssthresh(&self) -> Option<f64> {
        None
    }
}

/// A trivial fixed-window controller, useful for tests and for isolating
/// simulator dynamics from control dynamics.
#[derive(Clone, Debug)]
pub struct FixedWindow {
    cwnd: f64,
}

impl FixedWindow {
    /// Creates a controller pinned at `cwnd` packets.
    pub fn new(cwnd: f64) -> FixedWindow {
        FixedWindow {
            cwnd: cwnd.max(1.0),
        }
    }
}

impl CongestionControl for FixedWindow {
    fn on_ack(&mut self, _now: Time, _info: &AckInfo) {}

    fn on_loss(&mut self, _now: Time, _info: &LossInfo) {}

    fn on_timeout(&mut self, _now: Time) {}

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn set_cwnd(&mut self, cwnd: f64) {
        self.cwnd = cwnd.max(1.0);
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_window_ignores_events() {
        let mut cc = FixedWindow::new(10.0);
        cc.on_ack(
            Time::ZERO,
            &AckInfo {
                newly_acked: 1,
                rtt: Some(Time::from_millis(10)),
                min_rtt: Time::from_millis(10),
                inflight: 5,
                delivered: 0,
                elapsed: Time::ZERO,
                is_duplicate: false,
            },
        );
        cc.on_loss(
            Time::ZERO,
            &LossInfo {
                seq: 3,
                inflight: 5,
            },
        );
        cc.on_timeout(Time::ZERO);
        assert_eq!(cc.cwnd(), 10.0);
    }

    #[test]
    fn fixed_window_set_cwnd_clamps() {
        let mut cc = FixedWindow::new(0.0);
        assert_eq!(cc.cwnd(), 1.0);
        cc.set_cwnd(0.25);
        assert_eq!(cc.cwnd(), 1.0);
        cc.set_cwnd(42.0);
        assert_eq!(cc.cwnd(), 42.0);
    }
}
