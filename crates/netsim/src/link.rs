//! The bottleneck link: a trace-driven serializer behind a droptail queue.

use serde::{Deserialize, Serialize};

use crate::packet::MSS_BYTES;
use crate::queue::DropTailQueue;
use crate::time::Time;
use crate::trace::{BandwidthTrace, TraceCursor};

/// One phase of a time-scheduled impairment program: from `start` until the
/// next phase begins (or forever), packets see the given loss probability
/// and jitter bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ImpairmentPhase {
    /// When this phase takes effect.
    pub start: Time,
    /// Random-loss probability during the phase; `0.0` disables.
    pub random_loss: f64,
    /// Maximum extra one-way delay during the phase; [`Time::ZERO`]
    /// disables.
    pub max_jitter: Time,
}

/// Stochastic path impairments applied at a link, as a time-scheduled
/// program of loss/jitter phases. These model non-congestive effects real
/// paths exhibit — random (wireless) loss and delay jitter: before the
/// first phase the link is clean, then each phase holds until the next one
/// starts, and the final phase holds to the end of the run (a static
/// impairment is one phase starting at zero). One seeded RNG drives the
/// whole program so runs stay deterministic.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ImpairmentSchedule {
    /// Phases sorted by `start` (unsorted input is sorted on construction;
    /// building by hand must keep them sorted).
    pub phases: Vec<ImpairmentPhase>,
    /// Seed for the impairment RNG.
    pub seed: u64,
}

impl ImpairmentSchedule {
    /// A schedule from explicit phases (sorted by start time here).
    pub fn new(mut phases: Vec<ImpairmentPhase>, seed: u64) -> ImpairmentSchedule {
        phases.sort_by_key(|p| p.start);
        ImpairmentSchedule { phases, seed }
    }

    /// Whether any phase impairs traffic.
    pub(crate) fn is_active(&self) -> bool {
        self.phases
            .iter()
            .any(|p| p.random_loss > 0.0 || p.max_jitter > Time::ZERO)
    }

    /// The `(random_loss, max_jitter)` in effect at time `t` (clean before
    /// the first phase).
    pub fn at(&self, t: Time) -> (f64, Time) {
        let idx = self.phases.partition_point(|p| p.start <= t);
        if idx == 0 {
            (0.0, Time::ZERO)
        } else {
            let p = &self.phases[idx - 1];
            (p.random_loss, p.max_jitter)
        }
    }
}

/// Static configuration of one link.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// The bandwidth process.
    pub trace: BandwidthTrace,
    /// Droptail buffer size in bytes.
    pub buffer_bytes: u64,
    /// The impairment program (off by default).
    pub impairments: Option<ImpairmentSchedule>,
    /// One-way propagation delay added when forwarding a packet from this
    /// link to the *next* hop of its path. Irrelevant on a flow's final
    /// hop, where delivery uses the flow's `min_rtt` instead — so a
    /// dumbbell is delay-insensitive, exactly like the pre-topology
    /// engine.
    pub delay: Time,
}

impl LinkConfig {
    /// Creates a link with an explicit byte buffer.
    pub fn new(trace: BandwidthTrace, buffer_bytes: u64) -> LinkConfig {
        LinkConfig {
            trace,
            buffer_bytes,
            impairments: None,
            delay: Time::ZERO,
        }
    }

    /// Sets the per-hop forwarding delay (multi-hop topologies only).
    pub fn with_delay(mut self, delay: Time) -> LinkConfig {
        self.delay = delay;
        self
    }

    /// Attaches an impairment program to the link.
    pub fn with_impairments(mut self, impairments: ImpairmentSchedule) -> LinkConfig {
        self.impairments = Some(impairments);
        self
    }

    /// Creates a link whose buffer is `bdp_multiple` bandwidth-delay
    /// products, the convention used throughout the paper (0.5 BDP shallow,
    /// 5 BDP deep, 2 BDP for robustness training).
    ///
    /// The BDP is computed from the trace's long-run average rate over one
    /// cycle and the given propagation RTT, and floored at two packets so
    /// shallow configurations remain usable.
    pub fn with_bdp_buffer(trace: BandwidthTrace, min_rtt: Time, bdp_multiple: f64) -> LinkConfig {
        let cycle = trace.cycle_duration().max(Time::from_millis(1));
        let avg_rate_bps = trace.avg_rate(Time::ZERO, cycle);
        let bdp_bytes = avg_rate_bps * min_rtt.as_secs_f64() / 8.0;
        let buffer = (bdp_bytes * bdp_multiple).max(2.0 * MSS_BYTES as f64) as u64;
        LinkConfig::new(trace, buffer)
    }

    /// The bandwidth-delay product in packets for a given RTT, based on the
    /// trace's long-run average rate.
    pub fn bdp_packets(&self, min_rtt: Time) -> f64 {
        let cycle = self.trace.cycle_duration().max(Time::from_millis(1));
        let avg_rate_bps = self.trace.avg_rate(Time::ZERO, cycle);
        avg_rate_bps * min_rtt.as_secs_f64() / 8.0 / MSS_BYTES as f64
    }
}

/// Runtime state of one link.
#[derive(Debug)]
pub struct Link {
    /// The bandwidth process.
    pub trace: BandwidthTrace,
    /// The droptail buffer.
    pub queue: DropTailQueue,
    /// One-way forwarding delay toward the next hop (see
    /// [`LinkConfig::delay`]).
    pub delay: Time,
    /// Whether a packet is currently being serialized (a departure event is
    /// outstanding).
    pub busy: bool,
    /// Total bytes this link finished serializing (per-link utilization).
    pub served_bytes: u64,
    /// Where in `trace` the last departure lookup started.
    cursor: TraceCursor,
}

impl Link {
    /// Creates the link from its configuration.
    pub fn new(config: LinkConfig) -> Link {
        Link {
            trace: config.trace,
            queue: DropTailQueue::new(config.buffer_bytes),
            delay: config.delay,
            busy: false,
            served_bytes: 0,
            cursor: TraceCursor::default(),
        }
    }

    /// When the head-of-line packet — every packet is one MSS — would
    /// finish serializing if started now.
    pub(crate) fn head_transmit_end(&mut self, now: Time) -> Option<Time> {
        self.trace.mss_transmit_end(&mut self.cursor, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bdp_buffer_sizing() {
        // 12 Mbps, 40 ms RTT: BDP = 12e6 * 0.04 / 8 = 60 kB.
        let trace = BandwidthTrace::constant("c", 12e6);
        let cfg = LinkConfig::with_bdp_buffer(trace, Time::from_millis(40), 1.0);
        assert!((cfg.buffer_bytes as f64 - 60_000.0).abs() < 1.0);
        // 0.5 BDP.
        let cfg = LinkConfig::with_bdp_buffer(
            BandwidthTrace::constant("c", 12e6),
            Time::from_millis(40),
            0.5,
        );
        assert!((cfg.buffer_bytes as f64 - 30_000.0).abs() < 1.0);
    }

    #[test]
    fn tiny_bdp_floors_at_two_packets() {
        let trace = BandwidthTrace::constant("slow", 1e5);
        let cfg = LinkConfig::with_bdp_buffer(trace, Time::from_millis(1), 0.5);
        assert_eq!(cfg.buffer_bytes, 2 * MSS_BYTES as u64);
    }

    #[test]
    fn bdp_packets() {
        let trace = BandwidthTrace::constant("c", 11.584e6); // 1000 pkt/s of MSS
        let cfg = LinkConfig::new(trace, 100_000);
        let bdp = cfg.bdp_packets(Time::from_millis(100));
        assert!((bdp - 100.0).abs() < 0.5, "{bdp}");
    }
}
