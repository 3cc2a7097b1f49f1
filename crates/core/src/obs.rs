//! Orca's observation vector, normalization, and the agent state layout.
//!
//! Table 1 of the paper lists the monitored statistics: average throughput,
//! average loss rate, average queuing delay, the number of valid ACKs, the
//! time since the last report, and the smoothed RTT. The agent state is the
//! concatenation of the past `k` observations (newest first), each extended
//! with the action taken at that step — the properties of Table 3
//! precondition on past `Δcwnd`, so past actions must be part of the state
//! the verifier can abstract.

use serde::{Deserialize, Serialize};

use canopy_netsim::{LinkConfig, MonitorSample, Time};

/// Features per history step, in order:
/// `[thr, loss, delay, n_acks, interval, srtt, prev_action]`.
pub(crate) const FEATURES_PER_STEP: usize = 7;

/// Index of the throughput feature within a step.
pub const THR_IDX: usize = 0;
/// Index of the loss-rate feature within a step.
pub(crate) const LOSS_IDX: usize = 1;
/// Index of the normalized queuing-delay feature within a step.
pub const DELAY_IDX: usize = 2;
/// Index of the previous-action feature within a step.
pub const ACTION_IDX: usize = 6;

/// One monitor-interval observation in physical units.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Observation {
    /// Average throughput over the interval, bits per second.
    pub throughput_bps: f64,
    /// Loss rate in `[0, 1]`.
    pub loss_rate: f64,
    /// Average queuing delay, milliseconds (Orca-style: `sRTT − minRTT`).
    pub queue_delay_ms: f64,
    /// Valid acknowledgement count.
    pub acked: u64,
    /// Interval length, milliseconds.
    pub interval_ms: f64,
    /// Smoothed RTT, milliseconds.
    pub srtt_ms: f64,
}

impl Observation {
    /// Extracts the observation from a simulator monitor sample.
    pub fn from_sample(sample: &MonitorSample) -> Observation {
        Observation {
            throughput_bps: sample.throughput_bps,
            loss_rate: sample.loss_rate,
            queue_delay_ms: sample.orca_queue_delay_ms(),
            acked: sample.acked_packets,
            interval_ms: sample.duration.as_millis_f64(),
            srtt_ms: sample.srtt.as_millis_f64(),
        }
    }
}

/// Normalization constants mapping physical observations into `[0, 1]`.
///
/// The queuing delay is normalized by the **maximum possible queuing
/// delay** of the link (buffer size over average rate), so the property
/// thresholds of Table 2 (`q_min_delay`, `q_delay`, `p_delay`) transfer
/// across links, exactly as "normalized queuing delay" does in the paper.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Normalizer {
    /// Peak link rate, bits per second.
    pub max_throughput_bps: f64,
    /// Maximum possible queuing delay, milliseconds.
    pub max_queue_delay_ms: f64,
    /// Propagation RTT, milliseconds.
    pub min_rtt_ms: f64,
    /// ACK-count scale (one BDP of packets per interval is ≈ 1.0).
    pub ack_scale: f64,
    /// Interval scale, milliseconds (the nominal monitor interval).
    pub interval_scale_ms: f64,
}

impl Normalizer {
    /// Derives a normalizer from the link configuration and the flow RTT.
    pub fn for_link(link: &LinkConfig, min_rtt: Time, monitor_interval: Time) -> Normalizer {
        let cycle = link.trace.cycle_duration().max(Time::from_millis(1));
        let avg_rate = link.trace.avg_rate(Time::ZERO, cycle).max(1.0);
        let peak = link.trace.peak_rate().max(1.0);
        let max_queue_delay_ms = (link.buffer_bytes as f64 * 8.0 / avg_rate) * 1e3;
        let bdp_packets = link.bdp_packets(min_rtt).max(1.0);
        Normalizer {
            max_throughput_bps: peak,
            max_queue_delay_ms: max_queue_delay_ms.max(1.0),
            min_rtt_ms: min_rtt.as_millis_f64().max(0.1),
            ack_scale: bdp_packets,
            interval_scale_ms: monitor_interval.as_millis_f64().max(0.1),
        }
    }

    /// Maps an observation to the normalized 7-feature step vector
    /// (the action slot is filled by the caller).
    pub(crate) fn features(&self, obs: &Observation, prev_action: f64) -> [f64; FEATURES_PER_STEP] {
        let srtt_scale = self.min_rtt_ms + self.max_queue_delay_ms;
        [
            (obs.throughput_bps / self.max_throughput_bps).clamp(0.0, 1.0),
            obs.loss_rate.clamp(0.0, 1.0),
            (obs.queue_delay_ms / self.max_queue_delay_ms).clamp(0.0, 1.0),
            (obs.acked as f64 / self.ack_scale).clamp(0.0, 4.0),
            (obs.interval_ms / self.interval_scale_ms).clamp(0.0, 4.0),
            (obs.srtt_ms / srtt_scale).clamp(0.0, 2.0),
            prev_action.clamp(-1.0, 1.0),
        ]
    }
}

/// Where each feature of each history step lives in the flat state vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateLayout {
    /// History depth `k` (the paper uses `k = 3`).
    pub k: usize,
}

impl StateLayout {
    /// Creates a layout for `k` history steps.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> StateLayout {
        assert!(k > 0, "history depth must be positive");
        StateLayout { k }
    }

    /// Total state dimensionality.
    pub fn dim(&self) -> usize {
        self.k * FEATURES_PER_STEP
    }

    /// Flat index of `feature` at history step `step_back`
    /// (0 = most recent).
    ///
    /// # Panics
    ///
    /// Panics if `step_back >= k` or `feature >= FEATURES_PER_STEP`.
    pub fn idx(&self, step_back: usize, feature: usize) -> usize {
        assert!(step_back < self.k, "history index out of range");
        assert!(feature < FEATURES_PER_STEP, "feature index out of range");
        step_back * FEATURES_PER_STEP + feature
    }

    /// Flat indices of one feature across all history steps.
    pub fn feature_indices(&self, feature: usize) -> Vec<usize> {
        (0..self.k).map(|s| self.idx(s, feature)).collect()
    }

    /// The index used as the partitioning axis for QC components: the most
    /// recent step's queuing delay.
    pub(crate) fn primary_delay_idx(&self) -> usize {
        self.idx(0, DELAY_IDX)
    }
}

/// Maintains the rolling `k`-step history and produces flat state vectors.
#[derive(Clone, Debug)]
pub struct StateBuilder {
    layout: StateLayout,
    normalizer: Normalizer,
    /// Newest first.
    history: Vec<[f64; FEATURES_PER_STEP]>,
}

impl StateBuilder {
    /// Creates a builder with an all-zero history.
    pub fn new(layout: StateLayout, normalizer: Normalizer) -> StateBuilder {
        StateBuilder {
            layout,
            normalizer,
            history: vec![[0.0; FEATURES_PER_STEP]; layout.k],
        }
    }

    /// The layout in use.
    pub fn layout(&self) -> StateLayout {
        self.layout
    }

    /// The normalizer in use.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// Pushes a new observation (with the action that *led to it*) to the
    /// front of the history.
    pub fn push(&mut self, obs: &Observation, prev_action: f64) {
        let step = self.normalizer.features(obs, prev_action);
        self.history.rotate_right(1);
        self.history[0] = step;
    }

    /// The current flat state vector, newest step first.
    pub fn state(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.layout.dim());
        for step in &self.history {
            v.extend_from_slice(step);
        }
        v
    }

    /// Resets the history to zeros (episode boundary).
    pub fn reset(&mut self) {
        for step in &mut self.history {
            *step = [0.0; FEATURES_PER_STEP];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopy_netsim::BandwidthTrace;

    fn normalizer() -> Normalizer {
        let trace = BandwidthTrace::constant("c", 48e6);
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(40), 1.0);
        Normalizer::for_link(&link, Time::from_millis(40), Time::from_millis(40))
    }

    #[test]
    fn max_queue_delay_equals_buffer_drain_time() {
        // 1 BDP buffer at 48 Mbps, 40 ms RTT: draining the full buffer
        // takes exactly one RTT, so max queueing delay is 40 ms.
        let n = normalizer();
        assert!(
            (n.max_queue_delay_ms - 40.0).abs() < 0.1,
            "{}",
            n.max_queue_delay_ms
        );
    }

    #[test]
    fn features_are_bounded() {
        let n = normalizer();
        let obs = Observation {
            throughput_bps: 96e6, // above peak: clamps to 1
            loss_rate: 0.5,
            queue_delay_ms: 10.0,
            acked: 1000,
            interval_ms: 40.0,
            srtt_ms: 60.0,
        };
        let f = n.features(&obs, -2.0);
        assert_eq!(f[THR_IDX], 1.0);
        assert_eq!(f[LOSS_IDX], 0.5);
        assert!((f[DELAY_IDX] - 0.25).abs() < 0.01);
        assert_eq!(f[ACTION_IDX], -1.0); // clamped
        for &x in &f {
            assert!((-1.0..=4.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn layout_indexing() {
        let l = StateLayout::new(3);
        assert_eq!(l.dim(), 21);
        assert_eq!(l.idx(0, DELAY_IDX), 2);
        assert_eq!(l.idx(1, DELAY_IDX), 9);
        assert_eq!(l.idx(2, ACTION_IDX), 20);
        assert_eq!(l.feature_indices(DELAY_IDX), vec![2, 9, 16]);
        assert_eq!(l.primary_delay_idx(), 2);
    }

    #[test]
    #[should_panic(expected = "history index out of range")]
    fn layout_rejects_bad_step() {
        StateLayout::new(2).idx(2, 0);
    }

    #[test]
    fn builder_rotates_newest_first() {
        let n = normalizer();
        let mut b = StateBuilder::new(StateLayout::new(2), n);
        let obs1 = Observation {
            throughput_bps: 24e6,
            loss_rate: 0.0,
            queue_delay_ms: 0.0,
            acked: 10,
            interval_ms: 40.0,
            srtt_ms: 40.0,
        };
        let obs2 = Observation {
            throughput_bps: 48e6,
            ..obs1
        };
        b.push(&obs1, 0.1);
        b.push(&obs2, 0.2);
        let s = b.state();
        // Newest (obs2) first.
        assert_eq!(s[THR_IDX], 1.0);
        assert_eq!(s[ACTION_IDX], 0.2);
        assert_eq!(s[FEATURES_PER_STEP + THR_IDX], 0.5);
        assert_eq!(s[FEATURES_PER_STEP + ACTION_IDX], 0.1);
        b.reset();
        assert!(b.state().iter().all(|&x| x == 0.0));
    }
}
