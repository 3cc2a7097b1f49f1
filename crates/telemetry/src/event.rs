//! The structured event vocabulary of the flight recorder.
//!
//! All timestamps are simulation time in nanoseconds; all ids are the raw
//! integers behind the simulator's `FlowId`/`LinkId` newtypes (this crate
//! sits below `canopy_netsim` in the dependency order).

use serde::{Deserialize, Serialize};

/// One Orca decision: what the driver observed, what the policy said, and
/// what the certification/fallback machinery did about it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Simulation time of the decision, in nanoseconds.
    pub t_ns: u64,
    /// The deciding flow.
    pub flow: u64,
    /// Mean of the state vector the actor consumed (summary, not the
    /// full `k`-step history).
    pub state_mean: f64,
    /// Minimum state component.
    pub state_min: f64,
    /// Maximum state component.
    pub state_max: f64,
    /// Raw actor output before clamping.
    pub action: f64,
    /// The action after clamping to `[-1, 1]` (what `f_cwnd` consumed).
    pub action_clamped: f64,
    /// The congestion window actually enforced, in packets.
    pub cwnd: f64,
    /// Observed queuing delay at the decision (post-noise), nanoseconds.
    pub qdelay_ns: u64,
    /// The decision's certificate (`QC_sat`), when certification ran.
    pub qc_sat: Option<f64>,
    /// Whether the kernel kept this interval: the QC monitor benched the
    /// agent, or the agent's output was not finite.
    pub fallback: bool,
}

/// One per-link sample taken on the simulator's sampling cadence.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkSample {
    /// Simulation time of the sample, in nanoseconds.
    pub t_ns: u64,
    /// The sampled link.
    pub link: u64,
    /// Bytes occupying the droptail queue.
    pub queue_bytes: u64,
    /// Cumulative packets dropped at this queue since the run started.
    pub drops: u64,
    /// Link utilization over the interval since the previous sample:
    /// bytes served divided by what the trace could have served.
    pub utilization: f64,
}

/// One batched pool dispatch: every decision due at one simulation
/// instant, stacked through the batched actor path together.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BatchRecord {
    /// Simulation time of the dispatch, in nanoseconds.
    pub t_ns: u64,
    /// Decisions executed in this batch.
    pub size: u64,
    /// Distinct policy groups the batch split into (one forward call per
    /// group of drivers sharing actor weights and certification config).
    pub groups: u64,
}

/// A stage of the batched decision hot path, as instrumented by the
/// span profiler in `DriverPool::dispatch_batched`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanStage {
    /// The whole dispatch (parent span; the other stages are its
    /// children and partition its duration).
    Dispatch,
    /// `prepare_decision` over every due driver.
    Prepare,
    /// Compiled-policy grouping of the prepared batch.
    Group,
    /// The batched actor pass over each policy group.
    Forward,
    /// The certification pass over each monitored group's contexts (one
    /// item per certified decision: a policy has at most one monitor).
    Certify,
    /// `apply_decision` over every prepared driver.
    Apply,
}

impl SpanStage {
    /// Every stage, parent first, in hot-path order.
    pub const ALL: [SpanStage; 6] = [
        SpanStage::Dispatch,
        SpanStage::Prepare,
        SpanStage::Group,
        SpanStage::Forward,
        SpanStage::Certify,
        SpanStage::Apply,
    ];

    /// Stable lowercase name (used for report tables and trace labels).
    pub fn name(&self) -> &'static str {
        match self {
            SpanStage::Dispatch => "dispatch",
            SpanStage::Prepare => "prepare",
            SpanStage::Group => "group",
            SpanStage::Forward => "forward",
            SpanStage::Certify => "certify",
            SpanStage::Apply => "apply",
        }
    }

    /// Index into [`SpanStage::ALL`].
    pub fn index(&self) -> usize {
        SpanStage::ALL.iter().position(|s| s == self).unwrap()
    }
}

/// One profiled stage of one batched dispatch. The timestamp, batch
/// sequence, stage, and item count are simulation-deterministic; the
/// duration is wall-clock and is recorded as 0 unless the recorder
/// opts into span timing (so bitwise-checked artifacts never carry
/// wall-clock bytes).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Simulation time of the dispatch, in nanoseconds.
    pub t_ns: u64,
    /// Dispatch sequence number (shared by the 6 spans of one batch).
    pub batch: u64,
    /// Which hot-path stage this span covers.
    pub stage: SpanStage,
    /// Items processed by the stage (decisions, groups, or contexts).
    pub items: u64,
    /// Wall-clock duration in nanoseconds (0 when span timing is off).
    pub dur_ns: u64,
}

/// One trainer-loop event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TrainerEvent {
    /// The episode sampler redrew the next episode from the adversarial
    /// mix pool at an episode boundary.
    MixDraw {
        /// Global environment step at the boundary.
        step: u64,
        /// Name of the drawn episode spec.
        episode: String,
    },
    /// One TD update's critic loss.
    TdLoss {
        /// Global environment step of the update.
        step: u64,
        /// Mean twin-critic TD loss.
        critic_loss: f64,
    },
    /// A per-step certification probe (the verifier reward component).
    CertProbe {
        /// Global environment step of the probe.
        step: u64,
        /// The probe's `QC_sat`-derived verifier reward.
        r_verifier: f64,
    },
    /// End-of-epoch aggregate.
    Epoch {
        /// Epoch index.
        epoch: u64,
        /// Mean raw (Orca) reward over the epoch.
        raw_reward: f64,
        /// Mean verifier reward over the epoch.
        verifier_reward: f64,
        /// Mean critic loss over the epoch.
        critic_loss: f64,
    },
}

impl TrainerEvent {
    /// The event's global step (epoch events report their epoch index).
    pub fn step(&self) -> u64 {
        match *self {
            TrainerEvent::MixDraw { step, .. }
            | TrainerEvent::TdLoss { step, .. }
            | TrainerEvent::CertProbe { step, .. } => step,
            TrainerEvent::Epoch { epoch, .. } => epoch,
        }
    }

    /// Every float carried by the event, for validation.
    pub(crate) fn floats(&self) -> Vec<f64> {
        match *self {
            TrainerEvent::MixDraw { .. } => vec![],
            TrainerEvent::TdLoss { critic_loss, .. } => vec![critic_loss],
            TrainerEvent::CertProbe { r_verifier, .. } => vec![r_verifier],
            TrainerEvent::Epoch {
                raw_reward,
                verifier_reward,
                critic_loss,
                ..
            } => vec![raw_reward, verifier_reward, critic_loss],
        }
    }
}

/// One optimizer generation of an adversarial hunt.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchEvent {
    /// Generation (batch) index, starting at 0.
    pub generation: u64,
    /// Cumulative objective evaluations after this generation.
    pub evaluations: u64,
    /// Best badness inside this generation's batch.
    pub batch_best: f64,
    /// Best badness seen so far across the whole hunt.
    pub best_badness: f64,
}
