//! Trained-model management: the three Canopy variants, the Orca baseline,
//! deterministic scaled-down training recipes, and on-disk caching.
//!
//! The paper trains three Canopy models — shallow (P1+P2, 0.5 BDP
//! buffers), deep (P3+P4, 5 BDP), robust (P5, 2 BDP) — and an Orca
//! baseline (λ = 0, trained on 2 BDP buffers, which the paper credits for
//! Orca's weak shallow-buffer behaviour in Takeaway #3). The recipes here
//! reproduce those setups at laptop scale with fixed seeds; the benchmark
//! harness shares one cached copy of each model so that every figure
//! sees identical controllers.

use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use canopy_netsim::Time;
use canopy_nn::Mlp;
use canopy_rl::Td3Config;
use canopy_traces::synthetic;

use crate::env::EnvConfig;
use crate::property::{Property, PropertyParams};
use crate::trainer::{Trainer, TrainerConfig, TrainingHistory, TrainingResult};

/// A trained actor with its provenance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainedModel {
    /// Model name ("canopy-shallow", "orca", …).
    pub name: String,
    /// The actor network.
    pub actor: Mlp,
    /// History depth `k` the actor expects.
    pub k: usize,
    /// The λ it was trained with.
    pub lambda: f64,
    /// QC components during training.
    pub n_components: usize,
    /// Names of the shaping properties.
    pub property_names: Vec<String>,
    /// Training seed.
    pub seed: u64,
}

impl TrainedModel {
    /// Serializes the model (and the training curve) to a JSON file.
    pub fn save(&self, path: &Path, history: &TrainingHistory) -> std::io::Result<()> {
        let blob = serde_json::json!({
            "model": self,
            "history": history,
        });
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, serde_json::to_string(&blob)?)
    }

    /// Restores a model and its training curve from [`save`](Self::save)
    /// output.
    pub fn load(path: &Path) -> std::io::Result<(TrainedModel, TrainingHistory)> {
        let text = fs::read_to_string(path)?;
        let blob: serde_json::Value = serde_json::from_str(&text)?;
        let model: TrainedModel =
            serde_json::from_value(blob["model"].clone()).map_err(std::io::Error::other)?;
        let history: TrainingHistory =
            serde_json::from_value(blob["history"].clone()).map_err(std::io::Error::other)?;
        Ok((model, history))
    }
}

/// Which of the paper's models to train.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Canopy trained with P1 + P2 on 0.5 BDP buffers.
    Shallow,
    /// Canopy trained with P3 + P4(i, ii) on 5 BDP buffers.
    Deep,
    /// Canopy trained with P5 on 2 BDP buffers.
    Robust,
    /// The Orca baseline: λ = 0, trained on 2 BDP buffers.
    Orca,
}

impl ModelKind {
    /// The model's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Shallow => "canopy-shallow",
            ModelKind::Deep => "canopy-deep",
            ModelKind::Robust => "canopy-robust",
            ModelKind::Orca => "orca",
        }
    }

    /// Parses a canonical model name back to its kind.
    pub fn parse(name: &str) -> Option<ModelKind> {
        [
            ModelKind::Shallow,
            ModelKind::Deep,
            ModelKind::Robust,
            ModelKind::Orca,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }

    /// The buffer depth (BDP multiples) this model trains on, following
    /// Section 5 of the paper.
    pub fn buffer_bdp(self) -> f64 {
        match self {
            ModelKind::Shallow => 0.5,
            ModelKind::Deep => 5.0,
            ModelKind::Robust | ModelKind::Orca => 2.0,
        }
    }

    /// The property set shaping this model's reward (empty for Orca).
    pub fn properties(self, params: &PropertyParams) -> Vec<Property> {
        match self {
            ModelKind::Shallow => Property::shallow_set(params),
            ModelKind::Deep => Property::deep_set(params),
            ModelKind::Robust => Property::robust_set(params),
            ModelKind::Orca => Property::shallow_set(params), // monitored only
        }
    }

    /// The verifier weight λ.
    pub fn lambda(self) -> f64 {
        match self {
            ModelKind::Orca => 0.0,
            _ => 0.25,
        }
    }
}

/// How much compute to spend on a training run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TrainBudget {
    /// Number of epochs.
    pub epochs: usize,
    /// Environment interactions per epoch.
    pub steps_per_epoch: usize,
    /// Environments in the pool.
    pub n_envs: usize,
}

impl TrainBudget {
    /// A seconds-scale budget for tests and smoke runs.
    pub fn smoke() -> TrainBudget {
        TrainBudget {
            epochs: 4,
            steps_per_epoch: 50,
            n_envs: 2,
        }
    }

    /// The default budget for figure generation (about a minute per model
    /// on a laptop).
    pub fn standard() -> TrainBudget {
        TrainBudget {
            epochs: 30,
            steps_per_epoch: 120,
            n_envs: 4,
        }
    }
}

/// The training-environment pool: a spread of link rates and RTTs within
/// the paper's 6–192 Mbps / 4–400 ms envelope, scaled to simulator-friendly
/// magnitudes (rates at the envelope top make packet-level training
/// needlessly slow without changing the control problem).
pub fn training_envs(buffer_bdp: f64, n_envs: usize) -> Vec<EnvConfig> {
    let rates_mbps = [12.0, 24.0, 48.0, 6.0, 96.0, 36.0, 18.0, 72.0];
    let rtts_ms = [20u64, 40, 30, 60, 25, 50, 80, 35];
    (0..n_envs)
        .map(|i| {
            let rate = rates_mbps[i % rates_mbps.len()];
            let rtt = rtts_ms[i % rtts_ms.len()];
            // Alternate constant links with a varying trace so the learner
            // sees both stable and shifting conditions.
            let trace = if i % 3 == 2 {
                synthetic::square_slow()
            } else {
                canopy_netsim::BandwidthTrace::constant(&format!("train-{rate}mbps"), rate * 1e6)
            };
            EnvConfig::new(trace, Time::from_millis(rtt), buffer_bdp)
                .with_episode(Time::from_secs(6))
        })
        .collect()
}

/// Builds the full trainer configuration for a model kind.
pub fn trainer_config(kind: ModelKind, seed: u64, budget: TrainBudget) -> TrainerConfig {
    let params = PropertyParams::default();
    TrainerConfig {
        properties: kind.properties(&params),
        lambda: kind.lambda(),
        n_components: 5,
        epochs: budget.epochs,
        steps_per_epoch: budget.steps_per_epoch,
        envs: training_envs(kind.buffer_bdp(), budget.n_envs),
        td3: Td3Config::default(),
        seed,
        explore_noise: 0.15,
        monitor_qc: true,
        replay_capacity: 60_000,
        name: kind.name().to_string(),
        qc_grad_weight: if kind.lambda() > 0.0 { 1.0 } else { 0.0 },
        mix: None,
        threads: None,
    }
}

/// Trains a model from scratch (deterministic in `seed` and `budget`).
pub fn train_model(kind: ModelKind, seed: u64, budget: TrainBudget) -> TrainingResult {
    Trainer::new(trainer_config(kind, seed, budget)).train()
}

/// Loads a cached model from `dir`, training and caching it on a miss.
///
/// The cache file is keyed by a hash of the full trainer configuration,
/// so changing the kind, seed, budget or anything else
/// `trainer_config` sets retrains rather than serving a stale model. A
/// failed save is reported on stderr; the trained model is returned
/// either way.
pub fn load_or_train(
    dir: &Path,
    kind: ModelKind,
    seed: u64,
    budget: TrainBudget,
) -> (TrainedModel, TrainingHistory) {
    let config = trainer_config(kind, seed, budget);
    let path = cache_path(dir, &config);
    if let Ok((model, history)) = TrainedModel::load(&path) {
        return (model, history);
    }
    let result = Trainer::new(config).train();
    if let Err(e) = result.model.save(&path, &result.history) {
        eprintln!(
            "warning: could not cache the model at {}: {e}",
            path.display()
        );
    }
    (result.model, result.history)
}

/// The cache file for `config`: its name, seed and budget for the reader,
/// then the FNV-1a hash of its `Debug` text, which prints every field —
/// each `f64` round-trip exact — so two configurations share a file only
/// when they are equal.
fn cache_path(dir: &Path, config: &TrainerConfig) -> PathBuf {
    dir.join(format!(
        "{}-s{}-e{}x{}x{}-{:016x}.json",
        config.name,
        config.seed,
        config.epochs,
        config.steps_per_epoch,
        config.envs.len(),
        canopy_traces::fnv1a(&format!("{config:?}"))
    ))
}

/// The default model cache directory (under `target/`).
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from("target/canopy-models")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_paper_faithful_setups() {
        let p = PropertyParams::default();
        assert_eq!(ModelKind::Shallow.buffer_bdp(), 0.5);
        assert_eq!(ModelKind::Deep.buffer_bdp(), 5.0);
        assert_eq!(ModelKind::Robust.buffer_bdp(), 2.0);
        assert_eq!(ModelKind::Orca.buffer_bdp(), 2.0);
        assert_eq!(ModelKind::Orca.lambda(), 0.0);
        assert_eq!(ModelKind::Shallow.lambda(), 0.25);
        assert_eq!(ModelKind::Deep.properties(&p).len(), 3);
        assert_eq!(ModelKind::Robust.properties(&p).len(), 1);
    }

    #[test]
    fn training_env_pool_is_diverse() {
        let envs = training_envs(0.5, 6);
        assert_eq!(envs.len(), 6);
        let mut rtts: Vec<u64> = envs.iter().map(|e| e.min_rtt.as_nanos()).collect();
        rtts.dedup();
        assert!(rtts.len() > 1, "multiple RTTs expected");
    }

    #[test]
    fn save_load_round_trip() {
        let result = train_model(
            ModelKind::Shallow,
            1,
            TrainBudget {
                epochs: 1,
                steps_per_epoch: 10,
                n_envs: 1,
            },
        );
        let dir = std::env::temp_dir().join("canopy-model-test");
        let path = dir.join("m.json");
        result.model.save(&path, &result.history).unwrap();
        let (model, history) = TrainedModel::load(&path).unwrap();
        assert_eq!(model.name, result.model.name);
        assert_eq!(history.len(), result.history.len());
        assert_eq!(model.actor.params_flat(), result.model.actor.params_flat());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_file_is_keyed_by_the_whole_trainer_config() {
        let budget = TrainBudget {
            epochs: 1,
            steps_per_epoch: 10,
            n_envs: 1,
        };
        let dir = Path::new("cache");
        let config = trainer_config(ModelKind::Shallow, 4, budget);
        let path = cache_path(dir, &config);
        assert_eq!(
            path,
            cache_path(dir, &trainer_config(ModelKind::Shallow, 4, budget))
        );
        let name = path.file_name().unwrap().to_str().unwrap();
        assert!(name.starts_with("canopy-shallow-s4-e1x10x1-"), "{name}");
        let mut other = config.clone();
        other.td3.tau *= 1.0 + f64::EPSILON;
        assert_ne!(cache_path(dir, &other), path);
        let mut other = config;
        other.td3.policy_delay += 1;
        assert_ne!(cache_path(dir, &other), path);
    }

    #[test]
    fn cache_round_trip_via_load_or_train() {
        let dir = std::env::temp_dir().join("canopy-cache-test");
        let _ = std::fs::remove_dir_all(&dir);
        let budget = TrainBudget {
            epochs: 1,
            steps_per_epoch: 10,
            n_envs: 1,
        };
        let (a, _) = load_or_train(&dir, ModelKind::Orca, 2, budget);
        // Second call must hit the cache and return identical parameters.
        let (b, _) = load_or_train(&dir, ModelKind::Orca, 2, budget);
        assert_eq!(a.actor.params_flat(), b.actor.params_flat());
        // It is served from the file, not retrained: plant a different
        // model there and the next call returns that one.
        let planted = train_model(ModelKind::Orca, 3, budget);
        let path = cache_path(&dir, &trainer_config(ModelKind::Orca, 2, budget));
        planted.model.save(&path, &planted.history).unwrap();
        let (c, _) = load_or_train(&dir, ModelKind::Orca, 2, budget);
        assert_eq!(c.seed, 3);
        assert_eq!(c.actor.params_flat(), planted.model.actor.params_flat());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
