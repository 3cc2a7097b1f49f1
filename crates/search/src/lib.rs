//! Adversarial scenario search for the Canopy reproduction.
//!
//! The scenario subsystem (`canopy_scenarios`) *samples* stress
//! conditions; this crate *hunts* for them. It treats each fuzz family's
//! decoder as a map from the unit cube ([`SearchSpace`]), scores
//! candidate scenarios with pluggable failure objectives ([`Objective`]:
//! certificate collapse, fallback engagement, reward conceded to Cubic)
//! computed through the existing shared-`OrcaDriver` matrix cell, and
//! drives one seeded black-box optimizer ([`search`]: the cross-entropy
//! method) whose population evaluations fan out over `canopy_core::pool`
//! — bitwise reproducible at any `CANOPY_THREADS`. A found violation is
//! then minimized by a delta-debugging shrinker ([`shrink()`]) and
//! committed as a self-contained serde fixture ([`AdversarialFixture`])
//! that a regression test replays forever after; [`load_corpus`] reads
//! the committed corpus back for the hardening loop and the replay suite
//! alike.
//!
//! ```no_run
//! use canopy_core::models::{train_model, ModelKind, TrainBudget};
//! use canopy_scenarios::Family;
//! use canopy_search::{search, Objective, ObjectiveKind, SearchConfig, SearchSpace};
//!
//! let model = train_model(ModelKind::Shallow, 3, TrainBudget::smoke()).model;
//! let space = SearchSpace::new(Family::FlashCrowd, 7);
//! let objective = Objective::new(ObjectiveKind::QcSat, model);
//! let outcome = search(&space, &objective, &SearchConfig::new(7, 64)).unwrap();
//! println!("worst QC_sat badness: {}", outcome.best_badness);
//! ```

pub mod ledger;
pub mod objective;
pub mod optimize;
pub mod report;
pub mod shrink;
pub mod space;

pub use ledger::{LedgerEntry, RobustnessLedger};
pub use objective::{Objective, ObjectiveKind, ScenarioScores};
pub use optimize::{search, search_with_recorder, SearchConfig, SearchOutcome, OPTIMIZER};
pub use report::{load_corpus, AdversarialFixture, Minimized, SearchReport};
pub use shrink::{shrink, ShrinkConfig, ShrinkOutcome};
pub use space::SearchSpace;
