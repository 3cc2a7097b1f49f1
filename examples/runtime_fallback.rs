//! Runtime monitoring with QC-guided fallback (Section 4.4).
//!
//! Runs a learned controller behind the certificate monitor at several
//! thresholds: each decision interval, the controller's QC_sat is
//! extracted; below the threshold, the flow defers to TCP Cubic. An Orca
//! baseline (trained without properties) triggers the fallback often; a
//! Canopy model rarely does.
//!
//! ```text
//! cargo run --release --example runtime_fallback
//! ```

use canopy_repro::core::eval::Scheme;
use canopy_repro::core::models::{train_model, ModelKind, TrainBudget};
use canopy_repro::core::property::{Property, PropertyParams};
use canopy_repro::netsim::Time;
use canopy_repro::scenarios::{run_scenario, ScenarioSpec};

fn main() {
    println!("training models (smoke budget)...");
    let canopy = train_model(ModelKind::Shallow, 11, TrainBudget::smoke()).model;
    let orca = train_model(ModelKind::Orca, 11, TrainBudget::smoke()).model;
    let properties = Property::shallow_set(&PropertyParams::default());
    let mut spec = ScenarioSpec::from_eval_trace("syn-plateau-dip", 0);
    spec.buffer_bdp = 0.5;
    spec.duration = Time::from_secs(10);

    println!(
        "\n{:<10} {:>10} {:>12} {:>14} {:>15}",
        "model", "threshold", "utilization", "p95 qdelay", "fallback rate"
    );
    for (name, model) in [("canopy", &canopy), ("orca", &orca)] {
        for threshold in [0.0, 0.5, 0.9] {
            let scheme = if threshold == 0.0 {
                Scheme::Learned(model.clone())
            } else {
                Scheme::LearnedFallback {
                    model: model.clone(),
                    properties: properties.clone(),
                    threshold,
                    n_components: 10,
                }
            };
            let m = run_scenario(&scheme, &spec, None)
                .expect("a valid scenario")
                .primary;
            println!(
                "{:<10} {:>10.2} {:>12.3} {:>11.1} ms {:>15}",
                name,
                threshold,
                m.utilization,
                m.p95_qdelay_ms,
                m.fallback_rate
                    .map(|r| format!("{r:.3}"))
                    .unwrap_or_else(|| "n/a (off)".into()),
            );
        }
    }
    println!("\nQC_sat works as an online safety monitor: it gates the learned controller");
    println!("exactly when its certificate weakens, without retraining anything.");
}
