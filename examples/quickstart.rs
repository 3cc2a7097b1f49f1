//! Quickstart: train a small Canopy model, certify it, and race it against
//! TCP Cubic on a shallow-buffer link.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use canopy_repro::core::eval::{QcEval, Scheme};
use canopy_repro::core::models::{train_model, ModelKind, TrainBudget};
use canopy_repro::core::property::{Property, PropertyParams};
use canopy_repro::netsim::Time;
use canopy_repro::scenarios::{run_scenario, ScenarioSpec};

fn main() {
    // 1. Train a scaled-down Canopy model with the shallow-buffer
    //    properties (P1: don't decrease the window in good conditions,
    //    P2: don't increase it under heavy loss).
    println!("training canopy-shallow (smoke budget)...");
    let result = train_model(ModelKind::Shallow, 42, TrainBudget::smoke());
    let last = result.history.last().expect("training produced epochs");
    println!(
        "  final epoch: raw reward {:.3}, verifier reward (QC feedback) {:.3}",
        last.raw_reward, last.verifier_reward
    );

    // 2. Evaluate it against Cubic on an unseen square-wave trace with a
    //    0.5 BDP bottleneck buffer, certifying P1/P2 at every decision.
    let mut spec = ScenarioSpec::from_eval_trace("syn-square-fast", 0);
    spec.buffer_bdp = 0.5;
    spec.duration = Time::from_secs(10);
    let qc = QcEval {
        properties: Property::shallow_set(&PropertyParams::default()),
        n_components: 25,
    };
    let run = |scheme, qc| {
        run_scenario(&scheme, &spec, qc)
            .expect("a valid scenario")
            .primary
    };
    let canopy = run(Scheme::Learned(result.model), Some(&qc));
    let cubic = run(Scheme::Baseline("cubic".into()), None);

    println!(
        "\nresults on `{}` (0.5 BDP buffer, {} RTT):",
        canopy.trace, spec.primary_min_rtt
    );
    for m in [&canopy, &cubic] {
        println!(
            "  {:<16} utilization {:.3}  avg qdelay {:.1} ms  p95 qdelay {:.1} ms{}",
            m.scheme,
            m.utilization,
            m.avg_qdelay_ms,
            m.p95_qdelay_ms,
            m.qc_sat
                .map(|q| format!("  QC_sat {q:.3}"))
                .unwrap_or_default(),
        );
    }
    println!("\nThe QC_sat column is the quantitative certificate: the provable fraction");
    println!("of the property's input region on which the controller behaves correctly.");
}
