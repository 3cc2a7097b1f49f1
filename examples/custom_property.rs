//! Defining a custom property and training against it.
//!
//! The paper stresses that P1–P5 are not exhaustive: operators craft
//! properties for their deployment. This example builds a custom
//! "don't slam the brakes" property — under moderate delay and zero loss,
//! one decision must never cut the window by more than half — and shows
//! (a) certifying an off-the-shelf model against it, and (b) training
//! with it in the loop.
//!
//! This property composes the existing pre- and postcondition parts, so it
//! needs no library change. A *new kind* of pre- or postcondition is an
//! edit to one file, `crates/core/src/property.rs` (what a precondition
//! pins: `Property::input_region`; what a postcondition demands: the
//! methods of `Postcondition`) — the plan, the adaptive verifier and the
//! trainer pick it up from there.
//!
//! ```text
//! cargo run --release --example custom_property
//! ```

use canopy_repro::absint::Interval;
use canopy_repro::core::models::{trainer_config, ModelKind, TrainBudget};
use canopy_repro::core::obs::StateLayout;
use canopy_repro::core::property::{ActionSign, Postcondition, Precondition, Property};
use canopy_repro::core::trainer::Trainer;
use canopy_repro::core::verifier::{StepContext, Verifier};

fn main() {
    // "Don't slam the brakes": with normalized queuing delay anywhere in
    // [0, 0.5] and no recent loss, a single decision must keep the window
    // within ±41% (2^(2a) with |a| ≤ 0.25 — a BoundedChange band).
    //
    // Postcondition::BoundedChange certifies |cwnd − cwnd₀|/cwnd₀ ≤ ε
    // where cwnd₀ is the unperturbed decision, so for this property we
    // bound the *spread* of decisions across the whole delay range: the
    // controller may react to delay, but not erratically.
    let custom = Property {
        name: "no-brake-slam".into(),
        pre: Precondition {
            delay: Some(Interval::new(0.0, 0.5)),
            loss: Some(Interval::point(0.0)),
            past_action: Some(ActionSign::NonPositive),
            noise_mu: None,
        },
        post: Postcondition::BoundedChange { eps: 0.41 },
        weight: 1.0,
    };

    let layout = StateLayout::new(3);
    let verifier = Verifier::new(10);
    let ctx = StepContext {
        state: vec![0.15; layout.dim()],
        cwnd_tcp: 100.0,
        cwnd_prev: 100.0,
    };

    // (a) Certify a freshly trained Orca baseline against it.
    println!("training an orca baseline (smoke budget)...");
    let orca = Trainer::new(trainer_config(ModelKind::Orca, 7, TrainBudget::smoke()))
        .train()
        .model;
    let before = verifier.certify(&orca.actor, &custom, layout, &ctx);
    println!(
        "orca vs `{}`: QC feedback {:.3}, proven: {}",
        custom.name, before.feedback, before.proven
    );

    // (b) Train with the custom property in the loop.
    println!("\ntraining with `{}` in the loop...", custom.name);
    let mut cfg = trainer_config(ModelKind::Shallow, 7, TrainBudget::smoke());
    cfg.properties = vec![custom.clone()];
    cfg.name = "canopy-custom".into();
    let custom_model = Trainer::new(cfg).train().model;
    let after = verifier.certify(&custom_model.actor, &custom, layout, &ctx);
    println!(
        "canopy-custom vs `{}`: QC feedback {:.3}, proven: {}",
        custom.name, after.feedback, after.proven
    );
    println!(
        "\nproperty-driven training moved QC feedback from {:.3} to {:.3}",
        before.feedback, after.feedback
    );

    // Inspect the certificate's components: each is a slice of the delay
    // range with a sound bound on the decision spread.
    println!("\nper-component view (input slice → output bound, satisfied):");
    for c in after.components.iter().take(5) {
        println!(
            "  delay ∈ [{:.2}, {:.2}] → change fraction ∈ [{:+.3}, {:+.3}]  {}",
            c.input_slice.lo,
            c.input_slice.hi,
            c.output.lo,
            c.output.hi,
            if c.satisfied { "✓" } else { "✗" }
        );
    }
}
