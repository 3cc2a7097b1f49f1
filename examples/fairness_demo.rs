//! Multi-flow fairness demo: five Cubic flows join a shared bottleneck one
//! after another (the Figure 15 setup) and the per-second throughput plus
//! Jain's fairness index are printed as the link converges.
//!
//! ```text
//! cargo run --release --example fairness_demo
//! ```

use canopy_repro::core::eval::{jain_index, run_multiflow};
use canopy_repro::core::world::{Controller, FlowSpec};
use canopy_repro::netsim::{BandwidthTrace, LinkConfig, Time};

fn main() {
    let n_flows = 5;
    let stagger = Time::from_secs(6);
    let duration = Time::from_secs(40);
    let trace = BandwidthTrace::constant("fair", 48e6);
    let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(20), 1.0);

    let flows: Vec<FlowSpec> = (0..n_flows)
        .map(|i| {
            FlowSpec::new(Controller::Kernel("cubic".into()), Time::from_millis(20))
                .starting_at(stagger * i as u64)
        })
        .collect();
    let series = run_multiflow(link, &flows, duration, Time::from_secs(1))
        .expect("known kernels on a dumbbell, one-second bins");

    println!("48 Mbps / 20 ms / 1 BDP; one Cubic flow joins every 6 s\n");
    print!("{:>4}", "t");
    for i in 0..n_flows {
        print!("{:>9}", format!("flow{i}"));
    }
    println!("{:>8}", "jain");
    for (sec, _) in series[0].iter().enumerate() {
        let active: Vec<f64> = series
            .iter()
            .enumerate()
            .filter(|(i, _)| (stagger * *i as u64) <= Time::from_secs(sec as u64))
            .map(|(_, s)| s[sec])
            .collect();
        print!("{sec:>4}");
        for s in &series {
            print!("{:>9.1}", s[sec]);
        }
        println!("{:>8.3}", jain_index(&active));
    }

    let tail = series[0].len() - 10;
    let sums: Vec<f64> = series.iter().map(|s| s[tail..].iter().sum()).collect();
    println!(
        "\nsteady-state Jain index over the last 10 s: {:.3} (1.0 = perfectly fair)",
        jain_index(&sums)
    );
    println!(
        "swap the kernel for `Scheme::Learned(model).controller(None)` to race one learned policy."
    );
}
