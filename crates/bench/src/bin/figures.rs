//! One binary for every table and figure of the evaluation (see
//! [`canopy_bench::figures`]).
//!
//! ```text
//! figures --list                       the registry: ids and what each shows
//! figures <id>... [--smoke] [--seed N] regenerate the named figures
//! figures --all   [--smoke] [--seed N] regenerate every figure
//! figures explore [...]                run one scheme on one trace
//! ```
//!
//! `--smoke` shrinks horizons, trace sets and training budgets to seconds.
//! The first model-using run trains and caches the models (keyed by
//! kind/seed/budget); later runs load them. Any unknown argument, unknown
//! id or malformed value is a one-line error and exit status 2.

use std::process::ExitCode;

use canopy_bench::figures::{self, Figure, REGISTRY};
use canopy_bench::HarnessOpts;

fn run(args: &[String]) -> Result<(), String> {
    canopy_core::pool::env_threads()?;
    if args.first().is_some_and(|a| a == "explore") {
        return figures::explore(&args[1..]);
    }
    let (mut all, mut list) = (false, false);
    let mut selected: Vec<&Figure> = Vec::new();
    // Whatever is not a selector must be a shared harness flag.
    let mut rest = Vec::new();
    for arg in args {
        match (arg.as_str(), figures::find(arg)) {
            ("--all", _) => all = true,
            ("--list", _) => list = true,
            (_, Some(figure)) => selected.push(figure),
            (_, None) => rest.push(arg.clone()),
        }
    }
    let opts = HarnessOpts::parse(&rest)?;
    if list {
        for figure in REGISTRY {
            println!("{:<20}{}", figure.id, figure.what);
        }
        return Ok(());
    }
    if all {
        selected = REGISTRY.iter().collect();
    }
    if selected.is_empty() {
        return Err("nothing to run: name figure ids, or pass --all or --list".into());
    }
    for figure in selected {
        figure.run(&opts);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
