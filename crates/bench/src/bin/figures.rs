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
//! kind/seed/budget, the trainer configuration and the trainer's source);
//! later runs load them. Any unknown argument, unknown
//! id or malformed value is a one-line error and exit status 2.

use std::process::ExitCode;

use canopy_bench::cli::{run_main, FiguresCmd};
use canopy_bench::figures::{self, REGISTRY};

fn run(args: &[String]) -> Result<(), String> {
    match FiguresCmd::parse(args)? {
        FiguresCmd::List => {
            for figure in REGISTRY {
                println!("{:<20}{}", figure.id, figure.what);
            }
        }
        FiguresCmd::Explore(opts) => figures::explore(&opts)?,
        FiguresCmd::Run(selected, _) if selected.is_empty() => {
            return Err("nothing to run: name figure ids, or pass --all or --list".into())
        }
        FiguresCmd::Run(selected, harness) => selected.iter().for_each(|f| f.run(&harness)),
    }
    Ok(())
}

fn main() -> ExitCode {
    run_main("error: ", 2, run)
}
