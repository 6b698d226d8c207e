//! Reproduction harness: regenerates every table and figure of
//! *“On the Long-Run Behavior of Equation-Based Rate Control”*.
//!
//! Each experiment is a declarative *plan subscription*:
//! [`Experiment::specs`] lists the content-hashed [`SimSpec`]s its
//! reducer consumes (scenario × parameter point × replica, no
//! closures) and [`Experiment::reduce`] merges their outputs into
//! [`Table`]s with the same rows/series the paper reports — in a
//! fixed, thread-count-independent order. [`global_plan`] merges the
//! catalogue into one deduplicated plan (shared scenario instances run
//! once and fan out to every subscriber), which runs sequentially
//! ([`Experiment::run`]), on a work-stealing pool with an optional
//! output cache ([`plan_run_catalogue_cached`]), or split across hosts
//! as deterministic shards — with byte-identical output every way.
//! Scenario specs measure through one warm-up/span driver over
//! [`scenarios::MeasuredScenario`], monolithic or sliced. The `repro`
//! binary runs any of it:
//!
//! ```text
//! cargo run -p ebrc-experiments --release --bin repro -- list
//! cargo run -p ebrc-experiments --release --bin repro -- fig03
//! cargo run -p ebrc-experiments --release --bin repro -- all --scale quick --threads 8
//! cargo run -p ebrc-experiments --release --bin repro -- plan all --shards 2
//! ```
//!
//! Scales: `quick` keeps every experiment in seconds (the bench
//! default); `paper` uses event counts, durations, and replica counts
//! comparable to the paper's (minutes of CPU).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod figures;
pub mod registry;
pub mod scenarios;
pub mod series;
pub mod spec;

pub use registry::{
    all_experiments, find_experiment, global_plan, plan_run_catalogue_cached, replica_seed,
    scale_by_name, select_experiments, CatalogueRun, Experiment, ExperimentFailure,
    ExperimentReport, Plan, Scale, MASTER_SEED,
};
pub use series::{table_file_name, Table};
pub use spec::{SimSpec, SpecOutput};
