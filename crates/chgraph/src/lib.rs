#![warn(missing_docs)]

//! ChGraph: chain-driven hypergraph processing with a hardware-accelerated
//! engine — the core of the HPCA'22 reproduction.
//!
//! This crate implements the paper's contribution and its evaluation
//! apparatus:
//!
//! - the [`Algorithm`] programming model (`HF`/`VF` update functions of
//!   Algorithm 1);
//! - the chain-driven **Generate-Load-Apply** execution model (§IV) in two
//!   forms: a pure-software runtime ([`GlaRuntime`]) whose chain-generation
//!   overhead makes it *slower* than Hygra despite fewer memory accesses
//!   (Figs. 2–3), and the hardware-accelerated [`ChGraphRuntime`] whose
//!   per-core engine (the 4-stage hardware chain generator plus the 4-stage
//!   chain-driven prefetcher of §V, connected by FIFOs) reverses the
//!   situation;
//! - the [`HygraRuntime`] baseline (index-ordered scheduling);
//! - the comparison baselines of §II-C and §VI-H: [`HatsVRuntime`],
//!   [`PrefetcherRuntime`], and the reordering transformation in
//!   [`baseline::reorder`];
//! - the engine cost model ([`engine`]) reproducing the §VI-E area/power
//!   accounting;
//! - [`ExecutionReport`] with the paper's metrics: cycles, off-chip
//!   main-memory accesses by array, stall fractions, preprocessing
//!   overheads.
//!
//! # Example
//!
//! ```
//! use chgraph::{ChGraphRuntime, HygraRuntime, MinLabel, RunConfig, Runtime};
//!
//! let g = hypergraph::datasets::Dataset::LiveJournal.config()
//!     .with_seed(1).generate();
//! let cfg = RunConfig::new().with_max_iterations(2);
//! let hygra = HygraRuntime.execute(&g, &MinLabel, &cfg);
//! let chg = ChGraphRuntime::new().execute(&g, &MinLabel, &cfg);
//! assert_eq!(hygra.state.vertex_value, chg.state.vertex_value);
//! ```

mod algorithm;
pub mod baseline;
pub mod engine;
mod exec;
pub mod guard;
pub mod layout;
pub mod preprocess;
mod report;
mod runtime;
mod runtimes;
#[cfg(test)]
mod testutil;

pub use algorithm::{Algorithm, MinLabel, State, UpdateOutcome};
pub use baseline::{HatsVRuntime, PrefetcherRuntime};
pub use guard::{Budget, ExecError, ExecProgress, Watchdog, WatchdogConfig};
pub use report::{EngineReport, ExecutionReport, PreprocessReport};
pub use runtime::{RunConfig, Runtime, System};
pub use runtimes::{ChGraphRuntime, GlaRuntime, HygraRuntime, PreparedOags};
