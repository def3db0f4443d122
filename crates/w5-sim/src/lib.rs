//! # w5-sim — synthetic worlds for the W5 experiments
//!
//! The paper ships no dataset (it ships no evaluation at all), so the
//! experiments run over controlled synthetic inputs:
//!
//! * [`socialgraph`] — Barabási–Albert and Watts–Strogatz friendship
//!   graphs with the skew/clustering shapes real social networks show.
//! * [`population`] — builds a ready-to-measure world on a platform:
//!   users, friendships, delegations, grants, photos and posts.
//! * [`depgraph`] — synthetic module-dependency graphs with a planted
//!   trustworthy core, for the CodeRank quality experiment (E6).
//! * [`workload`] — weighted request mixes for the throughput/latency
//!   experiments (E4).
//! * [`histogram`] — log-bucketed latency histograms with percentiles
//!   (promoted to `w5-obs` so the whole stack shares one implementation;
//!   re-exported here for the experiment binaries).
//! * [`table`] — plain-text table rendering for experiment reports.
//! * [`harness`] — the one seeded driver under the kernel
//!   ([`concurrency`]), store ([`storediff`]) and net ([`netdiff`])
//!   oracles; [`chaos`] and [`differential`] check the whole platform.
//!
//! Everything is seeded and deterministic.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod concurrency;
pub mod depgraph;
pub mod differential;
pub mod harness;
pub mod lockgate;
pub mod netdiff;
pub mod population;
pub mod socialgraph;
pub mod storediff;
pub mod storemodel;
pub mod table;
pub mod workload;

pub use chaos::{run_chaos, ChaosOutcome, ChaosSpec};
pub use concurrency::{assert_differential, ConcOutcome, KernelOracle, ProcState};
pub use differential::{run_differential, DiffOutcome, DiffSpec};
pub use harness::{assert_arms, Mode, Oracle, Run, Spec};
pub use netdiff::{assert_net_differential, NetOracle, NetOutcome, Storm, StormReport};
pub use storediff::{assert_store_differential, StoreOracle, StoreOutcome};
pub use w5_obs::{histogram, Histogram};
pub use population::{build_population, PopulationConfig, World};
pub use table::Table;

