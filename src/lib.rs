//! # unicon — Uniformity by Construction
//!
//! A Rust implementation of the theory and tool chain of *Hermanns & Johr,
//! "Uniformity by Construction in the Analysis of Nondeterministic
//! Stochastic Systems" (DSN 2007)*: compositional construction of **uniform
//! interactive Markov chains**, their transformation into **uniform
//! continuous-time Markov decision processes**, and **timed reachability**
//! analysis of the result — the worst-case probability of hitting a set of
//! states within a deadline, over all time-abstract schedulers.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`numeric`] — Fox–Glynn Poisson weights, compensated summation,
//! * [`sparse`] — CSR matrices,
//! * [`lts`] — labeled transition systems: actions, the model, its builder,
//! * [`ctmc`] — CTMCs, uniformization, transient analysis, phase-type
//!   distributions,
//! * [`imc`] — interactive Markov chains: the process-algebraic operators,
//!   the elapse operator, stochastic branching bisimulation, AUT and DOT,
//! * [`ctmdp`] — CTMDPs, Algorithm 1 (timed reachability), schedulers,
//!   simulation,
//! * [`transform`] — the uIMC → uCTMDP trajectory,
//! * [`verify`] — static model analysis (`unicon lint`): U001–U009
//!   diagnostics proving uniformity by construction actually held,
//! * [`obs`] — zero-dependency structured observability: spans, typed
//!   events, metrics, JSONL traces — bit-invisible to every result,
//! * [`core`] — the uniformity-by-construction API ([`UniformImc`],
//!   [`ClosedModel`], [`PreparedModel`]),
//! * [`ftwc`] — the fault-tolerant workstation cluster case study.
//!
//! # Quick start
//!
//! ```
//! use unicon::core::{PreparedModel, UniformImc};
//! use unicon::ctmc::PhaseType;
//! use unicon::lts::LtsBuilder;
//!
//! // 1. Functional model: an LTS that can fail and be repaired.
//! let mut b = LtsBuilder::new(2, 0);
//! b.add("fail", 0, 1);
//! b.add("repair", 1, 0);
//! let machine = UniformImc::from_lts(&b.build());
//!
//! // 2. Timing by composition: failures after Exp(0.1), repairs after an
//! //    Erlang(2) distributed delay — uniform by construction.
//! let failures = UniformImc::from_elapse(
//!     &PhaseType::exponential(0.1).uniformize_at_max(), "fail", "repair");
//! let repairs = UniformImc::from_elapse(
//!     &PhaseType::erlang(2, 4.0).uniformize_at_max(), "repair", "fail");
//! let timed = failures.compose(&repairs).compose(&machine);
//!
//! // 3. Analyze: worst-case probability of being broken within 10 hours.
//! let goal: Vec<bool> = (0..timed.imc().num_states() as u32)
//!     .map(|s| timed.imc().interactive_from(s).iter()
//!         .any(|t| timed.imc().actions().name(t.action) == "repair"))
//!     .collect();
//! let prepared = PreparedModel::new(&timed.close(), &goal)?;
//! let p = prepared.worst_case_from_initial(10.0, 1e-9)?;
//! assert!(p > 0.0 && p < 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use unicon_core as core;
pub use unicon_ctmc as ctmc;
pub use unicon_ctmdp as ctmdp;
pub use unicon_ftwc as ftwc;
pub use unicon_imc as imc;
pub use unicon_lts as lts;
pub use unicon_numeric as numeric;
pub use unicon_obs as obs;
pub use unicon_sparse as sparse;
pub use unicon_transform as transform;
pub use unicon_verify as verify;

pub use unicon_core::{ClosedModel, PreparedModel, UniformImc};
