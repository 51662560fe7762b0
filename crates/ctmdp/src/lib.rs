//! Continuous-time Markov decision processes (CTMDPs) and the uniform
//! timed-reachability algorithm.
//!
//! This crate implements the paper's "mild variation" of CTMDPs: a
//! transition is a triple `(s, a, R)` with `R : S → ℝ⁺` a *rate function*,
//! and a state may carry several transitions with the *same* action label —
//! exactly the shape produced by the uIMC → uCTMDP transformation of
//! `unicon-transform`.
//!
//! Provided here:
//!
//! * the [`Ctmdp`] model, stored as the paper's prototype stores it: a pool
//!   of rate functions (one per Markov state of the strictly alternating
//!   IMC) referenced by sparse per-state transition lists,
//! * **Algorithm 1** — timed reachability `sup_D Pr_D(s ⤳≤t B)` for
//!   *uniform* CTMDPs by backward value iteration with Fox–Glynn Poisson
//!   weights ([`reachability::timed_reachability`]), plus the `inf` variant
//!   and optimal-scheduler extraction,
//! * randomized/deterministic time-abstract [`scheduler`]s,
//! * a discrete-event [`simulate`] engine for Monte-Carlo cross-validation.
//!
//! # Examples
//!
//! ```
//! use unicon_ctmdp::{CtmdpBuilder, reachability::{self, ReachOptions}};
//!
//! // One nondeterministic choice: a fast risky route vs a slow safe one.
//! let mut b = CtmdpBuilder::new(3, 0);
//! b.transition(0, "risky", &[(1, 1.8), (2, 0.2)]); // mostly to goal 1
//! b.transition(0, "safe", &[(2, 2.0)]);
//! b.transition(1, "stay", &[(1, 2.0)]);
//! b.transition(2, "stay", &[(2, 2.0)]);
//! let m = b.build();
//!
//! let goal = [true, false, false]; // goal: stay in state 0? no: state 0
//! let goal = [false, true, false];
//! let res = reachability::timed_reachability(&m, &goal, 1.0, &ReachOptions::default())
//!     .expect("uniform model");
//! // The maximizing scheduler picks "risky".
//! assert!(res.values[0] > 0.7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod guard;
mod model;
pub mod par;
pub mod policy;
pub mod reachability;
pub mod scheduler;
pub mod simulate;

pub use model::{Ctmdp, CtmdpBuilder, NotUniformError, RateFunction, RatePool, TransitionRef};
