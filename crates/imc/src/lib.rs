//! Interactive Markov chains (IMCs) and the uniformity-by-construction
//! toolkit — the heart of the paper's compositional theory.
//!
//! An IMC orthogonally combines a labeled transition system (interactive
//! transitions) with a CTMC (Markov transitions). The paper's central
//! observation is that *uniformity* — all stable states sharing one exit
//! rate `E` — is preserved by every operator of the modelling trajectory:
//!
//! * **hiding** ([`Imc::hide`], Lemma 1),
//! * **parallel composition** ([`Imc::parallel`], Lemma 2 — the uniform
//!   rates of the components *add up*),
//! * **stochastic branching bisimulation minimization**
//!   ([`bisim::minimize`], Lemma 3 / Corollary 1),
//! * and the **elapse operator** ([`elapse::elapse`]), which converts a
//!   uniformized phase-type distribution into a uniform time-constraint IMC.
//!
//! Hence a model composed from uniform parts is uniform *by construction*
//! and ready for the uIMC → uCTMDP transformation of `unicon-transform`.
//!
//! # Examples
//!
//! ```
//! use unicon_ctmc::PhaseType;
//! use unicon_imc::{elapse, Imc, View};
//! use unicon_lts::LtsBuilder;
//!
//! // A component that fails and is repaired (untimed LTS).
//! let mut b = LtsBuilder::new(2, 0);
//! b.add("fail", 0, 1);
//! b.add("repair", 1, 0);
//! let component = Imc::from_lts(&b.build());
//!
//! // Time constraint: `fail` is delayed by Exp(0.01), restarting on `repair`.
//! let delay = PhaseType::exponential(0.01).uniformize_at_max();
//! let constraint = elapse::elapse(&delay, "fail", "repair");
//!
//! let timed = constraint.parallel(&component, &["fail", "repair"]);
//! // Uniform by construction (Lemma 2).
//! assert_eq!(timed.uniformity(View::Open).rate(), Some(0.01));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod audit;
pub mod bisim;
pub mod elapse;
pub mod io;
mod model;
mod ops;

pub use model::{Imc, ImcBuilder, MarkovTransition, StateKind, Uniformity, View};
