//! The fault-tolerant workstation cluster (FTWC) case study — Section 5 of
//! the paper.
//!
//! Two sub-clusters of `N` workstations each hang off their own switch;
//! the switches are connected by a backbone. Every component fails after an
//! exponentially distributed up-time and is repaired by a **single repair
//! unit** that can handle only one component at a time — the *assignment of
//! the repair unit to a failed component is nondeterministic*, which is
//! exactly what previous CTMC treatments of this model papered over with
//! high-rate probabilistic choices.
//!
//! Three model builders are provided:
//!
//! * [`generator`] — the scalable counter-abstraction generator (the
//!   paper's "PRISM route" with the probabilistic Γ choice replaced by an
//!   interactive transition), uniform by construction; scales to `N = 128`
//!   and beyond,
//! * [`compositional`] — the process-algebraic construction of the paper's
//!   "CADP route": per-component LTSs, elapse time constraints, parallel
//!   composition, hiding, compositional minimization, one component type
//!   joined at a time; builds and certifies `N = 16` in seconds (the paper
//!   gave up at `N = 16`),
//! * [`generator::build_ctmc`] — the classic Γ-resolved CTMC (the
//!   comparison baseline of Figure 4).
//!
//! The *premium quality* predicate and the experiment drivers for Table 1
//! and Figure 4 live in [`premium`] and [`experiment`].
//!
//! # Examples
//!
//! ```
//! use unicon_ftwc::{generator, FtwcParams};
//!
//! let params = FtwcParams::new(2);
//! let model = generator::build_uimc(&params);
//! // Uniform by construction with rate E_rep + aggregate failure rates.
//! assert!((model.uniform.rate() - params.uniform_rate()).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compositional;
pub mod experiment;
pub mod generator;
mod params;
pub mod premium;

pub use params::{Component, FtwcParams};
