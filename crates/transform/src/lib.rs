//! Transformation from closed (uniform) IMCs to strictly alternating IMCs
//! and on to (uniform) CTMDPs — Section 4.1 of the paper.
//!
//! The trajectory has three structure-normalizing steps followed by the
//! CTMDP extraction:
//!
//! 1. **Alternating** ([`make_alternating`]): under the closed-system
//!    urgency assumption, Markov transitions of hybrid states can never
//!    fire; cutting them leaves only interactive and Markov states.
//! 2. **Markov alternating** ([`make_markov_alternating`]): each
//!    Markov→Markov edge `s --λ--> s'` is split through a fresh interactive
//!    state `(s,s')` with `s --λ--> (s,s') --τ--> s'`, so every Markov
//!    transition ends in an interactive state.
//! 3. **Interactive alternating** ([`make_interactive_alternating`]):
//!    maximal sequences of interactive transitions are compressed into
//!    single transitions labeled by *words* over `Act⁺_{\τ} ∪ {τ}`, so
//!    every interactive transition ends in a Markov state. Interactive
//!    states without Markov predecessors (other than the initial state)
//!    disappear.
//!
//! The strictly alternating IMC is then read as a CTMDP
//! ([`to_ctmdp`]): its states are the interactive states, its actions the
//! words, and each transition's rate function is the Markov state it runs
//! into. Theorem 1 states that this preserves scheduler-indexed path
//! measures; the tests validate it against the CTMC oracle on deterministic
//! models and by Monte-Carlo simulation on nondeterministic ones.
//!
//! [`transform`] runs the whole trajectory in one pass over index arrays,
//! without building the intermediate IMCs. Its output is bit-identical to
//! running the step functions one after another, which the hidden
//! `transform_stepwise` does: the differential tests and the certificate
//! checker of `unicon-verify` replay it as the one pass's oracle.
//!
//! # Examples
//!
//! ```
//! use unicon_imc::ImcBuilder;
//! use unicon_transform::transform;
//!
//! // closed uniform IMC: tick between two states, with a τ-decision.
//! let mut b = ImcBuilder::new(3, 0);
//! b.tau(0, 1);
//! b.markov(1, 2.0, 2);
//! b.tau(2, 0);
//! b.markov(1, 1.0, 0); // hmm: state 1 only Markov; fine
//! let out = transform(&b.build()).expect("transformable");
//! assert!(out.ctmdp.uniform_rate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod onepass;
mod steps;

pub use onepass::{transform, transform_one_pass};
pub use steps::{
    is_strictly_alternating, make_alternating, make_interactive_alternating,
    make_interactive_alternating_with_map, make_markov_alternating,
    make_markov_alternating_with_entries, to_ctmdp, to_ctmdp_with_map, transform_stepwise,
    TransformError, TransformOutput, TransformStats, ZeroClosures,
};
