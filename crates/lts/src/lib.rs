//! Labeled transition systems (LTSs) for the `unicon` workspace.
//!
//! LTSs are the purely functional component models of the paper's modelling
//! trajectory: the workstations, switches, backbone and repair unit of the
//! fault-tolerant workstation cluster are all plain LTSs, later enriched with
//! timing by composition with *time-constraint* IMCs. An LTS is also the
//! degenerate uniform IMC with rate `E = 0`.
//!
//! This crate holds the input form of those components only:
//!
//! * interned [`action`] labels with the distinguished internal action τ,
//! * the [`Lts`] model with its [`LtsBuilder`].
//!
//! Every operator on them lives in `unicon-imc`, which embeds an LTS with
//! `Imc::from_lts`: hiding, relabelling, parallel composition, restriction,
//! bisimulation minimization, and the Aldebaran (`.aut`) and DOT formats.
//!
//! # Examples
//!
//! ```
//! use unicon_lts::LtsBuilder;
//!
//! // A component that can fail and be repaired.
//! let mut b = LtsBuilder::new(2, 0);
//! b.add("fail", 0, 1);
//! b.add("repair", 1, 0);
//! let component = b.build();
//! assert_eq!(component.num_states(), 2);
//! assert_eq!(component.num_transitions(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
mod model;

pub use action::{ActionId, ActionTable, TAU_NAME};
pub use model::{Lts, LtsBuilder, Transition};
