//! Continuous-time Markov chains (CTMCs) for the `unicon` workspace.
//!
//! CTMCs appear in three roles in the paper:
//!
//! 1. as the purely stochastic special case of IMCs,
//! 2. as the structure underlying **phase-type distributions**, which the
//!    *elapse* operator turns into uniform time-constraint IMCs,
//! 3. as the *less faithful* modelling style the fault-tolerant workstation
//!    cluster had previously been analyzed with — the comparison baseline of
//!    Figure 4.
//!
//! Provided here:
//!
//! * the [`Ctmc`] model (sparse rate matrix, self-loops allowed),
//! * Jensen's **uniformization** ([`Ctmc::uniformize`]) — the key enabling
//!   twist behind uniformity by construction,
//! * **transient analysis** and **timed reachability** via uniformization
//!   with Fox–Glynn Poisson weights ([`transient`]),
//! * [`PhaseType`] distributions with the standard constructors.
//!
//! # Examples
//!
//! ```
//! use unicon_ctmc::{Ctmc, transient::TransientOptions};
//!
//! // A two-state failure/repair chain.
//! let ctmc = Ctmc::from_rates(2, 0, [(0, 1, 0.01), (1, 0, 1.0)]);
//! let pi = unicon_ctmc::transient::distribution(
//!     &ctmc, 10.0, &TransientOptions::default());
//! assert!((pi[0] + pi[1] - 1.0).abs() < 1e-9);
//! assert!(pi[1] < 0.05); // mostly operational
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
pub mod phase_type;
pub mod steady;
pub mod transient;

pub use model::{Ctmc, CtmcBuilder};
pub use phase_type::PhaseType;
