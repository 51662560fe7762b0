//! Sparse-matrix substrate for the `unicon` workspace.
//!
//! The paper's prototype stores transition relations "as sparse matrices
//! storing action and rate information separately"; this crate provides the
//! corresponding storage layer: a compressed-sparse-row matrix ([`CsrMatrix`])
//! with a coordinate-format builder ([`CooBuilder`]) and the handful of
//! kernels the analyses need (row views, `y = Ax`, `y = Aᵀx`, transpose,
//! row-sum, memory accounting).
//!
//! # Examples
//!
//! ```
//! use unicon_sparse::CooBuilder;
//!
//! let mut b = CooBuilder::new(2, 3);
//! b.push(0, 0, 1.0);
//! b.push(0, 2, 2.0);
//! b.push(1, 1, 3.0);
//! b.push(1, 1, 0.5); // duplicates are merged by addition
//! let m = b.build();
//! assert_eq!(m.nnz(), 3);
//! assert_eq!(m.get(1, 1), 3.5);
//! let y = m.matvec(&[1.0, 1.0, 1.0]);
//! assert_eq!(y, vec![3.0, 3.5]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
mod coo;
mod csr;
pub mod fused;
pub mod plane;

pub use chunk::assign_blocks;
pub use coo::CooBuilder;
pub use csr::{CsrMatrix, RowIter};
pub use fused::{ClassTiming, FusedBuilder, FusedGroups, GroupClass, PoolRow, LANES};
pub use plane::Plane;
