//! Frozen oracles for RF-Prism's equivalence suites and profile benches:
//! the implementations the shipped code replaced, kept verbatim so every
//! rewrite stays pinned bit for bit and every speedup is measured against
//! them in the same run.
//!
//! * [`solver`] — the dynamically sized 2-D and 3-D solvers and their
//!   analytic and numeric LM cores (oracle of `rfp_core`'s solver facade,
//!   `LmCore` and BackPos);
//! * [`frontend`] — the allocating pre-processing and line fits (oracle of
//!   `rfp_dsp`'s workspace kernels).
//!
//! Only ever a dev-dependency, so none of it reaches a user's build. Do not
//! "improve" it — its value is that it does not change.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frontend;
pub mod solver;
