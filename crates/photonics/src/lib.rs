//! In-package photonics model for the Split-Parallel Switch.
//!
//! The paper's key observation (§2.1 Idea 3/4) is that optics should only
//! ever *carry and split* signals — all processing happens inside exactly
//! one HBM switch, so each packet crosses exactly one O/E and one E/O
//! conversion. This crate models precisely that:
//!
//! * [`FrontEnd`] — the package's optical front end: `N` fiber ribbons of
//!   `F` fibers, each fiber carrying `W` WDM wavelengths at `R` Gb/s,
//!   passively coupled onto internal waveguides;
//! * [`SplitMap`] / [`SplitPattern`] — the spatial fiber-splitting layer
//!   that assigns `α = F/H` fibers of every ribbon to each of the `H`
//!   HBM switches, either naively (sequential), round-robin (striped) or
//!   with the paper's pseudo-random pattern (§2.1 Idea 4);
//! * [`OeoConverter`] — pJ/bit energy accounting for O/E–E/O conversions,
//!   the §4 power-model term.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod front_end;
mod oeo;
mod split;

pub use front_end::FrontEnd;
pub use oeo::OeoConverter;
pub use split::{SplitMap, SplitPattern};
