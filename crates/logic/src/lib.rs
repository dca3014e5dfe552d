//! Logic-value substrate for the TVS (test vector stitching) DFT toolkit.
//!
//! This crate provides the three building blocks every other layer of the
//! toolkit rests on:
//!
//! * [`Logic`] — a three-valued (Kleene) logic value: `0`, `1`, or `X`
//!   (unknown / don't-care). Test *cubes* produced by ATPG are vectors of
//!   these values; the unspecified `X` positions are exactly the freedom the
//!   stitching compression of Rao & Orailoglu (DATE 2003) exploits.
//! * [`Cube`] — an owned vector of [`Logic`] values with the merge /
//!   compatibility / fill operations ATPG and compaction need.
//! * [`BitVec`] — a compact, growable bit vector used for fully specified
//!   stimuli, responses and scan-chain images.
//!
//! # Examples
//!
//! ```
//! use tvs_logic::{Cube, Logic};
//!
//! let a: Cube = "1X0".parse()?;
//! let b: Cube = "110".parse()?;
//! assert!(a.is_compatible(&b));
//! assert_eq!(a.merged(&b).unwrap().to_string(), "110");
//! # Ok::<(), tvs_logic::ParseCubeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod cube;
mod fnv;
mod rng;
mod value;

pub use bits::BitVec;
pub use cube::{Cube, ParseCubeError};
pub use fnv::{fnv1a, Fnv};
pub use rng::{Prng, SplitMix64};
pub use value::{Logic, ParseLogicError};
