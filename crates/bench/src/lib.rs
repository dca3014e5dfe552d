//! Reproduction harness support for the TVS toolkit.
//!
//! The binaries (`table1` … `table5` and `simbench`), the std-only bench
//! targets and the `tvs bench` subcommands share the helpers in this crate:
//! profile setup, table formatting, the [`microbench`] timing harness, the
//! standard experiment runner configurations matching each table of the
//! DATE 2003 paper, and the [`strategies`] and [`delta`] sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod microbench;
pub mod runner;
pub mod strategies;
pub mod tables;
