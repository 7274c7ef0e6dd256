//! Shared harness for the experiment binary and the CPU-kernel bench:
//! markdown table rendering, machine-readable result records, and a
//! self-contained timing harness (see [`harness`]).

pub mod harness;
pub mod report;

pub use harness::{Measurement, Suite};
pub use report::{ExperimentRecord, Table};
