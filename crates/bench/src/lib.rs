//! Benchmark harness support: result formatting and the paper's
//! reference values for side-by-side comparison.

pub mod paper;
pub mod report;
pub mod table;
