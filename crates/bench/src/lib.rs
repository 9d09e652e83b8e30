//! Experiment harness for the paper's evaluation section.
//!
//! One module per table/figure; each exposes a `run()` returning the rows
//! it printed so tests can assert on the reproduced shapes. The `repro_*`
//! binaries are thin wrappers; `repro_all` regenerates everything (this is
//! what fills `EXPERIMENTS.md`).
//!
//! | Paper artifact | Module       | Binary        |
//! |----------------|--------------|---------------|
//! | Fig. 4         | [`fig4`]     | `repro_fig4`  |
//! | Table I        | [`tab1`]     | `repro_tab1`  |
//! | Fig. 5         | [`fig5`]     | `repro_fig5`  |
//! | Fig. 6         | [`fig6`]     | `repro_fig6`  |
//! | Fig. 8         | [`fig8`]     | `repro_fig8`  |
//! | Fig. 9         | [`fig9`]     | `repro_fig9`  |
//! | Table III      | [`tab3`]     | `repro_tab3`  |
//! | Fig. 10        | [`fig10`]    | `repro_fig10` |
//!
//! All heterogeneous experiments run on the calibrated simulator of the
//! paper's testbed (`tileqr_sim::profiles::paper_testbed`); shapes — who
//! wins, by what factor, where crossovers fall — are the reproduction
//! target, not absolute 2013 wall-clock numbers (see `EXPERIMENTS.md`).

pub mod experiments;
pub mod harness;

pub use experiments::*;
