//! The nine applications of the SC'95 comparison study, each implemented
//! three times: sequentially, for the TreadMarks-style DSM ([`treadmarks`]),
//! and for PVM-style message passing ([`msgpass`]).
//!
//! | Module | Application | Origin |
//! |--------|-------------|--------|
//! | [`ep`] | Embarrassingly Parallel | NAS |
//! | [`sor`] | Red-Black Successive Over-Relaxation | kernel |
//! | [`is`] | Integer Sort (bucket ranking) | NAS |
//! | [`tsp`] | Traveling Salesman (branch & bound) | kernel |
//! | [`qsort`] | Quicksort with a shared work queue | kernel |
//! | [`water`] | Water molecular dynamics | SPLASH |
//! | [`barnes`] | Barnes-Hut N-body | SPLASH |
//! | [`fft3d`] | 3-D FFT | NAS |
//! | [`ilink`] | Genetic linkage analysis (synthetic pedigree) | ILINK |
//!
//! Every module follows the same shape: a `*Params` struct with `paper()`,
//! `scaled()` and `tiny()` presets, a `sequential` reference returning a
//! [`runner::SeqRun`], and one `run(cfg, params, system)` driver returning
//! a [`runner::AppRun`] with the time, message and data metrics the paper's
//! tables and figures report.  Computation is charged through a calibrated
//! work model (see README.md §Design notes) so that speedups are deterministic
//! and independent of the host machine.

#![deny(missing_docs)]

pub mod barnes;
pub mod ep;
pub mod fft3d;
pub mod ilink;
pub mod is;
pub mod qsort;
pub mod runner;
pub mod sor;
pub mod tsp;
pub mod water;

pub use runner::{AppRun, SeqRun, System};

/// The applications and input sets of the study, in the order the paper
/// lists them (Figures 1–12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// NAS Embarrassingly Parallel (Figure 1).
    Ep,
    /// Red-Black SOR, zero-initialised interior (Figure 2).
    SorZero,
    /// Red-Black SOR, non-zero interior (Figure 3).
    SorNonzero,
    /// Integer Sort, small key range (Figure 4).
    IsSmall,
    /// Integer Sort, large key range (Figure 5).
    IsLarge,
    /// Traveling Salesman Problem (Figure 6).
    Tsp,
    /// Quicksort (Figure 7).
    Qsort,
    /// Water, 288 molecules (Figure 8).
    Water288,
    /// Water, 1728 molecules (Figure 9).
    Water1728,
    /// Barnes-Hut (Figure 10).
    BarnesHut,
    /// 3-D FFT (Figure 11).
    Fft3d,
    /// ILINK genetic linkage analysis (Figure 12).
    Ilink,
}

impl Workload {
    /// All twelve workloads, in figure order.
    pub fn all() -> [Workload; 12] {
        [
            Workload::Ep,
            Workload::SorZero,
            Workload::SorNonzero,
            Workload::IsSmall,
            Workload::IsLarge,
            Workload::Tsp,
            Workload::Qsort,
            Workload::Water288,
            Workload::Water1728,
            Workload::BarnesHut,
            Workload::Fft3d,
            Workload::Ilink,
        ]
    }

    /// Human-readable name used in the harness output.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Ep => "EP",
            Workload::SorZero => "SOR-Zero",
            Workload::SorNonzero => "SOR-Nonzero",
            Workload::IsSmall => "IS-Small",
            Workload::IsLarge => "IS-Large",
            Workload::Tsp => "TSP",
            Workload::Qsort => "QSORT",
            Workload::Water288 => "Water-288",
            Workload::Water1728 => "Water-1728",
            Workload::BarnesHut => "Barnes-Hut",
            Workload::Fft3d => "3D-FFT",
            Workload::Ilink => "ILINK",
        }
    }

    /// Figure number in the paper whose speedup curve this workload
    /// reproduces.
    pub fn figure(&self) -> u32 {
        match self {
            Workload::Ep => 1,
            Workload::SorZero => 2,
            Workload::SorNonzero => 3,
            Workload::IsSmall => 4,
            Workload::IsLarge => 5,
            Workload::Tsp => 6,
            Workload::Qsort => 7,
            Workload::Water288 => 8,
            Workload::Water1728 => 9,
            Workload::BarnesHut => 10,
            Workload::Fft3d => 11,
            Workload::Ilink => 12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_list_matches_figures() {
        let all = Workload::all();
        assert_eq!(all.len(), 12);
        for (i, w) in all.iter().enumerate() {
            assert_eq!(w.figure(), i as u32 + 1);
        }
    }

    #[test]
    fn workload_names_are_unique() {
        let mut names: Vec<&str> = Workload::all().iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }
}
