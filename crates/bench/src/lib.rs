//! The reproduction harness: maps every table and figure of the paper onto
//! the applications in the [`apps`] crate and runs them under both systems —
//! on the paper's testbed or on any scenario the cluster model can express.
//!
//! The `reproduce` binary (`cargo run -p bench --release --bin reproduce`)
//! regenerates Table 1 (sequential times), Figures 1–12 (speedup curves) and
//! Table 2 (messages and kilobytes at the top processor count).  The
//! scenario subsystem widens the single-testbed reproduction into a
//! question-answering machine: `--net` swaps the interconnect preset,
//! `--procs` lifts the processor count past the paper's 8, `--scenario FILE`
//! loads a declarative testbed description ([`scenario`]), and
//! `reproduce sweep` fans a sensitivity matrix — speedup versus processors,
//! runtime versus bandwidth or latency — across cores ([`sweep`]).  The
//! criterion benches in `benches/` measure the runtime primitives and the
//! protocol and runtime ablations described in README.md.

#![deny(missing_docs)]

pub mod exec;
pub mod fuzz;
pub mod invariants;
pub mod obs;
pub mod scenario;
pub mod shrink;
pub mod sweep;

use apps::runner::{AppRun, SeqRun, System};
use apps::{barnes, ep, fft3d, ilink, is, qsort, sor, tsp, water, Workload};
use cluster::{
    AnalysisLevel, ClusterConfig, FaultPlan, NetModel, NetPreset, ObsLevel, RunFailure, SpanCat,
};

/// Problem-size preset used by the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Tiny inputs used by tests of the harness itself.
    Tiny,
    /// Scaled-down inputs (default): the whole suite runs in minutes.
    Scaled,
    /// Paper-scale inputs.
    Paper,
}

impl std::str::FromStr for Preset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Ok(Preset::Tiny),
            "scaled" => Ok(Preset::Scaled),
            "paper" | "full" => Ok(Preset::Paper),
            other => Err(format!(
                "unknown preset '{other}'; known presets: tiny, scaled, paper"
            )),
        }
    }
}

/// The schedule-exploration and fault-injection knobs of a run, all riding
/// on [`ClusterConfig`]: the arbiter's tie-break seed, the optional cap on
/// seeded draws (bisected by the shrinker), and the fault plan.  The
/// default (`seed 0`, no cap, empty plan) is the engine's historical
/// behaviour, byte for byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTuning {
    /// Arbiter tie-break seed; 0 is rank order.
    pub sched_seed: u64,
    /// Cap on seeded tie-break draws (rank order afterwards).
    pub tie_limit: Option<u64>,
    /// The fault plan to inject.
    pub fault: FaultPlan,
}

impl RunTuning {
    /// True when this tuning is the engine's historical default, so the run
    /// is byte-identical to one that never heard of tuning.
    pub fn is_default(&self) -> bool {
        self.sched_seed == 0 && self.tie_limit.is_none() && self.fault.is_empty()
    }

    /// Stamp the tuning onto a cluster configuration.
    pub fn apply(&self, cfg: &mut ClusterConfig) {
        cfg.sched_seed = self.sched_seed;
        cfg.tie_limit = self.tie_limit;
        cfg.fault = self.fault.clone();
    }
}

/// Run the sequential reference for a workload under a preset.
pub fn run_sequential(w: Workload, preset: Preset) -> SeqRun {
    match w {
        Workload::Ep => ep::sequential(&ep_params(preset)),
        Workload::SorZero => sor::sequential(&sor_params(preset, true)),
        Workload::SorNonzero => sor::sequential(&sor_params(preset, false)),
        Workload::IsSmall => is::sequential(&is_params(preset, false)),
        Workload::IsLarge => is::sequential(&is_params(preset, true)),
        Workload::Tsp => tsp::sequential(&tsp_params(preset)),
        Workload::Qsort => qsort::sequential(&qsort_params(preset)),
        Workload::Water288 => water::sequential(&water_params(preset, false)),
        Workload::Water1728 => water::sequential(&water_params(preset, true)),
        Workload::BarnesHut => barnes::sequential(&barnes_params(preset)),
        Workload::Fft3d => fft3d::sequential(&fft_params(preset)),
        Workload::Ilink => ilink::sequential(&ilink_params(preset)),
    }
}

/// Run a workload under one of the two systems on an arbitrary cluster
/// model (`cfg.nprocs` processes over `cfg`'s interconnect).
///
/// # Panics
///
/// Panics with the failure's description on a structured [`RunFailure`];
/// see [`try_run_parallel_on`].
pub fn run_parallel_on(w: Workload, sys: System, cfg: &ClusterConfig, preset: Preset) -> AppRun {
    try_run_parallel_on(w, sys, cfg, preset).unwrap_or_else(|f| panic!("{f}"))
}

/// As [`run_parallel_on`], but a structured [`RunFailure`] — a virtual-time
/// deadlock or livelock, or a fault-plan crash — comes back as an `Err`
/// instead of a panic, so the fuzzing harness can classify it as a finding
/// and keep going.
pub fn try_run_parallel_on(
    w: Workload,
    sys: System,
    cfg: &ClusterConfig,
    preset: Preset,
) -> Result<AppRun, RunFailure> {
    match w {
        Workload::Ep => ep::run(cfg, &ep_params(preset), sys),
        Workload::SorZero => sor::run(cfg, &sor_params(preset, true), sys),
        Workload::SorNonzero => sor::run(cfg, &sor_params(preset, false), sys),
        Workload::IsSmall => is::run(cfg, &is_params(preset, false), sys),
        Workload::IsLarge => is::run(cfg, &is_params(preset, true), sys),
        Workload::Tsp => tsp::run(cfg, &tsp_params(preset), sys),
        Workload::Qsort => qsort::run(cfg, &qsort_params(preset), sys),
        Workload::Water288 => water::run(cfg, &water_params(preset, false), sys),
        Workload::Water1728 => water::run(cfg, &water_params(preset, true), sys),
        Workload::BarnesHut => barnes::run(cfg, &barnes_params(preset), sys),
        Workload::Fft3d => fft3d::run(cfg, &fft_params(preset), sys),
        Workload::Ilink => ilink::run(cfg, &ilink_params(preset), sys),
    }
}

/// One entry of a reproduction matrix: a workload under a system, on an
/// interconnect model, at a processor count.
///
/// The interconnect is part of the key so that a single matrix (and the
/// executor fanning it out) can hold the same workload under several
/// network models at once — exactly what a bandwidth or latency sweep is.
/// Equality is exact: [`NetModel`] compares overridden floats by bit
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunKey {
    /// The application and input set.
    pub workload: Workload,
    /// The runtime system (a DSM protocol backend, or PVM).
    pub system: System,
    /// The interconnect model the cluster runs over.
    pub net: NetModel,
    /// Number of simulated processes.
    pub nprocs: usize,
}

impl RunKey {
    /// A run on an arbitrary interconnect model.
    pub fn new(workload: Workload, system: System, net: NetModel, nprocs: usize) -> Self {
        RunKey {
            workload,
            system,
            net,
            nprocs,
        }
    }

    /// A run on the paper's testbed (the calibrated FDDI preset).
    pub fn fddi(workload: Workload, system: System, nprocs: usize) -> Self {
        RunKey::new(workload, system, NetModel::preset(NetPreset::Fddi), nprocs)
    }

    /// The cluster configuration this key describes.
    pub fn config(&self) -> ClusterConfig {
        self.net.config(self.nprocs)
    }
}

/// The processor counts a figure reports for a top count of `max`: every
/// count through 8 exactly as the paper plots it, then powers of two (and
/// `max` itself) beyond — `proc_series(16)` is `1..=8, 16` and
/// `proc_series(32)` is `1..=8, 16, 32`, keeping the beyond-the-paper
/// figures readable instead of 32 rows deep.
pub fn proc_series(max: usize) -> Vec<usize> {
    let mut series: Vec<usize> = (1..=max.min(8)).collect();
    let mut p = 16;
    while p < max {
        series.push(p);
        p *= 2;
    }
    if max > 8 {
        series.push(max);
    }
    series
}

/// The precomputed results of a reproduction: every requested sequential
/// baseline and parallel run, keyed for lookup.
///
/// A matrix is *computed* (possibly on many cores, see [`run_matrix`]) and
/// then *rendered*: because every simulation is deterministic and the
/// results are stored under their keys — never in completion order — the
/// rendering is a pure function of the request, so serial and parallel
/// computation produce byte-identical tables, figures and JSON.
pub struct RunMatrix {
    /// The preset the matrix was computed under.
    pub preset: Preset,
    seq: Vec<(Workload, SeqRun)>,
    runs: Vec<(RunKey, AppRun)>,
}

impl RunMatrix {
    /// The sequential baseline of `w`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix was not computed with `w`'s baseline.
    pub fn sequential(&self, w: Workload) -> &SeqRun {
        self.seq
            .iter()
            .find(|(k, _)| *k == w)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("{} baseline not in the matrix", w.name()))
    }

    /// The parallel run stored under `key`.
    ///
    /// # Panics
    ///
    /// Panics if that run is not in the matrix.
    pub fn run(&self, key: &RunKey) -> &AppRun {
        self.runs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, r)| r)
            .unwrap_or_else(|| {
                panic!(
                    "{} under {} on {} at {} processes not in the matrix",
                    key.workload.name(),
                    key.system,
                    key.net.label(),
                    key.nprocs
                )
            })
    }

    /// Every parallel run in the matrix, in request order.
    pub fn runs(&self) -> impl Iterator<Item = (&RunKey, &AppRun)> {
        self.runs.iter().map(|(k, r)| (k, r))
    }

    /// Number of parallel runs held.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True if the matrix holds no parallel runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// FNV-1a-64 over every run's [`run_record_json`] line, each
    /// newline-terminated, in request order: a flipped bit in any run, or
    /// the same runs in another order, changes it.
    pub fn fingerprint(&self) -> u64 {
        let mut text = String::new();
        for (key, run) in self.runs() {
            text.push_str(&run_record_json(key, run));
            text.push('\n');
        }
        fnv1a(text.as_bytes())
    }
}

/// Compute a reproduction matrix — the sequential baseline of every workload
/// in `seq_workloads` plus every run in `keys` — on `jobs` worker threads.
///
/// Each entry is an independent deterministic simulation; the executor in
/// [`exec`] fans them out and delivers results in request order, so the
/// returned matrix (and anything rendered from it) is bit-identical for
/// every `jobs` value.  Duplicate keys are computed once.
///
/// # Example
///
/// One workload, two systems, two interconnects, computed on two workers:
///
/// ```
/// use apps::runner::System;
/// use apps::Workload;
/// use bench::{run_matrix, Preset, RunKey};
/// use cluster::{NetModel, NetPreset};
///
/// let atm = NetModel::preset(NetPreset::Atm);
/// let keys = [
///     RunKey::fddi(Workload::Ep, System::Pvm, 2),
///     RunKey::new(Workload::Ep, System::Pvm, atm, 2),
/// ];
/// let matrix = run_matrix(Preset::Tiny, &[Workload::Ep], &keys, 2);
/// let seq = matrix.sequential(Workload::Ep);
/// // Same answer on both networks, and the paper's ring is never faster.
/// assert_eq!(matrix.run(&keys[0]).checksum, seq.checksum);
/// assert!(matrix.run(&keys[0]).time >= matrix.run(&keys[1]).time);
/// ```
pub fn run_matrix(
    preset: Preset,
    seq_workloads: &[Workload],
    keys: &[RunKey],
    jobs: usize,
) -> RunMatrix {
    run_matrix_obs(preset, seq_workloads, keys, jobs, ObsLevel::Off)
}

/// [`run_matrix`] with an observability level applied to every parallel run
/// in the matrix (sequential baselines are plain closed-form models and
/// record nothing).  The level reaches the simulations through
/// [`ClusterConfig::obs`] — it is *not* part of the [`RunKey`], so matrices
/// computed at different levels are keyed (and rendered) identically, and
/// the recorded output rides along on [`AppRun::obs`].
pub fn run_matrix_obs(
    preset: Preset,
    seq_workloads: &[Workload],
    keys: &[RunKey],
    jobs: usize,
    obs: ObsLevel,
) -> RunMatrix {
    run_matrix_full(preset, seq_workloads, keys, jobs, obs, AnalysisLevel::Off)
}

/// [`run_matrix_obs`] with an analysis level on top: like the observability
/// level it reaches the simulations through the configuration
/// ([`ClusterConfig::analysis`]), is *not* part of the [`RunKey`], and never
/// perturbs the simulated output — a matrix computed under
/// [`AnalysisLevel::Race`] carries a [`apps::runner::AppRun::race`] report
/// per DSM run and is otherwise bit-identical to one computed at
/// [`AnalysisLevel::Off`].
pub fn run_matrix_full(
    preset: Preset,
    seq_workloads: &[Workload],
    keys: &[RunKey],
    jobs: usize,
    obs: ObsLevel,
    analysis: AnalysisLevel,
) -> RunMatrix {
    run_matrix_tuned(
        preset,
        seq_workloads,
        keys,
        jobs,
        obs,
        analysis,
        &RunTuning::default(),
    )
}

/// [`run_matrix_full`] with a [`RunTuning`] applied to every parallel run:
/// the schedule seed, tie-break cap and fault plan reach the simulations
/// through the configuration, exactly like the observability and analysis
/// levels — not part of the [`RunKey`], and a no-op at the default tuning.
/// Crash plans panic the matrix (a crashed run has no complete result to
/// store); the fuzzer fans crash plans through [`try_run_parallel_on`]
/// instead.
pub fn run_matrix_tuned(
    preset: Preset,
    seq_workloads: &[Workload],
    keys: &[RunKey],
    jobs: usize,
    obs: ObsLevel,
    analysis: AnalysisLevel,
    tuning: &RunTuning,
) -> RunMatrix {
    let mut seq_keys: Vec<Workload> = Vec::new();
    for &w in seq_workloads {
        if !seq_keys.contains(&w) {
            seq_keys.push(w);
        }
    }
    let mut run_keys: Vec<RunKey> = Vec::new();
    for &k in keys {
        if !run_keys.contains(&k) {
            run_keys.push(k);
        }
    }
    enum Task {
        Seq(Workload),
        Run(RunKey),
    }
    enum Done {
        Seq(Workload, SeqRun),
        // Boxed: an AppRun (with its per-process stats) dwarfs a SeqRun.
        Run(RunKey, Box<AppRun>),
    }
    let tasks: Vec<Task> = seq_keys
        .iter()
        .map(|&w| Task::Seq(w))
        .chain(run_keys.iter().map(|&k| Task::Run(k)))
        .collect();
    let closures: Vec<_> = tasks
        .into_iter()
        .map(|t| {
            let tuning = tuning.clone();
            move || match t {
                Task::Seq(w) => Done::Seq(w, run_sequential(w, preset)),
                Task::Run(key) => {
                    let mut cfg = key.config();
                    cfg.obs = obs;
                    cfg.analysis = analysis;
                    tuning.apply(&mut cfg);
                    Done::Run(
                        key,
                        Box::new(run_parallel_on(key.workload, key.system, &cfg, preset)),
                    )
                }
            }
        })
        .collect();
    let mut matrix = RunMatrix {
        preset,
        seq: Vec::with_capacity(seq_keys.len()),
        runs: Vec::with_capacity(run_keys.len()),
    };
    for done in exec::run_ordered(jobs, closures) {
        match done {
            Done::Seq(w, s) => matrix.seq.push((w, s)),
            Done::Run(k, r) => matrix.runs.push((k, *r)),
        }
    }
    matrix
}

/// Render the happens-before race reports of a matrix computed under
/// [`AnalysisLevel::Race`]: one summary line per checked run (PVM runs are
/// message-passing only and carry no report), the full per-race detail for
/// any run that is not race-free, and a final `racecheck summary:` line
/// totalling races over checked runs — the line CI greps for.
///
/// Deterministic like every other rendering: runs appear in request order
/// and each report is itself deterministically sorted.
pub fn render_race_reports(matrix: &RunMatrix) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut checked = 0usize;
    let mut total_races = 0usize;
    for (key, run) in matrix.runs() {
        let Some(report) = &run.race else { continue };
        checked += 1;
        total_races += report.races.len();
        writeln!(
            out,
            "  {:<12} {:<10} {:<10} n={:<3} {}",
            key.workload.name(),
            run.system.to_string(),
            key.net.label(),
            key.nprocs,
            report.render().lines().next().unwrap_or_default()
        )
        .unwrap();
        if !report.is_race_free() {
            for line in report.render().lines().skip(1) {
                writeln!(out, "    {line}").unwrap();
            }
        }
    }
    writeln!(
        out,
        "racecheck summary: {total_races} race(s) across {checked} checked run(s)"
    )
    .unwrap();
    out
}

/// FNV-1a-64 of `bytes` — the fingerprint of a run record in the goldens
/// under `perfbench/golden/` and of a whole matrix
/// ([`RunMatrix::fingerprint`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One JSON record per run with every virtual time carried both as decimal
/// and as its raw f64 bit pattern, so a textual `diff` of two dumps is
/// exactly a bit-identity check.  Shared by the `reproduce --json` dump and
/// the parallel-vs-serial determinism tests.
pub fn run_record_json(key: &RunKey, run: &AppRun) -> String {
    let mut rec = format!(
        "{{\"workload\": \"{}\", \"system\": \"{}\", \"net\": \"{}\", \"nprocs\": {}, \
         \"time\": {}, \"time_bits\": \"{:016x}\", \"checksum_bits\": \"{:016x}\", \
         \"messages\": {}, \"kilobytes_bits\": \"{:016x}\", \
         \"datagrams_received\": {}",
        key.workload.name(),
        run.system,
        key.net.label(),
        run.nprocs,
        run.time,
        run.time.to_bits(),
        run.checksum.to_bits(),
        run.messages,
        run.kilobytes.to_bits(),
        run.proc_stats
            .iter()
            .map(|s| s.datagrams_received)
            .sum::<u64>(),
    );
    // The tuning stamps appear only when nonzero, so a default-tuned dump
    // stays byte-identical to every dump the harness ever produced.
    if run.sched_seed != 0 {
        rec.push_str(&format!(", \"sched_seed\": {}", run.sched_seed));
    }
    if run.fault_hash != 0 {
        rec.push_str(&format!(
            ", \"fault_hash\": \"{:016x}\", \"faults_injected\": {}",
            run.fault_hash,
            run.faults.injected()
        ));
    }
    if let Some(t) = &run.tmk_stats {
        rec.push_str(&format!(
            ", \"page_faults\": {}, \"diff_requests\": {}, \"diff_flushes\": {}, \
             \"page_requests\": {}",
            t.page_faults, t.diff_requests_sent, t.diff_flushes_sent, t.page_requests_sent
        ));
    }
    if let Some(obs) = &run.obs {
        // Integer virtual-ns quantiles of the merged histograms: present
        // only when the run was computed at an observability level, and
        // byte-deterministic like everything else in the record.
        for (label, cat) in [
            ("lock", SpanCat::LockWait),
            ("fault", SpanCat::Fault),
            ("barrier", SpanCat::BarrierWait),
        ] {
            let h = obs.merged_hist(cat);
            rec.push_str(&format!(
                ", \"{label}_spans\": {}, \"{label}_p50_ns\": {}, \"{label}_p99_ns\": {}, \
                 \"{label}_p999_ns\": {}",
                h.count(),
                h.value_at_quantile(0.50),
                h.value_at_quantile(0.99),
                h.value_at_quantile(0.999)
            ));
        }
        let events: usize =
            obs.central.len() + obs.procs.iter().map(|p| p.events.len()).sum::<usize>();
        rec.push_str(&format!(", \"obs_events\": {events}"));
    }
    if let Some(race) = &run.race {
        // Present only when the run was computed under a racecheck analysis
        // level; the simulated fields above are bit-identical either way.
        rec.push_str(&format!(
            ", \"race_accesses\": {}, \"races\": {}",
            race.accesses,
            race.races.len()
        ));
    }
    rec.push('}');
    rec
}

/// Problem-size description printed in the Table 1 reproduction.
pub fn problem_size(w: Workload, preset: Preset) -> String {
    match w {
        Workload::Ep => format!("2^{} pairs", ep_params(preset).pairs.trailing_zeros()),
        Workload::SorZero | Workload::SorNonzero => {
            let p = sor_params(preset, true);
            format!("{}x{} floats, {} iters", p.rows, p.cols, p.iters)
        }
        Workload::IsSmall | Workload::IsLarge => {
            let p = is_params(preset, matches!(w, Workload::IsLarge));
            format!(
                "N=2^{}, Bmax=2^{}, {} iters",
                p.keys.trailing_zeros(),
                p.buckets.trailing_zeros(),
                p.iters
            )
        }
        Workload::Tsp => {
            let p = tsp_params(preset);
            format!("{} cities, threshold {}", p.cities, p.threshold)
        }
        Workload::Qsort => {
            let p = qsort_params(preset);
            format!("{}K integers", p.elems / 1024)
        }
        Workload::Water288 | Workload::Water1728 => {
            let p = water_params(preset, matches!(w, Workload::Water1728));
            format!("{} molecules, {} steps", p.molecules, p.steps)
        }
        Workload::BarnesHut => {
            let p = barnes_params(preset);
            format!("{} bodies, {} steps", p.bodies, p.steps)
        }
        Workload::Fft3d => {
            let p = fft_params(preset);
            format!("{}x{}x{}, {} iters", p.n1, p.n2, p.n3, p.iters)
        }
        Workload::Ilink => {
            let p = ilink_params(preset);
            format!("{} families, genarray {}", p.families, p.genarray)
        }
    }
}

fn ep_params(p: Preset) -> ep::EpParams {
    match p {
        Preset::Tiny => ep::EpParams::tiny(),
        Preset::Scaled => ep::EpParams::scaled(),
        Preset::Paper => ep::EpParams::paper(),
    }
}

fn sor_params(p: Preset, zero: bool) -> sor::SorParams {
    match (p, zero) {
        (Preset::Tiny, z) => sor::SorParams::tiny(z),
        (Preset::Scaled, true) => sor::SorParams::scaled_zero(),
        (Preset::Scaled, false) => sor::SorParams::scaled_nonzero(),
        (Preset::Paper, true) => sor::SorParams::paper_zero(),
        (Preset::Paper, false) => sor::SorParams::paper_nonzero(),
    }
}

fn is_params(p: Preset, large: bool) -> is::IsParams {
    match (p, large) {
        (Preset::Tiny, _) => is::IsParams::tiny(),
        (Preset::Scaled, false) => is::IsParams::scaled_small(),
        (Preset::Scaled, true) => is::IsParams::scaled_large(),
        (Preset::Paper, false) => is::IsParams::paper_small(),
        (Preset::Paper, true) => is::IsParams::paper_large(),
    }
}

fn tsp_params(p: Preset) -> tsp::TspParams {
    match p {
        Preset::Tiny => tsp::TspParams::tiny(),
        Preset::Scaled => tsp::TspParams::scaled(),
        Preset::Paper => tsp::TspParams::paper(),
    }
}

fn qsort_params(p: Preset) -> qsort::QsortParams {
    match p {
        Preset::Tiny => qsort::QsortParams::tiny(),
        Preset::Scaled => qsort::QsortParams::scaled(),
        Preset::Paper => qsort::QsortParams::paper(),
    }
}

fn water_params(p: Preset, large: bool) -> water::WaterParams {
    match (p, large) {
        (Preset::Tiny, _) => water::WaterParams::tiny(),
        (Preset::Scaled, false) => water::WaterParams::scaled_288(),
        (Preset::Scaled, true) => water::WaterParams::scaled_1728(),
        (Preset::Paper, false) => water::WaterParams::paper_288(),
        (Preset::Paper, true) => water::WaterParams::paper_1728(),
    }
}

fn barnes_params(p: Preset) -> barnes::BarnesParams {
    match p {
        Preset::Tiny => barnes::BarnesParams::tiny(),
        Preset::Scaled => barnes::BarnesParams::scaled(),
        Preset::Paper => barnes::BarnesParams::paper(),
    }
}

fn fft_params(p: Preset) -> fft3d::FftParams {
    match p {
        Preset::Tiny => fft3d::FftParams::tiny(),
        Preset::Scaled => fft3d::FftParams::scaled(),
        Preset::Paper => fft3d::FftParams::paper(),
    }
}

fn ilink_params(p: Preset) -> ilink::IlinkParams {
    match p {
        Preset::Tiny => ilink::IlinkParams::tiny(),
        Preset::Scaled => ilink::IlinkParams::scaled(),
        Preset::Paper => ilink::IlinkParams::paper(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_sequential_runner() {
        for w in Workload::all() {
            let s = run_sequential(w, Preset::Tiny);
            assert!(s.time > 0.0, "{} has zero sequential time", w.name());
        }
    }

    #[test]
    fn every_workload_runs_under_every_system() {
        for w in Workload::all() {
            for sys in System::all() {
                let r = run_parallel_on(w, sys, &ClusterConfig::calibrated_fddi(2), Preset::Tiny);
                assert!(r.time > 0.0, "{} failed under {}", w.name(), sys);
            }
        }
    }

    /// The `Preset::Tiny` smoke test of the reproduce harness: all
    /// applications at 2 processes under both DSM protocol backends report
    /// finite speedups and nonzero message counts.
    #[test]
    fn tiny_preset_smokes_all_apps_under_both_protocols() {
        use treadmarks::ProtocolKind;
        for w in Workload::all() {
            let seq = run_sequential(w, Preset::Tiny);
            assert!(seq.time > 0.0, "{}: no sequential baseline", w.name());
            for protocol in ProtocolKind::all() {
                let sys = System::TreadMarks(protocol);
                let run = run_parallel_on(w, sys, &ClusterConfig::calibrated_fddi(2), Preset::Tiny);
                let speedup = run.speedup(seq.time);
                assert!(
                    speedup.is_finite() && speedup > 0.0,
                    "{} under {protocol}: speedup {speedup} not finite",
                    w.name()
                );
                assert!(
                    run.messages > 0,
                    "{} under {protocol}: no messages at 2 processes",
                    w.name()
                );
                assert!(
                    (run.checksum - seq.checksum).abs() <= seq.checksum.abs() * 1e-6 + 1e-6,
                    "{} under {protocol}: checksum {} vs sequential {}",
                    w.name(),
                    run.checksum,
                    seq.checksum
                );
            }
        }
    }

    /// The tentpole guarantee of the parallel executor: a matrix computed on
    /// a worker pool is bit-identical — every virtual time, checksum and
    /// counter, on every process of every run — to the same matrix computed
    /// serially on one thread.
    #[test]
    fn parallel_matrix_is_bit_identical_to_serial() {
        let workloads = [
            Workload::Ep,
            Workload::SorZero,
            Workload::Tsp,
            Workload::Water288,
        ];
        let keys: Vec<RunKey> = workloads
            .iter()
            .flat_map(|&w| {
                System::all().into_iter().flat_map(move |sys| {
                    [1usize, 2, 4]
                        .into_iter()
                        .map(move |n| RunKey::fddi(w, sys, n))
                })
            })
            .collect();
        let serial = run_matrix(Preset::Tiny, &workloads, &keys, 1);
        let parallel = run_matrix(Preset::Tiny, &workloads, &keys, 4);
        for &w in &workloads {
            let (a, b) = (serial.sequential(w), parallel.sequential(w));
            assert_eq!(a.time.to_bits(), b.time.to_bits(), "{} seq time", w.name());
            assert_eq!(
                a.checksum.to_bits(),
                b.checksum.to_bits(),
                "{} seq checksum",
                w.name()
            );
        }
        for key in &keys {
            let (a, b) = (serial.run(key), parallel.run(key));
            // f64 Debug output is shortest-round-trip, so Debug equality of
            // the full record (times, counters, per-process stats) is
            // bit-identity.
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{key:?} differs between serial and parallel execution"
            );
            assert_eq!(
                run_record_json(key, a),
                run_record_json(key, b),
                "{key:?}: JSON record differs"
            );
        }
    }

    #[test]
    fn duplicate_matrix_keys_are_computed_once() {
        let key = RunKey::fddi(Workload::Ep, System::Pvm, 2);
        let keys = vec![key, key, key];
        let m = run_matrix(Preset::Tiny, &[Workload::Ep], &keys, 2);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        assert!(m.run(&key).time > 0.0);
    }

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn the_matrix_fingerprint_sees_run_order_where_a_checksum_xor_cancels() {
        let keys = [
            RunKey::fddi(Workload::Ep, System::Pvm, 2),
            RunKey::fddi(
                Workload::Ep,
                System::TreadMarks(treadmarks::ProtocolKind::Lrc),
                2,
            ),
        ];
        let reversed = [keys[1], keys[0]];
        let forward = run_matrix(Preset::Tiny, &[], &keys, 1);
        let backward = run_matrix(Preset::Tiny, &[], &reversed, 1);
        // Both systems compute the same answer, so the XOR of the run
        // checksums is zero in either order and identifies nothing.
        let xor = |m: &RunMatrix| m.runs().fold(0, |x, (_, r)| x ^ r.checksum.to_bits());
        assert_eq!(xor(&forward), 0);
        assert_eq!(xor(&backward), 0);
        assert_ne!(forward.fingerprint(), backward.fingerprint());
    }

    #[test]
    fn one_matrix_holds_the_same_run_under_several_nets() {
        use cluster::NetPreset;
        let w = Workload::Ep;
        let sys = System::Pvm;
        let keys: Vec<RunKey> = NetPreset::all()
            .into_iter()
            .map(|p| RunKey::new(w, sys, NetModel::preset(p), 2))
            .collect();
        let m = run_matrix(Preset::Tiny, &[], &keys, 2);
        assert_eq!(m.len(), 4, "four presets, four distinct matrix entries");
        // Identical answers on every interconnect; distinct virtual times
        // on the distinctly-priced ones.
        let checksums: Vec<u64> = keys.iter().map(|k| m.run(k).checksum.to_bits()).collect();
        assert!(checksums.windows(2).all(|w| w[0] == w[1]));
        let ethernet = m.run(&keys[1]).time;
        let atm = m.run(&keys[2]).time;
        assert!(
            ethernet > atm,
            "ethernet {ethernet} not slower than atm {atm}"
        );
    }

    #[test]
    fn proc_series_matches_the_paper_below_eight_and_doubles_beyond() {
        assert_eq!(proc_series(4), vec![1, 2, 3, 4]);
        assert_eq!(proc_series(8), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(proc_series(16), vec![1, 2, 3, 4, 5, 6, 7, 8, 16]);
        assert_eq!(proc_series(32), vec![1, 2, 3, 4, 5, 6, 7, 8, 16, 32]);
        assert_eq!(proc_series(24), vec![1, 2, 3, 4, 5, 6, 7, 8, 16, 24]);
    }

    #[test]
    fn problem_sizes_are_described() {
        for w in Workload::all() {
            assert!(!problem_size(w, Preset::Scaled).is_empty());
        }
    }
}
