//! The four benchmark workloads and the one pass over a workload's runs
//! that every measurement repeats.
//!
//! Each workload is a fixed list of simulated runs ([`Job`]s) in canonical
//! order, the order its golden file lists them.  The benchmark seed never
//! changes what a run computes; it shuffles the order the runs execute in
//! and, on `fuzz-lossy`, picks which window of fuzz seeds the campaign
//! explores.  So every seed is checked against the same committed goldens.

use crate::golden::fnv1a;
use apps::runner::{AppRun, SeqRun, System};
use apps::Workload;
use bench::invariants::{self, RunVerdict};
use bench::{fuzz, proc_series, try_run_parallel_on, Preset, RunKey};
use cluster::{AnalysisLevel, ClusterConfig, FaultPlan};

/// Fuzz seeds per `fuzz-lossy` pass: `reproduce fuzz --seeds 10`.
pub const FUZZ_SEEDS_PER_PASS: u64 = 10;
/// Windows of [`FUZZ_SEEDS_PER_PASS`] fuzz seeds the benchmark seed picks
/// from; the golden covers all of them.
pub const FUZZ_WINDOWS: u64 = 4;
/// Processor count of every `fuzz-lossy` run.
const FUZZ_PROCS: usize = 4;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["tiny-matrix", "scaled-dsm", "wide-ranks", "fuzz-lossy"];

/// One simulated run of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// The run's harness key.
    pub key: RunKey,
    /// The fuzz seed, for a run of the fuzz campaign.
    pub fuzz_seed: Option<u64>,
}

impl Job {
    /// The key the golden file lists this run under.
    pub fn label(&self) -> String {
        let base = format!(
            "{}/{}/{}/{}",
            self.key.workload.name(),
            system_name(self.key.system),
            self.key.net.label(),
            self.key.nprocs
        );
        match self.fuzz_seed {
            Some(s) => format!("{base}/s{s}"),
            None => base,
        }
    }
}

/// The scenario-file name of a system: `lrc`, `hlrc`, `sc` or `pvm`.
pub fn system_name(sys: System) -> &'static str {
    match sys {
        System::TreadMarks(protocol) => protocol.name(),
        System::Pvm => "pvm",
    }
}

/// A workload: its preset, applications and runs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload's name.
    pub name: &'static str,
    /// Problem-size preset of every run.
    pub preset: Preset,
    /// The applications, each with a sequential baseline.
    pub apps: Vec<Workload>,
    /// Every run, in canonical order.
    pub jobs: Vec<Job>,
    /// The fault plan of a fuzz campaign.
    pub plan: Option<FaultPlan>,
}

fn matrix(apps: &[Workload], procs: &[usize]) -> Vec<Job> {
    apps.iter()
        .flat_map(|&w| {
            System::all().into_iter().flat_map(move |sys| {
                procs.iter().map(move |&n| Job {
                    key: RunKey::fddi(w, sys, n),
                    fuzz_seed: None,
                })
            })
        })
        .collect()
}

impl Spec {
    /// The workload `name` with every run any benchmark seed can execute.
    pub fn full(name: &str) -> Result<Spec, String> {
        Spec::build(name, 0..FUZZ_WINDOWS * FUZZ_SEEDS_PER_PASS)
    }

    /// The workload `name` as benchmark seed `seed` runs it.
    pub fn for_seed(name: &str, seed: u64) -> Result<Spec, String> {
        let first = (seed % FUZZ_WINDOWS) * FUZZ_SEEDS_PER_PASS;
        Spec::build(name, first..first + FUZZ_SEEDS_PER_PASS)
    }

    fn build(name: &str, fuzz_seeds: std::ops::Range<u64>) -> Result<Spec, String> {
        let eight: Vec<usize> = (1..=8).collect();
        let (name, preset, apps, jobs, plan) = match name {
            "tiny-matrix" => {
                let apps = Workload::all().to_vec();
                let jobs = matrix(&apps, &eight);
                ("tiny-matrix", Preset::Tiny, apps, jobs, None)
            }
            "scaled-dsm" => {
                let apps = vec![Workload::SorNonzero, Workload::IsLarge];
                let jobs = matrix(&apps, &[1, 2, 3, 4]);
                ("scaled-dsm", Preset::Scaled, apps, jobs, None)
            }
            "wide-ranks" => {
                let apps = vec![Workload::Ep, Workload::IsSmall];
                let jobs = matrix(&apps, &proc_series(256));
                ("wide-ranks", Preset::Tiny, apps, jobs, None)
            }
            "fuzz-lossy" => {
                // `reproduce fuzz --tiny --faults lossy --protocol all`:
                // seed-major, then workload, then system, as `run_fuzz`
                // fans them.
                let apps = Workload::all().to_vec();
                let jobs = fuzz_seeds
                    .flat_map(|s| {
                        let apps = apps.clone();
                        apps.into_iter().flat_map(move |w| {
                            System::all().into_iter().map(move |sys| Job {
                                key: RunKey::fddi(w, sys, FUZZ_PROCS),
                                fuzz_seed: Some(s),
                            })
                        })
                    })
                    .collect();
                (
                    "fuzz-lossy",
                    Preset::Tiny,
                    apps,
                    jobs,
                    Some(FaultPlan::lossy(1)),
                )
            }
            other => {
                return Err(format!(
                    "unknown workload '{other}'; known: {}",
                    NAMES.join(", ")
                ))
            }
        };
        Ok(Spec {
            name,
            preset,
            apps,
            jobs,
            plan,
        })
    }

    /// The cluster configuration of `job`: the key's testbed, plus for a
    /// fuzz run exactly what `reproduce fuzz` applies (racecheck on, the
    /// seed's schedule tie-breaks and re-keyed fault plan).
    pub fn config(&self, job: &Job) -> ClusterConfig {
        let mut cfg = job.key.config();
        if let (Some(plan), Some(seed)) = (&self.plan, job.fuzz_seed) {
            cfg.analysis = AnalysisLevel::Race;
            fuzz::tuning_for(plan, seed).apply(&mut cfg);
        }
        cfg
    }

    /// A fuzz run with no faults and rank-order tie-breaks: the clean
    /// counterpart its fault overhead is measured against.
    pub fn clean_config(&self, job: &Job) -> ClusterConfig {
        let mut cfg = job.key.config();
        cfg.analysis = AnalysisLevel::Race;
        cfg
    }
}

/// A Fisher–Yates shuffle of `0..n` driven by SplitMix64 from `seed`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// What one simulated run produced.
#[derive(Debug)]
pub struct Outcome {
    /// FNV-1a-64 of the run's `run_record_json` line (of the failure
    /// text, for a run that did not complete).
    pub fingerprint: u64,
    /// The invariant verdict against the sequential baseline.
    pub verdict: RunVerdict,
    /// The completed run.
    pub run: Option<AppRun>,
}

impl Outcome {
    /// Transport messages the run sent (the "events" of BENCH_PR3–10).
    pub fn messages(&self) -> u64 {
        self.run.as_ref().map_or(0, |r| {
            r.proc_stats.iter().map(|s| s.messages_sent).sum::<u64>()
        })
    }
}

/// Run `job` under `cfg` through `bench::try_run_parallel_on` and classify
/// it: a structured `RunFailure`, a panic inside the program, or a failed
/// `bench::invariants` check is a failure.
pub fn execute(spec: &Spec, job: &Job, cfg: &ClusterConfig, seq: &SeqRun) -> Outcome {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        try_run_parallel_on(job.key.workload, job.key.system, cfg, spec.preset)
    }));
    match result {
        Ok(Ok(run)) => Outcome {
            fingerprint: fnv1a(bench::run_record_json(&job.key, &run).as_bytes()),
            verdict: invariants::check_run(&run, seq),
            run: Some(run),
        },
        Ok(Err(failure)) => Outcome {
            fingerprint: fnv1a(format!("failure: {failure}").as_bytes()),
            verdict: RunVerdict::from_failure(failure),
            run: None,
        },
        Err(_) => Outcome {
            fingerprint: fnv1a(b"panic"),
            verdict: RunVerdict::Violation("the run panicked".to_string()),
            run: None,
        },
    }
}

/// The cross-backend check `run_fuzz` makes per fuzz seed and workload:
/// every DSM backend that completed (with the checksum given) must compute
/// the bit-identical answer.  Returns the labels of the runs of every
/// group that fails it.
pub fn cross_backend_failures(runs: &[(Job, Option<f64>)]) -> Vec<String> {
    let mut groups: Vec<(u64, Workload)> = Vec::new();
    for (job, _) in runs {
        if let Some(seed) = job.fuzz_seed {
            if !groups.contains(&(seed, job.key.workload)) {
                groups.push((seed, job.key.workload));
            }
        }
    }
    let mut failed = Vec::new();
    for (seed, w) in groups {
        let members: Vec<(&Job, f64)> = runs
            .iter()
            .filter(|(j, _)| j.fuzz_seed == Some(seed) && j.key.workload == w)
            .filter_map(|(j, c)| Some((j, (*c)?)))
            .collect();
        let pairs: Vec<(System, f64)> = members.iter().map(|&(j, c)| (j.key.system, c)).collect();
        if invariants::cross_backend_equality(&pairs).is_failure() {
            failed.extend(members.iter().map(|(j, _)| j.label()));
        }
    }
    failed
}
