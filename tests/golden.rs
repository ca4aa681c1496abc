//! Golden output fingerprints: every run of the tiny matrix and of a small
//! lossy fuzz campaign — and, under `--ignored`, of the scaled DSM and
//! wide-rank matrices — must reproduce, byte for byte, the run record
//! committed under `perfbench/golden/`.
//!
//! A run's fingerprint is FNV-1a-64 over its `bench::run_record_json` line,
//! which carries every virtual time and counter as a raw f64 bit pattern,
//! so a single flipped bit anywhere in a run's output changes it.  The
//! goldens are read only, never regenerated here: a mismatch names the run
//! key whose output changed.  A deliberate cost-model change regenerates
//! them with `python3 perfbench/run.py --workload W --write-golden`.

use bench::{exec, fnv1a, fuzz, proc_series, run_record_json, try_run_parallel_on, Preset, RunKey};
use netws::apps::runner::System;
use netws::apps::Workload;
use netws::cluster::{AnalysisLevel, ClusterConfig, FaultPlan};
use std::collections::HashMap;

/// The committed `<run key> <fingerprint>` pairs of one golden file.
fn golden(name: &str) -> HashMap<String, u64> {
    let path = format!("{}/perfbench/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (key, fp) = l
                .split_once(' ')
                .unwrap_or_else(|| panic!("{path}: malformed line '{l}'"));
            let fp = u64::from_str_radix(fp.trim(), 16)
                .unwrap_or_else(|e| panic!("{path}: bad fingerprint in '{l}': {e}"));
            (key.to_string(), fp)
        })
        .collect()
}

/// The golden-file key of a run: `WORKLOAD/system/net/procs`.
fn label(key: &RunKey) -> String {
    let system = match key.system {
        System::TreadMarks(protocol) => protocol.name(),
        System::Pvm => "pvm",
    };
    format!(
        "{}/{system}/{}/{}",
        key.workload.name(),
        key.net.label(),
        key.nprocs
    )
}

/// Every `apps` × system × `procs` point on the paper's testbed, in the
/// canonical order of the golden files.
fn matrix(apps: &[Workload], procs: &[usize]) -> Vec<(String, RunKey, ClusterConfig)> {
    let mut points = Vec::new();
    for &w in apps {
        for sys in System::all() {
            for &n in procs {
                let key = RunKey::fddi(w, sys, n);
                points.push((label(&key), key, key.config()));
            }
        }
    }
    points
}

/// Run every `(label, key, config)` point at `preset` on a small worker
/// pool and assert each run's fingerprint equals its golden, naming every
/// key that differs.
fn assert_matches_golden(name: &str, preset: Preset, points: Vec<(String, RunKey, ClusterConfig)>) {
    let golden = golden(name);
    let tasks: Vec<_> = points
        .into_iter()
        .map(|(label, key, cfg)| {
            move || {
                let observed = match try_run_parallel_on(key.workload, key.system, &cfg, preset) {
                    Ok(run) => fnv1a(run_record_json(&key, &run).as_bytes()),
                    Err(failure) => fnv1a(format!("failure: {failure}").as_bytes()),
                };
                (label, observed)
            }
        })
        .collect();
    let ran = tasks.len();
    let mismatches: Vec<String> = exec::run_ordered(exec::default_jobs().min(4), tasks)
        .into_iter()
        .filter_map(|(label, observed)| match golden.get(&label) {
            Some(&want) if want == observed => None,
            Some(&want) => Some(format!(
                "{label}: golden {want:016x}, observed {observed:016x}"
            )),
            None => Some(format!("{label}: not in golden {name}")),
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {ran} runs differ from perfbench/golden/{name}.txt:\n  {}",
        mismatches.len(),
        mismatches.join("\n  ")
    );
}

#[test]
fn the_tiny_matrix_matches_its_golden_fingerprints() {
    let points = matrix(&Workload::all(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(points.len(), 384);
    assert_matches_golden("tiny-matrix", Preset::Tiny, points);
}

/// The scaled DSM matrix: twins, diffs and page traffic at scaled inputs.
/// Minutes in a debug build, so it runs under `--release -- --ignored`.
#[test]
#[ignore = "scaled inputs; run with cargo test --release --test golden -- --ignored"]
fn the_scaled_dsm_matrix_matches_its_golden_fingerprints() {
    let points = matrix(&[Workload::SorNonzero, Workload::IsLarge], &[1, 2, 3, 4]);
    assert_eq!(points.len(), 32);
    assert_matches_golden("scaled-dsm", Preset::Scaled, points);
}

/// Tiny EP and IS-Small at up to 256 ranks: the width of the vector clocks
/// and of the scheduler.
#[test]
#[ignore = "256-rank runs; run with cargo test --release --test golden -- --ignored"]
fn the_wide_rank_matrix_matches_its_golden_fingerprints() {
    let points = matrix(&[Workload::Ep, Workload::IsSmall], &proc_series(256));
    assert_eq!(points.len(), 104);
    assert_matches_golden("wide-ranks", Preset::Tiny, points);
}

/// Fuzz seeds 0 and 1 of `reproduce fuzz --tiny --faults lossy` at 4
/// processes: seed 1 breaks scheduler ties with a seeded draw, so this also
/// pins the arbiter's tie-break path.
#[test]
fn the_lossy_fuzz_campaign_matches_its_golden_fingerprints() {
    let plan = FaultPlan::lossy(1);
    let mut points = Vec::new();
    for seed in 0..2u64 {
        for w in Workload::all() {
            for sys in System::all() {
                let key = RunKey::fddi(w, sys, 4);
                let mut cfg = key.config();
                cfg.analysis = AnalysisLevel::Race;
                fuzz::tuning_for(&plan, seed).apply(&mut cfg);
                points.push((format!("{}/s{seed}", label(&key)), key, cfg));
            }
        }
    }
    assert_eq!(points.len(), 96);
    assert_matches_golden("fuzz-lossy", Preset::Tiny, points);
}
