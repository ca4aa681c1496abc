//! Self-tests of the benchmark's correctness checks.

use super::*;
use cluster::{Crash, CrashPoint, FaultPlan};
use treadmarks::ProtocolKind;

fn job(w: Workload, system: System, nprocs: usize) -> Job {
    Job {
        key: bench::RunKey::fddi(w, system, nprocs),
        fuzz_seed: None,
    }
}

/// A two-run workload of tiny EP whose golden is what the runs produce.
fn tiny_setup(jobs: Vec<Job>, plan: Option<FaultPlan>) -> Setup {
    let spec = Spec {
        name: "self-test",
        preset: bench::Preset::Tiny,
        apps: vec![Workload::Ep],
        jobs,
        plan,
    };
    Setup {
        order: (0..spec.jobs.len()).collect(),
        golden: Golden::new(Vec::new()),
        seqs: vec![(
            Workload::Ep,
            bench::run_sequential(Workload::Ep, spec.preset),
        )],
        spec,
    }
}

fn records(setup: &Setup) -> Vec<(String, String)> {
    setup
        .spec
        .jobs
        .iter()
        .map(|j| {
            let run = bench::run_parallel_on(
                j.key.workload,
                j.key.system,
                &setup.spec.config(j),
                setup.spec.preset,
            );
            (j.label(), bench::run_record_json(&j.key, &run))
        })
        .collect()
}

fn with_golden(mut setup: Setup) -> Setup {
    let golden = records(&setup)
        .into_iter()
        .map(|(k, rec)| (k, golden::fnv1a(rec.as_bytes())))
        .collect();
    setup.golden = Golden::new(golden);
    setup
}

#[test]
fn the_committed_golden_passes_a_clean_pass() {
    let setup = with_golden(tiny_setup(
        vec![
            job(Workload::Ep, System::Pvm, 2),
            job(Workload::Ep, System::TreadMarks(ProtocolKind::Lrc), 2),
        ],
        None,
    ));
    let pass = run_pass(&setup, None);
    assert_eq!(pass.failures().count(), 0);
    assert!(pass.messages() > 0);
}

#[test]
fn a_one_bit_change_in_time_bits_is_a_mismatch_on_that_key() {
    let setup = with_golden(tiny_setup(
        vec![
            job(Workload::Ep, System::Pvm, 2),
            job(Workload::Ep, System::Pvm, 3),
        ],
        None,
    ));
    let recs = records(&setup);
    let (key, rec) = &recs[1];
    let field = "\"time_bits\": \"";
    let at = rec.find(field).expect("records carry time_bits") + field.len();
    let bits = u64::from_str_radix(&rec[at..at + 16], 16).unwrap() ^ 1;
    let flipped = format!("{}{bits:016x}{}", &rec[..at], &rec[at + 16..]);
    assert_ne!(&flipped, rec);

    let observed = vec![
        (recs[0].0.clone(), golden::fnv1a(recs[0].1.as_bytes())),
        (key.clone(), golden::fnv1a(flipped.as_bytes())),
    ];
    let mismatches = setup.golden.check(&observed);
    assert_eq!(mismatches.len(), 1);
    assert_eq!(&mismatches[0].key, key);
    assert!(mismatches[0].to_string().contains(key.as_str()));
    assert_ne!(setup.golden.fold_observed(&observed), setup.golden.folded());
}

#[test]
fn records_swapped_between_keys_are_caught_where_an_xor_cancels() {
    // EP computes the same checksum under every backend, so an XOR of
    // checksums (or of fingerprints) cannot see two records trade places.
    let lrc = System::TreadMarks(ProtocolKind::Lrc);
    let hlrc = System::TreadMarks(ProtocolKind::Hlrc);
    let setup = with_golden(tiny_setup(
        vec![job(Workload::Ep, lrc, 2), job(Workload::Ep, hlrc, 2)],
        None,
    ));
    let recs = records(&setup);
    let fp: Vec<u64> = recs
        .iter()
        .map(|(_, r)| golden::fnv1a(r.as_bytes()))
        .collect();
    let swapped = vec![(recs[0].0.clone(), fp[1]), (recs[1].0.clone(), fp[0])];
    assert_eq!(fp[0] ^ fp[1], swapped[0].1 ^ swapped[1].1);

    let mismatches = setup.golden.check(&swapped);
    let keys: Vec<&str> = mismatches.iter().map(|m| m.key.as_str()).collect();
    assert_eq!(keys, [recs[0].0.as_str(), recs[1].0.as_str()]);
    assert_ne!(setup.golden.fold_observed(&swapped), setup.golden.folded());
}

#[test]
fn a_crash_plan_run_counts_in_the_error_rate() {
    let plan = FaultPlan {
        crashes: vec![Crash {
            rank: 1,
            at: CrashPoint::Event(1),
        }],
        ..FaultPlan::default()
    };
    let mut crashed = job(Workload::Ep, System::Pvm, 2);
    crashed.fuzz_seed = Some(0);
    let clean = job(Workload::Ep, System::Pvm, 3);
    let mut setup = with_golden(tiny_setup(vec![clean], Some(plan)));
    setup.spec.jobs.push(crashed);
    setup.order.push(1);

    let pass = run_pass(&setup, None);
    let mut tally = Tally::default();
    tally.add(&pass);
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    let failure = pass.samples[1]
        .failure
        .as_deref()
        .expect("the crashed run failed");
    assert!(failure.starts_with(&crashed.label()), "{failure}");
}
