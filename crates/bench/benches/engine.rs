//! Engine throughput: how fast the simulator simulates.
//!
//! Two figures of merit, printed per configuration alongside the criterion
//! timings so the perf trajectory of the engine itself (PR 3 and onward) is
//! measurable:
//!
//! * **events/sec** — transport messages processed per wall-clock second
//!   (each message is one arbitrated send plus one arbitrated consume, the
//!   engine's unit of scheduling work);
//! * **virtual-seconds-per-wall-second** — how much simulated cluster time
//!   one wall second buys.
//!
//! The `matrix_*` benches time the parallel run executor end-to-end at
//! different worker counts over the same workload matrix; on a multi-core
//! host the default-jobs variant is the one the `reproduce` binary ships.

use apps::runner::System;
use apps::Workload;
use bench::{exec, run_matrix, run_parallel_on, Preset, RunKey};
use cluster::ClusterConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use treadmarks::ProtocolKind;

fn transport_messages(run: &apps::AppRun) -> u64 {
    run.proc_stats.iter().map(|s| s.messages_sent).sum()
}

fn engine_throughput(c: &mut Criterion) {
    let configs = [
        (Workload::SorZero, System::TreadMarks(ProtocolKind::Lrc), 4),
        (Workload::Water288, System::TreadMarks(ProtocolKind::Lrc), 8),
        (
            Workload::Water288,
            System::TreadMarks(ProtocolKind::Hlrc),
            8,
        ),
        (Workload::Ep, System::Pvm, 8),
    ];
    for (w, sys, n) in configs {
        let label = format!("engine/{}/{sys}/{n}p", w.name());
        let cfg = ClusterConfig::calibrated_fddi(n);
        // Explicit throughput numbers (criterion's shim prints only times).
        // lint:allow(wall-clock): benchmark measures this machine's throughput
        let started = Instant::now();
        let iters = 5;
        let mut events = 0u64;
        let mut virtual_seconds = 0.0;
        for _ in 0..iters {
            let run = run_parallel_on(w, sys, &cfg, Preset::Tiny);
            events += transport_messages(&run);
            virtual_seconds += run.time;
        }
        let wall = started.elapsed().as_secs_f64();
        println!(
            "{label}: {:.0} events/sec, {:.2} virtual-seconds/wall-second",
            events as f64 / wall,
            virtual_seconds / wall
        );
        c.bench_function(&label, |b| {
            b.iter(|| run_parallel_on(w, sys, &cfg, Preset::Tiny))
        });
    }
}

/// The allocation pass head-to-head, on the diff store's churn pattern
/// (batch insert, ordered range scan, GC-retain): a plain `BTreeMap` of
/// owned records — the pre-PR-10 layout, every insert and every GC'd
/// removal a tree-node allocation carrying the whole record — against the
/// slab-indexed layout the engine now uses (4-byte handles in the ordered
/// index, records in a recycling slab).
fn slab_vs_btreemap(c: &mut Criterion) {
    use std::collections::BTreeMap;
    use treadmarks::heap::Slab;
    // Shaped like a stored diff: a key the index orders on plus a payload
    // heavy enough that node churn is what the benchmark measures.
    type Key = (u64, usize, u32);
    #[derive(Clone)]
    struct Rec {
        payload: [u64; 8],
    }
    let n = 4096usize;
    let key_of = |i: usize| -> Key { (i as u64 % 64, i % 8, i as u32) };
    c.bench_function("alloc/diff_store/btreemap_records", |b| {
        b.iter(|| {
            let mut map: BTreeMap<Key, Rec> = BTreeMap::new();
            for i in 0..n {
                map.insert(
                    key_of(i),
                    Rec {
                        payload: [i as u64; 8],
                    },
                );
            }
            let scanned: u64 = map
                .range((0u64, 0usize, 0u32)..(32u64, 0usize, 0u32))
                .map(|(_, r)| r.payload[0])
                .sum();
            map.retain(|&(page, _, _), _| page >= 32);
            (scanned, map.len())
        })
    });
    c.bench_function("alloc/diff_store/slab_indexed", |b| {
        b.iter(|| {
            let mut slab: Slab<Rec> = Slab::default();
            let mut index: BTreeMap<Key, u32> = BTreeMap::new();
            for i in 0..n {
                let handle = slab.insert(Rec {
                    payload: [i as u64; 8],
                });
                index.insert(key_of(i), handle);
            }
            let scanned: u64 = index
                .range((0u64, 0usize, 0u32)..(32u64, 0usize, 0u32))
                .map(|(_, &h)| slab.get(h).payload[0])
                .sum();
            index.retain(|&(page, _, _), &mut handle| {
                if page >= 32 {
                    true
                } else {
                    slab.remove(handle);
                    false
                }
            });
            (scanned, index.len())
        })
    });
}

fn executor_fanout(c: &mut Criterion) {
    let keys: Vec<RunKey> = Workload::all()
        .into_iter()
        .flat_map(|w| {
            System::all().into_iter().flat_map(move |sys| {
                [2usize, 4]
                    .into_iter()
                    .map(move |n| RunKey::fddi(w, sys, n))
            })
        })
        .collect();
    let mut job_counts = vec![1];
    if exec::default_jobs() > 1 {
        job_counts.push(exec::default_jobs());
    }
    for jobs in job_counts {
        let label = format!("matrix_tiny_jobs_{jobs}");
        // lint:allow(wall-clock): benchmark measures this machine's throughput
        let started = Instant::now();
        let matrix = run_matrix(Preset::Tiny, &[], &keys, jobs);
        let wall = started.elapsed().as_secs_f64();
        let events: u64 = matrix.runs().map(|(_, r)| transport_messages(r)).sum();
        let virtual_seconds: f64 = matrix.runs().map(|(_, r)| r.time).sum();
        println!(
            "{label}: {:.0} events/sec, {:.2} virtual-seconds/wall-second \
             ({} runs in {wall:.2}s)",
            events as f64 / wall,
            virtual_seconds / wall,
            matrix.len()
        );
        c.bench_function(&label, |b| {
            b.iter(|| run_matrix(Preset::Tiny, &[], &keys, jobs))
        });
    }
}

criterion_group!(
    benches,
    engine_throughput,
    slab_vs_btreemap,
    executor_fanout
);
criterion_main!(benches);
