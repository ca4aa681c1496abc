//! Determinism: under the conservative virtual-time arbiter, two runs of
//! the same program must produce **byte-identical** results — every virtual
//! time, every counter, on every process, under every system.  This is the
//! property that turns the reproduction's Table 1/2 numbers into stable
//! facts instead of thread-interleaving lottery tickets.

use bench::Preset;
use netws::apps::runner::{AppRun, System};
use netws::apps::Workload;
use netws::cluster::{Cluster, ClusterConfig, ProcStats};

fn run(w: Workload, sys: System, n: usize) -> AppRun {
    bench::run_parallel_on(w, sys, &ClusterConfig::calibrated_fddi(n), Preset::Tiny)
}

/// Bitwise equality of two per-process stat records: every virtual time is
/// compared by its f64 bit pattern, not within a tolerance.
fn assert_proc_stats_identical(a: &ProcStats, b: &ProcStats, ctx: &str) {
    assert_eq!(a.id, b.id, "{ctx}: rank");
    for (name, x, y) in [
        ("finish_time", a.finish_time, b.finish_time),
        ("compute_time", a.compute_time, b.compute_time),
        ("idle_time", a.idle_time, b.idle_time),
        ("config_latency", a.config_latency, b.config_latency),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: process {} {name} differs between runs: {x} vs {y}",
            a.id
        );
    }
    for (name, x, y) in [
        ("messages_sent", a.messages_sent, b.messages_sent),
        ("datagrams_sent", a.datagrams_sent, b.datagrams_sent),
        ("bytes_sent", a.bytes_sent, b.bytes_sent),
        (
            "messages_received",
            a.messages_received,
            b.messages_received,
        ),
        (
            "datagrams_received",
            a.datagrams_received,
            b.datagrams_received,
        ),
        ("bytes_received", a.bytes_received, b.bytes_received),
    ] {
        assert_eq!(x, y, "{ctx}: process {} {name} differs between runs", a.id);
    }
}

fn assert_runs_identical(a: &AppRun, b: &AppRun, ctx: &str) {
    assert_eq!(
        a.checksum.to_bits(),
        b.checksum.to_bits(),
        "{ctx}: checksum differs"
    );
    assert_eq!(
        a.time.to_bits(),
        b.time.to_bits(),
        "{ctx}: parallel time differs between runs: {} vs {}",
        a.time,
        b.time
    );
    assert_eq!(a.messages, b.messages, "{ctx}: message count differs");
    assert_eq!(
        a.kilobytes.to_bits(),
        b.kilobytes.to_bits(),
        "{ctx}: data volume differs"
    );
    assert_eq!(
        a.tmk_stats, b.tmk_stats,
        "{ctx}: DSM runtime counters differ"
    );
    assert_eq!(a.proc_stats.len(), b.proc_stats.len(), "{ctx}: nprocs");
    for (pa, pb) in a.proc_stats.iter().zip(&b.proc_stats) {
        assert_proc_stats_identical(pa, pb, ctx);
    }
}

/// Every Tiny-preset application, run twice under each system (every DSM
/// protocol backend and PVM — `System::all()`, so a future backend is
/// covered automatically), yields a bit-identical report: same times,
/// same counters, on every process.
#[test]
fn every_app_is_bit_deterministic_under_every_system() {
    for w in Workload::all() {
        for sys in System::all() {
            let first = run(w, sys, 4);
            let second = run(w, sys, 4);
            let ctx = format!("{} under {sys} at 4 processes", w.name());
            assert_runs_identical(&first, &second, &ctx);
        }
    }
}

/// The parallel run executor cannot change results: a reproduction matrix
/// computed on a 4-thread worker pool is bit-identical — every virtual time
/// and counter, on every process of every run, and the rendered JSON
/// records — to the same matrix computed serially.
#[test]
fn parallel_executor_matches_serial_bit_for_bit() {
    use bench::{run_matrix, run_record_json, RunKey};
    let workloads = [Workload::Qsort, Workload::IsSmall, Workload::BarnesHut];
    let keys: Vec<RunKey> = workloads
        .iter()
        .flat_map(|&w| {
            System::all().into_iter().flat_map(move |sys| {
                [2usize, 4]
                    .into_iter()
                    .map(move |n| RunKey::fddi(w, sys, n))
            })
        })
        .collect();
    let serial = run_matrix(Preset::Tiny, &workloads, &keys, 1);
    let parallel = run_matrix(Preset::Tiny, &workloads, &keys, 4);
    for key in &keys {
        let (a, b) = (serial.run(key), parallel.run(key));
        let ctx = format!(
            "{} under {} at {} processes (serial vs parallel)",
            key.workload.name(),
            key.system,
            key.nprocs
        );
        assert_runs_identical(a, b, &ctx);
        assert_eq!(
            run_record_json(key, a),
            run_record_json(key, b),
            "{ctx}: JSON record differs"
        );
    }
    for &w in &workloads {
        assert_eq!(
            serial.sequential(w).time.to_bits(),
            parallel.sequential(w).time.to_bits(),
            "{}: sequential baseline differs",
            w.name()
        );
    }
}

/// The raw transport is deterministic even under deliberate contention:
/// many processes hammer one receiver through the shared medium, with
/// interrupt-style service mixed in, and the full `ClusterReport` matches
/// bit-for-bit across runs.
#[test]
fn contended_shared_medium_reports_are_bit_identical() {
    use bytes::Bytes;
    let run_once = || {
        Cluster::run(ClusterConfig::calibrated_fddi(6), |p| {
            if p.id() == 0 {
                let mut total = 0usize;
                for _ in 0..(5 * 8) {
                    let m = p.recv_any();
                    total += m.payload.len();
                    p.send_at(m.src, 99, Bytes::from_static(b"ack"), m.arrival + 1e-5);
                }
                total
            } else {
                for i in 0..8u32 {
                    p.compute(1e-4 * p.id() as f64);
                    p.send(0, i, Bytes::from(vec![p.id() as u8; 700 * p.id()]));
                    p.recv(Some(0), 99);
                }
                0
            }
        })
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.results, b.results);
    for (pa, pb) in a.stats.iter().zip(&b.stats) {
        assert_proc_stats_identical(pa, pb, "contended transport");
    }
    // Receive-side datagram accounting closes the loop cluster-wide: all
    // consumed traffic is seen by both ends.
    let sent: u64 = a.stats.iter().map(|s| s.datagrams_sent).sum();
    let received: u64 = a.stats.iter().map(|s| s.datagrams_received).sum();
    assert_eq!(sent, received);
}
