//! Cross-crate integration tests: every application produces the same answer
//! under the sequential, TreadMarks (both coherence protocols) and PVM
//! implementations, and the qualitative communication relationships the
//! paper reports hold.

use bench::Preset;
use netws::apps::runner::{AppRun, SeqRun, System};
use netws::apps::Workload;
use netws::cluster::ClusterConfig;
use netws::treadmarks::ProtocolKind;

fn seq(w: Workload) -> SeqRun {
    bench::run_sequential(w, Preset::Tiny)
}

fn run(w: Workload, sys: System, n: usize) -> AppRun {
    bench::run_parallel_on(w, sys, &ClusterConfig::calibrated_fddi(n), Preset::Tiny)
}

#[test]
fn every_application_agrees_across_paradigms_at_three_processes() {
    for w in Workload::all() {
        let s = seq(w);
        let tol = s.checksum.abs() * 1e-6 + 1e-6;
        let mut tmk_checksums = Vec::new();
        for protocol in ProtocolKind::all() {
            let t = run(w, System::TreadMarks(protocol), 3);
            assert!(
                (t.checksum - s.checksum).abs() < tol,
                "{}: TreadMarks/{protocol} {} vs sequential {}",
                w.name(),
                t.checksum,
                s.checksum
            );
            tmk_checksums.push(t.checksum);
        }
        // The two protocol backends are observationally identical: bit-equal
        // application results, not merely within tolerance.
        assert_eq!(
            tmk_checksums[0],
            tmk_checksums[1],
            "{}: LRC and HLRC disagree",
            w.name()
        );
        let m = run(w, System::Pvm, 3);
        assert!(
            (m.checksum - s.checksum).abs() < tol,
            "{}: PVM {} vs sequential {}",
            w.name(),
            m.checksum,
            s.checksum
        );
    }
}

#[test]
fn single_process_runs_match_the_sequential_answer() {
    for w in [
        Workload::Ep,
        Workload::IsSmall,
        Workload::Qsort,
        Workload::Fft3d,
    ] {
        let s = seq(w);
        for protocol in ProtocolKind::all() {
            let t = run(w, System::TreadMarks(protocol), 1);
            let tol = s.checksum.abs() * 1e-9 + 1e-9;
            assert!(
                (t.checksum - s.checksum).abs() < tol,
                "{} under {protocol}",
                w.name()
            );
            // A single DSM process exchanges no messages at all.
            assert_eq!(t.messages, 0, "{} under {protocol}", w.name());
        }
    }
}

#[test]
fn treadmarks_always_sends_at_least_as_many_messages_as_pvm() {
    // The paper's across-the-board observation: the separation of
    // synchronization and data transfer plus the request/response protocol
    // means the DSM never sends fewer messages than hand-written message
    // passing — under either coherence protocol.
    for w in Workload::all() {
        let m = run(w, System::Pvm, 4);
        for protocol in ProtocolKind::all() {
            let t = run(w, System::TreadMarks(protocol), 4);
            assert!(
                t.messages >= m.messages,
                "{}: TreadMarks/{protocol} {} msgs < PVM {} msgs",
                w.name(),
                t.messages,
                m.messages
            );
        }
    }
}

#[test]
fn parallel_time_never_beats_the_work_bound() {
    // Virtual parallel time can never be smaller than the sequential work
    // divided by the process count (no superlinear artefacts in the model).
    for w in [Workload::Ep, Workload::SorNonzero, Workload::Ilink] {
        let s = seq(w);
        for protocol in ProtocolKind::all() {
            for n in [2usize, 4] {
                let t = run(w, System::TreadMarks(protocol), n);
                assert!(
                    t.time * (n as f64) * 1.02 >= s.time * 0.95,
                    "{} under {protocol} at {n} procs: {} * {n} < {}",
                    w.name(),
                    t.time,
                    s.time
                );
            }
        }
    }
}
