//! The cooperative executor's failure modes, driven through the public API:
//! a rank overflowing its stack, a rank panicking while its peers are
//! suspended, a thousand suspended ranks torn down at once, and a run that
//! must not start a single OS thread.
//!
//! Two tests re-execute this test binary with `--exact <test>` and
//! [`CHILD`] set, so the part that kills its process (the stack overflow)
//! or that counts the process's threads (which other tests running in
//! parallel would disturb) runs alone in a child process.

use bytes::Bytes;
use cluster::{Cluster, ClusterConfig, RunFailure};
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, ExitStatus, Output, Stdio};

/// Set in the environment of a re-executed child.
const CHILD: &str = "CLUSTER_EXECUTOR_TEST_CHILD";

/// Longest a child may run before it counts as hung.
const CHILD_DEADLINE_POLLS: u32 = 1200;

/// In the parent, re-run `test` alone in a child process and return its
/// output once it exits (panicking if it is still running after about a
/// minute); in the child, return `None` so the caller runs the body.
fn in_child(test: &str) -> Option<(ExitStatus, Output)> {
    if std::env::var_os(CHILD).is_some() {
        return None;
    }
    let mut child = Command::new(std::env::current_exe().expect("test binary path"))
        .args([test, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD, "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("re-executing the test binary");
    for _ in 0..CHILD_DEADLINE_POLLS {
        if let Some(status) = child.try_wait().expect("polling the child") {
            let out = child
                .wait_with_output()
                .expect("collecting the child's output");
            return Some((status, out));
        }
        // lint:allow(threads): a poll-loop sleep; it starts no thread.
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let _ = child.kill();
    panic!("child `{test}` hung: still running after its deadline");
}

/// Recurse without bound (the exit is a value the optimiser cannot know is
/// never reached), keeping every frame alive and non-trivial so the
/// recursion can be neither elided nor turned into a loop.
fn recurse(depth: u64) -> u64 {
    let frame = std::hint::black_box([depth; 32]);
    if std::hint::black_box(depth) == u64::MAX {
        return 0;
    }
    recurse(depth + 1).wrapping_add(frame[depth as usize % 32])
}

/// True if the mapping holding `addr` has a one-page `PROT_NONE` mapping
/// directly below it, per `/proc/self/maps`.
fn guard_page_below(addr: usize) -> bool {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("reading /proc/self/maps");
    let regions: Vec<(usize, usize, String)> = maps
        .lines()
        .map(|line| {
            let mut fields = line.split_whitespace();
            let range = fields.next().expect("address range");
            let perms = fields.next().expect("permissions").to_string();
            let (lo, hi) = range.split_once('-').expect("lo-hi");
            let hex = |s| usize::from_str_radix(s, 16).expect("hex address");
            (hex(lo), hex(hi), perms)
        })
        .collect();
    let (lo, _, _) = regions
        .iter()
        .find(|(lo, hi, _)| (*lo..*hi).contains(&addr))
        .expect("the address is mapped");
    regions
        .iter()
        .any(|(glo, ghi, perms)| ghi == lo && ghi - glo == 4096 && perms.starts_with("---"))
}

#[test]
fn unbounded_recursion_in_a_rank_hits_the_guard_page() {
    if let Some((status, out)) = in_child("unbounded_recursion_in_a_rank_hits_the_guard_page") {
        assert_eq!(
            status.signal(),
            Some(11),
            "expected the child to die of SIGSEGV, got {status}; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Every rank's stack has its guard page directly below it.
        let guarded = Cluster::run(ClusterConfig::calibrated_fddi(3), |_| {
            let local = std::hint::black_box(0u8);
            guard_page_below(&local as *const u8 as usize)
        });
        assert_eq!(guarded.results, vec![true; 3]);
        return;
    }
    Cluster::run(ClusterConfig::calibrated_fddi(3), |p| {
        if p.id() == 1 {
            // Let rank 0 suspend first, so the overflow happens with a peer's
            // stack mapped right next to this one.
            p.recv(Some(0), 1);
            std::hint::black_box(recurse(0));
        } else if p.id() == 0 {
            p.send(1, 1, Bytes::new());
        }
    });
    unreachable!("a rank recursed without bound and the run completed");
}

#[test]
fn a_rank_panic_surfaces_with_its_own_message_while_peers_are_suspended() {
    let caught = std::panic::catch_unwind(|| {
        Cluster::run(ClusterConfig::calibrated_fddi(4), |p| match p.id() {
            // Ranks 0 and 1 wait for messages nobody sends: both are
            // suspended when rank 2 panics.
            0 | 1 => {
                p.recv(Some(3), 9);
            }
            2 => {
                p.recv(Some(3), 1);
                panic!("rank {} gave up after its first message", p.id());
            }
            _ => p.send(2, 1, Bytes::from_static(b"go")),
        })
    });
    let payload = caught.expect_err("a rank panicked, so the run must too");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .expect("the originating panic's own payload, not a teardown marker");
    assert_eq!(message, "rank 2 gave up after its first message");
}

#[test]
fn a_thousand_blocked_ranks_are_torn_down_as_a_deadlock() {
    let Err(failure) = Cluster::try_run(ClusterConfig::calibrated_fddi(1024), |p| {
        p.recv(None, 7);
    }) else {
        panic!("every rank blocks in recv, so the run must deadlock");
    };
    assert!(
        matches!(failure, RunFailure::Deadlock(_)),
        "expected a deadlock, got {failure}"
    );
    // Nothing of the torn-down run lingers: a normal run afterwards passes.
    let rep = Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
        if p.id() == 0 {
            p.send(1, 7, Bytes::from_static(b"after"));
            0
        } else {
            p.recv(Some(0), 7).payload.len()
        }
    });
    assert_eq!(rep.results, vec![0, 5]);
}

/// Entries of `/proc/self/task`: the process's OS threads.
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("reading /proc/self/task")
        .count()
}

#[test]
fn a_run_starts_no_os_thread() {
    if let Some((status, out)) = in_child("a_run_starts_no_os_thread") {
        assert!(
            status.success(),
            "child failed with {status}; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
    let before = os_threads();
    let rep = Cluster::run(ClusterConfig::calibrated_fddi(8), |p| {
        if p.id() > 0 {
            p.send(0, 1, Bytes::new());
        } else {
            for _ in 1..p.nprocs() {
                p.recv(None, 1);
            }
        }
        os_threads()
    });
    assert!(
        rep.results.iter().all(|&n| n == before),
        "threads seen inside the ranks {:?}, {before} before the run",
        rep.results
    );
}
