//! Micro-probes timing single layer primitives from outside the program:
//! the cluster's rank hand-off and spawn, the DSM's diff create/apply, and
//! PVM buffer packing.  Each reports the median over a few repetitions.

use crate::median;
use bytes::Bytes;
use cluster::config::PAGE_SIZE;
use cluster::{Cluster, ClusterConfig};
use msgpass::{RecvBuffer, SendBuffer};
use std::hint::black_box;
use std::time::Instant;
use treadmarks::Diff;

const REPS: usize = 5;

/// Median wall seconds of `REPS` calls of `f`.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

/// Round-trip time of a zero-byte ping-pong between two ranks of one
/// `Cluster::run`, µs: every round trip is two rank hand-offs.
pub fn handoff_rtt_us() -> f64 {
    const ROUNDS: usize = 2000;
    let secs = median_secs(|| {
        Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
            for _ in 0..ROUNDS {
                if p.id() == 0 {
                    p.send(1, 1, Bytes::new());
                    p.recv(Some(1), 2);
                } else {
                    p.recv(Some(0), 1);
                    p.send(0, 2, Bytes::new());
                }
            }
        });
    });
    secs / ROUNDS as f64 * 1e6
}

/// Wall time of an empty `Cluster::run` at `nprocs` ranks, µs per rank.
pub fn spawn_us_per_rank(nprocs: usize) -> f64 {
    median_secs(|| {
        black_box(Cluster::run(ClusterConfig::calibrated_fddi(nprocs), |p| {
            p.id()
        }));
    }) / nprocs as f64
        * 1e6
}

/// A twin and a current page: `dense` changes every word, otherwise one
/// word in 64 changes.
fn pages(dense: bool) -> (Vec<u8>, Vec<u8>) {
    let twin: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 7) as u8).collect();
    let mut current = twin.clone();
    let stride = if dense { 8 } else { 512 };
    for i in (0..PAGE_SIZE).step_by(stride) {
        current[i] ^= 0xff;
    }
    (twin, current)
}

/// `Diff::create` and `Diff::apply` of one page, ns per call.
pub fn diff_ns(dense: bool) -> (f64, f64) {
    const CALLS: usize = 2000;
    let (twin, current) = pages(dense);
    let create = median_secs(|| {
        for _ in 0..CALLS {
            black_box(Diff::create(black_box(&twin), black_box(&current)));
        }
    });
    let diff = Diff::create(&twin, &current);
    let mut page = twin.clone();
    let apply = median_secs(|| {
        for _ in 0..CALLS {
            black_box(&diff).apply(black_box(&mut page));
        }
    });
    assert_eq!(page, current, "applying the diff reproduces the page");
    (create / CALLS as f64 * 1e9, apply / CALLS as f64 * 1e9)
}

/// Pack then unpack an 8 KiB f64 message through the PVM buffers, ns/KiB.
pub fn pack_unpack_ns_per_kb() -> f64 {
    const CALLS: usize = 2000;
    const VALUES: usize = 1024;
    let values: Vec<f64> = (0..VALUES).map(|i| i as f64 * 0.5).collect();
    let secs = median_secs(|| {
        for _ in 0..CALLS {
            let mut send = SendBuffer::new();
            send.pack_f64(black_box(&values));
            let mut recv = RecvBuffer::new(0, 0, send.into_payload());
            black_box(recv.unpack_f64(VALUES));
        }
    });
    secs / CALLS as f64 * 1e9 / (VALUES * 8 / 1024) as f64
}
