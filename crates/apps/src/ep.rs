//! EP — the Embarrassingly Parallel benchmark from the NAS suite.
//!
//! EP generates pairs of Gaussian random deviates with the Marsaglia polar
//! method and tabulates the number of pairs falling in successive square
//! annuli.  The only communication in the parallel version is summing a
//! ten-integer list at the end:
//!
//! * **TreadMarks**: updates to the shared list are protected by a lock.
//! * **PVM**: process 0 receives the list from every other process and sums.
//!
//! Because the communication is negligible relative to the computation, both
//! systems achieve near-linear speedup (Figure 1 of the paper).

use crate::runner::{block_range, run_pvm, run_treadmarks, AppRun, SeqRun, System};
use cluster::{ClusterConfig, RunFailure};
use msgpass::Pvm;
use treadmarks::Tmk;

/// Number of annuli tabulated (as in NAS EP).
pub const BINS: usize = 10;

/// Cost charged per generated pair, calibrated so that the paper-scale run
/// (2^28 pairs) lands near Table 1's sequential time on the simulated
/// workstation.
pub const COST_PER_PAIR: f64 = 0.47e-6;

/// Problem parameters.
#[derive(Debug, Clone)]
pub struct EpParams {
    /// Number of random pairs to generate (a power of two).
    pub pairs: u64,
    /// Seed of the linear congruential generator.
    pub seed: u64,
}

impl EpParams {
    /// Paper-scale problem: the NAS class A size, 2^28 pairs.
    pub fn paper() -> Self {
        EpParams {
            pairs: 1 << 28,
            seed: 271_828_183,
        }
    }

    /// Scaled-down problem used by the default harness preset.
    pub fn scaled() -> Self {
        EpParams {
            pairs: 1 << 22,
            seed: 271_828_183,
        }
    }

    /// Tiny problem for functional tests.
    pub fn tiny() -> Self {
        EpParams {
            pairs: 1 << 12,
            seed: 271_828_183,
        }
    }
}

/// A simple 64-bit linear congruential generator; splittable by jumping to a
/// per-process offset, which is how every process generates its own
/// independent chunk of the pair stream deterministically.
#[derive(Debug, Clone)]
struct Lcg {
    state: u64,
}

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg {
            state: seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state
    }

    fn next_unit(&mut self) -> f64 {
        // Uniform in (-1, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// Generate `count` pairs starting from a per-chunk seed and tabulate them.
fn tabulate(seed: u64, chunk: u64, count: u64) -> [i64; BINS] {
    let mut rng = Lcg::new(seed ^ (chunk.wrapping_mul(0x9E3779B97F4A7C15)));
    let mut bins = [0i64; BINS];
    for _ in 0..count {
        let x = rng.next_unit();
        let y = rng.next_unit();
        let t = x * x + y * y;
        if t <= 1.0 && t > 0.0 {
            let f = (-2.0 * t.ln() / t).sqrt();
            let gx = (x * f).abs();
            let gy = (y * f).abs();
            let m = gx.max(gy) as usize;
            if m < BINS {
                bins[m] += 1;
            }
        }
    }
    bins
}

fn checksum(bins: &[i64; BINS]) -> f64 {
    bins.iter()
        .enumerate()
        .map(|(i, &c)| (i as f64 + 1.0) * c as f64)
        .sum()
}

/// Sequential reference implementation.
pub fn sequential(p: &EpParams) -> SeqRun {
    // The pair stream is split into per-chunk sub-streams exactly as the
    // parallel versions split it, so all versions tabulate identical pairs.
    let chunks = 64u64;
    let per = p.pairs / chunks;
    let mut bins = [0i64; BINS];
    for c in 0..chunks {
        let b = tabulate(p.seed, c, per);
        for i in 0..BINS {
            bins[i] += b[i];
        }
    }
    SeqRun {
        checksum: checksum(&bins),
        time: p.pairs as f64 * COST_PER_PAIR,
    }
}

fn local_bins(p: &EpParams, rank: usize, nprocs: usize) -> ([i64; BINS], f64) {
    let chunks = 64usize;
    let per = p.pairs / chunks as u64;
    let mine = block_range(chunks, nprocs, rank);
    let mut bins = [0i64; BINS];
    let mut work = 0u64;
    for c in mine {
        let b = tabulate(p.seed, c as u64, per);
        for i in 0..BINS {
            bins[i] += b[i];
        }
        work += per;
    }
    (bins, work as f64 * COST_PER_PAIR)
}

/// TreadMarks version: private tabulation, then a lock-protected update of
/// the shared ten-integer list, then a barrier.
fn treadmarks_body(tmk: &Tmk, p: &EpParams) -> f64 {
    let shared = tmk.malloc(BINS * 8);
    tmk.barrier(0);
    let (bins, cost) = local_bins(p, tmk.id(), tmk.nprocs());
    tmk.proc().compute(cost);
    tmk.lock_acquire(0);
    #[allow(clippy::needless_range_loop)] // indexing is clearer for the coordinate/matrix access
    for i in 0..BINS {
        let v = tmk.read_i64(shared + i * 8);
        tmk.write_i64(shared + i * 8, v + bins[i]);
    }
    tmk.lock_release(0);
    tmk.barrier(1);
    let mut total = [0i64; BINS];
    for (i, t) in total.iter_mut().enumerate() {
        *t = tmk.read_i64(shared + i * 8);
    }
    tmk.barrier(2);
    // Every process read the final tabulation (as the NAS rules require);
    // only process 0 contributes it to the run checksum.
    if tmk.id() == 0 {
        checksum(&total)
    } else {
        0.0
    }
}

/// PVM version: private tabulation; process 0 receives every other process's
/// list, sums them, and broadcasts the result.
fn pvm_body(pvm: &Pvm, p: &EpParams) -> f64 {
    let (bins, cost) = local_bins(p, pvm.id(), pvm.nprocs());
    pvm.proc().compute(cost);
    let n = pvm.nprocs();
    if pvm.id() == 0 {
        let mut total = bins;
        for _ in 1..n {
            let mut m = pvm.recv(None, 1);
            let other = m.unpack_i64(BINS);
            for i in 0..BINS {
                total[i] += other[i];
            }
        }
        if n > 1 {
            let mut b = pvm.new_buffer();
            b.pack_i64(&total);
            pvm.bcast(2, b);
        }
        checksum(&total)
    } else {
        let mut b = pvm.new_buffer();
        b.pack_i64(&bins);
        pvm.send(0, 1, b);
        let mut m = pvm.recv(Some(0), 2);
        let total = m.unpack_i64(BINS);
        let mut arr = [0i64; BINS];
        arr.copy_from_slice(&total);
        // Slaves verify the broadcast result but contribute zero so the
        // summed run checksum equals the sequential one.
        assert!(checksum(&arr) > 0.0);
        0.0
    }
}

/// Run the application on `cfg` under `sys`: the TreadMarks version under
/// its coherence protocol, or the PVM version.  A structured
/// [`RunFailure`] (deadlock, livelock, or fault-plan crash) comes back as
/// `Err`, so the fuzzing harness can record it and keep going.
pub fn run(cfg: &ClusterConfig, p: &EpParams, sys: System) -> Result<AppRun, RunFailure> {
    match sys {
        System::TreadMarks(protocol) => {
            run_treadmarks(cfg, 1 << 20, protocol, |tmk| treadmarks_body(tmk, p))
        }
        System::Pvm => run_pvm(cfg, |pvm| pvm_body(pvm, p)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treadmarks::ProtocolKind;

    const LRC: System = System::TreadMarks(ProtocolKind::Lrc);

    fn fddi(nprocs: usize, p: &EpParams, sys: System) -> AppRun {
        run(&ClusterConfig::calibrated_fddi(nprocs), p, sys).unwrap()
    }

    #[test]
    fn all_versions_agree_on_the_tabulation() {
        let p = EpParams::tiny();
        let seq = sequential(&p);
        assert!(seq.checksum > 0.0);
        for n in [1, 2, 4] {
            let t = fddi(n, &p, LRC);
            let m = fddi(n, &p, System::Pvm);
            assert_eq!(t.checksum, seq.checksum, "TreadMarks at {n} procs");
            assert_eq!(m.checksum, seq.checksum, "PVM at {n} procs");
        }
    }

    #[test]
    fn speedup_is_near_linear_for_both_systems() {
        let p = EpParams::scaled();
        let seq = sequential(&p);
        let t = fddi(8, &p, LRC);
        let m = fddi(8, &p, System::Pvm);
        assert!(
            t.speedup(seq.time) > 5.5,
            "TMK speedup {}",
            t.speedup(seq.time)
        );
        assert!(
            m.speedup(seq.time) > 6.5,
            "PVM speedup {}",
            m.speedup(seq.time)
        );
    }

    #[test]
    fn communication_is_negligible() {
        let p = EpParams::tiny();
        let t = fddi(4, &p, LRC);
        let m = fddi(4, &p, System::Pvm);
        // A handful of messages, well under a hundred for either system.
        assert!(t.messages < 100);
        assert!(m.messages < 100);
        assert!(t.kilobytes < 50.0);
        assert!(m.kilobytes < 5.0);
    }

    #[test]
    fn sequential_time_scales_with_pairs() {
        let small = sequential(&EpParams::tiny());
        let big = sequential(&EpParams::scaled());
        assert!(big.time > small.time * 100.0);
    }
}
