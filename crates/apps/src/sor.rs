//! Red-Black Successive Over-Relaxation.
//!
//! The grid is stored as two separate arrays (red and black), each divided
//! into roughly equal bands of rows assigned to the processors.  In each
//! iteration the red elements are updated from the black ones and vice
//! versa; communication happens only across the boundary rows between bands.
//!
//! * **TreadMarks**: both arrays live in shared memory and processes
//!   synchronize with barriers; boundary-row diffs are fetched on demand.
//! * **PVM**: each process owns its band privately and explicitly sends its
//!   boundary rows to its neighbours before each half-iteration.
//!
//! The paper runs two variants: **SOR-Zero**, where the interior starts at
//! zero (floating-point operations on zeros are slower on the PA-RISC,
//! causing load imbalance, and the mostly-zero pages make TreadMarks' diffs
//! tiny), and **SOR-Nonzero**, where every element starts non-zero.
//! The row width is chosen so that one shared row occupies one and a half
//! pages, as in the paper.

use crate::runner::{block_range, run_pvm, run_treadmarks, AppRun, SeqRun, System};
use cluster::{ClusterConfig, RunFailure};
use msgpass::Pvm;
use treadmarks::Tmk;

/// Cost of updating one element whose stencil inputs are non-zero.
pub const COST_NONZERO: f64 = 0.30e-6;
/// Cost of updating one element whose stencil inputs are all zero (the
/// paper attributes the SOR-Zero load imbalance to this being slower).
pub const COST_ZERO: f64 = 0.75e-6;

/// Problem parameters.
#[derive(Debug, Clone)]
pub struct SorParams {
    /// Number of rows of each colour array.
    pub rows: usize,
    /// Number of columns of each colour array (f32 elements per row).
    pub cols: usize,
    /// Number of full (red + black) iterations.
    pub iters: usize,
    /// Whether the interior starts at zero (SOR-Zero) or at 1.0.
    pub zero_interior: bool,
}

impl SorParams {
    /// Paper-scale SOR-Zero: rows of 1536 f32 (6 KB = 1.5 pages).
    pub fn paper_zero() -> Self {
        SorParams {
            rows: 1024,
            cols: 1536,
            iters: 20,
            zero_interior: true,
        }
    }

    /// Paper-scale SOR-Nonzero.
    pub fn paper_nonzero() -> Self {
        SorParams {
            zero_interior: false,
            ..Self::paper_zero()
        }
    }

    /// Scaled-down SOR-Zero for the default harness preset.
    pub fn scaled_zero() -> Self {
        SorParams {
            rows: 256,
            cols: 1536,
            iters: 10,
            zero_interior: true,
        }
    }

    /// Scaled-down SOR-Nonzero.
    pub fn scaled_nonzero() -> Self {
        SorParams {
            zero_interior: false,
            ..Self::scaled_zero()
        }
    }

    /// Tiny problem for functional tests.
    pub fn tiny(zero_interior: bool) -> Self {
        SorParams {
            rows: 16,
            cols: 64,
            iters: 3,
            zero_interior,
        }
    }

    fn initial(&self, row: usize, col: usize) -> f32 {
        let edge = row == 0 || row == self.rows - 1 || col == 0 || col == self.cols - 1;
        if edge {
            1.0
        } else if self.zero_interior {
            0.0
        } else {
            0.5 + ((row * 31 + col * 7) % 13) as f32 / 26.0
        }
    }
}

/// Update one band of the `dst` colour from the `src` colour.  Returns the
/// modeled cost of the updates (zero-input updates are more expensive).
fn relax_band(
    dst: &mut [f32],
    src: &[f32],
    cols: usize,
    rows_total: usize,
    row_range: std::ops::Range<usize>,
) -> f64 {
    let mut cost = 0.0;
    for r in row_range {
        if r == 0 || r == rows_total - 1 {
            continue; // fixed boundary rows
        }
        for c in 1..cols - 1 {
            let up = src[(r - 1) * cols + c];
            let down = src[(r + 1) * cols + c];
            let left = src[r * cols + c - 1];
            let right = src[r * cols + c + 1];
            let v = 0.25 * (up + down + left + right);
            dst[r * cols + c] = v;
            cost += if up == 0.0 && down == 0.0 && left == 0.0 && right == 0.0 {
                COST_ZERO
            } else {
                COST_NONZERO
            };
        }
    }
    cost
}

fn grid_checksum(red: &[f32], black: &[f32]) -> f64 {
    red.iter().chain(black.iter()).map(|&v| v as f64).sum()
}

/// Sequential reference implementation.
pub fn sequential(p: &SorParams) -> SeqRun {
    let mut red: Vec<f32> = (0..p.rows * p.cols)
        .map(|i| p.initial(i / p.cols, i % p.cols))
        .collect();
    let mut black = red.clone();
    let mut time = 0.0;
    for _ in 0..p.iters {
        time += relax_band(&mut red, &black, p.cols, p.rows, 0..p.rows);
        time += relax_band(&mut black, &red, p.cols, p.rows, 0..p.rows);
    }
    SeqRun {
        checksum: grid_checksum(&red, &black),
        time,
    }
}

/// TreadMarks version: shared red/black arrays, barrier-separated phases.
fn treadmarks_body(tmk: &Tmk, p: &SorParams) -> f64 {
    let elems = p.rows * p.cols;
    let red_addr = tmk.malloc(elems * 4);
    let black_addr = tmk.malloc(elems * 4);
    let my_rows = block_range(p.rows, tmk.nprocs(), tmk.id());
    // Initialisation is distributed, as in the paper's experiments: the
    // initial values are a deterministic function of the coordinates, so
    // each process fills its own band and no initial page distribution
    // crosses the network (the paper's PVM version does the same and the
    // measurements exclude first-iteration distribution effects).
    let init: Vec<f32> = (my_rows.start * p.cols..my_rows.end * p.cols)
        .map(|i| p.initial(i / p.cols, i % p.cols))
        .collect();
    tmk.write_f32_slice(red_addr + my_rows.start * p.cols * 4, &init);
    tmk.write_f32_slice(black_addr + my_rows.start * p.cols * 4, &init);
    tmk.barrier(0);

    // Rows needed for the stencil: my band plus one halo row on each side.
    let lo = my_rows.start.saturating_sub(1);
    let hi = (my_rows.end + 1).min(p.rows);
    let span_rows = hi - lo;
    let mut red = vec![0.0f32; span_rows * p.cols];
    let mut black = vec![0.0f32; span_rows * p.cols];

    let mut barrier = 1u32;
    for _ in 0..p.iters {
        // Red phase: read black (with halo), update my red rows, write back.
        tmk.read_f32_slice(black_addr + lo * p.cols * 4, &mut black);
        tmk.read_f32_slice(
            red_addr + my_rows.start * p.cols * 4,
            &mut red[..my_rows.len() * p.cols],
        );
        let mut local_red = vec![0.0f32; span_rows * p.cols];
        local_red
            [(my_rows.start - lo) * p.cols..(my_rows.start - lo) * p.cols + my_rows.len() * p.cols]
            .copy_from_slice(&red[..my_rows.len() * p.cols]);
        let cost = relax_band(
            &mut local_red,
            &black,
            p.cols,
            span_rows,
            (my_rows.start - lo)..(my_rows.end - lo),
        );
        tmk.proc().compute(cost);
        tmk.write_f32_slice(
            red_addr + my_rows.start * p.cols * 4,
            &local_red[(my_rows.start - lo) * p.cols
                ..(my_rows.start - lo) * p.cols + my_rows.len() * p.cols],
        );
        tmk.barrier(barrier);
        barrier += 1;

        // Black phase.
        tmk.read_f32_slice(red_addr + lo * p.cols * 4, &mut red);
        tmk.read_f32_slice(
            black_addr + my_rows.start * p.cols * 4,
            &mut black[..my_rows.len() * p.cols],
        );
        let mut local_black = vec![0.0f32; span_rows * p.cols];
        local_black
            [(my_rows.start - lo) * p.cols..(my_rows.start - lo) * p.cols + my_rows.len() * p.cols]
            .copy_from_slice(&black[..my_rows.len() * p.cols]);
        let cost = relax_band(
            &mut local_black,
            &red,
            p.cols,
            span_rows,
            (my_rows.start - lo)..(my_rows.end - lo),
        );
        tmk.proc().compute(cost);
        tmk.write_f32_slice(
            black_addr + my_rows.start * p.cols * 4,
            &local_black[(my_rows.start - lo) * p.cols
                ..(my_rows.start - lo) * p.cols + my_rows.len() * p.cols],
        );
        tmk.barrier(barrier);
        barrier += 1;
    }

    // Each process contributes the checksum of its own band; the runner sums
    // the contributions, so no extra communication is needed for validation.
    let len = my_rows.len() * p.cols;
    let mut red_own = vec![0.0f32; len];
    let mut black_own = vec![0.0f32; len];
    tmk.read_f32_slice(red_addr + my_rows.start * p.cols * 4, &mut red_own);
    tmk.read_f32_slice(black_addr + my_rows.start * p.cols * 4, &mut black_own);
    grid_checksum(&red_own, &black_own)
}

/// A privately-held band of rows (with halo rows) used by the PVM version;
/// the stencil code is shared with the sequential and DSM versions.
struct Band {
    red: Vec<f32>,
    black: Vec<f32>,
}

/// PVM version: private bands, explicit boundary-row exchange each phase.
fn pvm_body(pvm: &Pvm, p: &SorParams) -> f64 {
    let n = pvm.nprocs();
    let me = pvm.id();
    let my_rows = block_range(p.rows, n, me);
    // With more processes than rows the tail ranks own nothing: they
    // contribute no work, no checksum, and — crucially — take no part in
    // the boundary exchange.  `block_range` packs the owning ranks
    // contiguously at the front, so the active topology is 0..active.
    let active = n.min(p.rows);
    if my_rows.is_empty() {
        return 0.0;
    }
    let lo = my_rows.start.saturating_sub(1);
    let hi = (my_rows.end + 1).min(p.rows);
    let span = hi - lo;
    let cols = p.cols;

    let mut band = Band {
        red: vec![0.0f32; span * cols],
        black: vec![0.0f32; span * cols],
    };
    for r in lo..hi {
        for c in 0..cols {
            band.red[(r - lo) * cols + c] = p.initial(r, c);
            band.black[(r - lo) * cols + c] = p.initial(r, c);
        }
    }

    let up_neighbour = if me > 0 { Some(me - 1) } else { None };
    let down_neighbour = if me + 1 < active { Some(me + 1) } else { None };

    for iter in 0..p.iters {
        for colour in 0..2u32 {
            // Exchange boundary rows of the colour we are about to read.
            let exchange_black = colour == 0;
            let tag = iter as u32 * 4 + colour;
            {
                let src = if exchange_black {
                    &band.black
                } else {
                    &band.red
                };
                if let Some(up) = up_neighbour {
                    let mut b = pvm.new_buffer();
                    let first_owned = (my_rows.start - lo) * cols;
                    b.pack_f32(&src[first_owned..first_owned + cols]);
                    pvm.send(up, tag, b);
                }
                if let Some(down) = down_neighbour {
                    let mut b = pvm.new_buffer();
                    let last_owned = (my_rows.end - 1 - lo) * cols;
                    b.pack_f32(&src[last_owned..last_owned + cols]);
                    pvm.send(down, tag, b);
                }
            }
            {
                let dst = if exchange_black {
                    &mut band.black
                } else {
                    &mut band.red
                };
                if let Some(up) = up_neighbour {
                    let mut m = pvm.recv(Some(up), tag);
                    let row = m.unpack_f32(cols);
                    let halo = (my_rows.start - 1 - lo) * cols;
                    dst[halo..halo + cols].copy_from_slice(&row);
                }
                if let Some(down) = down_neighbour {
                    let mut m = pvm.recv(Some(down), tag);
                    let row = m.unpack_f32(cols);
                    let halo = (my_rows.end - lo) * cols;
                    dst[halo..halo + cols].copy_from_slice(&row);
                }
            }
            let cost = if colour == 0 {
                let (red, black) = (&mut band.red, &band.black);
                relax_band(
                    red,
                    black,
                    cols,
                    span,
                    (my_rows.start - lo)..(my_rows.end - lo),
                )
            } else {
                let (black, red) = (&mut band.black, &band.red);
                relax_band(
                    black,
                    red,
                    cols,
                    span,
                    (my_rows.start - lo)..(my_rows.end - lo),
                )
            };
            pvm.proc().compute(cost);
        }
    }

    // Contribution of this process's own rows to the run checksum.
    let first = (my_rows.start - lo) * cols;
    let len = my_rows.len() * cols;
    grid_checksum(
        &band.red[first..first + len],
        &band.black[first..first + len],
    )
}

/// Run the application on `cfg` under `sys`: the TreadMarks version under
/// its coherence protocol, or the PVM version.  A structured
/// [`RunFailure`] (deadlock, livelock, or fault-plan crash) comes back as
/// `Err`, so the fuzzing harness can record it and keep going.
pub fn run(cfg: &ClusterConfig, p: &SorParams, sys: System) -> Result<AppRun, RunFailure> {
    match sys {
        System::TreadMarks(protocol) => {
            let heap = (p.rows * p.cols * 8 + (1 << 20)).next_power_of_two();
            run_treadmarks(cfg, heap, protocol, |tmk| treadmarks_body(tmk, p))
        }
        System::Pvm => run_pvm(cfg, |pvm| pvm_body(pvm, p)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treadmarks::ProtocolKind;

    const LRC: System = System::TreadMarks(ProtocolKind::Lrc);

    fn fddi(nprocs: usize, p: &SorParams, sys: System) -> AppRun {
        run(&ClusterConfig::calibrated_fddi(nprocs), p, sys).unwrap()
    }

    #[test]
    fn versions_agree_on_small_grids() {
        for zero in [true, false] {
            let p = SorParams::tiny(zero);
            let seq = sequential(&p);
            for n in [1, 2, 3] {
                let t = fddi(n, &p, LRC);
                let m = fddi(n, &p, System::Pvm);
                assert!(
                    (t.checksum - seq.checksum).abs() < 1e-3,
                    "TMK zero={zero} n={n}: {} vs {}",
                    t.checksum,
                    seq.checksum
                );
                assert!(
                    (m.checksum - seq.checksum).abs() < 1e-3,
                    "PVM zero={zero} n={n}: {} vs {}",
                    m.checksum,
                    seq.checksum
                );
            }
        }
    }

    #[test]
    fn zero_interior_costs_more_sequentially() {
        // The zero-initialised grid triggers the slow-zero cost model, so its
        // sequential time is longer, as in Table 1.
        let z = sequential(&SorParams::tiny(true));
        let nz = sequential(&SorParams::tiny(false));
        assert!(z.time > nz.time);
    }

    #[test]
    fn treadmarks_sends_less_data_in_sor_zero_than_pvm() {
        // Mostly-zero pages produce tiny diffs, while PVM ships whole rows.
        let p = SorParams {
            rows: 64,
            cols: 1536,
            iters: 3,
            zero_interior: true,
        };
        let t = fddi(4, &p, LRC);
        let m = fddi(4, &p, System::Pvm);
        assert!(
            t.kilobytes < m.kilobytes,
            "TMK {} KB vs PVM {} KB",
            t.kilobytes,
            m.kilobytes
        );
        // ... while still sending more messages (sync + diff requests).
        assert!(t.messages > m.messages);
    }

    #[test]
    fn both_variants_scale_on_four_processes() {
        let pz = SorParams {
            rows: 256,
            cols: 512,
            iters: 6,
            zero_interior: true,
        };
        let pn = SorParams {
            zero_interior: false,
            ..pz.clone()
        };
        let sz = sequential(&pz);
        let sn = sequential(&pn);
        let tz = fddi(4, &pz, LRC);
        let tn = fddi(4, &pn, LRC);
        for (name, speedup) in [
            ("zero", tz.speedup(sz.time)),
            ("nonzero", tn.speedup(sn.time)),
        ] {
            assert!(
                speedup > 1.0 && speedup <= 4.05,
                "SOR-{name} speedup {speedup} out of range"
            );
        }
    }
}
