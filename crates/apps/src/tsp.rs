//! TSP — branch-and-bound Traveling Salesman.
//!
//! The program keeps a pool of partially evaluated tours, a priority queue of
//! promising partial tours, a stack of free pool slots, and the current
//! shortest tour.  `get_tour` pops the most promising partial tour and, if it
//! is shorter than a threshold, expands it by one city and pushes the
//! children back; once a partial tour reaches the threshold it is handed to
//! `recursive_solve`, which exhaustively permutes the remaining cities with
//! pruning against the current best.
//!
//! * **TreadMarks**: all the major data structures are shared; `get_tour`
//!   and updates to the best tour are protected by locks.  The structures
//!   *migrate* between processes, which is where diff accumulation and the
//!   lock-contention effects the paper describes come from.
//! * **PVM**: a master/slave arrangement — the master (process 0, which also
//!   runs a slave) keeps all structures private, executes `get_tour` on
//!   behalf of the slaves, and tracks the best tour; slaves only exchange
//!   solvable tours and best-tour updates with the master.

use crate::runner::{run_pvm, run_treadmarks, AppRun, SeqRun, System};
use cluster::{ClusterConfig, RunFailure};
use msgpass::Pvm;
use treadmarks::Tmk;

/// Cost charged per node visited in `recursive_solve`.
pub const COST_NODE: f64 = 1.1e-6;
/// Cost charged per child generated in `get_tour`.
pub const COST_EXPAND: f64 = 2.0e-6;

/// Maximum number of cities supported by the fixed-size tour records.
pub const MAX_CITIES: usize = 20;
/// Number of slots in the tour pool.
const POOL_SLOTS: usize = 65536;

/// Problem parameters.
#[derive(Debug, Clone)]
pub struct TspParams {
    /// Number of cities.
    pub cities: usize,
    /// Partial tours at least this long are solved exhaustively.
    pub threshold: usize,
    /// Seed for the random city coordinates.
    pub seed: u64,
}

impl TspParams {
    /// Paper-scale problem: 19 cities, recursion threshold 12.
    pub fn paper() -> Self {
        TspParams {
            cities: 19,
            threshold: 12,
            seed: 20240601,
        }
    }

    /// Scaled-down problem for the default harness preset.  The threshold
    /// leaves 8 cities for each `recursive_solve`, close to the paper's
    /// 19-city/threshold-12 task granularity — a finer threshold floods the
    /// shared work queue with tiny tasks and the DSM runs degenerate into
    /// queue migration, while more cities blow up the branch-and-bound
    /// frontier far past the shared tour pool.
    pub fn scaled() -> Self {
        TspParams {
            cities: 13,
            threshold: 5,
            seed: 20240601,
        }
    }

    /// Tiny problem for functional tests.
    pub fn tiny() -> Self {
        TspParams {
            cities: 9,
            threshold: 5,
            seed: 20240601,
        }
    }

    /// Deterministic distance matrix for the configured city count.
    pub fn distances(&self) -> Vec<Vec<f64>> {
        let nc = self.cities;
        let mut coords = Vec::with_capacity(nc);
        let mut state = self.seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..nc {
            coords.push((next() * 1000.0, next() * 1000.0));
        }
        let mut d = vec![vec![0.0; nc]; nc];
        for i in 0..nc {
            for j in 0..nc {
                let dx = coords[i].0 - coords[j].0;
                let dy = coords[i].1 - coords[j].1;
                d[i][j] = (dx * dx + dy * dy).sqrt();
            }
        }
        d
    }
}

/// A partial tour: the cities visited so far and the path cost.
#[derive(Debug, Clone)]
struct Tour {
    cities: Vec<u8>,
    cost: f64,
}

/// Lower bound: partial cost plus, for the endpoint and every unvisited
/// city, its cheapest edge to a city that can still follow it.
fn lower_bound(dist: &[Vec<f64>], tour: &Tour, nc: usize) -> f64 {
    let visited: u32 = tour.cities.iter().fold(0, |m, &c| m | (1 << c));
    let mut bound = tour.cost;
    let last = *tour.cities.last().unwrap() as usize;
    #[allow(clippy::needless_range_loop)] // indexing is clearer for the coordinate/matrix access
    for c in 0..nc {
        if c != last && visited & (1 << c) != 0 {
            continue;
        }
        let mut best = f64::INFINITY;
        #[allow(clippy::needless_range_loop)]
        // indexing is clearer for the coordinate/matrix access
        for o in 0..nc {
            if o != c && (visited & (1 << o) == 0 || o == 0) {
                best = best.min(dist[c][o]);
            }
        }
        if best.is_finite() {
            bound += best;
        }
    }
    bound
}

/// Greedy nearest-neighbour tour used to seed the best cost.
fn greedy_cost(dist: &[Vec<f64>], nc: usize) -> f64 {
    let mut visited = vec![false; nc];
    visited[0] = true;
    let mut cur = 0usize;
    let mut cost = 0.0;
    for _ in 1..nc {
        let mut best = f64::INFINITY;
        let mut pick = 0;
        for c in 0..nc {
            if !visited[c] && dist[cur][c] < best {
                best = dist[cur][c];
                pick = c;
            }
        }
        visited[pick] = true;
        cost += best;
        cur = pick;
    }
    cost + dist[cur][0]
}

/// Exhaustively complete a partial tour, pruning against `best`.
/// Returns `(best found, nodes visited)`.
fn recursive_solve(dist: &[Vec<f64>], tour: &Tour, nc: usize, mut best: f64) -> (f64, u64) {
    fn dfs(
        dist: &[Vec<f64>],
        path: &mut Vec<u8>,
        visited: u32,
        cost: f64,
        nc: usize,
        best: &mut f64,
        nodes: &mut u64,
    ) {
        *nodes += 1;
        if cost >= *best {
            return;
        }
        if path.len() == nc {
            let total = cost + dist[*path.last().unwrap() as usize][0];
            if total < *best {
                *best = total;
            }
            return;
        }
        let last = *path.last().unwrap() as usize;
        for c in 0..nc {
            if visited & (1 << c) == 0 {
                path.push(c as u8);
                dfs(
                    dist,
                    path,
                    visited | (1 << c),
                    cost + dist[last][c],
                    nc,
                    best,
                    nodes,
                );
                path.pop();
            }
        }
    }
    let mut path = tour.cities.clone();
    let visited = path.iter().fold(0u32, |m, &c| m | (1 << c));
    let mut nodes = 0u64;
    dfs(
        dist, &mut path, visited, tour.cost, nc, &mut best, &mut nodes,
    );
    (best, nodes)
}

/// A queued tour with its lower bound, ordered for a min-heap (the bound is
/// computed once, when the tour is enqueued — scanning the queue and
/// recomputing bounds on every pop is quadratic and dominated the harness
/// at paper-scale inputs).
struct QueueEntry {
    bound: f64,
    tour: Tour,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest bound.
        other
            .bound
            .partial_cmp(&self.bound)
            .expect("tour bounds are finite")
    }
}

/// In-memory work-queue engine used identically by the sequential version
/// and by the PVM master; the TreadMarks version keeps the same structures
/// in shared memory instead.
struct Engine {
    dist: Vec<Vec<f64>>,
    nc: usize,
    threshold: usize,
    queue: std::collections::BinaryHeap<QueueEntry>,
    best: f64,
    expansions: u64,
}

impl Engine {
    fn new(p: &TspParams) -> Self {
        let dist = p.distances();
        let best = greedy_cost(&dist, p.cities);
        let root = Tour {
            cities: vec![0],
            cost: 0.0,
        };
        let mut queue = std::collections::BinaryHeap::new();
        queue.push(QueueEntry {
            bound: lower_bound(&dist, &root, p.cities),
            tour: root,
        });
        Engine {
            nc: p.cities,
            threshold: p.threshold,
            queue,
            best,
            expansions: 0,
            dist,
        }
    }

    /// Pop the most promising tour; expand until one reaches the threshold.
    fn get_tour(&mut self) -> Option<Tour> {
        loop {
            let QueueEntry { bound, tour } = self.queue.pop()?;
            if bound >= self.best {
                continue;
            }
            if tour.cities.len() >= self.threshold {
                return Some(tour);
            }
            let last = *tour.cities.last().unwrap() as usize;
            let visited: u32 = tour.cities.iter().fold(0, |m, &c| m | (1 << c));
            for c in 0..self.nc {
                if visited & (1 << c) == 0 {
                    let cost = tour.cost + self.dist[last][c];
                    if cost >= self.best {
                        continue;
                    }
                    let mut cities = tour.cities.clone();
                    cities.push(c as u8);
                    let child = Tour { cities, cost };
                    let bound = lower_bound(&self.dist, &child, self.nc);
                    // A child whose bound cannot beat the incumbent is
                    // dominated: every completion costs at least `bound`.
                    if bound < self.best {
                        self.queue.push(QueueEntry { bound, tour: child });
                        self.expansions += 1;
                    }
                }
            }
        }
    }
}

/// Sequential reference implementation.
pub fn sequential(p: &TspParams) -> SeqRun {
    let mut eng = Engine::new(p);
    let mut nodes = 0u64;
    while let Some(tour) = eng.get_tour() {
        let (best, n) = recursive_solve(&eng.dist, &tour, eng.nc, eng.best);
        eng.best = eng.best.min(best);
        nodes += n;
    }
    SeqRun {
        checksum: (eng.best * 1000.0).round() / 1000.0,
        time: nodes as f64 * COST_NODE + eng.expansions as f64 * COST_EXPAND,
    }
}

// -------------------------------------------------------------- TreadMarks

const LOCK_QUEUE: u32 = 0;
const LOCK_BEST: u32 = 1;
const SLOT_BYTES: usize = 8 + 4 + MAX_CITIES;

/// Shared-memory layout of the TSP data structures.
struct SharedTsp {
    best: usize,
    qlen: usize,
    queue: usize,
    free_sp: usize,
    free: usize,
    pool: usize,
    /// Per-slot lower bound, written when the slot's tour is enqueued so
    /// `get_tour` scans 8 bytes per queued entry instead of re-reading and
    /// re-bounding every tour record (the same bound caching the in-memory
    /// engine uses).
    bounds: usize,
}

impl SharedTsp {
    fn alloc(tmk: &Tmk) -> Self {
        SharedTsp {
            best: tmk.malloc(8),
            qlen: tmk.malloc(4),
            queue: tmk.malloc(POOL_SLOTS * 4),
            free_sp: tmk.malloc(4),
            free: tmk.malloc(POOL_SLOTS * 4),
            pool: tmk.malloc(POOL_SLOTS * SLOT_BYTES),
            bounds: tmk.malloc(POOL_SLOTS * 8),
        }
    }

    fn write_tour(&self, tmk: &Tmk, slot: usize, t: &Tour) {
        let base = self.pool + slot * SLOT_BYTES;
        tmk.write_f64(base, t.cost);
        tmk.write_i32(base + 8, t.cities.len() as i32);
        let mut cities = [0u8; MAX_CITIES];
        cities[..t.cities.len()].copy_from_slice(&t.cities);
        tmk.write_bytes(base + 12, &cities);
    }

    fn read_tour(&self, tmk: &Tmk, slot: usize) -> Tour {
        let base = self.pool + slot * SLOT_BYTES;
        let cost = tmk.read_f64(base);
        let len = tmk.read_i32(base + 8) as usize;
        let mut cities = vec![0u8; MAX_CITIES];
        tmk.read_bytes(base + 12, &mut cities);
        cities.truncate(len);
        Tour { cities, cost }
    }
}

/// TreadMarks version: shared pool / queue / free-stack / best, lock-guarded
/// `get_tour`, private `recursive_solve`.
fn treadmarks_body(tmk: &Tmk, p: &TspParams) -> f64 {
    let dist = p.distances();
    let nc = p.cities;
    let sh = SharedTsp::alloc(tmk);

    if tmk.id() == 0 {
        tmk.write_f64(sh.best, greedy_cost(&dist, nc));
        let root = Tour {
            cities: vec![0],
            cost: 0.0,
        };
        sh.write_tour(tmk, 0, &root);
        tmk.write_f64(sh.bounds, lower_bound(&dist, &root, nc));
        tmk.write_i32(sh.qlen, 1);
        tmk.write_i32(sh.queue, 0);
        let free: Vec<i32> = (1..POOL_SLOTS as i32).rev().collect();
        tmk.write_i32(sh.free_sp, free.len() as i32);
        tmk.write_i32_slice(sh.free, &free);
    }
    tmk.barrier(0);

    loop {
        // ---- get_tour under the queue lock --------------------------------
        tmk.lock_acquire(LOCK_QUEUE);
        let mut found: Option<Tour> = None;
        let mut expansions = 0u64;
        loop {
            let qlen = tmk.read_i32(sh.qlen) as usize;
            if qlen == 0 {
                break;
            }
            // lint:allow(unsync-read): optimistic incumbent read under the
            // queue lock, not LOCK_BEST; a stale bound only weakens pruning
            // and every update re-checks under LOCK_BEST.
            let best = tmk.read_f64_unsync(sh.best);
            let mut slots = vec![0i32; qlen];
            tmk.read_i32_slice(sh.queue, &mut slots);
            let mut best_idx = 0usize;
            let mut best_bound = f64::INFINITY;
            for (i, &s) in slots.iter().enumerate() {
                let b = tmk.read_f64(sh.bounds + s as usize * 8);
                if b < best_bound {
                    best_bound = b;
                    best_idx = i;
                }
            }
            let slot = slots[best_idx] as usize;
            let tour = sh.read_tour(tmk, slot);
            // Remove from the queue and return the slot to the free stack.
            slots[best_idx] = slots[qlen - 1];
            tmk.write_i32_slice(sh.queue, &slots[..qlen]);
            tmk.write_i32(sh.qlen, qlen as i32 - 1);
            let sp = tmk.read_i32(sh.free_sp);
            tmk.write_i32(sh.free + sp as usize * 4, slot as i32);
            tmk.write_i32(sh.free_sp, sp + 1);

            if best_bound >= best {
                continue;
            }
            if tour.cities.len() >= p.threshold {
                found = Some(tour);
                break;
            }
            let last = *tour.cities.last().unwrap() as usize;
            let visited: u32 = tour.cities.iter().fold(0, |m, &c| m | (1 << c));
            for c in 0..nc {
                if visited & (1 << c) == 0 {
                    let cost = tour.cost + dist[last][c];
                    if cost >= best {
                        continue;
                    }
                    let mut cities = tour.cities.clone();
                    cities.push(c as u8);
                    let child = Tour { cities, cost };
                    let child_bound = lower_bound(&dist, &child, nc);
                    // A child whose bound cannot beat the incumbent is
                    // dominated: every completion costs at least the bound.
                    if child_bound >= best {
                        continue;
                    }
                    let sp = tmk.read_i32(sh.free_sp);
                    if sp == 0 {
                        // Pool exhausted: solve the child in place rather
                        // than queueing it (bounds the shared pool), unless
                        // a freshly-read incumbent already dominates it.
                        // lint:allow(unsync-read): optimistic incumbent
                        // read; stale values only weaken pruning.
                        let cur = tmk.read_f64_unsync(sh.best);
                        if child_bound >= cur {
                            continue;
                        }
                        let (found_best, nodes) = recursive_solve(&dist, &child, nc, cur);
                        tmk.proc().compute(nodes as f64 * COST_NODE);
                        if found_best < cur {
                            tmk.lock_acquire(LOCK_BEST);
                            let now = tmk.read_f64(sh.best);
                            if found_best < now {
                                tmk.write_f64(sh.best, found_best);
                            }
                            tmk.lock_release(LOCK_BEST);
                        }
                        continue;
                    }
                    let child_slot = tmk.read_i32(sh.free + (sp - 1) as usize * 4) as usize;
                    tmk.write_i32(sh.free_sp, sp - 1);
                    sh.write_tour(tmk, child_slot, &child);
                    tmk.write_f64(sh.bounds + child_slot * 8, child_bound);
                    let ql = tmk.read_i32(sh.qlen);
                    tmk.write_i32(sh.queue + ql as usize * 4, child_slot as i32);
                    tmk.write_i32(sh.qlen, ql + 1);
                    expansions += 1;
                }
            }
        }
        tmk.proc().compute(expansions as f64 * COST_EXPAND);
        tmk.lock_release(LOCK_QUEUE);

        let Some(tour) = found else { break };

        // ---- recursive_solve privately ------------------------------------
        // lint:allow(unsync-read): optimistic incumbent read outside any
        // lock; stale values only weaken pruning, and the update below
        // re-reads under LOCK_BEST before writing.
        let best_now = tmk.read_f64_unsync(sh.best);
        let (found_best, nodes) = recursive_solve(&dist, &tour, nc, best_now);
        tmk.proc().compute(nodes as f64 * COST_NODE);
        if found_best < best_now {
            tmk.lock_acquire(LOCK_BEST);
            let cur = tmk.read_f64(sh.best);
            if found_best < cur {
                tmk.write_f64(sh.best, found_best);
            }
            tmk.lock_release(LOCK_BEST);
        }
    }

    tmk.barrier(1);
    if tmk.id() == 0 {
        (tmk.read_f64(sh.best) * 1000.0).round() / 1000.0
    } else {
        0.0
    }
}

// --------------------------------------------------------------------- PVM

const TAG_WORK_REQ: u32 = 10;
const TAG_WORK: u32 = 11;
const TAG_NOWORK: u32 = 12;
const TAG_BEST: u32 = 13;

/// PVM version: master/slave; the master (process 0) also runs a slave.
fn pvm_body(pvm: &Pvm, p: &TspParams) -> f64 {
    let dist = p.distances();
    let nc = p.cities;
    let n = pvm.nprocs();

    if pvm.id() == 0 {
        let mut eng = Engine::new(p);
        let mut slaves_done = 0usize;
        let total_slaves = n - 1;
        loop {
            while let Some(mut m) = pvm.nrecv(None, TAG_BEST) {
                let b = m.unpack_f64(1)[0];
                eng.best = eng.best.min(b);
            }
            if let Some(m) = pvm.nrecv(None, TAG_WORK_REQ) {
                let slave = m.src();
                let before = eng.expansions;
                let tour = eng.get_tour();
                pvm.proc()
                    .compute((eng.expansions - before) as f64 * COST_EXPAND);
                match tour {
                    Some(t) => {
                        let mut b = pvm.new_buffer();
                        b.pack_f64(&[eng.best, t.cost]);
                        b.pack_u32(&[t.cities.len() as u32]);
                        b.pack_bytes(&t.cities);
                        pvm.send(slave, TAG_WORK, b);
                    }
                    None => {
                        pvm.send(slave, TAG_NOWORK, pvm.new_buffer());
                        slaves_done += 1;
                    }
                }
                continue;
            }
            // No requests pending: the master's own slave does some work.
            let before = eng.expansions;
            match eng.get_tour() {
                Some(t) => {
                    pvm.proc()
                        .compute((eng.expansions - before) as f64 * COST_EXPAND);
                    let (best, nodes) = recursive_solve(&dist, &t, nc, eng.best);
                    pvm.proc().compute(nodes as f64 * COST_NODE);
                    eng.best = eng.best.min(best);
                }
                None => {
                    pvm.proc()
                        .compute((eng.expansions - before) as f64 * COST_EXPAND);
                    if slaves_done == total_slaves {
                        break;
                    }
                    let m = pvm.recv(None, TAG_WORK_REQ);
                    pvm.send(m.src(), TAG_NOWORK, pvm.new_buffer());
                    slaves_done += 1;
                }
            }
        }
        while let Some(mut m) = pvm.nrecv(None, TAG_BEST) {
            let b = m.unpack_f64(1)[0];
            eng.best = eng.best.min(b);
        }
        (eng.best * 1000.0).round() / 1000.0
    } else {
        let mut my_best = f64::INFINITY;
        loop {
            pvm.send(0, TAG_WORK_REQ, pvm.new_buffer());
            // Block for the master's answer — work or NOWORK — instead of
            // busy-polling the two tags: the reply is in this process's
            // virtual future, so a poll loop would never see it (and never
            // advances the clock to it).
            let m = pvm.recv_any(Some(0));
            let reply = match m.tag() {
                TAG_WORK => Some(m),
                TAG_NOWORK => None,
                other => unreachable!("slave got unexpected tag {other}"),
            };
            let Some(mut m) = reply else { break };
            let header = m.unpack_f64(2);
            let (master_best, cost) = (header[0], header[1]);
            let len = m.unpack_u32(1)[0] as usize;
            let cities = m.unpack_bytes(len);
            let tour = Tour { cities, cost };
            let bound = master_best.min(my_best);
            let (best, nodes) = recursive_solve(&dist, &tour, nc, bound);
            pvm.proc().compute(nodes as f64 * COST_NODE);
            if best < bound {
                my_best = best;
                let mut b = pvm.new_buffer();
                b.pack_f64(&[best]);
                pvm.send(0, TAG_BEST, b);
            }
        }
        0.0
    }
}

/// Run the application on `cfg` under `sys`: the TreadMarks version under
/// its coherence protocol, or the PVM version.  A structured
/// [`RunFailure`] (deadlock, livelock, or fault-plan crash) comes back as
/// `Err`, so the fuzzing harness can record it and keep going.
pub fn run(cfg: &ClusterConfig, p: &TspParams, sys: System) -> Result<AppRun, RunFailure> {
    match sys {
        System::TreadMarks(protocol) => {
            let heap = (POOL_SLOTS * (SLOT_BYTES + 16) + (1 << 20)).next_power_of_two();
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

    fn fddi(nprocs: usize, p: &TspParams, sys: System) -> AppRun {
        run(&ClusterConfig::calibrated_fddi(nprocs), p, sys).unwrap()
    }

    #[test]
    fn branch_and_bound_finds_the_optimum_of_a_small_instance() {
        let p = TspParams::tiny();
        let dist = p.distances();
        let nc = p.cities;
        let mut perm: Vec<u8> = (1..nc as u8).collect();
        let mut best = f64::INFINITY;
        fn permute(perm: &mut Vec<u8>, k: usize, dist: &[Vec<f64>], best: &mut f64) {
            if k == perm.len() {
                let mut cost = dist[0][perm[0] as usize];
                for w in perm.windows(2) {
                    cost += dist[w[0] as usize][w[1] as usize];
                }
                cost += dist[*perm.last().unwrap() as usize][0];
                if cost < *best {
                    *best = cost;
                }
                return;
            }
            for i in k..perm.len() {
                perm.swap(k, i);
                permute(perm, k + 1, dist, best);
                perm.swap(k, i);
            }
        }
        permute(&mut perm, 0, &dist, &mut best);
        let seq = sequential(&p);
        assert!(
            (seq.checksum - best).abs() < 1e-3,
            "{} vs {best}",
            seq.checksum
        );
    }

    #[test]
    fn parallel_versions_find_the_same_optimum() {
        let p = TspParams::tiny();
        let seq = sequential(&p);
        for n in [1, 2, 4] {
            let t = fddi(n, &p, LRC);
            let m = fddi(n, &p, System::Pvm);
            assert!((t.checksum - seq.checksum).abs() < 1e-3, "TMK n={n}");
            assert!((m.checksum - seq.checksum).abs() < 1e-3, "PVM n={n}");
        }
    }

    #[test]
    fn treadmarks_migrates_far_more_data_than_pvm() {
        // In PVM only solvable tours and best updates travel; in TreadMarks
        // the pool, queue, stack and best all migrate between processes.
        let p = TspParams {
            cities: 10,
            threshold: 6,
            seed: 99,
        };
        let t = fddi(4, &p, LRC);
        let m = fddi(4, &p, System::Pvm);
        assert!(t.messages > m.messages, "{} vs {}", t.messages, m.messages);
        assert!(
            t.kilobytes > m.kilobytes,
            "{} vs {}",
            t.kilobytes,
            m.kilobytes
        );
    }
}
