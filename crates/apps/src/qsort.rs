//! QSORT — parallel quicksort driven by a work queue.
//!
//! The unsorted list is partitioned into sublists; sublists below a threshold
//! are sorted with bubblesort, larger ones are partitioned again and the two
//! halves are put back on the work queue.
//!
//! * **TreadMarks**: the list and the work queue are shared; workers pop
//!   tasks under a lock, release the queue while they partition or sort, and
//!   re-acquire it to push newly generated sublists.  Intermediate sublists
//!   are larger than a page, so each task migration needs several diff
//!   requests, and the queue itself is migratory data (diff accumulation).
//! * **PVM**: a master/slave arrangement — the master owns the array and the
//!   work queue; subarray contents travel to a slave and back with every
//!   task.

use crate::runner::{run_pvm, run_treadmarks, AppRun, SeqRun, System};
use cluster::{ClusterConfig, RunFailure};
use msgpass::Pvm;
use treadmarks::Tmk;

/// Cost per element moved during a partition step.
pub const COST_PART: f64 = 0.12e-6;
/// Cost per comparison in the bubblesort leaf phase.
pub const COST_CMP: f64 = 0.035e-6;
/// Idle back-off charged when a worker polls an empty queue.
pub const POLL_BACKOFF: f64 = 300e-6;

const QUEUE_CAP: usize = 4096;

/// Problem parameters.
#[derive(Debug, Clone)]
pub struct QsortParams {
    /// Number of integers to sort.
    pub elems: usize,
    /// Sublists at or below this size are bubble-sorted.
    pub threshold: usize,
    /// RNG seed.
    pub seed: u64,
}

impl QsortParams {
    /// Paper-scale problem: 256 K integers, bubblesort threshold 1024.
    pub fn paper() -> Self {
        QsortParams {
            elems: 256 * 1024,
            threshold: 1024,
            seed: 424242,
        }
    }

    /// Scaled-down problem for the default harness preset.
    pub fn scaled() -> Self {
        QsortParams {
            elems: 64 * 1024,
            threshold: 512,
            seed: 424242,
        }
    }

    /// Tiny problem for functional tests.
    pub fn tiny() -> Self {
        QsortParams {
            elems: 2048,
            threshold: 64,
            seed: 424242,
        }
    }

    /// The deterministic unsorted input.
    pub fn input(&self) -> Vec<i32> {
        let mut v = Vec::with_capacity(self.elems);
        let mut state = self.seed | 1;
        for _ in 0..self.elems {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.push((state >> 33) as i32);
        }
        v
    }
}

fn checksum(sorted: &[i32]) -> f64 {
    let mut ok = 1.0;
    let mut sum = 0.0;
    for (i, w) in sorted.windows(2).enumerate() {
        if w[0] > w[1] {
            ok = 0.0;
        }
        if i % 97 == 0 {
            sum += w[0] as f64 * (i as f64 + 1.0);
        }
    }
    ok * (sum % 1e12)
}

/// Bubblesort a slice, returning the number of comparisons.
fn bubblesort(v: &mut [i32]) -> u64 {
    let mut cmps = 0u64;
    let n = v.len();
    for i in 0..n {
        for j in 0..n - 1 - i {
            cmps += 1;
            if v[j] > v[j + 1] {
                v.swap(j, j + 1);
            }
        }
    }
    cmps
}

/// Partition a slice around its last element; returns the pivot index.
fn partition(v: &mut [i32]) -> usize {
    let pivot = v[v.len() - 1];
    let mut store = 0usize;
    for i in 0..v.len() - 1 {
        if v[i] < pivot {
            v.swap(i, store);
            store += 1;
        }
    }
    let last = v.len() - 1;
    v.swap(store, last);
    store
}

/// Sequential reference implementation.
pub fn sequential(p: &QsortParams) -> SeqRun {
    let mut data = p.input();
    let mut time = 0.0;
    let mut stack = vec![(0usize, p.elems)];
    while let Some((start, len)) = stack.pop() {
        if len == 0 {
            continue;
        }
        if len <= p.threshold {
            let cmps = bubblesort(&mut data[start..start + len]);
            time += cmps as f64 * COST_CMP;
        } else {
            let pivot = partition(&mut data[start..start + len]);
            time += len as f64 * COST_PART;
            stack.push((start, pivot));
            stack.push((start + pivot + 1, len - pivot - 1));
        }
    }
    SeqRun {
        checksum: checksum(&data),
        time,
    }
}

// -------------------------------------------------------------- TreadMarks

const LOCK_QUEUE: u32 = 0;

/// TreadMarks version.
fn treadmarks_body(tmk: &Tmk, p: &QsortParams) -> f64 {
    let data_addr = tmk.malloc(p.elems * 4);
    let qlen_addr = tmk.malloc(4);
    let outstanding_addr = tmk.malloc(4);
    let queue_addr = tmk.malloc(QUEUE_CAP * 8); // (start, len) pairs of i32

    if tmk.id() == 0 {
        tmk.write_i32_slice(data_addr, &p.input());
        tmk.write_i32(qlen_addr, 1);
        tmk.write_i32(outstanding_addr, 1);
        tmk.write_i32(queue_addr, 0);
        tmk.write_i32(queue_addr + 4, p.elems as i32);
    }
    tmk.barrier(0);

    loop {
        // Pop a task (or detect global completion) under the queue lock.
        tmk.lock_acquire(LOCK_QUEUE);
        let qlen = tmk.read_i32(qlen_addr);
        let task = if qlen > 0 {
            let start = tmk.read_i32(queue_addr + (qlen as usize - 1) * 8) as usize;
            let len = tmk.read_i32(queue_addr + (qlen as usize - 1) * 8 + 4) as usize;
            tmk.write_i32(qlen_addr, qlen - 1);
            Some((start, len))
        } else {
            None
        };
        let outstanding = tmk.read_i32(outstanding_addr);
        tmk.lock_release(LOCK_QUEUE);

        let Some((start, len)) = task else {
            if outstanding == 0 {
                break;
            }
            tmk.proc().compute(POLL_BACKOFF);
            continue;
        };

        // Fetch the sublist, process it privately, write it back.
        let mut sub = vec![0i32; len];
        tmk.read_i32_slice(data_addr + start * 4, &mut sub);
        if len <= p.threshold {
            let cmps = bubblesort(&mut sub);
            tmk.proc().compute(cmps as f64 * COST_CMP);
            tmk.write_i32_slice(data_addr + start * 4, &sub);
            tmk.lock_acquire(LOCK_QUEUE);
            let o = tmk.read_i32(outstanding_addr);
            tmk.write_i32(outstanding_addr, o - 1);
            tmk.lock_release(LOCK_QUEUE);
        } else {
            let pivot = partition(&mut sub);
            tmk.proc().compute(len as f64 * COST_PART);
            tmk.write_i32_slice(data_addr + start * 4, &sub);
            tmk.lock_acquire(LOCK_QUEUE);
            let qlen = tmk.read_i32(qlen_addr) as usize;
            assert!(qlen + 2 <= QUEUE_CAP, "work queue overflow");
            tmk.write_i32(queue_addr + qlen * 8, start as i32);
            tmk.write_i32(queue_addr + qlen * 8 + 4, pivot as i32);
            tmk.write_i32(queue_addr + (qlen + 1) * 8, (start + pivot + 1) as i32);
            tmk.write_i32(queue_addr + (qlen + 1) * 8 + 4, (len - pivot - 1) as i32);
            tmk.write_i32(qlen_addr, qlen as i32 + 2);
            let o = tmk.read_i32(outstanding_addr);
            tmk.write_i32(outstanding_addr, o + 1);
            tmk.lock_release(LOCK_QUEUE);
        }
    }

    tmk.barrier(1);
    if tmk.id() == 0 {
        let mut data = vec![0i32; p.elems];
        tmk.read_i32_slice(data_addr, &mut data);
        checksum(&data)
    } else {
        0.0
    }
}

// --------------------------------------------------------------------- PVM

const TAG_REQ: u32 = 20;
const TAG_TASK: u32 = 21;
const TAG_DONE: u32 = 22;
const TAG_RESULT: u32 = 23;

/// PVM version: the master owns the array and queue; subarrays travel to the
/// slaves and back.
fn pvm_body(pvm: &Pvm, p: &QsortParams) -> f64 {
    let n = pvm.nprocs();
    if pvm.id() == 0 {
        let mut data = p.input();
        let mut queue = vec![(0usize, p.elems)];
        let mut outstanding_remote = 0usize;
        let mut slaves_done = 0usize;
        // Slaves whose work request arrived while the queue was empty; they
        // are answered as soon as a result generates new tasks (or with DONE
        // once everything has drained), so idle slaves never busy-poll.
        let mut waiting: Vec<usize> = Vec::new();

        let process_result =
            |m: &mut msgpass::RecvBuffer, data: &mut Vec<i32>, queue: &mut Vec<(usize, usize)>| {
                let hdr = m.unpack_u64(3);
                let (start, len, kind) = (hdr[0] as usize, hdr[1] as usize, hdr[2]);
                let content = m.unpack_i32(len);
                data[start..start + len].copy_from_slice(&content);
                if kind == 1 {
                    // Partitioned: the pivot position follows.
                    let pivot = m.unpack_u64(1)[0] as usize;
                    queue.push((start, pivot));
                    queue.push((start + pivot + 1, len - pivot - 1));
                }
            };

        let send_task = |pvm: &Pvm,
                         data: &Vec<i32>,
                         slave: usize,
                         start: usize,
                         len: usize,
                         threshold: usize| {
            let mut b = pvm.new_buffer();
            b.pack_u64(&[start as u64, len as u64, u64::from(len <= threshold)]);
            b.pack_i32(&data[start..start + len]);
            pvm.send(slave, TAG_TASK, b);
        };

        loop {
            if let Some(mut m) = pvm.nrecv(None, TAG_RESULT) {
                process_result(&mut m, &mut data, &mut queue);
                outstanding_remote -= 1;
                // Serve slaves that were waiting for new tasks.
                while !waiting.is_empty() {
                    match queue.pop() {
                        Some((start, len)) if len > 0 => {
                            let slave = waiting.pop().unwrap();
                            send_task(pvm, &data, slave, start, len, p.threshold);
                            outstanding_remote += 1;
                        }
                        Some(_) => {}
                        None => break,
                    }
                }
                continue;
            }
            if let Some(m) = pvm.nrecv(None, TAG_REQ) {
                let slave = m.src();
                match queue.pop() {
                    Some((start, len)) if len > 0 => {
                        send_task(pvm, &data, slave, start, len, p.threshold);
                        outstanding_remote += 1;
                    }
                    Some(_) => waiting.push(slave),
                    None => {
                        if outstanding_remote == 0 {
                            pvm.send(slave, TAG_DONE, pvm.new_buffer());
                            slaves_done += 1;
                        } else {
                            waiting.push(slave);
                        }
                    }
                }
                continue;
            }
            // Master works on a task itself when no requests are pending.
            match queue.pop() {
                Some((start, len)) if len > 0 => {
                    if len <= p.threshold {
                        let cmps = bubblesort(&mut data[start..start + len]);
                        pvm.proc().compute(cmps as f64 * COST_CMP);
                    } else {
                        let pivot = partition(&mut data[start..start + len]);
                        pvm.proc().compute(len as f64 * COST_PART);
                        queue.push((start, pivot));
                        queue.push((start + pivot + 1, len - pivot - 1));
                    }
                }
                Some(_) => {}
                None => {
                    if outstanding_remote == 0 {
                        // Everything has drained: release the waiting and
                        // any remaining slaves, then stop.
                        for slave in waiting.drain(..) {
                            pvm.send(slave, TAG_DONE, pvm.new_buffer());
                            slaves_done += 1;
                        }
                        if slaves_done == n - 1 {
                            break;
                        }
                        let m = pvm.recv(None, TAG_REQ);
                        pvm.send(m.src(), TAG_DONE, pvm.new_buffer());
                        slaves_done += 1;
                    } else {
                        let mut m = pvm.recv(None, TAG_RESULT);
                        process_result(&mut m, &mut data, &mut queue);
                        outstanding_remote -= 1;
                    }
                }
            }
        }
        checksum(&data)
    } else {
        loop {
            pvm.send(0, TAG_REQ, pvm.new_buffer());
            // Block for the master's answer — a task or DONE — instead of
            // busy-polling the two tags: the reply is in this process's
            // virtual future, so a poll loop would never see it (and never
            // advances the clock to it).
            let m = pvm.recv_any(Some(0));
            let reply = match m.tag() {
                TAG_TASK => Some(m),
                TAG_DONE => None,
                other => unreachable!("slave got unexpected tag {other}"),
            };
            let Some(mut m) = reply else { break };
            let hdr = m.unpack_u64(3);
            let (start, len, kind) = (hdr[0] as usize, hdr[1] as usize, hdr[2]);
            let mut sub = m.unpack_i32(len);
            let mut b = pvm.new_buffer();
            if kind == 1 {
                let cmps = bubblesort(&mut sub);
                pvm.proc().compute(cmps as f64 * COST_CMP);
                b.pack_u64(&[start as u64, len as u64, 0]);
                b.pack_i32(&sub);
            } else {
                let pivot = partition(&mut sub);
                pvm.proc().compute(len as f64 * COST_PART);
                b.pack_u64(&[start as u64, len as u64, 1]);
                b.pack_i32(&sub);
                b.pack_u64(&[pivot as u64]);
            }
            pvm.send(0, TAG_RESULT, b);
        }
        0.0
    }
}

/// Run the application on `cfg` under `sys`: the TreadMarks version under
/// its coherence protocol, or the PVM version.  A structured
/// [`RunFailure`] (deadlock, livelock, or fault-plan crash) comes back as
/// `Err`, so the fuzzing harness can record it and keep going.
pub fn run(cfg: &ClusterConfig, p: &QsortParams, sys: System) -> Result<AppRun, RunFailure> {
    match sys {
        System::TreadMarks(protocol) => {
            let heap = (p.elems * 4 + QUEUE_CAP * 8 + (1 << 20)).next_power_of_two();
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

    fn fddi(nprocs: usize, p: &QsortParams, sys: System) -> AppRun {
        run(&ClusterConfig::calibrated_fddi(nprocs), p, sys).unwrap()
    }

    #[test]
    fn sequential_sorts_correctly() {
        let p = QsortParams::tiny();
        let seq = sequential(&p);
        let mut sorted = p.input();
        sorted.sort_unstable();
        assert_eq!(seq.checksum, checksum(&sorted));
        assert!(seq.checksum > 0.0, "sortedness flag must be set");
    }

    #[test]
    fn parallel_versions_sort_correctly() {
        let p = QsortParams::tiny();
        let seq = sequential(&p);
        for n in [1, 2, 4] {
            let t = fddi(n, &p, LRC);
            let m = fddi(n, &p, System::Pvm);
            assert_eq!(t.checksum, seq.checksum, "TMK n={n}");
            assert_eq!(m.checksum, seq.checksum, "PVM n={n}");
        }
    }

    #[test]
    fn treadmarks_needs_more_messages_for_task_migration() {
        let p = QsortParams {
            elems: 8192,
            threshold: 256,
            seed: 7,
        };
        let t = fddi(4, &p, LRC);
        let m = fddi(4, &p, System::Pvm);
        assert!(
            t.messages > m.messages,
            "TMK {} msgs vs PVM {}",
            t.messages,
            m.messages
        );
    }
}
