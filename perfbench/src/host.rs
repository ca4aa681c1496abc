//! Host-side resource readings of the benchmark process: CPU time and
//! context switches from `getrusage(RUSAGE_SELF)`, which sums every thread
//! the process ran (the simulated ranks included, live or joined), and the
//! resident-set high-water mark from `/proc/self/status`.

/// `struct timeval` of the Linux ABI on 64-bit targets.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of the Linux ABI on 64-bit targets: two timevals, then
/// fourteen `long` counters.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    counters: [i64; 14],
}

const RU_MAXRSS: usize = 0;
const RU_NVCSW: usize = 12;
const RU_NIVCSW: usize = 13;
const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// One reading of the process's resource usage.
#[derive(Debug, Default, Clone, Copy)]
pub struct Usage {
    /// User CPU time, seconds.
    pub user_s: f64,
    /// System CPU time, seconds.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set of the whole process lifetime, MiB.
    pub maxrss_mb: f64,
}

impl Usage {
    /// The process's usage so far.
    pub fn now() -> Usage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` with the Linux
        // 64-bit layout (`#[repr(C)]`, two timevals then fourteen longs), and
        // getrusage writes at most that struct.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
        );
        let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            user_s: secs(raw.ru_utime),
            sys_s: secs(raw.ru_stime),
            ctx_switches: (raw.counters[RU_NVCSW] + raw.counters[RU_NIVCSW]) as u64,
            maxrss_mb: raw.counters[RU_MAXRSS] as f64 / 1024.0,
        }
    }

    /// The usage accrued between `earlier` and `self` (the lifetime peak
    /// resident set is carried as read at `self`).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            maxrss_mb: self.maxrss_mb,
        }
    }

    /// User plus system CPU time, seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Reset the resident-set high-water mark, so the next [`vm_hwm_mb`]
/// reports the peak from here on.  Returns false where the kernel refuses
/// (the readings then fall back to the lifetime peak).
pub fn reset_hwm() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The resident-set high-water mark (`VmHWM`), MiB, since process start or
/// the last successful [`reset_hwm`].
pub fn vm_hwm_mb() -> f64 {
    status_kb("VmHWM:").map_or_else(|| Usage::now().maxrss_mb, |kb| kb as f64 / 1024.0)
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}
