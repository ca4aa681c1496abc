//! Host-time spans around the benchmark's calls into each layer.
//!
//! Spans are kept in memory and written out once, at the end of the traced
//! run.  Each records its name, start and end (ns since the trace began),
//! its parent, the run it belongs to, and the process's CPU time and
//! context switches over the span; a run's span also records the
//! resident-set high-water mark over the run.

use crate::host::{self, Usage};
use crate::workloads::{system_name, Job};
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, e.g. `bench.try_run_parallel_on`.
    pub name: &'static str,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The simulated run the span wraps.
    pub run: Option<Job>,
    /// The application the span computes, for a run or a sequential kernel.
    pub app: Option<&'static str>,
    /// CPU time and context switches over the span.
    pub usage: Usage,
    /// Resident-set high-water mark over a run's span, MiB (the process's
    /// lifetime peak where the kernel refuses the reset).
    pub hwm_mb: Option<f64>,
}

impl Span {
    /// Duration, seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Open {
    index: usize,
    usage: Usage,
}

/// The in-memory span recorder of one traced run.
pub struct Tracer {
    workload: &'static str,
    seed: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
}

impl Tracer {
    /// A recorder for `workload` under benchmark seed `seed`.
    pub fn new(workload: &'static str, seed: u64) -> Tracer {
        Tracer {
            workload,
            seed,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span around the simulated run `job`.  It resets the
    /// resident-set high-water mark, so the span's reading is the run's peak.
    pub fn enter_run(&mut self, name: &'static str, job: Job) {
        self.open_span(name, Some(job), Some(job.key.workload.name()));
    }

    /// Open a span around the sequential kernel of `app`.
    pub fn enter_app(&mut self, name: &'static str, app: apps::Workload) {
        self.open_span(name, None, Some(app.name()));
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        self.open_span(name, None, None);
    }

    fn open_span(&mut self, name: &'static str, run: Option<Job>, app: Option<&'static str>) {
        if run.is_some() {
            host::reset_hwm();
        }
        let index = self.spans.len();
        let started = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: started.duration_since(self.origin).as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().map(|o| o.index),
            run,
            app,
            usage: Usage::default(),
            hwm_mb: None,
        });
        self.open.push(Open {
            index,
            usage: Usage::now(),
        });
    }

    /// Close the innermost open span and return it.
    pub fn exit(&mut self) -> &Span {
        let open = self.open.pop().expect("exit matches an enter");
        let end = Instant::now().duration_since(self.origin);
        let span = &mut self.spans[open.index];
        span.usage = Usage::now().since(&open.usage);
        span.end_ns = end.as_nanos() as u64;
        span.hwm_mb = span.run.map(|_| host::vm_hwm_mb());
        span
    }

    /// Every closed span, in the order opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{}\", \"seed\": {}, \"spans\": [",
            self.workload, self.seed
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let mut run = match s.app {
                Some(app) => format!(", \"app\": \"{app}\""),
                None => String::new(),
            };
            if let (Some(job), Some(hwm)) = (&s.run, s.hwm_mb) {
                let _ = write!(
                    run,
                    ", \"run\": \"{}\", \"system\": \"{}\", \"nprocs\": {}, \
                     \"hwm_mb\": {hwm:.1}",
                    job.label(),
                    system_name(job.key.system),
                    job.key.nprocs
                );
            }
            let _ = write!(
                out,
                "{sep}  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}{run}, \"user_s\": {:.6}, \
                 \"sys_s\": {:.6}, \"ctx_switches\": {}}}",
                s.name, s.start_ns, s.end_ns, s.usage.user_s, s.usage.sys_s, s.usage.ctx_switches
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
