//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--write-golden]
//! ```
//!
//! With `--trace 0` it repeats untraced passes over the workload's runs for
//! `S` seconds, timing a batch of set-ups before the first pass and after
//! every pass, and reports the end-to-end metrics as medians over those.  With `--trace 1` it makes a
//! warm-up pass and a traced pass between two untraced reference passes, times each layer from outside the program
//! (spans around its public calls plus micro-probes), writes the spans
//! to `.bench_out/` and reports the per-layer metrics.  Either way every run is checked: a
//! structured `RunFailure`, a failed `bench::invariants` check or a
//! fingerprint that differs from the committed golden counts as failed.
//! The last line of standard output is the result as one JSON object.
//!
//! `--write-golden` instead runs every run any seed can execute once and
//! writes the workload's golden file.  See `perfbench/README.md`.

mod golden;
mod host;
mod probes;
mod trace;
mod workloads;

use apps::runner::{SeqRun, System};
use apps::Workload;
use golden::Golden;
use host::Usage;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use workloads::{system_name, Job, Spec};

/// One `setup_s` sample repeats the set-up for at least this long and
/// reports the mean, so a sample of a sub-millisecond set-up does not hang
/// on a single page fault or interrupt.
const SETUP_BATCH_S: f64 = 0.05;
/// Where the goldens live, relative to the checkout root the benchmark
/// runs from.
const GOLDEN_DIR: &str = "perfbench/golden";

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        write_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-golden" {
            args.write_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Median of `v` (sorted in place); 0 for an empty slice.
pub(crate) fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation (sorted in place).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Everything a pass needs, built before the first simulated run.
struct Setup {
    spec: Spec,
    order: Vec<usize>,
    golden: Golden,
    seqs: Vec<(Workload, SeqRun)>,
}

impl Setup {
    /// Read the golden, lay out the seed's runs and compute the sequential
    /// baselines every run is checked against.
    fn new(args: &Args) -> Result<Setup, String> {
        let spec = Spec::for_seed(&args.workload, args.seed)?;
        let path = Path::new(GOLDEN_DIR).join(format!("{}.txt", spec.name));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read golden {}: {e}", path.display()))?;
        let golden = Golden::parse(&text)?;
        let order = workloads::shuffled(spec.jobs.len(), args.seed);
        let seqs = spec
            .apps
            .iter()
            .map(|&w| (w, bench::run_sequential(w, spec.preset)))
            .collect();
        Ok(Setup {
            spec,
            order,
            golden,
            seqs,
        })
    }

    fn seq(&self, w: Workload) -> &SeqRun {
        &self
            .seqs
            .iter()
            .find(|(k, _)| *k == w)
            .expect("every app of the workload has a baseline")
            .1
    }
}

/// What one run of a pass left behind once its result was checked.
struct Sample {
    job: Job,
    wall_s: f64,
    fingerprint: u64,
    failure: Option<String>,
    checksum: Option<f64>,
    messages: u64,
    page_faults: u64,
    faults_injected: u64,
}

/// One pass over every run of the workload, in the seed's order.
struct Pass {
    wall_s: f64,
    usage: Usage,
    hwm_mb: f64,
    samples: Vec<Sample>,
}

impl Pass {
    fn messages(&self) -> u64 {
        self.samples.iter().map(|s| s.messages).sum()
    }

    fn failures(&self) -> impl Iterator<Item = &String> {
        self.samples.iter().filter_map(|s| s.failure.as_ref())
    }
}

fn run_pass(setup: &Setup, mut tracer: Option<&mut Tracer>) -> Pass {
    let spec = &setup.spec;
    host::reset_hwm();
    let before = Usage::now();
    let started = Instant::now();
    let mut samples = Vec::with_capacity(setup.order.len());
    for &i in &setup.order {
        let job = spec.jobs[i];
        let cfg = spec.config(&job);
        let seq = setup.seq(job.key.workload);
        if let Some(t) = tracer.as_deref_mut() {
            t.enter_run("bench.try_run_parallel_on", job);
        }
        let t0 = Instant::now();
        let outcome = workloads::execute(spec, &job, &cfg, seq);
        let wall_s = t0.elapsed().as_secs_f64();
        if let Some(t) = tracer.as_deref_mut() {
            t.exit();
        }
        let run = outcome.run.as_ref();
        samples.push(Sample {
            job,
            wall_s,
            fingerprint: outcome.fingerprint,
            failure: outcome
                .verdict
                .is_failure()
                .then(|| format!("{}: {}", job.label(), outcome.verdict.summary())),
            checksum: run.map(|r| r.checksum),
            messages: outcome.messages(),
            page_faults: run
                .and_then(|r| r.tmk_stats.as_ref())
                .map_or(0, |t| t.page_faults),
            faults_injected: run.map_or(0, |r| r.faults.injected()),
        });
    }
    let wall_s = started.elapsed().as_secs_f64();
    let usage = Usage::now().since(&before);
    let hwm_mb = host::vm_hwm_mb();

    // Fingerprints against the golden, then the fuzz campaign's
    // cross-backend agreement; each failed run is counted once.
    let observed: Vec<(String, u64)> = samples
        .iter()
        .map(|s| (s.job.label(), s.fingerprint))
        .collect();
    for m in setup.golden.check(&observed) {
        let s = samples
            .iter_mut()
            .find(|s| s.job.label() == m.key)
            .expect("a mismatch names an observed key");
        s.failure.get_or_insert_with(|| m.to_string());
    }
    let checked: Vec<(Job, Option<f64>)> = samples.iter().map(|s| (s.job, s.checksum)).collect();
    for label in workloads::cross_backend_failures(&checked) {
        let s = samples
            .iter_mut()
            .find(|s| s.job.label() == label)
            .expect("a cross-backend failure names an observed key");
        s.failure
            .get_or_insert_with(|| format!("{label}: DSM backends disagree bitwise"));
    }
    Pass {
        wall_s,
        usage,
        hwm_mb,
        samples,
    }
}

/// Print the workload fingerprint line: the fold of the observed per-run
/// fingerprints in golden key order next to the golden's fold of the
/// same keys.
fn print_fingerprint(setup: &Setup, pass: &Pass) {
    let observed: Vec<(String, u64)> = pass
        .samples
        .iter()
        .map(|s| (s.job.label(), s.fingerprint))
        .collect();
    let expected: Vec<(String, u64)> = observed
        .iter()
        .map(|(k, _)| (k.clone(), setup.golden.get(k).unwrap_or(0)))
        .collect();
    let (got, want) = (
        setup.golden.fold_observed(&observed),
        setup.golden.fold_observed(&expected),
    );
    println!(
        "fingerprint {} {got:016x} golden {want:016x} runs {} {}",
        setup.spec.name,
        observed.len(),
        if got == want { "match" } else { "MISMATCH" }
    );
}

/// The totals every result reports, over every pass the run made.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn add(&mut self, pass: &Pass) {
        self.attempted += pass.samples.len();
        self.failed += pass.failures().count();
        for f in pass.failures().take(20) {
            println!("FAIL {f}");
        }
    }
}

/// A metric as reported: name, value, unit.
type Metric = (String, f64, &'static str);

fn print_result(tally: &Tally, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// Set the workload up repeatedly from `from` until [`SETUP_BATCH_S`] has
/// passed; returns the mean time per set-up and the last set-up.
fn setup_batch(args: &Args, from: Instant) -> Result<(f64, Setup), String> {
    let mut count = 0;
    loop {
        let setup = Setup::new(args)?;
        count += 1;
        let elapsed = from.elapsed().as_secs_f64();
        if elapsed >= SETUP_BATCH_S {
            return Ok((elapsed / count as f64, setup));
        }
    }
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(args: &Args, started: Instant) -> Result<(), String> {
    // The first batch counts from process start.  Later batches sit
    // between passes, so the samples spread over the whole run.
    let (first, setup) = setup_batch(args, started)?;
    let mut setup_s = vec![first];
    let mut tally = Tally::default();
    let mut passes = Vec::new();
    let measuring = Instant::now();
    while passes.is_empty() || measuring.elapsed().as_secs_f64() < args.seconds {
        let pass = run_pass(&setup, None);
        tally.add(&pass);
        passes.push(pass);
        setup_s.push(setup_batch(args, Instant::now())?.0);
    }
    print_fingerprint(&setup, &passes[0]);

    let series = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let mut wall = series(&|p| p.wall_s);
    let mut rate = series(&|p| p.messages() as f64 / p.wall_s);
    let mut cpu = series(&|p| p.usage.cpu_s());
    let mut rss = series(&|p| p.hwm_mb);
    let n = passes.len();
    println!(
        "workload {} seed {}: {} runs per pass, {n} passes, {} set-up batches",
        setup.spec.name,
        args.seed,
        setup.order.len(),
        setup_s.len()
    );
    let mut metrics: Vec<Metric> = Vec::new();
    for (name, unit, values) in [
        ("wall_s", "s", &mut wall),
        ("events_per_s", "1/s", &mut rate),
        ("cpu_s", "s", &mut cpu),
        ("peak_rss_mb", "MiB", &mut rss),
        ("setup_s", "s", &mut setup_s),
    ] {
        let len = values.len();
        let med = median(values);
        let hi = quantile(values, 1.0);
        let lo = quantile(values, 0.0);
        println!("  {name:<13} median {med:.6} min {lo:.6} max {hi:.6} {unit} (n={len})");
        metrics.push((name.to_string(), med, unit));
    }
    print_result(&tally, &metrics);
    Ok(())
}

/// Call `f` inside a span named `name`.
fn probe<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    tracer.enter(name);
    let value = f();
    tracer.exit();
    value
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(args: &Args) -> Result<(), String> {
    let setup = Setup::new(args)?;
    let spec = &setup.spec;
    let mut tally = Tally::default();
    // The first pass of a process runs cold.  Untraced passes right before
    // and after the traced one are its reference, so a drift of the host's
    // speed across the three cancels out of the tracing overhead.
    let warm_up = run_pass(&setup, None);
    tally.add(&warm_up);
    print_fingerprint(&setup, &warm_up);
    let plain = run_pass(&setup, None);
    tally.add(&plain);

    let mut tracer = Tracer::new(spec.name, args.seed);
    tracer.enter("workload");
    let mut kernel_s: Vec<(Workload, f64)> = Vec::new();
    for &w in &spec.apps {
        tracer.enter_app("apps.run_sequential", w);
        std::hint::black_box(bench::run_sequential(w, spec.preset));
        kernel_s.push((w, tracer.exit().secs()));
    }
    tracer.enter("pass");
    let traced = run_pass(&setup, Some(&mut tracer));
    tracer.exit();
    tally.add(&traced);
    let after = run_pass(&setup, None);
    tally.add(&after);
    let plain_wall_s = (plain.wall_s + after.wall_s) / 2.0;
    let plain_ctx = plain.usage.ctx_switches + after.usage.ctx_switches;
    let (plain_sys_s, plain_cpu_s) = (
        plain.usage.sys_s + after.usage.sys_s,
        plain.usage.cpu_s() + after.usage.cpu_s(),
    );

    // The fuzz campaign's fault overhead: each (app, system) point once
    // more with no faults, against the same point's faulted runs.
    let mut clean_s = 0.0;
    let mut faulted_s = 0.0;
    if spec.plan.is_some() {
        let mut points: Vec<Job> = Vec::new();
        for job in &spec.jobs {
            if !points.iter().any(|p| p.key == job.key) {
                points.push(*job);
            }
        }
        for job in &points {
            tracer.enter_run("bench.try_run_parallel_on.clean", *job);
            let outcome = workloads::execute(
                spec,
                job,
                &spec.clean_config(job),
                setup.seq(job.key.workload),
            );
            let secs = tracer.exit().secs();
            if outcome.verdict.is_failure() {
                return Err(format!("clean run {} failed", job.label()));
            }
            let seeds = spec.jobs.iter().filter(|j| j.key == job.key).count();
            clean_s += secs * seeds as f64;
        }
        faulted_s = traced.samples.iter().map(|s| s.wall_s).sum();
    }

    let handoff = probe(&mut tracer, "probe.cluster.handoff", probes::handoff_rtt_us);
    let spawn8 = probe(&mut tracer, "probe.cluster.spawn", || {
        probes::spawn_us_per_rank(8)
    });
    let spawn256 = probe(&mut tracer, "probe.cluster.spawn", || {
        probes::spawn_us_per_rank(256)
    });
    let diff = [false, true].map(|dense| {
        probe(&mut tracer, "probe.treadmarks.diff", || {
            probes::diff_ns(dense)
        })
    });
    let pack = probe(
        &mut tracer,
        "probe.msgpass.pack_unpack",
        probes::pack_unpack_ns_per_kb,
    );
    tracer.exit();

    let out = PathBuf::from(format!(
        ".bench_out/trace-{}-seed{}.json",
        spec.name, args.seed
    ));
    let dir = out.parent().expect("the trace path has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(&out, tracer.to_json()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "trace: {} spans written to {}",
        tracer.spans().len(),
        out.display()
    );

    // Per-run spans of the traced pass.
    let runs: Vec<&trace::Span> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "bench.try_run_parallel_on")
        .collect();
    let run_s = |sys: System| -> f64 {
        runs.iter()
            .filter(|s| s.run.is_some_and(|j| j.key.system == sys))
            .map(|s| s.secs())
            .sum()
    };
    let peak = |sys: System| -> f64 {
        runs.iter()
            .filter(|s| s.run.is_some_and(|j| j.key.system == sys))
            .filter_map(|s| s.hwm_mb)
            .fold(0.0, f64::max)
    };
    let kernel_of = |w: Workload| kernel_s.iter().find(|(k, _)| *k == w).map_or(0.0, |k| k.1);
    let mut run_ms: Vec<f64> = runs.iter().map(|s| s.secs() * 1e3).collect();
    let pvm_s = run_s(System::Pvm);
    let dsm = System::all();
    let dsm = &dsm[..3];
    let dsm_overhead: Vec<f64> = dsm.iter().map(|&s| run_s(s) - pvm_s).collect();
    let page_faults: u64 = traced.samples.iter().map(|s| s.page_faults).sum();
    let msgs = (plain.messages() + after.messages()) as f64;
    let pvm_overhead: f64 = runs
        .iter()
        .filter_map(|s| {
            let job = s.run?;
            (job.key.system == System::Pvm).then(|| s.secs() - kernel_of(job.key.workload))
        })
        .sum();

    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: String, value: f64, unit: &'static str| m.push((name, value, unit));
    put(
        "apps.kernel_s".into(),
        kernel_s.iter().map(|k| k.1).sum(),
        "s",
    );
    for sys in System::all() {
        put(format!("bench.run_s.{}", system_name(sys)), run_s(sys), "s");
    }
    put("bench.run_p50_ms".into(), quantile(&mut run_ms, 0.50), "ms");
    put("bench.run_p99_ms".into(), quantile(&mut run_ms, 0.99), "ms");
    put(
        "bench.error_rate".into(),
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    put("cluster.handoff_rtt_us".into(), handoff, "us");
    put("cluster.spawn_us_per_rank.8".into(), spawn8, "us");
    put("cluster.spawn_us_per_rank.256".into(), spawn256, "us");
    put(
        "cluster.ctx_switches_per_msg".into(),
        plain_ctx as f64 / msgs.max(1.0),
        "count",
    );
    put(
        "cluster.sys_frac".into(),
        plain_sys_s / plain_cpu_s.max(f64::MIN_POSITIVE),
        "ratio",
    );
    put(
        "cluster.fault_overhead_frac".into(),
        if clean_s > 0.0 {
            faulted_s / clean_s - 1.0
        } else {
            0.0
        },
        "ratio",
    );
    put(
        "cluster.faults_injected".into(),
        traced
            .samples
            .iter()
            .map(|s| s.faults_injected)
            .sum::<u64>() as f64,
        "count",
    );
    for (i, kind) in ["mostly_equal", "dense"].into_iter().enumerate() {
        put(format!("treadmarks.diff_create_ns.{kind}"), diff[i].0, "ns");
        put(format!("treadmarks.diff_apply_ns.{kind}"), diff[i].1, "ns");
    }
    for (&sys, &over) in dsm.iter().zip(&dsm_overhead) {
        put(
            format!("treadmarks.dsm_overhead_s.{}", system_name(sys)),
            over,
            "s",
        );
        put(
            format!("treadmarks.peak_rss_mb.{}", system_name(sys)),
            peak(sys),
            "MiB",
        );
    }
    put("treadmarks.page_faults".into(), page_faults as f64, "count");
    put(
        "treadmarks.us_per_fault".into(),
        if page_faults > 0 {
            dsm_overhead.iter().sum::<f64>() / page_faults as f64 * 1e6
        } else {
            0.0
        },
        "us",
    );
    put("msgpass.pack_unpack_ns_per_kb".into(), pack, "ns");
    put("msgpass.overhead_s".into(), pvm_overhead, "s");
    put("trace.wall_s".into(), traced.wall_s, "s");
    put("trace.overhead_s".into(), traced.wall_s - plain_wall_s, "s");
    for (name, value, unit) in &m {
        println!("  {name:<36} {value:.6} {unit}");
    }
    print_result(&tally, &m);
    Ok(())
}

/// `--write-golden`: run every run any seed executes, once, and commit
/// their fingerprints.  Refuses if any run fails its invariants.
fn write_golden(args: &Args) -> Result<(), String> {
    let spec = Spec::full(&args.workload)?;
    let setup = Setup {
        order: (0..spec.jobs.len()).collect(),
        golden: Golden::new(Vec::new()),
        seqs: spec
            .apps
            .iter()
            .map(|&w| (w, bench::run_sequential(w, spec.preset)))
            .collect(),
        spec,
    };
    let pass = run_pass(&setup, None);
    let failures: Vec<&String> = pass
        .samples
        .iter()
        .filter_map(|s| s.failure.as_ref())
        .filter(|f| !f.starts_with("no golden for"))
        .collect();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        return Err(format!(
            "{} run(s) failed; golden not written",
            failures.len()
        ));
    }
    let golden = Golden::new(
        pass.samples
            .iter()
            .map(|s| (s.job.label(), s.fingerprint))
            .collect(),
    );
    let path = Path::new(GOLDEN_DIR).join(format!("{}.txt", setup.spec.name));
    let header = format!(
        "perfbench golden for workload {}: FNV-1a-64 of each run's\n\
         bench::run_record_json line, one `<run key> <fingerprint>` per run,\n\
         in canonical order.  Regenerate only for a deliberate change of\n\
         simulated output: python3 perfbench/run.py --workload {} --write-golden\n\
         fold {:016x}",
        setup.spec.name,
        setup.spec.name,
        golden.folded()
    );
    std::fs::write(&path, golden.render(&header))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {} ({} runs)", path.display(), pass.samples.len());
    Ok(())
}

fn main() {
    let started = Instant::now();
    let result = parse_args().and_then(|args| {
        if args.write_golden {
            write_golden(&args)
        } else if args.trace {
            per_layer(&args)
        } else {
            end_to_end(&args, started)
        }
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests;
