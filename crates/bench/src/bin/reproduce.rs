//! Regenerate the tables and figures of the paper — on the paper's testbed
//! or on any scenario the cluster model can express — fanning the
//! independent runs out across cores.
//!
//! ```text
//! cargo run -p bench --release --bin reproduce                       # every protocol, everything
//! cargo run -p bench --release --bin reproduce -- --protocol hlrc   # HLRC backend only
//! cargo run -p bench --release --bin reproduce -- --protocol sc     # sequential-consistency baseline
//! cargo run -p bench --release --bin reproduce -- --list            # protocols, nets, workloads
//! cargo run -p bench --release --bin reproduce -- --full            # paper-scale inputs
//! cargo run -p bench --release --bin reproduce -- --table1
//! cargo run -p bench --release --bin reproduce -- --table2
//! cargo run -p bench --release --bin reproduce -- --figure water-288
//! cargo run -p bench --release --bin reproduce -- --net atm         # 155 Mbit switched ATM
//! cargo run -p bench --release --bin reproduce -- --procs 16        # past the paper's 8
//! cargo run -p bench --release --bin reproduce -- --scenario examples/scenarios/atm_16procs.toml
//! cargo run -p bench --release --bin reproduce -- sweep --vary procs      # speedup past 8
//! cargo run -p bench --release --bin reproduce -- sweep --vary bandwidth  # runtime vs bandwidth
//! cargo run -p bench --release --bin reproduce -- fuzz --seeds 25         # schedule exploration
//! cargo run -p bench --release --bin reproduce -- fuzz --seeds 25 --faults lossy
//! cargo run -p bench --release --bin reproduce -- fuzz --until-failure --faults FILE
//! cargo run -p bench --release --bin reproduce -- --json            # machine-readable dump
//! cargo run -p bench --release --bin reproduce -- --metrics         # latency histograms + profile
//! cargo run -p bench --release --bin reproduce -- --trace trace.json  # Perfetto trace export
//! cargo run -p bench --release --bin reproduce -- --racecheck       # happens-before race detector
//! cargo run -p bench --release --bin reproduce -- --jobs 1          # serial execution
//! cargo run -p bench --release --bin reproduce -- --bench-out BENCH_PR3.json
//! ```
//!
//! Every run of the reproduction matrix is an independent deterministic
//! simulation, so the harness computes the whole requested matrix first —
//! on `--jobs N` worker threads (default: one per core) — and renders the
//! output from the completed matrix afterwards.  Results are stored under
//! their matrix keys, never in completion order, so stdout and JSON are
//! **byte-identical for every `--jobs` value**; the determinism suite and
//! the CI `perf-smoke` job assert exactly that.
//!
//! `--protocol {lrc,hlrc,sc,all}` selects the DSM coherence backend(s)
//! compared against PVM (`all` — or its alias `both`, from the two-backend
//! era — runs every backend).  `--list` prints everything a scenario can
//! name — protocols, systems, net presets, workloads, problem-size presets
//! and sweep axes — and composes with `--json` for a machine-readable
//! catalogue, so scenario authors never grep the source.
//!
//! The scenario flags compose: `--net {fddi,ethernet,atm,ideal}` swaps the
//! interconnect preset, `--procs N` lifts the top processor count (counts
//! beyond 8 step by powers of two to keep the figures readable),
//! `--workload NAME` (repeatable) restricts the workload set, and
//! `--scenario FILE` loads all of the above — plus per-field cost-model
//! overrides — from a TOML or JSON file (schema: docs/EXPERIMENTS.md;
//! commented examples: `examples/scenarios/`).  Explicit CLI flags override
//! the scenario file.
//!
//! `sweep --vary {procs,bandwidth,latency}` renders sensitivity figures
//! instead of the reproduction: speedup versus processor count past the
//! paper's 8, or runtime versus a ×0.25…×4 scaling of one interconnect
//! field, per workload × system (see `bench::sweep`).
//!
//! `fuzz --seeds N` (docs/FUZZING.md) fans the selected workload × system
//! points across N fuzz seeds: seed 0 is the pristine schedule, seed `s`
//! seeds the arbiter's tie-breaking and re-keys the fault plan named by
//! `--faults {lossy,partitioned,FILE}` (default: no faults).  Every run is
//! checked against the invariant battery (`bench::invariants`); failures
//! are shrunk to minimal reproducer scenarios (`bench::shrink`) replayable
//! with `--scenario`, and the exit status is nonzero when anything failed.
//! `--until-failure` stops at the first failing seed.  The report is
//! byte-identical across reruns and `--jobs` widths.
//!
//! A scenario file may itself carry `sched_seed`, `tie_limit` and a
//! `[fault]` section (the shape fuzz reproducers use): the reproduction
//! then runs under that tuning, stamping `sched_seed` / `fault_hash` into
//! `--json` records and the `--bench-out` report — absent at the defaults,
//! so untuned output stays byte-identical.  A scenario whose plan crashes
//! processes replays as a verdict table instead of a matrix (a crashed run
//! has no complete result to tabulate).
//!
//! `--json` replaces the human-readable tables with a machine-readable dump
//! of every run, with every virtual time printed both as a decimal and as
//! its raw f64 bit pattern.  CI runs the dump twice and `diff`s the
//! outputs.  `--bench-out FILE` additionally writes an engine-throughput
//! report: the deterministic totals of the matrix followed by the
//! wall-clock timing of *this* execution.  The `deterministic` section is
//! byte-stable across runs and job counts; the `timing` section is this
//! machine's measurement.
//!
//! The observability flags (docs/OBSERVABILITY.md) compute the same matrix
//! at a recording level: `--metrics` appends the latency-histogram and
//! virtual-time-profile report (and, with `--json`, adds integer quantile
//! fields to every run record); `--trace FILE` records the full structured
//! event stream and writes a Chrome-trace / Perfetto JSON file.  Both
//! outputs are stamped in virtual time, so they are byte-identical across
//! reruns and `--jobs` values — CI diffs the trace exactly as it diffs the
//! JSON dump.  Sweeps always run at metrics level: their tables include a
//! per-cell p99 lock-acquire latency column.
//!
//! `--racecheck` (docs/ANALYSIS.md) computes the same matrix with the
//! happens-before data-race detector enabled on every DSM run and appends
//! one report line per checked run plus a `racecheck summary:` total (with
//! `--json`, per-run `races` fields instead).  Like the observability
//! levels the detector lives outside the cost model, so every simulated
//! number stays bit-identical to a `--racecheck`-free run; the exit status
//! is nonzero when any race is found.
//!
//! An argument starting with `--` that is not one of the flags above (and
//! is not a flag's value) is an error: the harness exits 1 naming it rather
//! than silently running without it.

use apps::runner::System;
use apps::Workload;
use bench::fuzz::{run_fuzz, FuzzSpec};
use bench::scenario::{workload_by_name, ResolvedScenario};
use bench::sweep::{Sweep, Vary};
use bench::{
    exec, invariants, obs, problem_size, proc_series, render_race_reports, run_matrix_tuned,
    run_record_json, run_sequential, try_run_parallel_on, Preset, RunKey, RunMatrix, RunTuning,
};
use cluster::{AnalysisLevel, FaultPlan, NetModel, NetPreset, ObsLevel, Scenario};
use treadmarks::ProtocolKind;

fn table1(matrix: &RunMatrix, workloads: &[Workload]) {
    println!(
        "\nTable 1: Sequential Time of Applications ({:?} preset)",
        matrix.preset
    );
    println!(
        "{:<12} {:<34} {:>12}",
        "Program", "Problem Size", "Time (s)"
    );
    for &w in workloads {
        let seq = matrix.sequential(w);
        println!(
            "{:<12} {:<34} {:>12.2}",
            w.name(),
            problem_size(w, matrix.preset),
            seq.time
        );
    }
}

fn figure(matrix: &RunMatrix, w: Workload, net: NetModel, max_procs: usize, systems: &[System]) {
    let seq = matrix.sequential(w);
    println!(
        "\nFigure {}: {} speedups (net {}, sequential time {:.2}s)",
        w.figure(),
        w.name(),
        net.label(),
        seq.time
    );
    print!("{:>6}", "procs");
    for sys in systems {
        print!(" {sys:>12}");
    }
    println!();
    for n in proc_series(max_procs) {
        for &sys in systems {
            let run = matrix.run(&RunKey::new(w, sys, net, n));
            assert!(
                (run.checksum - seq.checksum).abs() <= seq.checksum.abs() * 1e-6 + 1e-6,
                "{}: {} checksum mismatch at {n} processes",
                w.name(),
                run.system
            );
        }
        print!("{n:>6}");
        for &sys in systems {
            print!(
                " {:>12.2}",
                matrix.run(&RunKey::new(w, sys, net, n)).speedup(seq.time)
            );
        }
        println!();
    }
}

fn table2(
    matrix: &RunMatrix,
    net: NetModel,
    procs: usize,
    systems: &[System],
    workloads: &[Workload],
) {
    println!(
        "\nTable 2: Messages and Data at {procs} Processors (net {}, {:?} preset)",
        net.label(),
        matrix.preset
    );
    print!("{:<12}", "Program");
    for sys in systems {
        print!(" {:>14} {:>14}", format!("{sys} msgs"), format!("{sys} KB"));
    }
    println!();
    let mut protocol_lines: Vec<String> = Vec::new();
    for &w in workloads {
        print!("{:<12}", w.name());
        for &sys in systems {
            let run = matrix.run(&RunKey::new(w, sys, net, procs));
            print!(" {:>14} {:>14.0}", run.messages, run.kilobytes);
            if let (System::TreadMarks(protocol), Some(stats)) = (sys, &run.tmk_stats) {
                // Each backend renders its own counter set (its Table-2
                // stats contribution), so a new protocol never edits the
                // harness.
                protocol_lines.push(format!(
                    "{:<12} {:<5} {}",
                    w.name(),
                    protocol.name(),
                    protocol.backend().counter_summary(stats),
                ));
            }
        }
        println!();
    }
    if !protocol_lines.is_empty() {
        println!("\nPer-protocol DSM runtime counters at {procs} processors:");
        for line in protocol_lines {
            println!("  {line}");
        }
    }
}

/// Machine-readable dump of the full reproduction: every selected workload
/// at each processor count under each selected system, plus the sequential
/// baselines.  Deterministic execution makes the output byte-stable.
fn json_dump(
    matrix: &RunMatrix,
    net: NetModel,
    proc_counts: &[usize],
    systems: &[System],
    workloads: &[Workload],
) {
    println!("{{");
    println!("  \"preset\": \"{:?}\",", matrix.preset);
    println!("  \"net\": \"{}\",", net.label());
    println!("  \"sequential\": [");
    let seqs: Vec<String> = workloads
        .iter()
        .map(|&w| {
            let seq = matrix.sequential(w);
            format!(
                "    {{\"workload\": \"{}\", \"time\": {}, \"time_bits\": \"{:016x}\", \
                 \"checksum_bits\": \"{:016x}\"}}",
                w.name(),
                seq.time,
                seq.time.to_bits(),
                seq.checksum.to_bits()
            )
        })
        .collect();
    println!("{}", seqs.join(",\n"));
    println!("  ],");
    println!("  \"runs\": [");
    let mut recs = Vec::new();
    for &w in workloads {
        for &n in proc_counts {
            for &sys in systems {
                let key = RunKey::new(w, sys, net, n);
                recs.push(format!("    {}", run_record_json(&key, matrix.run(&key))));
            }
        }
    }
    println!("{}", recs.join(",\n"));
    println!("  ]");
    println!("}}");
}

/// The engine-throughput report written by `--bench-out`: deterministic
/// matrix totals first (byte-stable across runs and job counts — CI diffs
/// them), wall-clock timing of this execution second.
fn bench_report(matrix: &RunMatrix, tuning: &RunTuning, jobs: usize, wall_seconds: f64) -> String {
    let mut events = 0u64; // transport messages processed (sent == consumed)
    let mut virtual_seconds = 0.0f64;
    let mut checksum_xor = 0u64;
    for (_, run) in matrix.runs() {
        events += run.proc_stats.iter().map(|s| s.messages_sent).sum::<u64>();
        virtual_seconds += run.time;
        checksum_xor ^= run.checksum.to_bits();
    }
    // The tuning stamps appear only when non-default, so an untuned report
    // stays byte-identical to every report the harness ever produced.
    let mut tuning_fields = String::new();
    if tuning.sched_seed != 0 {
        tuning_fields.push_str(&format!("    \"sched_seed\": {},\n", tuning.sched_seed));
    }
    if tuning.fault.hash() != 0 {
        tuning_fields.push_str(&format!(
            "    \"fault_plan_hash\": \"{:016x}\",\n",
            tuning.fault.hash()
        ));
    }
    format!(
        "{{\n  \"preset\": \"{:?}\",\n  \"deterministic\": {{\n{tuning_fields}    \"runs\": {},\n    \
         \"total_messages\": {},\n    \"total_virtual_seconds\": {},\n    \
         \"total_virtual_seconds_bits\": \"{:016x}\",\n    \"checksum_bits_xor\": \"{:016x}\"\n  }},\n  \
         \"timing\": {{\n    \"jobs\": {},\n    \"wall_seconds\": {:.3},\n    \
         \"events_per_second\": {:.0},\n    \"virtual_seconds_per_wall_second\": {:.2}\n  }}\n}}\n",
        matrix.preset,
        matrix.len(),
        events,
        virtual_seconds,
        virtual_seconds.to_bits(),
        checksum_xor,
        jobs,
        wall_seconds,
        events as f64 / wall_seconds,
        virtual_seconds / wall_seconds,
    )
}

/// `--list`: everything a scenario (or the CLI) can name, so authors stop
/// grepping the source.  `--json` renders the same catalogue
/// machine-readably.
fn list_catalogue(json: bool) {
    let protocols: Vec<ProtocolKind> = ProtocolKind::all().to_vec();
    let systems: Vec<System> = System::all().to_vec();
    let presets = ["tiny", "scaled", "paper"];
    let axes = ["procs", "bandwidth", "latency"];
    if json {
        println!("{{");
        let protos: Vec<String> = protocols
            .iter()
            .map(|p| {
                format!(
                    "    {{\"name\": \"{}\", \"system_label\": \"{}\", \"description\": \"{}\"}}",
                    p.name(),
                    p.system_label(),
                    p.describe()
                )
            })
            .collect();
        println!("  \"protocols\": [\n{}\n  ],", protos.join(",\n"));
        let sys: Vec<String> = systems.iter().map(|s| format!("\"{s}\"")).collect();
        println!("  \"systems\": [{}],", sys.join(", "));
        let nets: Vec<String> = NetPreset::all()
            .iter()
            .map(|n| {
                let cfg = n.config(8);
                format!(
                    "    {{\"name\": \"{}\", \"bandwidth_bytes_per_s\": {}, \"latency_s\": {}, \
                     \"shared_medium\": {}}}",
                    n.name(),
                    cfg.bandwidth,
                    cfg.latency,
                    cfg.shared_medium
                )
            })
            .collect();
        println!("  \"nets\": [\n{}\n  ],", nets.join(",\n"));
        let loads: Vec<String> = Workload::all()
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": \"{}\", \"figure\": {}}}",
                    w.name(),
                    w.figure()
                )
            })
            .collect();
        println!("  \"workloads\": [\n{}\n  ],", loads.join(",\n"));
        let quoted = |xs: &[&str]| {
            xs.iter()
                .map(|x| format!("\"{x}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!("  \"presets\": [{}],", quoted(&presets));
        println!("  \"sweep_axes\": [{}],", quoted(&axes));
        println!("  \"execution_knobs\": [{}],", quoted(&["jobs"]));
        let kinds: Vec<String> = FaultPlan::kinds()
            .iter()
            .map(|(name, desc)| {
                format!("    {{\"name\": \"{name}\", \"description\": \"{desc}\"}}")
            })
            .collect();
        println!("  \"fault_kinds\": [\n{}\n  ]", kinds.join(",\n"));
        println!("}}");
        return;
    }
    println!("Protocols (--protocol NAME, or `all`):");
    for p in &protocols {
        println!(
            "  {:<6} {:<12} {}",
            p.name(),
            p.system_label(),
            p.describe()
        );
    }
    println!("\nSystems (scenario `systems = [...]`):");
    for s in &systems {
        println!("  {s}");
    }
    println!("\nNet presets (--net NAME, scenario `net = \"NAME\"`):");
    for n in NetPreset::all() {
        let cfg = n.config(8);
        println!(
            "  {:<9} {:>12.0} B/s bandwidth, {:>9.1} us latency, {}",
            n.name(),
            cfg.bandwidth,
            cfg.latency * 1e6,
            if cfg.shared_medium {
                "shared medium"
            } else {
                "full bisection"
            }
        );
    }
    println!("\nWorkloads (--workload NAME, repeatable):");
    for w in Workload::all() {
        println!("  {:<12} (Figure {})", w.name(), w.figure());
    }
    println!("\nProblem-size presets: {}", presets.join(", "));
    println!("Sweep axes (sweep --vary AXIS): {}", axes.join(", "));
    println!("Execution knobs (byte-identical output at every value): --jobs N");
    println!("\nFault kinds (scenario [fault] section; fuzz --faults {{lossy,partitioned,FILE}}):");
    for (name, desc) in FaultPlan::kinds() {
        println!("  {name:<12} {desc}");
    }
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Replay a scenario whose fault plan crashes processes: instead of a
/// reproduction matrix (impossible — crashed runs have no results to
/// tabulate), classify every workload × system point through the invariant
/// battery and print one verdict line each, naming the fault context.  The
/// fan uses the ordered executor, so the table is byte-identical across
/// `--jobs` widths.
fn replay_verdicts(
    preset: Preset,
    net: NetModel,
    nprocs: usize,
    workloads: &[Workload],
    systems: &[System],
    tuning: &RunTuning,
    jobs: usize,
) {
    println!(
        "Crash-plan scenario: verdict replay at {nprocs} processes (net {}, {preset:?} preset)",
        net.label()
    );
    let seqs: Vec<_> = workloads
        .iter()
        .map(|&w| (w, run_sequential(w, preset)))
        .collect();
    let points: Vec<(Workload, System)> = workloads
        .iter()
        .flat_map(|&w| systems.iter().map(move |&sys| (w, sys)))
        .collect();
    let tasks: Vec<_> = points
        .iter()
        .map(|&(w, sys)| {
            let seq = &seqs.iter().find(|(k, _)| *k == w).unwrap().1;
            move || {
                let mut cfg = net.config(nprocs);
                tuning.apply(&mut cfg);
                invariants::verdict(try_run_parallel_on(w, sys, &cfg, preset), seq)
            }
        })
        .collect();
    for (&(w, sys), verdict) in points.iter().zip(exec::run_ordered(jobs, tasks)) {
        println!(
            "  {:<12} {:<10} {}",
            w.name(),
            sys.to_string(),
            verdict.summary()
        );
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let sweep_mode = args.first().map(String::as_str) == Some("sweep");
    let fuzz_mode = args.first().map(String::as_str) == Some("fuzz");
    if sweep_mode || fuzz_mode {
        args.remove(0);
    }

    let wants = |flag: &str| args.iter().any(|a| a == flag);
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    const VALUE_FLAGS: [&str; 12] = [
        "--protocol",
        "--jobs",
        "--bench-out",
        "--net",
        "--procs",
        "--scenario",
        "--vary",
        "--workload",
        "--figure",
        "--trace",
        "--seeds",
        "--faults",
    ];
    const BOOL_FLAGS: [&str; 9] = [
        "--list",
        "--json",
        "--full",
        "--tiny",
        "--metrics",
        "--racecheck",
        "--table1",
        "--table2",
        "--until-failure",
    ];
    for flag in VALUE_FLAGS {
        if args.last().map(String::as_str) == Some(flag) {
            fail(format!("{flag} requires a value"));
        }
    }
    for (i, arg) in args.iter().enumerate() {
        let is_flag_value = i > 0 && VALUE_FLAGS.contains(&args[i - 1].as_str());
        if is_flag_value {
            continue;
        }
        // A misspelt or retired flag must not silently fall back to the
        // default it was meant to override.
        if arg.starts_with("--")
            && !VALUE_FLAGS.contains(&arg.as_str())
            && !BOOL_FLAGS.contains(&arg.as_str())
        {
            fail(format!("unknown flag {arg}"));
        }
        // `sweep` and `fuzz` are only subcommands in first position; catch
        // them anywhere else (except as a flag's value, e.g. a `--bench-out
        // sweep` filename) rather than silently running the full
        // reproduction.
        if !sweep_mode && !fuzz_mode && (arg == "sweep" || arg == "fuzz") {
            fail(format!(
                "`{arg}` must be the first argument: `reproduce {arg} ...`"
            ));
        }
    }

    if wants("--list") {
        if sweep_mode {
            fail("--list does not apply to sweep mode");
        }
        list_catalogue(wants("--json"));
        return;
    }

    // Defaults shared by the CLI and scenario resolution: sweeps default
    // to a top of 16 processes so `--vary procs` goes past the paper's 8
    // even when a scenario file leaves `procs` unset; fuzz campaigns
    // default to 4 so a many-seed sweep stays fast.
    let default_procs = if sweep_mode {
        16
    } else if fuzz_mode {
        4
    } else {
        8
    };

    // The scenario file (if any) supplies defaults; explicit CLI flags
    // override its individual fields below.
    let scenario: Option<ResolvedScenario> = flag_value("--scenario").map(|path| {
        let parsed = Scenario::from_path(std::path::Path::new(path)).unwrap_or_else(|e| fail(e));
        ResolvedScenario::resolve(&parsed, Preset::Scaled, default_procs)
            .unwrap_or_else(|e| fail(e))
    });

    let preset = if wants("--full") {
        Preset::Paper
    } else if wants("--tiny") {
        Preset::Tiny
    } else {
        scenario
            .as_ref()
            .map(|s| s.preset)
            .unwrap_or(Preset::Scaled)
    };
    let net: NetModel = match flag_value("--net") {
        Some(name) => match name.parse::<NetPreset>() {
            Ok(preset) => NetModel::preset(preset),
            Err(e) => fail(e),
        },
        None => scenario
            .as_ref()
            .map(|s| s.net)
            .unwrap_or(NetModel::preset(NetPreset::Fddi)),
    };
    let max_procs: usize = match flag_value("--procs") {
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => fail(format!("--procs requires a positive integer, got '{v}'")),
        },
        None => scenario
            .as_ref()
            .map(|s| s.max_procs)
            .unwrap_or(default_procs),
    };
    let systems: Vec<System> = match flag_value("--protocol").map(String::as_str) {
        None => scenario
            .as_ref()
            .map(|s| s.systems.clone())
            .unwrap_or_else(|| System::all().to_vec()),
        Some("both") | Some("all") => ProtocolKind::all()
            .iter()
            .map(|&p| System::TreadMarks(p))
            .chain(std::iter::once(System::Pvm))
            .collect(),
        Some(name) => match name.parse::<ProtocolKind>() {
            Ok(kind) => vec![System::TreadMarks(kind), System::Pvm],
            Err(err) => fail(err),
        },
    };
    let jobs: usize = match flag_value("--jobs") {
        None => exec::default_jobs(),
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => fail(format!("--jobs requires a positive integer, got '{v}'")),
        },
    };
    let bench_out = flag_value("--bench-out").cloned();
    let trace_out = flag_value("--trace").cloned();
    let want_metrics = wants("--metrics");
    // Sweeps always record at metrics level (their tables carry a p99
    // lock-acquire column); the reproduction records only when asked, so
    // the default path stays on the zero-cost null sink.
    let obs_level = if trace_out.is_some() {
        ObsLevel::Trace
    } else if want_metrics || sweep_mode {
        ObsLevel::Metrics
    } else {
        ObsLevel::Off
    };
    let analysis_level = if wants("--racecheck") {
        AnalysisLevel::Race
    } else {
        AnalysisLevel::Off
    };

    // `--workload` (repeatable) narrows the set; a scenario file's subset
    // applies when no explicit flag does.
    let workload_flags: Vec<Workload> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--workload")
        .map(|(i, _)| {
            let name = args.get(i + 1).expect("checked above");
            workload_by_name(name).unwrap_or_else(|e| fail(e))
        })
        .collect();
    let selected_workloads: Vec<Workload> = if !workload_flags.is_empty() {
        Workload::all()
            .into_iter()
            .filter(|w| workload_flags.contains(w))
            .collect()
    } else {
        scenario
            .as_ref()
            .map(|s| s.workloads.clone())
            .unwrap_or_else(|| Workload::all().to_vec())
    };

    if fuzz_mode {
        // Fuzz renders its own deterministic report; the reproduction-only
        // output selectors have no meaning here.
        for flag in [
            "--json",
            "--table1",
            "--table2",
            "--figure",
            "--trace",
            "--racecheck",
            "--metrics",
            "--bench-out",
            "--vary",
        ] {
            if wants(flag) {
                fail(format!("{flag} does not apply to fuzz mode"));
            }
        }
        let seeds: u64 = match flag_value("--seeds") {
            None => 10,
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => n,
                _ => fail(format!("--seeds requires a positive integer, got '{v}'")),
            },
        };
        let plan: FaultPlan = match flag_value("--faults").map(String::as_str) {
            // No --faults: fuzz the scenario's plan if one was loaded,
            // otherwise pure schedule exploration on a fault-free cluster.
            None => scenario
                .as_ref()
                .map(|s| s.tuning.fault.clone())
                .unwrap_or_default(),
            Some("lossy") => FaultPlan::lossy(1),
            Some("partition") | Some("partitioned") => FaultPlan::partitioned(1, max_procs),
            Some(path) => {
                let parsed =
                    Scenario::from_path(std::path::Path::new(path)).unwrap_or_else(|e| fail(e));
                parsed.fault.unwrap_or_else(|| {
                    fail(format!(
                        "{path} carries no [fault] section; \
                         --faults takes `lossy`, `partitioned` or a scenario file with [fault]"
                    ))
                })
            }
        };
        let spec = FuzzSpec {
            preset,
            net,
            nprocs: max_procs,
            workloads: selected_workloads,
            systems,
            seeds,
            plan,
            until_failure: wants("--until-failure"),
            jobs,
        };
        let out = run_fuzz(&spec);
        print!("{}", out.report);
        // Like --racecheck: a campaign that found anything fails the
        // invocation, after the report (and every reproducer) is printed.
        if !out.findings.is_empty() {
            std::process::exit(1);
        }
        return;
    }
    for flag in ["--seeds", "--faults", "--until-failure"] {
        if wants(flag) {
            fail(format!(
                "{flag} only applies to fuzz mode: `reproduce fuzz ...`"
            ));
        }
    }

    if sweep_mode {
        if trace_out.is_some() {
            fail("--trace only applies to the reproduction; sweeps record at metrics level");
        }
        if analysis_level.enabled() {
            fail("--racecheck only applies to the reproduction; sweeps have no race rendering");
        }
        // The reproduction-only output selectors have no sweep rendering;
        // reject them rather than silently printing the ASCII figures to a
        // consumer that asked for a table or the JSON dump.
        for flag in ["--json", "--table1", "--table2", "--figure"] {
            if wants(flag) {
                fail(format!(
                    "{flag} only applies to the reproduction; sweep renders its own figures \
                     (use --workload to narrow a sweep)"
                ));
            }
        }
        let vary: Vary = match flag_value("--vary") {
            Some(v) => v.parse().unwrap_or_else(|e: String| fail(e)),
            None => Vary::Procs,
        };
        let sweep = Sweep {
            vary,
            preset,
            base: net,
            workloads: selected_workloads,
            systems,
            max_procs,
        };
        let keys = sweep.keys();
        // lint:allow(wall-clock): times this machine's execution for the --bench-out report
        let started = std::time::Instant::now();
        let matrix = run_matrix_tuned(
            preset,
            &sweep.workloads,
            &keys,
            jobs,
            obs_level,
            AnalysisLevel::Off,
            &RunTuning::default(),
        );
        let wall_seconds = started.elapsed().as_secs_f64();
        print!("{}", sweep.render(&matrix));
        if want_metrics {
            print!("\n{}", obs::metrics_report(&matrix));
        }
        if let Some(path) = bench_out {
            let report = bench_report(&matrix, &RunTuning::default(), jobs, wall_seconds);
            if let Err(err) = std::fs::write(&path, &report) {
                fail(format!("cannot write {path}: {err}"));
            }
            eprintln!("bench report written to {path}");
        }
        return;
    }

    if wants("--vary") {
        fail("--vary only applies to sweep mode; run `reproduce sweep --vary ...`");
    }

    // The scenario's tuning (schedule seed, tie cap, fault plan) rides on
    // every run of the reproduction.  A plan that crashes processes cannot
    // fill a matrix — the crashed runs have no results to tabulate — so it
    // replays as a verdict table instead: one classified outcome per
    // workload × system, naming the fault context.  This is how a shrunk
    // fuzz reproducer with a crash is replayed.
    let tuning = scenario
        .as_ref()
        .map(|s| s.tuning.clone())
        .unwrap_or_default();
    if !tuning.fault.crashes.is_empty() {
        replay_verdicts(
            preset,
            net,
            max_procs,
            &selected_workloads,
            &systems,
            &tuning,
            jobs,
        );
        return;
    }
    let want_json = wants("--json");
    let figure_arg = flag_value("--figure");
    let run_all = !want_json && !wants("--table1") && !wants("--table2") && figure_arg.is_none();
    let want_table1 = wants("--table1") || run_all;
    let want_table2 = wants("--table2") || run_all;
    // `--json` dumps the full matrix and ignores `--figure`/`--table*`,
    // exactly as it always has.
    let figure_workloads: Vec<Workload> = if want_json || run_all {
        selected_workloads.clone()
    } else if let Some(name) = figure_arg {
        match workload_by_name(name) {
            Ok(w) => vec![w],
            Err(e) => fail(e),
        }
    } else {
        Vec::new()
    };

    // Assemble the requested matrix: sequential baselines plus parallel
    // runs.  (Everything below renders from this precomputed matrix.)
    let mut seq_workloads: Vec<Workload> = Vec::new();
    if want_table1 || want_json {
        seq_workloads.extend(&selected_workloads);
    }
    seq_workloads.extend(&figure_workloads);
    let mut keys: Vec<RunKey> = Vec::new();
    // The JSON dump reports powers of two (the paper's 1/2/4/8, extended
    // by --procs) plus the requested top count itself; the figures report
    // the full paper series plus the extension.
    let json_procs: Vec<usize> = {
        let mut counts = Vec::new();
        let mut p = 1usize;
        while p <= max_procs {
            counts.push(p);
            p *= 2;
        }
        if counts.last() != Some(&max_procs) {
            counts.push(max_procs);
        }
        counts
    };
    for &w in &figure_workloads {
        let counts = if want_json {
            json_procs.clone()
        } else {
            proc_series(max_procs)
        };
        for n in counts {
            for &sys in &systems {
                keys.push(RunKey::new(w, sys, net, n));
            }
        }
    }
    if want_table2 {
        for &w in &selected_workloads {
            for &sys in &systems {
                keys.push(RunKey::new(w, sys, net, max_procs));
            }
        }
    }

    // lint:allow(wall-clock): times this machine's execution for the --bench-out report
    let started = std::time::Instant::now();
    let matrix = run_matrix_tuned(
        preset,
        &seq_workloads,
        &keys,
        jobs,
        obs_level,
        analysis_level,
        &tuning,
    );
    let wall_seconds = started.elapsed().as_secs_f64();

    if want_json {
        json_dump(&matrix, net, &json_procs, &systems, &selected_workloads);
    } else {
        if want_table1 {
            table1(&matrix, &selected_workloads);
        }
        for &w in &figure_workloads {
            figure(&matrix, w, net, max_procs, &systems);
        }
        if want_table2 {
            table2(&matrix, net, max_procs, &systems, &selected_workloads);
        }
        if want_metrics {
            print!("\n{}", obs::metrics_report(&matrix));
        }
    }

    if analysis_level.enabled() {
        let report = render_race_reports(&matrix);
        if want_json {
            // stdout is a pure JSON document (the per-run `races` fields are
            // already in it), so the readable report goes to stderr.
            eprint!("{report}");
        } else {
            print!("\nRace check (happens-before, byte-range granularity):\n{report}");
        }
    }

    if let Some(path) = trace_out {
        let trace = obs::chrome_trace_json(&matrix);
        if let Err(err) = obs::validate_json(&trace) {
            fail(format!("internal error: exported trace is invalid: {err}"));
        }
        if let Err(err) = std::fs::write(&path, &trace) {
            fail(format!("cannot write {path}: {err}"));
        }
        eprintln!("trace written to {path} (open in https://ui.perfetto.dev)");
    }

    if let Some(path) = bench_out {
        let report = bench_report(&matrix, &tuning, jobs, wall_seconds);
        if let Err(err) = std::fs::write(&path, &report) {
            fail(format!("cannot write {path}: {err}"));
        }
        eprintln!("bench report written to {path}");
    }

    // A racecheck run that found races fails the invocation — after every
    // requested output has been written, so the report is never lost.
    let races_found = matrix
        .runs()
        .any(|(_, r)| r.race.as_ref().is_some_and(|rep| !rep.is_race_free()));
    if races_found {
        std::process::exit(1);
    }
}
