//! Benchmark of record for the `pqs-sim` simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv_read_mostly --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One invocation runs one workload: it sets the workload up a few times
//! (reporting the median set-up time), then repeats timed iterations for
//! `--seconds` host seconds and checks every output.  With `--trace 0` the
//! last line of stdout is a JSON object holding the end-to-end metrics;
//! with `--trace 1` it holds the per-layer metrics instead, measured by
//! timing calls into each layer from here, and the spans recorded around
//! those calls are written under the cargo target directory.  See
//! `perfbench/README.md`.

mod layers;
mod output;
mod stats;
mod trace;
mod workloads;

use layers::Stages;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Checks, Prepared, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for confirming a claimed gain.
const HELD_OUT_SEED: u64 = 7919;
/// Set-up passes per invocation; `setup_s` is their median.
const SETUP_REPEATS: u32 = 3;
/// Timed iterations run even when `--seconds` has already elapsed.
const MIN_ITERATIONS: usize = 3;
/// Candidate tail percentiles for the per-run host time.
const TAIL_PERCENTILES: [f64; 4] = [75.0, 90.0, 99.0, 99.9];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N (default {DEFAULT_SEED}; held-out \
         {HELD_OUT_SEED})] [--seconds S (default 10)] [--trace 0|1 (default 0)]",
        names.join("|")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!("provenance: {}", provenance(&args));
    let mut tr = Tracer::new(args.trace);
    let mut untraced = Tracer::new(false);
    let mut checks = Checks::default();

    // Set-up: workload start to the first timed run.  Each pass builds the
    // quorum system (and solves the plan), the configurations and failure
    // plans, and runs one untimed warm-up iteration.
    let mut setup_s = Vec::new();
    let mut first: Option<Vec<workloads::RunResult>> = None;
    let mut prepared = None;
    for pass in 0..SETUP_REPEATS {
        tr.set_run(pass);
        let start = Instant::now();
        let open = tr.begin("benchmark.setup");
        let p = Prepared::build(w, args.seed, &mut tr);
        let warm = p.iterate(&mut tr);
        tr.end(open);
        setup_s.push(start.elapsed().as_secs_f64());
        match &first {
            None => p.check_outputs(&warm, &mut checks),
            Some(first) => checks.check_repeat(first, &warm),
        }
        first.get_or_insert(warm);
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up pass");
    let first = first.expect("at least one set-up pass");

    // Timed iterations.  A traced invocation alternates traced and
    // untraced iterations, so the difference of their medians is the
    // tracing overhead.
    let mut iteration_s = Vec::new();
    let mut traced_iteration_s = Vec::new();
    let mut run_s = Vec::new();
    let mut stages = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_ITERATIONS || start.elapsed() < budget {
        let traced = args.trace && i % 2 == 1;
        let t = if traced { &mut tr } else { &mut untraced };
        t.set_run(SETUP_REPEATS + i as u32);
        let open = t.begin("benchmark.iteration");
        let results = prepared.iterate(t);
        t.end(open);
        checks.check_repeat(&first, &results);
        let host_s: f64 = results.iter().map(|r| r.host_s).sum();
        if traced {
            traced_iteration_s.push(host_s);
        } else {
            iteration_s.push(host_s);
            run_s.extend(results.iter().map(|r| r.host_s));
        }
        stages.push(Stages::of(&results));
        i += 1;
    }
    let measured = start.elapsed().as_secs_f64();

    let counts = layers::Counts::of(&first);
    let iteration_p50 = stats::median(&iteration_s);
    println!(
        "workload {} seed {}: {} runs per iteration, {} timed iterations in {measured:.2} s \
         ({} events, {} operations per iteration)",
        w.name(),
        args.seed,
        prepared.runs.len(),
        i,
        counts.events,
        counts.ops
    );
    let (q1, q2, q3) = stats::quartiles(&run_s);
    let tail = stats::highest_reportable_percentile(run_s.len(), &TAIL_PERCENTILES).map_or(
        "no tail percentile (fewer than 10 samples beyond p75)".to_string(),
        |p| format!("p{p} {:.6} s", stats::percentile(&run_s, p)),
    );
    println!(
        "run_s over {} run_with_stats calls: q1 {q1:.6} s, p50 {q2:.6} s, q3 {q3:.6} s, {tail}",
        run_s.len()
    );
    let (s1, s2, s3) = stats::quartiles(&setup_s);
    println!("setup_s over {SETUP_REPEATS} passes: q1 {s1:.6} s, p50 {s2:.6} s, q3 {s3:.6} s");
    println!(
        "checks: {} attempted, {} failed, error_rate {}",
        checks.attempted,
        checks.failed(),
        checks.failed() as f64 / checks.attempted as f64
    );
    for failure in checks.failures.iter().take(10) {
        eprintln!("check failed: {failure}");
    }

    let (table, values) = if args.trace {
        let mut values = layers::per_layer(&prepared, &first, &stages, args.seed, &mut tr);
        let overhead = stats::median(&traced_iteration_s) - iteration_p50;
        values.insert("trace.overhead_s", overhead);
        println!(
            "tracing overhead: {overhead:.6} s per iteration ({:.3}% of the untraced median {iteration_p50:.6} s)",
            100.0 * overhead / iteration_p50
        );
        report_spans(&tr, &args);
        (&output::PER_LAYER[..], values)
    } else {
        let values = BTreeMap::from([
            ("events_per_s", counts.events as f64 / iteration_p50),
            ("ops_per_s", counts.ops as f64 / iteration_p50),
            ("run_s_p50", q2),
            ("setup_s", s2),
            ("peak_rss_mb", peak_rss_mb()),
        ]);
        (&output::END_TO_END[..], values)
    };
    for m in table {
        println!("{:<32} {:>18} {}", m.name, values[m.name], m.unit);
    }
    println!(
        "{}",
        output::result_line(
            checks.failed() == 0,
            checks.attempted,
            checks.failed(),
            table,
            &values
        )
    );
    ExitCode::SUCCESS
}

/// Prints per-span self times and writes every span to a TSV file under
/// the cargo target directory.
fn report_spans(tr: &Tracer, args: &Args) {
    let mut selfs: Vec<(&str, f64)> = trace::self_times(tr.spans()).into_iter().collect();
    selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("span self times ({} spans):", tr.spans().len());
    for (name, s) in selfs {
        println!("  {name:<32} {s:.6} s");
    }
    let dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("perfbench");
    let path = dir.join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tr.write_tsv(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .expect("VmHWM is readable from /proc/self/status")
}

/// Host and build stamp: nproc, CPU model, rustc version, git commit and
/// dirty flag, and the run's arguments, as one JSON object.
fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_output("git", &["rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and_then(|_| command_output("git", &["status", "--porcelain"]))
        .map(|s| (!s.is_empty()).to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\", \
         \"git_dirty\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        cpu.replace('"', "'"),
        rustc.replace('"', "'"),
        commit.as_deref().unwrap_or("unknown"),
        dirty.as_deref().unwrap_or("null"),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

/// Trimmed stdout of a successful command, or `None`.  Git is kept from
/// searching above the working directory for a repository.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(parent) = cwd.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}
