//! The one benchmark of the MLMD stack.
//!
//! ```text
//! mlmd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One process runs one workload: set-up (timed, repeated), a measured
//! window of `--seconds`, output checks on every operation, then a
//! human-readable table and — as the last line of standard output — one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, measured with tracing
//! off; with `--trace 1` the workload is replayed with spans around every
//! call into a layer and the metrics are the per-layer table. The exit
//! code is non-zero when any operation failed or any check did not hold.

mod digest;
mod inputs;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use inputs::{Inputs, JobSource, BLOCK};
use metrics::{MetricDef, Report, END_TO_END, PER_LAYER};
use spans::{inclusive_share, LayerTable, Tracer};
use stats::{end_to_end, median, samples_beyond, tail_percentile, EndToEnd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::service::{run_stream, StopAfter, StreamStats};
use workloads::Iteration;

/// Set-up is repeated this many times and `setup_s` is the median, so
/// one slow page fault does not decide it.
const SETUP_REPS: usize = 5;
/// Discarded operations before the measured window, so caches are full
/// and the process ground-state cache is warm.
const WARMUPS: usize = 2;
/// An iteration workload with more failed operations than this is
/// abandoned: the run has already failed, and time is bounded.
const MAX_FAILURES: u64 = 5;
/// Designed tail percentile of the iteration workloads (tens of samples
/// per run) and of the job stream (thousands).
const ITERATION_TAIL: f64 = 75.0;
const STREAM_TAIL: f64 = 99.0;
/// Jobs of the stream that supplies the `service.*` rows in the traced
/// run of a workload other than `service_mix`.
const SERVICE_PROBE_JOBS: usize = 3 * BLOCK;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// 2 iterations or 200 jobs, one set-up, no warm-up: every check on,
    /// nothing measured well. For CI.
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// Operations attempted and failed. An operation fails when it panics,
/// is refused, never resolves, or fails an output check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            println!("FAILED {what}: {why}");
        }
    }
}

/// Run `f`, turning a panic into an `Err` at the benchmark's boundary.
fn guard<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let text = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        format!("panicked: {text}")
    })
}

/// One guarded operation: its wall-clock, and its digest checked against
/// the first digest this run produced.
struct Stable {
    reference: Option<u64>,
}

impl Stable {
    fn timed(
        &mut self,
        tally: &mut Tally,
        what: &str,
        op: impl FnOnce() -> Result<u64, String>,
    ) -> Option<f64> {
        let start = Instant::now();
        let outcome = guard(op).and_then(|r| r);
        let secs = start.elapsed().as_secs_f64();
        let outcome = outcome.and_then(|digest| {
            let reference = *self.reference.get_or_insert(digest);
            if digest == reference {
                Ok(())
            } else {
                Err(format!(
                    "digest {digest:#x} differs from the first result's {reference:#x}"
                ))
            }
        });
        let ok = outcome.is_ok();
        tally.record(what, outcome);
        ok.then_some(secs)
    }
}

/// Set-up, repeated; returns the last prepared workload and the median.
fn timed_setup<T>(
    reps: usize,
    tally: &mut Tally,
    mut setup: impl FnMut() -> T,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let outcome = guard(&mut setup);
        times.push(start.elapsed().as_secs_f64());
        match outcome {
            Ok(ready) => {
                tally.record("setup", Ok(()));
                last = Some(ready);
            }
            Err(why) => tally.record("setup", Err(why)),
        }
    }
    let ready = last.ok_or("set-up never succeeded")?;
    Ok((ready, median(&times)))
}

fn set_end_to_end(report: &mut Report, setup_s: f64, e: &EndToEnd) {
    report.set("setup_s", setup_s);
    report.set("wall_s", e.wall_s);
    report.set("wall_p75_s", e.wall_p75_s);
    report.set("jobs_per_s", e.jobs_per_s);
    report.set("latency_p50_ms", e.latency_p50_ms);
    report.set("latency_p99_ms", e.latency_p99_ms);
}

fn print_sample_note(workload: &str, n: usize, tail: f64) {
    let beyond = samples_beyond(n, tail);
    println!(
        "# {workload}: n = {n} timed operations; tail reported at p{tail} ({beyond:.1} samples \
         beyond it; {n} samples support up to p{})",
        tail_percentile(n)
    );
}

// ------------------------------------------------------ iteration workloads

/// Set up an iteration workload `reps` times and tally the checks set-up
/// itself made; returns the ready workload and the median set-up time.
fn prepare(
    name: &str,
    inputs: &Inputs,
    reps: usize,
    tally: &mut Tally,
) -> Result<(Box<dyn Iteration>, f64), String> {
    let (prepared, setup_s) = timed_setup(reps, tally, || workloads::setup(name, inputs))?;
    for (check, outcome) in prepared.setup_checks {
        tally.record(check, outcome);
    }
    Ok((prepared.iteration, setup_s))
}

fn iterations_untraced(args: &Args, inputs: &Inputs, tally: &mut Tally) -> Result<Report, String> {
    let name = args.workload.as_str();
    let (reps, warmups) = if args.smoke {
        (1, 0)
    } else {
        (SETUP_REPS, WARMUPS)
    };
    let (mut iteration, setup_s) = prepare(name, inputs, reps, tally)?;
    let mut stable = Stable { reference: None };
    for _ in 0..warmups {
        stable.timed(tally, "warm-up iteration", || iteration.run());
    }
    let mut samples = Vec::new();
    let window = Instant::now();
    loop {
        let done = if args.smoke {
            samples.len() >= 2
        } else {
            window.elapsed().as_secs_f64() >= args.seconds && samples.len() >= 3
        };
        if done || tally.failed > MAX_FAILURES {
            break;
        }
        samples.extend(stable.timed(tally, "iteration", || iteration.run()));
    }
    let makespan = window.elapsed().as_secs_f64();
    if samples.is_empty() {
        return Err("no iteration succeeded".into());
    }
    print_sample_note(name, samples.len(), ITERATION_TAIL);
    let mut report = Report::default();
    set_end_to_end(
        &mut report,
        setup_s,
        &end_to_end(&samples, makespan, ITERATION_TAIL),
    );
    Ok(report)
}

fn print_layer_table(workload: &str, spans: &[spans::Span]) {
    let table = LayerTable::build(spans);
    let share = |s: f64| {
        if table.wall_s > 0.0 {
            s / table.wall_s
        } else {
            0.0
        }
    };
    for (layer, self_s) in &table.layers {
        println!(
            "trace {workload} {layer} self_s {self_s:.6} share {:.4}",
            share(*self_s)
        );
    }
    println!(
        "trace {workload} residual self_s {:.6} share {:.4}",
        table.residual_s,
        share(table.residual_s)
    );
    println!(
        "trace {workload} accounted_s {:.6} wall_s {:.6} operations {}",
        table.accounted_s(),
        table.wall_s,
        table.operations
    );
}

fn write_trace(workload: &str, spans: &[spans::Span]) {
    let path = std::path::PathBuf::from(format!("benchmark/out/trace-{workload}.json"));
    match spans::write_json(&path, workload, spans) {
        Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("# spans not written to {}: {e}", path.display()),
    }
}

fn iterations_traced(args: &Args, inputs: &Inputs, tally: &mut Tally) -> Result<Report, String> {
    let name = args.workload.as_str();
    let (mut iteration, _) = prepare(name, inputs, 1, tally)?;
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let mut run_digest = Stable { reference: None };
    let mut replay_digest = Stable { reference: None };
    if !args.smoke {
        run_digest.timed(tally, "warm-up iteration", || iteration.run());
        replay_digest.timed(tally, "warm-up replay", || iteration.replay(&off, 0));
    }
    // A quarter of the untraced run's iterations, three ways each round:
    // the program's own entry point, its replay untraced, its replay traced.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let window = Instant::now();
    let mut op = 0;
    loop {
        run_digest.timed(tally, "iteration", || iteration.run());
        untraced
            .extend(replay_digest.timed(tally, "untraced replay", || iteration.replay(&off, op)));
        traced.extend(replay_digest.timed(tally, "traced replay", || iteration.replay(&on, op)));
        op += 1;
        let done = if args.smoke {
            true
        } else {
            op >= 3 && window.elapsed().as_secs_f64() >= 0.75 * args.seconds
        };
        if done || tally.failed > MAX_FAILURES {
            break;
        }
    }
    if untraced.is_empty() || traced.is_empty() {
        return Err("no replay succeeded".into());
    }
    let spans = on.into_spans();
    write_trace(name, &spans);
    print_layer_table(name, &spans);
    let (span_name, least) = iteration.prediction();
    let share = inclusive_share(&spans, span_name);
    println!(
        "prediction {name}: {span_name} share {share:.4} >= {least} {}",
        if share >= least { "held" } else { "NOT MET" }
    );

    let mut report = Report::default();
    report.set(
        "core.trace_overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
    );
    // Before the probes: their large arrays are not the workload's.
    report.set("core.peak_rss_mb", layers::peak_rss_mb());
    layers::probe_layers(&mut report, inputs);
    let stream = service_stream(
        args,
        tally,
        1,
        StopAfter::Jobs(if args.smoke {
            BLOCK
        } else {
            SERVICE_PROBE_JOBS
        }),
        true,
    )?
    .0;
    layers::service_layer(&mut report, &stream);
    Ok(report)
}

// --------------------------------------------------------------- service_mix

/// One stream on a fresh scheduler set up `reps` times, with its failures
/// tallied. Returns the stream and the median set-up time.
fn service_stream(
    args: &Args,
    tally: &mut Tally,
    reps: usize,
    stop: StopAfter,
    traced: bool,
) -> Result<(StreamStats, f64), String> {
    let (fixture, setup_s) = timed_setup(reps, tally, workloads::service::setup)?;
    let scheduler = fixture.scheduler();
    let mut source = JobSource::new(args.seed);
    if !args.smoke {
        // One discarded block fills the ground-state cache and the pool.
        let warm = run_stream(&scheduler, &mut source, StopAfter::Jobs(BLOCK), false);
        tally_stream(tally, &warm);
    }
    let stream = run_stream(&scheduler, &mut source, stop, traced);
    scheduler.shutdown();
    tally_stream(tally, &stream);
    Ok((stream, setup_s))
}

fn tally_stream(tally: &mut Tally, stream: &StreamStats) {
    let mismatched = stream.mismatches();
    tally.attempted += stream.attempted() as u64;
    let failed = stream.refused + stream.unresolved + mismatched;
    tally.failed += failed as u64;
    if failed > 0 {
        println!(
            "FAILED stream: {} refused, {} unresolved or cancelled, {mismatched} of {} sampled \
             results differ from a synchronous run",
            stream.refused,
            stream.unresolved,
            stream.sampled.len()
        );
    }
}

fn stream_end_to_end(stream: &StreamStats) -> Result<EndToEnd, String> {
    let latencies = stream.latencies_s();
    if latencies.is_empty() || stream.makespan_s <= 0.0 {
        return Err("no job resolved".into());
    }
    Ok(end_to_end(&latencies, stream.makespan_s, STREAM_TAIL))
}

fn service_untraced(args: &Args, tally: &mut Tally) -> Result<Report, String> {
    let stop = if args.smoke {
        StopAfter::Jobs(2 * BLOCK)
    } else {
        StopAfter::Elapsed(Duration::from_secs_f64(args.seconds))
    };
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let (stream, setup_s) = service_stream(args, tally, reps, stop, false)?;
    let e = stream_end_to_end(&stream)?;
    print_sample_note("service_mix", e.n, STREAM_TAIL);
    let mut report = Report::default();
    set_end_to_end(&mut report, setup_s, &e);
    Ok(report)
}

fn service_traced(args: &Args, inputs: &Inputs, tally: &mut Tally) -> Result<Report, String> {
    let stop = if args.smoke {
        StopAfter::Jobs(BLOCK)
    } else {
        StopAfter::Elapsed(Duration::from_secs_f64(0.3 * args.seconds))
    };
    let untraced = service_stream(args, tally, 1, stop, false)?.0;
    let traced = service_stream(args, tally, 1, stop, true)?.0;
    let tracer = Tracer::new(true);
    traced.record_spans(&tracer);
    let spans = tracer.into_spans();
    write_trace("service_mix", &spans);
    print_layer_table("service_mix", &spans);

    let mut report = Report::default();
    // Throughput with the event stamps taken against without.
    report.set(
        "core.trace_overhead_frac",
        stream_end_to_end(&untraced)?.jobs_per_s / stream_end_to_end(&traced)?.jobs_per_s - 1.0,
    );
    report.set("core.peak_rss_mb", layers::peak_rss_mb());
    layers::service_layer(&mut report, &traced);
    layers::probe_layers(&mut report, inputs);
    Ok(report)
}

// -------------------------------------------------------------------- output

fn print_table(kind: &str, workload: &str, values: &[(MetricDef, f64)]) {
    for (m, v) in values {
        let bound = m.bound.map_or(String::new(), |b| format!(" bound {b}"));
        println!(
            "{kind} {workload} {} {v} {} better {}{bound}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
}

fn result_line(tally: &Tally, values: &[(MetricDef, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(m, v)| format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("mlmd-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {} smoke {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.smoke,
        layers::nproc()
    );
    let inputs = Inputs::generate(args.seed);
    let mut tally = Tally::default();
    let service = args.workload == "service_mix";
    let report = match (service, args.trace) {
        (false, false) => iterations_untraced(&args, &inputs, &mut tally),
        (false, true) => iterations_traced(&args, &inputs, &mut tally),
        (true, false) => service_untraced(&args, &mut tally),
        (true, true) => service_traced(&args, &inputs, &mut tally),
    };
    let report = match report {
        Ok(report) => report,
        Err(why) => {
            println!("FAILED {}: {why}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let (kind, table): (&str, &[MetricDef]) = if args.trace {
        ("layer", &PER_LAYER)
    } else {
        ("e2e", &END_TO_END)
    };
    let mut values = report.complete(table);
    for (m, v) in &mut values {
        if !v.is_finite() {
            tally.record(m.name, Err(format!("measured a non-finite value {v}")));
            *v = -1.0;
        }
    }
    print_table(kind, &args.workload, &values);
    println!(
        "result {} attempted {} failed {} failed_frac {}",
        args.workload,
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    println!("{}", result_line(&tally, &values));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
