//! End-to-end and per-layer benchmark of the Ivy verifier.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <session|cold-check|serve-mixed|infer> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run sets its workload up several times, measures it for about
//! `--seconds` seconds, checks every verdict, and prints one JSON object as
//! the last line of standard output. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it turns on the program's own
//! telemetry, times calls into each crate's public functions from outside,
//! and reports per-layer metrics instead. Times are reported in reference
//! seconds (see `yardstick`). `perfbench/README.md` defines every metric
//! and workload.

mod cold;
mod infer;
mod serve;
mod session;
mod stats;
mod trace;
mod yardstick;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use ivy_serve::Json;
use trace::Tracer;
use yardstick::Speed;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A stretch of wall time, kept as clock readings so that it can be
/// scaled to reference speed once the run is over.
#[derive(Clone, Copy)]
pub struct Span {
    pub from: Instant,
    pub to: Instant,
}

impl Span {
    /// The span from `from` until now.
    pub fn since(from: Instant) -> Span {
        Span {
            from,
            to: Instant::now(),
        }
    }

    pub fn seconds(&self) -> f64 {
        self.to.duration_since(self.from).as_secs_f64()
    }
}

/// What one workload measured.
#[derive(Default)]
pub struct EndToEnd {
    /// Operations attempted and operations that failed a correctness gate.
    pub attempted: u64,
    pub failed: u64,
    /// The set-ups, one list per repetition.
    pub setup: Vec<Vec<Span>>,
    /// Each pass over the workload's fixed unit of work.
    pub work: Vec<Span>,
    /// Each timed operation, one list per pass.
    pub ops: Vec<Vec<Span>>,
    /// Operations one pass counts towards the throughput figure.
    pub per_pass: f64,
}

impl EndToEnd {
    /// The median pass, in reference seconds.
    fn work_s(&self, speed: &Speed) -> f64 {
        let work: Vec<f64> = self.work.iter().map(|w| speed.scale(w)).collect();
        stats::median(&work)
    }
}

const WORKLOADS: [&str; 4] = ["session", "cold-check", "serve-mixed", "infer"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Runs the named workload under `tracer`, filling `e2e`.
fn run(args: &Args, tracer: &mut Tracer, e2e: &mut EndToEnd) {
    match args.workload.as_str() {
        "session" => session::run(args, tracer, e2e),
        "cold-check" => cold::run(args, tracer, e2e),
        "serve-mixed" => serve::run(args, tracer, e2e),
        "infer" => infer::run(args, tracer, e2e),
        other => unreachable!("workload `{other}` was validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };

    let (e2e, speed, layers) = if args.trace {
        // The traced run measures the workload twice in one process: traced
        // first, so its counts start from a cold process as the untraced
        // runs do, then with telemetry off for the overhead baseline.
        let mut tracer = Tracer::on();
        let mut traced = EndToEnd::default();
        run(&args, &mut tracer, &mut traced);
        let (mut layers, speed) = tracer.finish();
        let mut baseline = EndToEnd::default();
        let mut untraced = Tracer::off();
        run(&args, &mut untraced, &mut baseline);
        layers.overhead_frac =
            traced.work_s(&speed) / baseline.work_s(&untraced.into_speed()) - 1.0;
        traced.attempted += baseline.attempted;
        traced.failed += baseline.failed;
        (traced, speed, Some(layers))
    } else {
        let mut tracer = Tracer::off();
        let mut e2e = EndToEnd::default();
        run(&args, &mut tracer, &mut e2e);
        (e2e, tracer.into_speed(), None)
    };
    let raw: Vec<f64> = e2e.work.iter().map(Span::seconds).collect();
    eprintln!(
        "yardstick: median run {:.3} ms; median pass {:.3} s wall, {:.3} s reference",
        speed.median_ms(),
        stats::median(&raw),
        e2e.work_s(&speed)
    );

    let Some(peak_rss_mb) = stats::peak_rss_mb() else {
        eprintln!("perfbench: cannot read the process high-water mark");
        return ExitCode::from(1);
    };
    if e2e.attempted == 0
        || e2e.work.is_empty()
        || e2e.ops.is_empty()
        || e2e.ops.iter().any(Vec::is_empty)
    {
        eprintln!("perfbench: the workload measured nothing");
        return ExitCode::from(1);
    }
    let metrics = match layers {
        None => end_to_end_metrics(&e2e, &speed, peak_rss_mb),
        Some(layers) => layers.metrics(),
    };
    println!("{}", result_json(&e2e, &metrics));
    if e2e.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed a correctness gate",
            e2e.failed, e2e.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Every time is in
/// reference seconds.
fn end_to_end_metrics(e2e: &EndToEnd, speed: &Speed, peak_rss_mb: f64) -> Vec<Metric> {
    // Statistics are taken within each pass, whose operations are the
    // same every time, then the median across passes: pooling passes would
    // move the tail's rank as the pass count changes.
    let per_pass = |f: fn(&[f64]) -> f64| {
        let values: Vec<f64> = e2e
            .ops
            .iter()
            .map(|ops| {
                let mut sorted: Vec<f64> = ops.iter().map(|op| speed.scale(op) * 1e3).collect();
                sorted.sort_by(f64::total_cmp);
                f(&sorted)
            })
            .collect();
        stats::median(&values)
    };
    let setups: Vec<f64> = e2e
        .setup
        .iter()
        .map(|rep| rep.iter().map(|s| speed.scale(s)).sum::<f64>() / rep.len() as f64)
        .collect();
    let work_s = e2e.work_s(speed);
    let values = [
        ("work_s", work_s),
        ("op_iqm_ms", per_pass(stats::interquartile_mean)),
        ("op_tail_ms", per_pass(stats::tail)),
        ("rate_per_s", e2e.per_pass / work_s),
        ("ok_frac", 1.0 - e2e.failed as f64 / e2e.attempted as f64),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", stats::median(&setups)),
    ];
    in_spec_order(
        "end_to_end",
        values
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, String);

/// `BENCHMARK.json`, the one place where metric names and units are
/// defined.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Orders `values` as section `section` of `BENCHMARK.json` lists them,
/// with the units it gives. Panics when a listed metric was not computed
/// or a computed one is not listed.
pub fn in_spec_order(section: &str, mut values: BTreeMap<String, f64>) -> Vec<Metric> {
    let spec = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let listed = spec
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` list"));
    let metrics = listed
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("a `{section}` metric has no `{key}`"))
                    .to_string()
            };
            let name = field("name");
            let value = values
                .remove(&name)
                .unwrap_or_else(|| panic!("metric `{name}` was not computed"));
            (name, value, field("unit"))
        })
        .collect();
    assert!(
        values.is_empty(),
        "computed metrics missing from BENCHMARK.json's `{section}`: {:?}",
        values.keys().collect::<Vec<_>>()
    );
    metrics
}

fn result_json(e2e: &EndToEnd, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric `{name}` is not a finite number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        e2e.failed == 0,
        e2e.attempted,
        e2e.failed,
        body.join(", ")
    )
}

/// Sets the workload up `reps` times and returns the last result. Each
/// repetition runs `setup` `batch` times, so that a set-up of a
/// millisecond is timed over enough work to be steady, and the mean of
/// one is reported. The previous run's state is dropped before the clock
/// starts.
pub fn repeated_setup<T>(
    reps: usize,
    batch: usize,
    tracer: &mut Tracer,
    e2e: &mut EndToEnd,
    mut setup: impl FnMut() -> T,
) -> T {
    let mut last = None;
    for _ in 0..reps.max(1) {
        tracer.checkpoint();
        let mut spans = Vec::new();
        for _ in 0..batch.max(1) {
            drop(last.take());
            let start = Instant::now();
            last = Some(setup());
            spans.push(Span::since(start));
        }
        tracer.checkpoint();
        e2e.setup.push(spans);
    }
    last.expect("at least one set-up repetition")
}

/// Runs `seconds / per_pass_s` passes, at least one, where `per_pass_s`
/// is the workload's budget per pass, and records in `work` the span each
/// pass returns as its timed work. The count depends only on the
/// arguments, so every run of a workload does the same work whatever the
/// machine's speed: a faster commit gets no extra passes, and memory
/// figures compare like with like.
pub fn run_passes(
    seconds: f64,
    per_pass_s: f64,
    work: &mut Vec<Span>,
    mut pass: impl FnMut() -> Span,
) {
    let passes = ((seconds / per_pass_s).floor() as usize).max(1);
    for _ in 0..passes {
        let span = pass();
        eprintln!("pass: {:.3} s", span.seconds());
        work.push(span);
    }
}
