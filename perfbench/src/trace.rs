//! Per-layer accounting, measured from outside the program.
//!
//! The traced run turns on `ivy-telemetry`'s global registry and reads the
//! phases (`wp`, `trans`, `ground`, `encode`, `sat`) and counters the
//! program already keeps. The benchmark adds no span inside the program:
//! it times its own calls into each crate's public functions, and a
//! layer's self time is the duration of those calls minus the program
//! phases that ran inside them. The layer self times, the phase times,
//! the yardstick checkpoints and `unattributed.ms` add up to
//! `trace.wall_ms`.
//!
//! Every tracer, on or off, also takes the yardstick checkpoints: one
//! before each timed call starts and one after it ends.

use std::collections::BTreeMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Instant;

use ivy_telemetry::{counter_snapshot, phase_snapshot, OracleRollup};

use crate::yardstick::{Gauge, Speed, BESIDE_GAP};
use crate::{in_spec_order, Metric, Span};

/// Program phases and the layer metric each one is reported as.
const PHASES: [(&str, &str); 5] = [
    ("wp", "rml.wp.ms"),
    ("trans", "rml.trans.ms"),
    ("ground", "epr.ground.ms"),
    ("encode", "epr.encode.ms"),
    ("sat", "sat.ms"),
];

/// Program counters read from the registry.
const COUNTERS: [&str; 7] = [
    "epr.queries",
    "epr.instances",
    "sat.decisions",
    "sat.propagations",
    "sat.conflicts",
    "cache.atom_hits",
    "cache.atom_misses",
];

/// Layers the benchmark times from outside, by the calls it makes.
const SPANS: [&str; 8] = [
    "core.minimize",
    "core.generalize",
    "core.user",
    "core.verify",
    "core.bmc",
    "core.infer",
    "rml.parse",
    "serve.handle",
];

/// Values a workload hands over directly (engine reports, oracle rollups,
/// serve responses).
const GIVEN: [&str; 13] = [
    "infer.queries",
    "infer.generated",
    "infer.blocked",
    "infer.houdini_runs",
    "oracle.frame_hits",
    "oracle.frame_misses",
    "oracle.sessions_built",
    "serve.requests",
    "serve.wait_ms",
    "serve.frame_hits",
    "serve.frame_misses",
    "serve.busy",
    "loadgen.late_ms",
];

/// Per-protocol work counts recorded at the commit that added the
/// benchmark; the traced run reports how many rows differ.
const RECORDED_COUNTS: &str = include_str!("../counts.txt");

/// A snapshot of the program's own counters.
#[derive(Clone)]
pub struct Probe {
    phase_ns: [u128; PHASES.len()],
    counters: [u64; COUNTERS.len()],
    intern: (u64, u64),
}

impl Probe {
    pub fn take() -> Probe {
        let phases = phase_snapshot();
        let counters = counter_snapshot();
        Probe {
            phase_ns: PHASES.map(|(p, _)| {
                phases
                    .iter()
                    .find(|(n, _)| n == p)
                    .map_or(0, |(_, s)| s.nanos)
            }),
            counters: COUNTERS
                .map(|c| counters.iter().find(|(n, _)| n == c).map_or(0, |(_, v)| *v)),
            intern: ivy_fol::intern::cache_stats(),
        }
    }

    fn phases_total(&self) -> u128 {
        self.phase_ns.iter().sum()
    }

    fn counter(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("known counter");
        self.counters[i]
    }
}

/// The start of a timed call: a clock reading plus, when tracing, the
/// phase total at that moment.
pub struct Mark {
    at: Instant,
    phase_ns: u128,
}

/// Collects the traced run's layer numbers. A tracer that is off only
/// reads the clock and takes the yardstick checkpoints, so the untraced
/// run pays nothing else.
pub struct Tracer {
    enabled: bool,
    gauge: Gauge,
    begin: Option<(Instant, Probe)>,
    /// Checkpoints taken between timed calls inside the window, and
    /// the lanes the window counts.
    between_ns: u128,
    lanes: u32,
    wall_ns: f64,
    window: Option<Probe>,
    spans: BTreeMap<&'static str, (u128, u64)>,
    given: BTreeMap<&'static str, f64>,
    rows: Vec<String>,
}

/// The per-layer numbers of one traced run.
pub struct Layers {
    values: BTreeMap<String, f64>,
    pub overhead_frac: f64,
}

impl Tracer {
    pub fn off() -> Tracer {
        ivy_telemetry::set_enabled(false);
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        ivy_telemetry::reset();
        ivy_telemetry::set_enabled(true);
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            gauge: Gauge::new(),
            begin: None,
            between_ns: 0,
            lanes: 1,
            wall_ns: 0.0,
            window: None,
            spans: BTreeMap::new(),
            given: BTreeMap::new(),
            rows: Vec::new(),
        }
    }

    /// A program-counter snapshot, when tracing.
    pub fn probe(&self) -> Option<Probe> {
        self.enabled.then(Probe::take)
    }

    /// Takes a yardstick checkpoint between timed calls. Inside the
    /// measured window its time counts as `yardstick.ms`.
    pub fn checkpoint(&mut self) {
        let spent = self.gauge.checkpoint(false);
        if self.begin.is_some() {
            self.between_ns += spent.as_nanos();
        }
    }

    /// Takes a yardstick checkpoint while work the window already counts
    /// runs on other threads.
    pub fn checkpoint_beside(&mut self) {
        self.gauge.checkpoint(true);
    }

    /// Starts a timed call, after a checkpoint.
    pub fn mark(&mut self) -> Mark {
        self.checkpoint();
        let phase_ns = if self.enabled {
            Probe::take().phases_total()
        } else {
            0
        };
        Mark {
            at: Instant::now(),
            phase_ns,
        }
    }

    /// Ends a call begun at `mark`, charging its self time to `layer`,
    /// then takes a checkpoint. Returns the call's full span.
    pub fn close(&mut self, layer: &'static str, mark: Mark) -> Span {
        self.close_at(layer, mark, Instant::now())
    }

    /// As `close`, for a call that ended at `end`.
    fn close_at(&mut self, layer: &'static str, mark: Mark, end: Instant) -> Span {
        let span = Span {
            from: mark.at,
            to: end,
        };
        let elapsed = span.to.duration_since(span.from);
        if self.enabled {
            assert!(SPANS.contains(&layer), "unknown layer `{layer}`");
            let inside = Probe::take().phases_total() - mark.phase_ns;
            let entry = self.spans.entry(layer).or_default();
            entry.0 += elapsed.as_nanos().saturating_sub(inside);
            entry.1 += 1;
        }
        self.checkpoint();
        span
    }

    /// Times `f` as one call into `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, Span) {
        let mark = self.mark();
        let out = f();
        let span = self.close(layer, mark);
        (out, span)
    }

    /// Times `f` as one call into `layer`, run on a helper thread while
    /// this one takes a checkpoint every [`BESIDE_GAP`]: for calls of
    /// seconds, whose speed checkpoints at their ends alone would tell
    /// little about.
    pub fn time_concurrent<T: Send>(
        &mut self,
        layer: &'static str,
        f: impl FnOnce() -> T + Send,
    ) -> (T, Span) {
        let mark = self.mark();
        let (out, end) = std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            scope.spawn(move || {
                let out = f();
                // The receiver waits until the call ends.
                let _ = tx.send((out, Instant::now()));
            });
            loop {
                match rx.recv_timeout(BESIDE_GAP) {
                    Ok(done) => break done,
                    Err(RecvTimeoutError::Timeout) => self.checkpoint_beside(),
                    Err(RecvTimeoutError::Disconnected) => panic!("a timed call panicked"),
                }
            }
        });
        let span = self.close_at(layer, mark, end);
        (out, span)
    }

    /// Starts the measured window. Phases and counters are read as deltas
    /// over the window.
    pub fn begin(&mut self) {
        if self.enabled {
            self.begin = Some((Instant::now(), Probe::take()));
        }
    }

    /// Ends the measured window. `lanes` is the number of sequential
    /// timelines that ran in it (the serve workload's connections), so the
    /// wall time counts each lane's time once.
    pub fn end(&mut self, lanes: u32) {
        if let Some((at, probe)) = self.begin.take() {
            let span = Span::since(at);
            self.wall_ns = span.seconds() * 1e9 * f64::from(lanes);
            self.window = Some(delta(&Probe::take(), &probe));
            self.lanes = lanes;
        }
    }

    /// The yardstick samples of an untraced run.
    pub fn into_speed(self) -> Speed {
        self.gauge.finish()
    }

    /// Adds an engine oracle's frame counts, as `Oracle::rollup()` gives them.
    pub fn add_rollup(&mut self, rollup: &OracleRollup) {
        self.add("oracle.frame_hits", rollup.frame_hits as f64);
        self.add("oracle.frame_misses", rollup.frame_misses as f64);
        self.add("oracle.sessions_built", rollup.sessions_built as f64);
    }

    /// Adds to a value the workload reports directly.
    pub fn add(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            assert!(GIVEN.contains(&name), "unknown layer value `{name}`");
            *self.given.entry(name).or_default() += value;
        }
    }

    /// Charges `ms` of server self time (outside program phases), spent
    /// on `calls` requests, to `serve.handle`.
    pub fn add_handle(&mut self, ms: f64, calls: u64) {
        if self.enabled {
            let entry = self.spans.entry("serve.handle").or_default();
            entry.0 += (ms.max(0.0) * 1e6) as u128;
            entry.1 += calls;
        }
    }

    /// Program phase time inside the closed window, in milliseconds.
    pub fn window_phase_ms(&self) -> f64 {
        self.window
            .as_ref()
            .map_or(0.0, |p| p.phases_total() as f64 / 1e6)
    }

    /// Records one protocol's work counts since `since`, for the drift
    /// check, labelled `workload/<first word of the protocol name>`. Only
    /// the first row per label is kept.
    pub fn row(
        &mut self,
        workload: &str,
        protocol: &str,
        since: &Option<Probe>,
        extra: &[(&str, u64)],
    ) {
        let Some(since) = since else { return };
        let word = protocol.split_whitespace().next().unwrap_or(protocol);
        let label = format!("{workload}/{}", word.to_lowercase());
        if self
            .rows
            .iter()
            .any(|r| r.split(' ').next() == Some(label.as_str()))
        {
            return;
        }
        let now = Probe::take();
        let mut line = format!(
            "{label} queries={} instances={} decisions={}",
            now.counter("epr.queries") - since.counter("epr.queries"),
            now.counter("epr.instances") - since.counter("epr.instances"),
            now.counter("sat.decisions") - since.counter("sat.decisions"),
        );
        for (k, v) in extra {
            line.push_str(&format!(" {k}={v}"));
        }
        self.rows.push(line);
    }

    /// The per-layer numbers and the yardstick samples of a traced run.
    pub fn finish(self) -> (Layers, Speed) {
        ivy_telemetry::set_enabled(false);
        let window = self
            .window
            .expect("the traced run opened and closed a window");
        let speed = self.gauge.finish();
        // A checkpoint between calls holds up every lane.
        let yardstick_ms = self.between_ns as f64 * f64::from(self.lanes) / 1e6;
        let mut values: BTreeMap<String, f64> = BTreeMap::new();
        let mut covered_ns = yardstick_ms * 1e6;
        values.insert("yardstick.ms".to_string(), yardstick_ms);
        for layer in SPANS {
            let (ns, calls) = self.spans.get(layer).copied().unwrap_or_default();
            covered_ns += ns as f64;
            values.insert(format!("{layer}.ms"), ns as f64 / 1e6);
            values.insert(format!("{layer}.calls"), calls as f64);
        }
        for (i, (_, metric)) in PHASES.iter().enumerate() {
            covered_ns += window.phase_ns[i] as f64;
            values.insert(metric.to_string(), window.phase_ns[i] as f64 / 1e6);
        }
        for name in GIVEN {
            values.insert(
                name.to_string(),
                self.given.get(name).copied().unwrap_or(0.0),
            );
        }
        // The plain counts; the atom-cache pair becomes a rate below.
        for name in &COUNTERS[..5] {
            values.insert(name.to_string(), window.counter(name) as f64);
        }
        let mut put = |name: &str, value: f64| values.insert(name.to_string(), value);
        put(
            "epr.atom_hit_rate",
            rate(
                window.counter("cache.atom_hits"),
                window.counter("cache.atom_misses"),
            ),
        );
        let oracle_hits = self.given.get("oracle.frame_hits").copied().unwrap_or(0.0);
        let oracle_misses = self
            .given
            .get("oracle.frame_misses")
            .copied()
            .unwrap_or(0.0);
        put(
            "oracle.hit_rate",
            rate(oracle_hits as u64, oracle_misses as u64),
        );
        put("fol.intern.hits", window.intern.0 as f64);
        put("fol.intern.misses", window.intern.1 as f64);
        put(
            "fol.intern.hit_rate",
            rate(window.intern.0, window.intern.1),
        );
        put("unattributed.ms", (self.wall_ns - covered_ns) / 1e6);
        put("trace.wall_ms", self.wall_ns / 1e6);
        put("counts.drifted", drifted(&self.rows) as f64);
        let layers = Layers {
            values,
            overhead_frac: f64::NAN,
        };
        (layers, speed)
    }
}

impl Layers {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut values = self.values.clone();
        values.insert("trace.overhead_frac".to_string(), self.overhead_frac);
        in_spec_order("per_layer", values)
    }
}

/// Counts the rows whose work counts differ from the recorded ones, and
/// prints every row so the record can be regenerated.
fn drifted(rows: &[String]) -> usize {
    let mut drifted = 0;
    for row in rows {
        eprintln!("count: {row}");
        let label = row.split(' ').next().unwrap_or_default();
        let recorded = RECORDED_COUNTS
            .lines()
            .find(|l| l.split(' ').next() == Some(label));
        if recorded != Some(row.as_str()) {
            eprintln!(
                "count drift: recorded `{}`, measured `{row}`",
                recorded.unwrap_or("<none>")
            );
            drifted += 1;
        }
    }
    drifted
}

fn rate(hits: u64, misses: u64) -> f64 {
    assert!(hits + misses > 0, "a hit rate needs at least one lookup");
    hits as f64 / (hits + misses) as f64
}

fn delta(later: &Probe, earlier: &Probe) -> Probe {
    Probe {
        phase_ns: std::array::from_fn(|i| later.phase_ns[i] - earlier.phase_ns[i]),
        counters: std::array::from_fn(|i| later.counters[i] - earlier.counters[i]),
        intern: (
            later.intern.0 - earlier.intern.0,
            later.intern.1 - earlier.intern.1,
        ),
    }
}
