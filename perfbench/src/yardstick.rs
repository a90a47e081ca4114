//! Scaling wall time to a reference machine speed.
//!
//! The benchmark runs on shared hosts whose speed swings by up to a factor
//! of two, within seconds and between minutes, as neighbours load the
//! machine. The verifier's times follow those swings, so a raw wall time
//! says as much about the neighbours as about the program. The measuring
//! thread therefore runs a fixed job, the yardstick, at checkpoints between
//! the operations it times: hashing, allocation and sorting, code of the
//! benchmark's own that no change to the program touches. Each
//! checkpoint runs the job once to warm the caches, then times [`RUNS`]
//! more runs by the thread's CPU clock and keeps their mean. A checkpoint
//! right after another is skipped: no time has passed that it could tell
//! about.
//!
//! A span of wall time is reported in reference seconds: the integral over
//! the span of [`REFERENCE_S`] over the yardstick time, taken between two
//! checkpoints as the mean of the two. That is the time the span would
//! take on a host where the yardstick takes [`REFERENCE_S`]. A checkpoint
//! taken between timed calls is left out of every span; one taken while
//! other threads run a timed call counts as a point at its middle.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

use crate::Span;

/// The yardstick's CPU time on a reference host, in seconds: about what it
/// takes on a 2-vCPU Xeon VM at 2.1 GHz.
pub const REFERENCE_S: f64 = 0.001;

/// Keys the yardstick groups, groups they fall in, and values it sorts,
/// per run.
const KEYS: u64 = 10_000;
const GROUPS: u64 = 4_000;
const VALUES: usize = 15_000;

/// Timed runs per checkpoint.
const RUNS: u32 = 3;
/// Pause between the checkpoints the measuring thread takes while other
/// threads run a timed call, so that they take about 5 % of one core.
pub const BESIDE_GAP: Duration = Duration::from_millis(100);
/// Checkpoints closer than this to the previous one are skipped.
const MIN_GAP: Duration = Duration::from_micros(200);

/// One checkpoint: when it ran, all its runs, the mean CPU seconds of a
/// timed run, and whether it ran beside a timed call.
#[derive(Clone, Copy)]
struct Sample {
    from: Instant,
    to: Instant,
    cpu_s: f64,
    beside: bool,
}

impl Sample {
    /// The stretch of the time line the checkpoint takes out of spans.
    fn taken(&self) -> (Instant, Instant) {
        if self.beside {
            let mid = self.from + self.to.duration_since(self.from) / 2;
            (mid, mid)
        } else {
            (self.from, self.to)
        }
    }
}

/// Runs the yardstick at checkpoints and keeps the samples.
pub struct Gauge {
    samples: Vec<Sample>,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge {
            samples: Vec::new(),
        }
    }

    /// Runs the yardstick once untimed and [`RUNS`] times timed, records
    /// the mean timed run, and returns the time the checkpoint took.
    /// `beside` tells whether other threads run a timed call meanwhile.
    pub fn checkpoint(&mut self, beside: bool) -> Duration {
        let from = Instant::now();
        if self
            .samples
            .last()
            .is_some_and(|s| from.duration_since(s.to) < MIN_GAP)
        {
            return Duration::ZERO;
        }
        job();
        let cpu = thread_cpu_s();
        for _ in 0..RUNS {
            job();
        }
        let cpu_s = (thread_cpu_s() - cpu) / f64::from(RUNS);
        let to = Instant::now();
        self.samples.push(Sample {
            from,
            to,
            cpu_s,
            beside,
        });
        to - from
    }

    /// The recorded samples, for scaling spans once the run is over.
    pub fn finish(self) -> Speed {
        Speed {
            samples: self.samples,
        }
    }
}

/// The samples of a finished run, which scale spans.
pub struct Speed {
    samples: Vec<Sample>,
}

impl Speed {
    /// The length of `span` in reference seconds: the integral of
    /// `REFERENCE_S` over the yardstick time across it, which between two
    /// checkpoints is the mean of theirs, and before the first or after
    /// the last, theirs.
    pub fn scale(&self, span: &Span) -> f64 {
        let s = &self.samples;
        assert!(!s.is_empty(), "the run took no checkpoint");
        let part = |from: Option<Instant>, to: Option<Instant>, cpu_s: f64| {
            let a = from.map_or(span.from, |f| f.max(span.from));
            let b = to.map_or(span.to, |t| t.min(span.to));
            if b > a {
                b.duration_since(a).as_secs_f64() * REFERENCE_S / cpu_s
            } else {
                0.0
            }
        };
        let mut total = part(None, Some(s[0].taken().0), s[0].cpu_s);
        for w in s.windows(2) {
            total += part(
                Some(w[0].taken().1),
                Some(w[1].taken().0),
                (w[0].cpu_s + w[1].cpu_s) / 2.0,
            );
        }
        let last = &s[s.len() - 1];
        total + part(Some(last.taken().1), None, last.cpu_s)
    }

    /// The median yardstick time, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        let times: Vec<f64> = self.samples.iter().map(|s| s.cpu_s * 1e3).collect();
        crate::stats::median(&times)
    }
}

/// The fixed job: group keys into the vectors of a hash map with fixed
/// hash keys, then sort pseudo-random values. The same instructions and
/// allocations every run.
fn job() {
    let mut groups: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..KEYS {
        groups
            .entry(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % GROUPS)
            .or_default()
            .push(i);
    }
    let mut x: u64 = 7;
    let mut values: Vec<u32> = (0..VALUES)
        .map(|_| {
            x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(3);
            (x >> 33) as u32
        })
        .collect();
    values.sort_unstable();
    std::hint::black_box((&groups, &values));
}

/// CPU seconds used by the calling thread, so a run that waits for a core
/// is timed by its own work only.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}
