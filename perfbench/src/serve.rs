//! `serve-mixed`: an in-process `ivy serve` with two workers on loopback
//! TCP, driven over two connections by bursts of requests sent at once.
//!
//! The mix is `verify` with the known invariant (a warm pool hit), `bmc`
//! at depth 2, and one in ten `verify` requests with a seeded clause of
//! the invariant dropped and the other clauses renamed. Each such request
//! is a new frame: a session build, a pool insert and eviction, and
//! usually a CTI answer. Learning switch is left out: its warm BMC alone
//! takes about 0.3 s and would set the mix's capacity by itself.
//! Latency is timed from the burst's send time. Every verdict is checked
//! against an in-process `Verifier` or `Bmc` answer. The mix's shares and
//! sizes are choices, not observed traffic; `perfbench/README.md` lists
//! them.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ivy_bench::{protocols, ProtocolEntry};
use ivy_core::{Bmc, Conjecture, Oracle, Verifier};
use ivy_serve::{Json, Listener, ServeConfig, Server};
use ivy_telemetry::OracleRollup;

use crate::stats::Rng;
use crate::trace::Tracer;
use crate::yardstick::BESIDE_GAP;
use crate::{repeated_setup, run_passes, Args, EndToEnd, Span};

const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
const BMC_DEPTH: usize = 2;
/// Requests of each burst: 25 blocks, so five subsets of each protocol,
/// consecutive in its drop order. Every burst thus drops each of Chord's
/// five clauses once. A Chord subset takes 30–180 ms by the clause it
/// drops, up to six times any other request, so a burst holding a seeded
/// few would take a seed-dependent time.
const ROUND: usize = 25 * 10;
/// Seconds budgeted per burst (one drains in about 2.5 s on a 2-vCPU
/// Xeon VM).
const BURST_S: f64 = 2.5;
const SETUP_REPS: usize = 5;
/// A reader gives up on a response after this long, so a wedged server
/// fails the run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One request of the mix.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Verify(usize),
    Bmc(usize),
    /// Verify the invariant without one clause, every clause name tagged
    /// so the request grounds a new frame. Tag 0 is the untagged form.
    Subset(usize, usize, usize),
}

/// A running server with its client connections.
struct Daemon {
    server: Arc<Server>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    conns: Vec<TcpStream>,
}

impl Daemon {
    fn start(warm: &[String]) -> Daemon {
        // Queue and pool sized as the defaults size them for two workers,
        // set here so that they do not follow the host's core count.
        let server = Arc::new(Server::new(ServeConfig {
            workers: WORKERS,
            queue: WORKERS * 4,
            pool_capacity: (WORKERS * 24).max(64),
            ..ServeConfig::default()
        }));
        let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.describe();
        let thread = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve_listener(listener))
        };
        let conns: Vec<TcpStream> = (0..CONNECTIONS)
            .map(|_| {
                let s = TcpStream::connect(&addr).expect("connect to the server");
                s.set_nodelay(true).expect("set TCP_NODELAY");
                s
            })
            .collect();
        let mut daemon = Daemon {
            server,
            thread: Some(thread),
            conns,
        };
        // Warm the shared pool: each fixed request once, closed loop.
        let mut reader = BufReader::new(daemon.conns[0].try_clone().expect("clone stream"));
        for line in warm {
            daemon.conns[0]
                .write_all(line.as_bytes())
                .expect("send warm-up request");
            let mut response = String::new();
            reader
                .read_line(&mut response)
                .expect("read warm-up response");
        }
        daemon
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        for c in &self.conns {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        self.server.request_stop();
        if let Some(t) = self.thread.take() {
            match t.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("serve-mixed: server stopped with {e}"),
                Err(_) => eprintln!("serve-mixed: server thread panicked"),
            }
        }
    }
}

/// What came back for one request.
struct Answer {
    kind: Kind,
    /// From the burst's send time to the response.
    latency: Span,
    late_ms: f64,
    verdict: Option<String>,
    wall_ms: f64,
    frame_hits: f64,
    frame_misses: f64,
    busy: bool,
}

struct Workload {
    entries: Vec<ProtocolEntry>,
    /// Per protocol, whether the current pair of blocks sends its verify
    /// on the first connection (and its bmc on the second) in its first
    /// block.
    verify_first: Vec<bool>,
    /// Per protocol, a seeded order in which subsets drop its clauses.
    drop_order: Vec<Vec<usize>>,
    /// Subsets sent so far.
    subsets: usize,
    /// Blocks scheduled so far.
    blocks: usize,
    rng: Rng,
}

impl Workload {
    fn request(&self, id: usize, kind: &Kind) -> String {
        let (p, cmd) = match kind {
            Kind::Verify(p) | Kind::Subset(p, _, _) => (*p, "verify"),
            Kind::Bmc(p) => (*p, "bmc"),
        };
        let entry = &self.entries[p];
        let mut fields = vec![
            ("id", Json::num(id as f64)),
            ("cmd", Json::str(cmd)),
            ("model", Json::str(entry.source)),
        ];
        match kind {
            Kind::Verify(_) => fields.push(("invariant", clauses(&entry.invariant, None, 0))),
            Kind::Subset(_, dropped, tag) => {
                fields.push(("invariant", clauses(&entry.invariant, Some(*dropped), *tag)))
            }
            Kind::Bmc(_) => fields.push(("depth", Json::num(BMC_DEPTH as f64))),
        }
        format!("{}\n", Json::obj(fields))
    }

    /// The next `n` requests of the seeded mix, the two connections'
    /// requests alternating. The mix comes in blocks: each block holds one
    /// verify and one bmc per protocol, one of them (one request in ten)
    /// replaced by a clause-subset verify. In a block each protocol's
    /// verify goes to one connection and its bmc to the other, the seed
    /// choosing which, and the next block swaps them; the subsets go to the
    /// connections in turn. So every seed sends the same mix, every two
    /// blocks give both connections the same share, and the seed decides
    /// the order within each share and which clauses each subset drops.
    /// The server answers each connection's requests in turn, so an uneven
    /// share, which a seeded shuffle of whole blocks gave, moved the
    /// latencies with the seed.
    fn schedule(&mut self, n: usize) -> Vec<Kind> {
        let protocols = self.entries.len();
        let mut out = Vec::with_capacity(n + 2 * protocols);
        while out.len() < n {
            let first_of_pair = self.blocks % 2 == 0;
            for side in self.verify_first.iter_mut() {
                *side = if first_of_pair {
                    self.rng.below(2) == 1
                } else {
                    !*side
                };
            }
            let mut lanes: [Vec<Kind>; CONNECTIONS] = [Vec::new(), Vec::new()];
            for (p, &verify_first) in self.verify_first.iter().enumerate() {
                let (first, second) = if verify_first {
                    (Kind::Verify(p), Kind::Bmc(p))
                } else {
                    (Kind::Bmc(p), Kind::Verify(p))
                };
                lanes[0].push(first);
                lanes[1].push(second);
            }
            for lane in &mut lanes {
                self.rng.shuffle(lane);
            }
            let slot = self.rng.below(protocols);
            lanes[self.blocks % CONNECTIONS][slot] = self.new_subset();
            self.blocks += 1;
            for (a, b) in lanes[0].iter().zip(&lanes[1]) {
                out.extend([a.clone(), b.clone()]);
            }
        }
        out.truncate(n);
        out
    }

    /// The next clause-subset verify. Subsets take the protocols in turn,
    /// and each protocol's turns walk its seeded drop order, so every run
    /// inserts frames of every protocol alike; the tag makes each one new.
    fn new_subset(&mut self) -> Kind {
        self.subsets += 1;
        let p = self.subsets % self.entries.len();
        let order = &self.drop_order[p];
        let dropped = order[(self.subsets / self.entries.len()) % order.len()];
        Kind::Subset(p, dropped, self.subsets)
    }
}

/// The invariant as wire clauses, without clause `dropped`, names tagged
/// with `tag` unless it is 0.
fn clauses(invariant: &[Conjecture], dropped: Option<usize>, tag: usize) -> Json {
    Json::Arr(
        invariant
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != dropped)
            .map(|(_, c)| {
                let name = if tag == 0 {
                    c.name.clone()
                } else {
                    format!("{}_{tag}", c.name)
                };
                Json::obj([
                    ("name", Json::str(name)),
                    ("formula", Json::str(c.formula.to_string())),
                ])
            })
            .collect(),
    )
}

/// Sends `kinds` at once as one burst, the connections taking turns, and
/// collects every answer. Returns the answers and the span from the send
/// time to the last response. The load generator takes a yardstick
/// checkpoint before the burst, every [`BESIDE_GAP`] while it waits
/// for the responses, and after them.
fn drive(
    daemon: &Daemon,
    work: &Workload,
    tracer: &mut Tracer,
    kinds: &[Kind],
) -> (Vec<Answer>, Span) {
    let lines: Vec<String> = kinds
        .iter()
        .enumerate()
        .map(|(i, k)| work.request(i, k))
        .collect();
    tracer.checkpoint();
    let start = Instant::now();
    let per_conn = |c: usize| (c..kinds.len()).step_by(CONNECTIONS).collect::<Vec<_>>();
    let (sent, received) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let ids = per_conn(c);
                let stream = daemon.conns[c].try_clone().expect("clone stream");
                stream
                    .set_read_timeout(Some(READ_TIMEOUT))
                    .expect("set a read timeout");
                scope.spawn(move || {
                    let mut reader = BufReader::new(stream);
                    ids.into_iter()
                        .map(|id| {
                            let mut line = String::new();
                            let n = reader.read_line(&mut line).unwrap_or(0);
                            (id, Instant::now(), (n > 0).then_some(line))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // One thread generates the load for both connections.
        let mut writers: Vec<TcpStream> = daemon
            .conns
            .iter()
            .map(|c| c.try_clone().expect("clone stream"))
            .collect();
        let mut sent = vec![start; kinds.len()];
        for (i, line) in lines.iter().enumerate() {
            sent[i] = Instant::now();
            if writers[i % CONNECTIONS].write_all(line.as_bytes()).is_err() {
                break;
            }
        }
        while !readers.iter().all(|r| r.is_finished()) {
            tracer.checkpoint_beside();
            std::thread::sleep(BESIDE_GAP);
        }
        let mut received = Vec::new();
        for r in readers {
            received.extend(r.join().expect("reader thread"));
        }
        (sent, received)
    });
    tracer.checkpoint();
    let mut answers: Vec<Option<Answer>> = (0..kinds.len()).map(|_| None).collect();
    let mut last = start;
    for (id, at, line) in received {
        last = last.max(at);
        let parsed = line.as_deref().and_then(|l| Json::parse(l.trim()).ok());
        let num = |path: &[&str]| {
            let mut v = parsed.as_ref();
            for key in path {
                v = v.and_then(|j| j.get(key));
            }
            v.and_then(Json::as_f64).unwrap_or(0.0)
        };
        let ok = parsed
            .as_ref()
            .and_then(|j| j.get("ok"))
            .and_then(Json::as_bool)
            == Some(true);
        let code = parsed
            .as_ref()
            .and_then(|j| j.get("error"))
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .map(str::to_string);
        answers[id] = Some(Answer {
            kind: kinds[id].clone(),
            latency: Span {
                from: start,
                to: at,
            },
            late_ms: sent[id].duration_since(start).as_secs_f64() * 1e3,
            verdict: ok
                .then(|| {
                    parsed
                        .as_ref()
                        .and_then(|j| j.get("verdict"))
                        .and_then(Json::as_str)
                        .map(str::to_string)
                })
                .flatten(),
            wall_ms: num(&["wall_ms"]),
            frame_hits: num(&["cache", "frame_hits"]),
            frame_misses: num(&["cache", "frame_misses"]),
            busy: code.as_deref() == Some("busy"),
        });
    }
    let answers = answers
        .into_iter()
        .map(|a| a.expect("every request was answered or counted"))
        .collect();
    (
        answers,
        Span {
            from: start,
            to: last,
        },
    )
}

/// The in-process reference verdict for one request kind.
fn reference(entries: &[ProtocolEntry], oracle: &Arc<Oracle>, kind: &Kind) -> String {
    let verify = |p: usize, inv: Vec<Conjecture>| match Verifier::with_oracle(
        &entries[p].program,
        oracle.clone(),
    )
    .check(&inv)
    {
        Ok(r) if r.is_inductive() => "inductive".to_string(),
        Ok(_) => "cti".to_string(),
        Err(e) => format!("error: {e}"),
    };
    match kind {
        Kind::Verify(p) => verify(*p, entries[*p].invariant.clone()),
        Kind::Subset(p, dropped, _) => {
            let mut inv = entries[*p].invariant.clone();
            inv.remove(*dropped);
            verify(*p, inv)
        }
        Kind::Bmc(p) => {
            match Bmc::with_oracle(&entries[*p].program, oracle.clone()).check_safety(BMC_DEPTH) {
                Ok(None) => "safe".to_string(),
                Ok(Some(_)) => "trace".to_string(),
                Err(e) => format!("error: {e}"),
            }
        }
    }
}

pub fn run(args: &Args, tracer: &mut Tracer, e2e: &mut EndToEnd) {
    let entries: Vec<ProtocolEntry> = protocols()
        .into_iter()
        .filter(|e| e.name != "Learning switch")
        .collect();
    let fixed: Vec<Kind> = (0..entries.len())
        .flat_map(|p| [Kind::Verify(p), Kind::Bmc(p)])
        .collect();
    let mut work = Workload {
        verify_first: vec![false; entries.len()],
        entries,
        drop_order: Vec::new(),
        subsets: 0,
        blocks: 0,
        rng: Rng::new(args.seed),
    };
    work.drop_order = work
        .entries
        .iter()
        .map(|e| {
            let mut order: Vec<usize> = (0..e.invariant.len()).collect();
            work.rng.shuffle(&mut order);
            order
        })
        .collect();
    let warm: Vec<String> = fixed
        .iter()
        .enumerate()
        .map(|(i, k)| work.request(i, k))
        .collect();
    let daemon = repeated_setup(SETUP_REPS, 1, tracer, e2e, || Daemon::start(&warm));

    let mut answers: Vec<Answer> = Vec::new();
    let rollup_before = daemon.server.oracle().rollup();
    tracer.begin();
    // The passes: bursts of the mix sent at once; a burst's drain time is
    // the server's time to clear it, and its operations are the requests'
    // latencies.
    run_passes(args.seconds, BURST_S, &mut e2e.work, || {
        let kinds = work.schedule(ROUND);
        let (burst, drain) = drive(&daemon, &work, tracer, &kinds);
        e2e.ops.push(burst.iter().map(|a| a.latency).collect());
        answers.extend(burst);
        drain
    });
    e2e.per_pass = ROUND as f64;
    tracer.end(CONNECTIONS as u32);
    let phases_ms = tracer.window_phase_ms();
    let rollup = daemon.server.oracle().rollup();
    tracer.add_rollup(&OracleRollup {
        frame_hits: rollup.frame_hits - rollup_before.frame_hits,
        frame_misses: rollup.frame_misses - rollup_before.frame_misses,
        sessions_built: rollup.sessions_built - rollup_before.sessions_built,
        ..OracleRollup::new()
    });
    drop(daemon);

    // Per-request layer numbers come from each response's own `cache` and
    // `wall_ms`, never from its `profile` block, which prints the
    // process-global registry.
    let mut handle_ms = 0.0;
    for a in &answers {
        tracer.add("serve.requests", 1.0);
        tracer.add(
            "serve.wait_ms",
            (a.latency.seconds() * 1e3 - a.late_ms - a.wall_ms).max(0.0),
        );
        tracer.add("serve.frame_hits", a.frame_hits);
        tracer.add("serve.frame_misses", a.frame_misses);
        tracer.add("serve.busy", f64::from(u8::from(a.busy)));
        tracer.add("loadgen.late_ms", a.late_ms);
        handle_ms += a.wall_ms;
    }
    // Handling runs the program phases; the rest is the server's own time.
    tracer.add_handle(handle_ms - phases_ms, answers.len() as u64);

    // Check every verdict against an in-process answer on the same input.
    let oracle = Arc::new(Oracle::new());
    let mut expected: BTreeMap<Kind, String> = BTreeMap::new();
    for a in &answers {
        e2e.attempted += 1;
        // Tags rename clauses only; the answer is that of the untagged form.
        let key = match a.kind {
            Kind::Subset(p, dropped, _) => Kind::Subset(p, dropped, 0),
            ref other => other.clone(),
        };
        let want = expected
            .entry(key)
            .or_insert_with_key(|key| reference(&work.entries, &oracle, key));
        if a.verdict.as_deref() != Some(want.as_str()) {
            e2e.failed += 1;
            eprintln!(
                "serve-mixed: {:?} answered {:?}, in-process {want}",
                a.kind, a.verdict
            );
        }
    }
}
