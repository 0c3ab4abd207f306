//! The serve phase: the real `snslpd` binary with its default
//! configuration on a Unix socket, fresh for every round, and two
//! closed-loop clients. Each client sends a seeded mix of requests in the
//! ratio 1 `new` : 2 `edit` : 2 `repeat`:
//!
//! * `new` — an unseen 12-function module: misses both cache levels;
//! * `edit` — an earlier module of the same client with one function
//!   replaced: misses the whole-request memo, and 11 of its 12 functions
//!   hit the function-level artifact cache;
//! * `repeat` — a byte-identical earlier module: hits the memo.
//!
//! A round's working set stays under the default cache capacities, so
//! repeats and edits are true hits. Every reply must be `ok` with one
//! report per function, and every `repeat` reply must carry the same body
//! its text first received.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use snslp_bench::json::Json;
use snslp_fuzz::{generate, Rng};
use snslp_serve::{Client, Reply, Request, ServeConfig, TelemetrySnapshot, STATUS_BUSY, STATUS_OK};
use snslp_trace::hist::{bucket_lo, bucket_width};
use snslp_trace::HistSnapshot;

use crate::compile::FUNCTIONS_PER_MODULE;
use crate::stats::{fastest_quantile, ratio, Fastest};
use crate::{derive_seed, Breakdown, Metric, Split, Tally};

const SALT: u64 = 0x5345_5256;

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;

/// Directory, relative to the working directory, that holds the
/// daemons' sockets while they run.
pub const SOCKET_DIR: &str = ".perfbench";

/// The three request classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// An unseen module.
    New,
    /// An earlier module with one function replaced.
    Edit,
    /// A byte-identical earlier module.
    Repeat,
}

impl Class {
    /// Every class, in metric order.
    pub const ALL: [Class; 3] = [Class::New, Class::Edit, Class::Repeat];

    fn name(self) -> &'static str {
        match self {
            Class::New => "new",
            Class::Edit => "edit",
            Class::Repeat => "repeat",
        }
    }
}

/// One scripted request.
#[derive(Debug, Clone)]
pub struct Req {
    /// Its class.
    pub class: Class,
    /// The module text sent.
    pub text: String,
    /// For a repeat: the index of the request that first sent this text.
    pub same_as: Option<usize>,
}

/// Both clients' request scripts; every round replays them against a
/// fresh daemon.
///
/// # Errors
///
/// The scripts' working set would not fit the daemon's default caches.
pub fn scripts(seed: u64, requests_per_client: usize) -> Result<Vec<Vec<Req>>, String> {
    let scripts: Vec<Vec<Req>> = (0..CLIENTS)
        .map(|c| script(seed, c as u64, requests_per_client))
        .collect();
    let defaults = ServeConfig::default();
    let compiled = |class| {
        scripts
            .iter()
            .flatten()
            .filter(|r| r.class == class)
            .count()
    };
    let (new, edit) = (compiled(Class::New), compiled(Class::Edit));
    if new * FUNCTIONS_PER_MODULE + edit > defaults.cache_entries
        || new + edit > defaults.memo_entries
    {
        return Err(format!(
            "{new} new and {edit} edit requests per round overflow the daemon's caches"
        ));
    }
    Ok(scripts)
}

/// Edits and repeats refer to one of the client's last few distinct
/// modules, as in an edit-compile loop. Every `new` module then gets its
/// share of edits and repeats, so the classes' latencies sample many
/// modules rather than the first few of the script.
const RECENT: usize = 4;

fn recent<T>(sent: &[T]) -> &[T] {
    &sent[sent.len().saturating_sub(RECENT)..]
}

/// One client's script: blocks of five requests, each block a seeded
/// order of one `new`, two `edit` and two `repeat` (the first block
/// starts with its `new`, so edits and repeats always have a module to
/// refer to).
fn script(seed: u64, stream: u64, requests: usize) -> Vec<Req> {
    let fuzz_seed = derive_seed(seed, SALT);
    let mut rng = Rng::for_case(fuzz_seed, stream);
    let mut next_index = stream << 32;
    let mut fresh = || {
        let f = generate(fuzz_seed, next_index).function.to_string();
        next_index += 1;
        f
    };
    // Every distinct module sent so far, with the request that sent it.
    let mut sent: Vec<(Vec<String>, usize)> = Vec::new();
    let mut out: Vec<Req> = Vec::with_capacity(requests);
    for block in 0..requests / 5 {
        let mut classes = [
            Class::New,
            Class::Edit,
            Class::Edit,
            Class::Repeat,
            Class::Repeat,
        ];
        let first = usize::from(block == 0);
        for i in (first + 1..classes.len()).rev() {
            let j = first + rng.below((i - first + 1) as u64) as usize;
            classes.swap(i, j);
        }
        for class in classes {
            let (functions, same_as) = match class {
                Class::New => ((0..FUNCTIONS_PER_MODULE).map(|_| fresh()).collect(), None),
                Class::Edit => {
                    let mut functions = rng.pick(recent(&sent)).0.clone();
                    functions[rng.below(FUNCTIONS_PER_MODULE as u64) as usize] = fresh();
                    (functions, None)
                }
                Class::Repeat => {
                    let (functions, first) = rng.pick(recent(&sent));
                    (functions.clone(), Some(*first))
                }
            };
            let text = functions.iter().map(|f| format!("{f}\n")).collect();
            if same_as.is_none() {
                sent.push((functions, out.len()));
            }
            out.push(Req {
                class,
                text,
                same_as,
            });
        }
    }
    out
}

/// A running `snslpd`. Dropping it kills the process, waits for it and
/// removes its socket.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `exe` on a fresh socket and waits until it accepts
    /// connections.
    ///
    /// # Errors
    ///
    /// The daemon cannot be spawned, exits, or is not listening within
    /// ten seconds.
    pub fn start(exe: &Path) -> Result<Daemon, String> {
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let n = STARTED.fetch_add(1, Ordering::Relaxed);
        std::fs::create_dir_all(SOCKET_DIR).map_err(|e| format!("create {SOCKET_DIR}: {e}"))?;
        let socket = Path::new(SOCKET_DIR).join(format!("snslpd-{}-{n}.sock", std::process::id()));
        let child = Command::new(exe)
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut daemon = Daemon { child, socket };
        let deadline = Instant::now() + Duration::from_secs(10);
        while UnixStream::connect(&daemon.socket).is_err() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("snslpd exited at start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("snslpd did not listen within 10 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    /// The socket the daemon listens on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The daemon's peak resident set size so far, in MB.
    ///
    /// # Errors
    ///
    /// The process status cannot be read.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::stats::peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One accepted reply's client-side timings (nanoseconds).
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Index of the request in its script.
    index: usize,
    /// First render to accepted reply, busy retries included.
    total: f64,
    render: f64,
    /// Write plus wait plus read.
    wire: f64,
    parse: f64,
    bytes_out: u64,
}

/// What one client thread brings back.
#[derive(Debug, Default)]
struct ClientRun {
    tally: Tally,
    samples: Vec<Sample>,
}

/// The reply body after the echoed id, which the server memoizes.
fn body(raw: &str) -> &str {
    raw.split_once(',').map_or("", |(_, rest)| rest)
}

fn check_reply(reply: &Reply, id: u64, req: &Req, bodies: &[Option<String>]) -> Result<(), String> {
    if reply.status != STATUS_OK {
        return Err(format!(
            "serve: {} request answered `{}`: {}",
            req.class.name(),
            reply.status,
            reply.error.as_deref().unwrap_or("")
        ));
    }
    if reply.id != id {
        return Err(format!("serve: reply id {} for request {id}", reply.id));
    }
    let reports = reply
        .json
        .get("reports")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    if reports != FUNCTIONS_PER_MODULE {
        return Err(format!(
            "serve: {reports} reports for {FUNCTIONS_PER_MODULE} functions"
        ));
    }
    if let Some(first) = req.same_as {
        match &bodies[first] {
            Some(b) if b == body(&reply.raw) => {}
            Some(_) => return Err("serve: repeat reply differs from the first reply".to_string()),
            None => return Err("serve: repeat of a request that failed".to_string()),
        }
    }
    Ok(())
}

/// Sends a script over one connection, each request after the previous
/// reply. Busy refusals count as failed attempts and are retried.
fn drive(socket: &Path, script: &[Req]) -> ClientRun {
    let mut run = ClientRun::default();
    let fail_rest = |run: &mut ClientRun, from: usize, why: String| {
        for _ in from..script.len() {
            run.tally.record(Err(why.clone()));
        }
    };
    let conn = UnixStream::connect(socket).and_then(|s| Ok((s.try_clone()?, s)));
    let (read_half, mut writer) = match conn {
        Ok(halves) => halves,
        Err(e) => {
            fail_rest(&mut run, 0, format!("serve: connect: {e}"));
            return run;
        }
    };
    let mut reader = BufReader::new(read_half);
    let mut bodies: Vec<Option<String>> = vec![None; script.len()];
    let mut id = 0u64;
    let mut reply_line = String::new();
    for (i, req) in script.iter().enumerate() {
        let mut start = None;
        loop {
            id += 1;
            let t0 = Instant::now();
            let start = *start.get_or_insert(t0);
            let mut line = Request::render_compile(id, &req.text, "snslp", "sse2", &[]);
            line.push('\n');
            let t1 = Instant::now();
            reply_line.clear();
            let io = writer
                .write_all(line.as_bytes())
                .and_then(|()| reader.read_line(&mut reply_line));
            let t2 = Instant::now();
            match io {
                Ok(0) => {
                    fail_rest(
                        &mut run,
                        i,
                        "serve: daemon closed the connection".to_string(),
                    );
                    return run;
                }
                Err(e) => {
                    fail_rest(&mut run, i, format!("serve: socket: {e}"));
                    return run;
                }
                Ok(_) => {}
            }
            let reply = Reply::parse(reply_line.trim_end());
            let t3 = Instant::now();
            let reply = match reply {
                Ok(r) if r.status == STATUS_BUSY => {
                    run.tally.record(Err("serve: refused busy".to_string()));
                    std::thread::sleep(Duration::from_micros(200));
                    continue;
                }
                Ok(r) => r,
                Err(e) => {
                    run.tally.record(Err(format!("serve: {e}")));
                    break;
                }
            };
            if run.tally.record(check_reply(&reply, id, req, &bodies)) {
                if req.same_as.is_none() {
                    bodies[i] = Some(body(&reply.raw).to_string());
                }
                let ns = |a: Instant, b: Instant| (b - a).as_nanos() as f64;
                run.samples.push(Sample {
                    index: i,
                    total: ns(start, t3),
                    render: ns(t0, t1),
                    wire: ns(t1, t2),
                    parse: ns(t2, t3),
                    bytes_out: reply_line.len() as u64,
                });
            }
            break;
        }
    }
    run
}

/// The median of a telemetry histogram, interpolated linearly inside the
/// bucket that holds it. `HistSnapshot::quantile` answers with the
/// bucket's lower bound, which reads the same on most runs and hides a
/// change smaller than the bucket (up to 6.25%).
fn interpolated_median(h: &HistSnapshot) -> f64 {
    let rank = (h.count as f64 / 2.0).max(1.0);
    let mut below = 0.0;
    for (idx, &n) in h.buckets.iter().enumerate() {
        let n = n as f64;
        if n > 0.0 && below + n >= rank {
            let width = bucket_width(idx) as f64;
            return bucket_lo(idx) as f64 + width * (rank - below) / n;
        }
        below += n;
    }
    0.0
}

fn telemetry(socket: &Path) -> Result<TelemetrySnapshot, String> {
    Client::connect(socket)
        .map_err(|e| format!("serve: stats connect: {e}"))?
        .telemetry()
}

/// Client-side sums of traced rounds (nanoseconds).
#[derive(Debug, Default)]
struct ClientSums {
    requests: u64,
    total: f64,
    render: f64,
    wire: f64,
    parse: f64,
    bytes_out: u64,
}

/// Server-side telemetry deltas of traced rounds, merged.
#[derive(Debug, Default)]
struct ServerSums {
    hists: Vec<(String, HistSnapshot)>,
    requests_served: u64,
    memo_hits: u64,
    busy_replies: u64,
    fn_hits: u64,
    fn_misses: u64,
    fn_evictions: u64,
    peak_inflight: u64,
}

impl ServerSums {
    fn add(&mut self, d: &TelemetrySnapshot) {
        for (name, h) in &d.hists {
            match self.hists.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(h),
                None => self.hists.push((name.clone(), h.clone())),
            }
        }
        self.requests_served += d.counters.requests_served;
        self.memo_hits += d.counters.memo_hits;
        self.busy_replies += d.counters.busy_replies;
        self.fn_hits += d.cache.hits;
        self.fn_misses += d.cache.misses;
        self.fn_evictions += d.cache.evictions;
        self.peak_inflight = self.peak_inflight.max(d.gauges.peak_inflight);
    }

    fn hist(&self, name: &str) -> HistSnapshot {
        self.hists
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.clone())
            .unwrap_or_default()
    }
}

/// Samples and counts of the serve phase across a run.
#[derive(Debug, Default)]
pub struct ServeBench {
    /// Per client and request, the class and the fastest client-seen
    /// latency (ms).
    latency_ms: Split<Vec<Vec<(Class, Fastest)>>>,
    client: ClientSums,
    server: ServerSums,
    daemon_rss_mb: Vec<f64>,
    counts: Vec<(String, u64)>,
}

impl ServeBench {
    /// Runs one round's scripts against `daemon`, one thread per client.
    /// Traced rounds read the daemon's telemetry before and after.
    ///
    /// # Errors
    ///
    /// The telemetry snapshot cannot be read.
    pub fn run_round(
        &mut self,
        daemon: &Daemon,
        scripts: &[Vec<Req>],
        traced: bool,
        counted: bool,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let socket = daemon.socket();
        let before = traced.then(|| telemetry(socket)).transpose()?;
        let runs: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = scripts
                .iter()
                .map(|script| s.spawn(move || drive(socket, script)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let best = self.latency_ms.pick(traced);
        if best.is_empty() {
            *best = scripts
                .iter()
                .map(|script| {
                    script
                        .iter()
                        .map(|r| (r.class, Fastest::default()))
                        .collect()
                })
                .collect();
        }

        let mut accepted = 0u64;
        for (run, best) in runs.into_iter().zip(best.iter_mut()) {
            for s in &run.samples {
                best[s.index].1.add(s.total / 1e6);
                if traced {
                    let c = &mut self.client;
                    c.requests += 1;
                    c.total += s.total;
                    c.render += s.render;
                    c.wire += s.wire;
                    c.parse += s.parse;
                    c.bytes_out += s.bytes_out;
                }
            }
            accepted += run.samples.len() as u64;
            tally.merge(run.tally);
        }

        if let Some(before) = before {
            let d = telemetry(socket)?.delta(&before);
            tally.record(if d.counters.requests_served == accepted {
                Ok(())
            } else {
                Err(format!(
                    "serve: daemon served {} requests, clients accepted {accepted}",
                    d.counters.requests_served
                ))
            });
            self.server.add(&d);
            if counted {
                self.counts = vec![
                    ("serve.requests".to_string(), accepted),
                    ("serve.memo_hits".to_string(), d.counters.memo_hits),
                    ("serve.fn_cache_hits".to_string(), d.cache.hits),
                    ("serve.fn_cache_misses".to_string(), d.cache.misses),
                    ("serve.fn_cache_evictions".to_string(), d.cache.evictions),
                    ("serve.busy_replies".to_string(), d.counters.busy_replies),
                ];
            }
        }
        Ok(())
    }

    /// Records a finished round's daemon peak memory.
    pub fn note_daemon_rss(&mut self, mb: f64) {
        self.daemon_rss_mb.push(mb);
    }

    /// The largest daemon peak memory of the run.
    pub fn peak_daemon_rss_mb(&self) -> f64 {
        self.daemon_rss_mb.iter().copied().fold(0.0, f64::max)
    }

    /// Per-class p50/p90 over the requests' fastest latencies in traced
    /// rounds, and the closed-loop `requests_per_s` those latencies give.
    ///
    /// These are per-layer metrics, not end-to-end ones: the serve phase
    /// runs five threads on two cores, and in the stretches when other
    /// tenants slow the shared host it slowed by up to 60%, for whole
    /// runs, so no run-level statistic held these within a 25% bound.
    fn client_latencies(&self) -> Vec<Metric> {
        let clients = &self.latency_ms.traced;
        let mut out = Vec::new();
        for class in Class::ALL {
            let of_class: Vec<Fastest> = clients
                .iter()
                .flatten()
                .filter(|(c, _)| *c == class)
                .map(|&(_, f)| f)
                .collect();
            for p in [50, 90] {
                let (value, n) = fastest_quantile(&of_class, f64::from(p));
                out.push(Metric::new(
                    format!("{}_p{p}_ms", class.name()),
                    "ms",
                    value,
                    n,
                ));
            }
        }
        // Each client sends its next request when the previous reply
        // arrives, so its rate is its request count over its busy time.
        let rate = |script: &Vec<(Class, Fastest)>| {
            let done: Vec<f64> = script
                .iter()
                .filter(|(_, f)| f.samples > 0)
                .map(|(_, f)| f.value)
                .collect();
            ratio(done.len() as f64, done.iter().sum::<f64>() / 1e3)
        };
        out.push(Metric::new(
            "requests_per_s",
            "1/s",
            clients.iter().map(rate).sum(),
            clients.iter().flatten().map(|(_, f)| f.samples).sum(),
        ));
        out
    }

    fn client_us(&self, sum: f64) -> f64 {
        ratio(sum, self.client.requests as f64) / 1e3
    }

    /// The `serve.*` layer metrics: server stage p50s from telemetry
    /// deltas, client-side means, cache ratios and counters.
    pub fn per_layer(&self) -> Vec<Metric> {
        let s = &self.server;
        let n = s.requests_served as usize;
        let p50 = |hist: &str| interpolated_median(&s.hist(hist)) / 1e3;
        let mut out = self.client_latencies();
        out.extend(
            [
                ("serve.parse_us_p50", "parse"),
                ("serve.queue_us_p50", "queue"),
                ("serve.compile_miss_us_p50", "compile_miss"),
                ("serve.compile_hit_us_p50", "compile_hit"),
                ("serve.render_us_p50", "render"),
                ("serve.write_us_p50", "write"),
                ("serve.total_us_p50", "request_total"),
            ]
            .map(|(name, hist)| Metric::new(name, "us", p50(hist), s.hist(hist).count as usize)),
        );
        let c = &self.client;
        let server_total = s.hist("request_total").sum as f64;
        let requests = c.requests as usize;
        out.extend([
            Metric::new(
                "serve.client_render_us",
                "us",
                self.client_us(c.render),
                requests,
            ),
            Metric::new(
                "serve.client_parse_us",
                "us",
                self.client_us(c.parse),
                requests,
            ),
            Metric::new(
                "serve.client_gap_us",
                "us",
                self.client_us(c.wire - server_total),
                requests,
            ),
            Metric::new(
                "serve.memo_hit_ratio",
                "ratio",
                ratio(s.memo_hits as f64, s.requests_served as f64),
                n,
            ),
            Metric::new(
                "serve.fn_cache_hit_ratio",
                "ratio",
                ratio(s.fn_hits as f64, (s.fn_hits + s.fn_misses) as f64),
                n,
            ),
            Metric::new(
                "serve.fn_cache_evictions",
                "count",
                s.fn_evictions as f64,
                1,
            ),
            Metric::new("serve.busy_replies", "count", s.busy_replies as f64, 1),
            Metric::new(
                "serve.bytes_out_per_req",
                "bytes",
                ratio(c.bytes_out as f64, c.requests as f64),
                requests,
            ),
            Metric::new("serve.peak_inflight", "count", s.peak_inflight as f64, 1),
        ]);
        out
    }

    /// Per request: client render + client parse + the gap outside the
    /// server + the server's five stages = the round trip the client saw.
    pub fn breakdown(&self) -> Breakdown {
        let s = &self.server;
        let c = &self.client;
        let stage = |hist: &str| self.client_us(s.hist(hist).sum as f64);
        let server_total = s.hist("request_total").sum as f64;
        Breakdown {
            name: "serve",
            whole_us: self.client_us(c.total),
            parts: vec![
                ("client render", self.client_us(c.render)),
                ("client parse", self.client_us(c.parse)),
                ("gap", self.client_us(c.wire - server_total)),
                ("server parse", stage("parse")),
                ("server queue", stage("queue")),
                (
                    "server compile",
                    stage("compile_miss") + stage("compile_hit"),
                ),
                ("server render", stage("render")),
                ("server write", stage("write")),
            ],
        }
    }

    /// Traced over untraced median fastest round trip over all classes:
    /// the traced rounds' telemetry reads around the phase.
    pub fn overhead(&self) -> Metric {
        let p50 = |clients: &[Vec<(Class, Fastest)>]| {
            let all: Vec<Fastest> = clients.iter().flatten().map(|&(_, f)| f).collect();
            fastest_quantile(&all, 50.0)
        };
        let (traced, n) = p50(&self.latency_ms.traced);
        let (plain, m) = p50(&self.latency_ms.plain);
        Metric::new("trace.overhead_ratio.serve", "x", traced / plain, n + m)
    }

    /// Exact counts of round 0 (traced runs only).
    pub fn counts(&self) -> Vec<(String, u64)> {
        self.counts.clone()
    }
}
