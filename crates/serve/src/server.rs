//! The `snslpd` server: one job queue drained by a fixed worker pool,
//! admission control, and the two-level artifact cache.
//!
//! # Architecture
//!
//! Each connection gets a *reader* (the connection's own thread) and a
//! *writer* (a scoped helper thread). The reader classifies each request
//! line and answers cheap cases inline — stats, malformed requests,
//! whole-request memo hits, busy refusals — while compile jobs go to the
//! job queue with a per-request reply channel. The writer drains reply
//! channels **in request order**, so replies are ordered per connection
//! even though compiles from many connections finish out of order.
//!
//! [`ServeConfig::workers`] threads pop jobs from the one queue. Each job
//! is one request: its own module, compiled by one
//! [`run_slp_module_cached`] call on the worker's thread.
//!
//! Admission control is explicit and is the queue's only bound: beyond
//! [`ServeConfig::max_inflight`] queued-or-running compile requests the
//! server answers `{"status":"busy"}` instead of queueing unboundedly —
//! the HTTP-429 analogue. Clients retry; connections are never dropped.
//!
//! # Caching
//!
//! Two levels, both content-addressed:
//!
//! 1. a whole-request memo — stable hash of the raw module text ×
//!    config fingerprint × artifact set → the rendered reply body, so an
//!    exact resubmission skips even the parser;
//! 2. the function-level [`ArtifactCache`] inside the driver, so a
//!    module that shares *some* functions with earlier traffic
//!    recompiles only the changed ones.
//!
//! Replies carry no wall-clock fields, so both levels return bytes
//! identical to the cold compile that populated them.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use snslp_bench::attrib::{attrib_function, render_html, AttribReport};
use snslp_bench::json::Json;
use snslp_core::{
    run_slp_module_cached, ArtifactCache, CacheStats, FunctionReport, Lru, SlpConfig,
};
use snslp_cost::CostModel;
use snslp_interp::{module_inputs, run_with_args, ExecOptions};
use snslp_ir::{parse_module, stable_text_hash, Function, Module};
use snslp_trace::serve::{EVENT_BUSY, EVENT_MEMO_HIT, SPAN_CONNECTION};
use snslp_trace::{trace_event, Span};

use crate::proto::{
    address, failure_body, ok_body, stats_body, CompileRequest, Request, STATUS_BUSY, STATUS_ERROR,
};
use crate::telemetry::{ReplyClass, ReqKind, ReqTelem, Stage, Telemetry, TelemetrySnapshot};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the job queue; each compiles one request
    /// at a time.
    pub workers: usize,
    /// Compile requests queued-or-running before new ones go busy.
    pub max_inflight: usize,
    /// Function-level artifact cache capacity (entries).
    pub cache_entries: usize,
    /// Whole-request memo capacity (entries).
    pub memo_entries: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_inflight: 256,
            cache_entries: 4096,
            memo_entries: 4096,
        }
    }
}

/// One reply travelling to a connection writer: the rendered line plus
/// the request's telemetry, which the writer seals (final `write` mark,
/// byte counts, one registry record) just before the socket write.
pub struct ReplyMsg {
    pub(crate) line: String,
    pub(crate) telem: ReqTelem,
}

/// One queued compile job: a parsed, verified request plus its reply
/// channel.
struct Job {
    id: u64,
    compile: CompileRequest,
    module: Module,
    cfg: SlpConfig,
    memo_key: u128,
    telem: ReqTelem,
    reply: mpsc::Sender<ReplyMsg>,
}

struct MemoEntry {
    body: String,
    num_functions: u64,
}

/// Shared server state: job queue, caches, telemetry.
pub struct ServerState {
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is queued and when `stop` is set.
    queue_cv: Condvar,
    inflight: AtomicUsize,
    stop: AtomicBool,
    cache: ArtifactCache,
    /// Whole-request memo: memo key → rendered reply.
    memo: Lru<u128, MemoEntry>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState")
            .field("cfg", &self.cfg)
            .field("inflight", &self.inflight.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ServerState {
    fn new(cfg: ServeConfig) -> ServerState {
        ServerState {
            cache: ArtifactCache::new(cfg.cache_entries),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            inflight: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            memo: Lru::new(cfg.memo_entries),
            telemetry: Telemetry::new(),
            cfg,
        }
    }

    /// Function-level cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The telemetry registry (histograms, counters, gauges).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Whole-request memo hits so far.
    pub fn memo_hits(&self) -> u64 {
        self.telemetry.memo_hits()
    }

    /// Busy refusals so far.
    pub fn busy_replies(&self) -> u64 {
        self.telemetry.busy_replies()
    }

    /// A full `snslpd-telemetry/v1` snapshot: registry state plus the
    /// scheduler gauges only the server can see.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let queue_depth = self.lock_queue().len() as u64;
        self.telemetry.snapshot(
            self.inflight.load(Ordering::Relaxed) as u64,
            vec![queue_depth],
            &self.cache.stats(),
        )
    }

    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    // -- memo ---------------------------------------------------------

    fn memo_key(text_hash: u128, fingerprint: u64, compile: &CompileRequest) -> u128 {
        // keep_graph_dots is already inside the fingerprint; codegen,
        // dynstats and hot change only the reply body, so they need
        // their own bits in the memo key.
        let artifact_bits = u128::from(compile.artifacts.codegen)
            | (u128::from(compile.artifacts.dynstats) << 1)
            | (u128::from(compile.artifacts.hot) << 2);
        text_hash ^ (u128::from(fingerprint) << 64) ^ artifact_bits
    }

    // -- request intake -----------------------------------------------

    /// Classifies one request line. Cheap cases (stats, errors, memo
    /// hits, busy) are answered through `reply` immediately; compile jobs
    /// are queued and answered later by a worker. Either way
    /// exactly one [`ReplyMsg`] is eventually sent on `reply`, carrying
    /// the request's stage telemetry for the writer to seal.
    pub fn handle_line(
        self: &Arc<Self>,
        line: &str,
        mut telem: ReqTelem,
        reply: mpsc::Sender<ReplyMsg>,
    ) {
        let request = match Request::parse(line) {
            Err((id, msg)) => {
                telem.mark(Stage::Parse);
                telem.set_id(id.unwrap_or(0));
                let line = address(id.unwrap_or(0), &failure_body(STATUS_ERROR, &msg));
                telem.mark(Stage::Render);
                let _ = reply.send(ReplyMsg { line, telem });
                return;
            }
            Ok(r) => {
                telem.mark(Stage::Parse);
                r
            }
        };
        telem.set_id(request.id());
        match request {
            Request::Stats { id } => {
                telem.kind = ReqKind::Stats;
                telem.class = ReplyClass::Ok;
                let line = address(id, &stats_body(&self.telemetry_snapshot()));
                telem.mark(Stage::Render);
                let _ = reply.send(ReplyMsg { line, telem });
            }
            Request::Compile { id, compile } => {
                telem.kind = ReqKind::Compile;
                self.handle_compile(id, compile, telem, reply);
            }
        }
    }

    fn handle_compile(
        self: &Arc<Self>,
        id: u64,
        compile: CompileRequest,
        mut telem: ReqTelem,
        reply: mpsc::Sender<ReplyMsg>,
    ) {
        let cfg = compile.config();
        let memo_key = Self::memo_key(
            stable_text_hash(&compile.module_text),
            cfg.fingerprint(),
            &compile,
        );
        if let Some(entry) = self.memo.get(&memo_key) {
            telem.memo = true;
            telem.class = ReplyClass::Ok;
            telem.mark(Stage::Compile);
            // A memo hit answers num_functions function lookups without
            // ever reaching the function cache; account for them so the
            // hit rate means "lookups answered without compiling".
            self.cache.note_upstream_hits(entry.num_functions);
            trace_event!(EVENT_MEMO_HIT, "id" => id, "functions" => entry.num_functions);
            let line = address(id, &entry.body);
            telem.mark(Stage::Render);
            let _ = reply.send(ReplyMsg { line, telem });
            return;
        }
        // The missed lookup is compile-path time.
        telem.mark(Stage::Compile);

        // Admission control *before* parsing: under overload the server
        // must shed cheaply, not burn CPU parsing doomed requests.
        let admitted = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.cfg.max_inflight).then_some(n + 1)
            });
        match admitted {
            Ok(prev) => self.telemetry.note_admitted(prev as u64 + 1),
            Err(_) => {
                // The busy counter is bumped when the writer seals the
                // reply, so a client that has read this refusal always
                // sees it counted.
                telem.class = ReplyClass::Busy;
                trace_event!(EVENT_BUSY, "id" => id, "why" => "in-flight limit");
                let body = failure_body(
                    STATUS_BUSY,
                    "server at capacity (in-flight limit); retry later",
                );
                let line = address(id, &body);
                telem.mark(Stage::Render);
                let _ = reply.send(ReplyMsg { line, telem });
                return;
            }
        }

        let module = match parse_module(&compile.module_text) {
            Ok(m) => m,
            Err(e) => {
                self.inflight.fetch_sub(1, Ordering::Relaxed);
                telem.mark(Stage::Parse);
                let line = address(id, &failure_body(STATUS_ERROR, &e.to_string()));
                telem.mark(Stage::Render);
                let _ = reply.send(ReplyMsg { line, telem });
                return;
            }
        };
        for f in module.functions() {
            if let Err(e) = snslp_ir::verify(f) {
                self.inflight.fetch_sub(1, Ordering::Relaxed);
                telem.mark(Stage::Parse);
                let body = failure_body(
                    STATUS_ERROR,
                    &format!("function @{} is malformed: {e}", f.name()),
                );
                let line = address(id, &body);
                telem.mark(Stage::Render);
                let _ = reply.send(ReplyMsg { line, telem });
                return;
            }
        }
        telem.mark(Stage::Parse);

        let job = Job {
            id,
            compile,
            module,
            cfg,
            memo_key,
            telem,
            reply,
        };
        let mut queue = self.lock_queue();
        queue.push_back(job);
        self.telemetry.note_queue_depth(queue.len() as u64);
        drop(queue);
        self.queue_cv.notify_one();
    }

    // -- workers ------------------------------------------------------

    /// Blocks until a job is queued. `None` once `stop` is set and the
    /// queue is empty; `stop` is only set under the queue lock, so the
    /// check below cannot miss the shutdown wake-up.
    fn next_job(&self) -> Option<Job> {
        let mut queue = self.lock_queue();
        loop {
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            if self.stop.load(Ordering::Relaxed) {
                return None;
            }
            queue = self.queue_cv.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn worker(&self, idx: usize) {
        while let Some(job) = self.next_job() {
            self.run_job(job);
        }
        snslp_trace::prof::flush_thread(&format!("serve-worker-{idx}"));
    }

    /// Compiles one request's module through the cached driver, renders
    /// and memoizes its reply.
    fn run_job(&self, mut job: Job) {
        self.telemetry.worker_busy_enter();
        job.telem.mark(Stage::Queue);
        let reports = run_slp_module_cached(&mut job.module, &job.cfg, &self.cache);
        job.telem.mark(Stage::Compile);
        let body = match build_ok_body(&job, &reports) {
            Ok((body, native)) => {
                job.telem.note_native(native.runs, native.ops);
                self.memo.insert(
                    job.memo_key,
                    Arc::new(MemoEntry {
                        body: body.clone(),
                        num_functions: reports.len() as u64,
                    }),
                );
                job.telem.class = ReplyClass::Ok;
                body
            }
            Err(e) => {
                job.telem.class = ReplyClass::Error;
                failure_body(STATUS_ERROR, &e)
            }
        };
        let line = address(job.id, &body);
        job.telem.mark(Stage::Render);
        // Free capacity and go idle *before* the reply travels to the
        // writer: a client that has read its reply then observes the
        // inflight and busy-worker gauges already settled, which is what
        // keeps the virtual-clock telemetry golden byte-stable.
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        self.telemetry.worker_busy_exit();
        let Job { reply, telem, .. } = job;
        let _ = reply.send(ReplyMsg { line, telem });
    }
}

/// Native-execution totals behind one `hot` artifact: how many
/// instrumented activations ran and how many instruction executions
/// they measured. Zero on hosts without the native backend.
#[derive(Debug, Clone, Copy, Default)]
struct NativeExec {
    runs: u64,
    ops: u64,
}

/// Renders a job's `ok` reply body, including any requested artifacts,
/// plus the native-execution totals for the telemetry counters.
fn build_ok_body(job: &Job, reports: &[FunctionReport]) -> Result<(String, NativeExec), String> {
    let functions = job.module.functions();
    let mut native = NativeExec::default();
    let mut artifacts: Vec<(String, String)> = Vec::new();
    if job.compile.artifacts.codegen {
        let mut text = String::new();
        for (i, f) in functions.iter().enumerate() {
            if i > 0 {
                text.push('\n');
            }
            text.push_str(&f.to_string());
        }
        artifacts.push(("codegen".to_string(), text));
    }
    if job.compile.artifacts.html {
        let report = AttribReport {
            mode: job.cfg.mode.code().to_string(),
            functions: reports
                .iter()
                .map(|r| {
                    attrib_function(
                        "serve",
                        r,
                        &snslp_trace::Profile { tracks: Vec::new() },
                        None,
                        None,
                    )
                })
                .collect(),
        };
        artifacts.push(("html".to_string(), render_html(&report)));
    }
    if job.compile.artifacts.dynstats {
        artifacts.push((
            "dynstats".to_string(),
            dynstats_artifact(&job.compile.module_text, functions, &job.cfg)?,
        ));
    }
    if job.compile.artifacts.hot {
        let (text, exec) = hot_artifact(&job.compile.module_text, reports, functions, &job.cfg)?;
        native = exec;
        artifacts.push(("hot".to_string(), text));
    }
    Ok((ok_body(reports, &artifacts), native))
}

/// The `hot` artifact: every function compiled with instrumented-hotness
/// lowering, run natively on the module's `; INPUTS:` line, and rendered
/// as a `snslp-hot/v1` document. Exact counts only (no wall clock), so
/// the reply stays deterministic and memoizable. Hosts without the
/// native backend answer with an empty artifact — the absence of a
/// measurement is not a compile error.
fn hot_artifact(
    source: &str,
    reports: &[FunctionReport],
    functions: &[Function],
    cfg: &SlpConfig,
) -> Result<(String, NativeExec), String> {
    if !snslp_jit::native_supported() {
        return Ok((String::new(), NativeExec::default()));
    }
    let label = cfg.mode.code().to_string();
    let model = CostModel::default();
    let mut native = NativeExec::default();
    let mut entries = Vec::new();
    for f in functions {
        let args = module_inputs(source, f).map_err(|e| format!("hot: {e}"))?;
        let decisions = reports
            .iter()
            .find(|r| r.function == f.name())
            .map(snslp_bench::hot::decision_map)
            .unwrap_or_default();
        // A jit fallback or trap is a legitimate gap in coverage, not
        // an error: the function simply has no row.
        if let Some(profile) =
            snslp_jit::check_hotness(f, &args, &model, &ExecOptions::default(), decisions)?
        {
            native.runs += 1;
            native.ops += profile.total_ops();
            entries.push(snslp_bench::hot::HotEntry {
                kernel: f.name().to_string(),
                label: label.clone(),
                dyn_insts: profile.total_ops(),
                profile,
            });
        }
    }
    let doc = snslp_bench::hot::HotDoc {
        mode: snslp_jit::HotMode::Instrumented,
        entries,
    };
    Ok((doc.to_json(), native))
}

/// The `dynstats` artifact: every function interpreted on the module's
/// `; INPUTS:` line, rendered as one compact JSON object. Deterministic
/// (simulated cycles, no wall clock).
fn dynstats_artifact(
    source: &str,
    functions: &[Function],
    cfg: &SlpConfig,
) -> Result<String, String> {
    let mut rows = Vec::new();
    for f in functions {
        let args = module_inputs(source, f).map_err(|e| format!("dynstats: {e}"))?;
        let out = run_with_args(f, &args, &cfg.model, &ExecOptions::default())
            .map_err(|e| format!("dynstats: @{}: execution failed: {e}", f.name()))?;
        rows.push((
            f.name().to_string(),
            Json::Obj(vec![
                ("cycles".to_string(), Json::Num(out.exec.cycles as f64)),
                (
                    "dyn_insts".to_string(),
                    Json::Num(out.exec.dyn_insts as f64),
                ),
                (
                    "vector_ops".to_string(),
                    Json::Num(out.exec.profile.vector_ops as f64),
                ),
                (
                    "scalar_ops".to_string(),
                    Json::Num(out.exec.profile.scalar_ops as f64),
                ),
            ]),
        ));
    }
    Ok(Json::Obj(rows).render_compact())
}

// ---------------------------------------------------------------------
// Connections and the server handle.
// ---------------------------------------------------------------------

/// Serves one connection: reads request lines, answers in request order.
///
/// The reply pipeline is the heart of ordered pipelining: every request
/// gets an `mpsc` channel whose receiver is pushed (in request order)
/// onto the writer's queue; the writer blocks on the *oldest* pending
/// reply, so out-of-order compile completions are reordered before
/// hitting the wire.
pub fn serve_connection(state: &Arc<ServerState>, reader: impl BufRead, writer: impl Write + Send) {
    let span = Span::enter(SPAN_CONNECTION);
    let writer = Mutex::new(writer);
    // Replies handed to the writer thread but not yet written. While this
    // is zero the writer is idle and its queue empty, so the reader may
    // write an already-available reply itself — the warm fast path, which
    // skips two thread handoffs per request (that is most of a memo hit's
    // latency on a loaded box).
    let pending_writes = AtomicUsize::new(0);
    let write_line = |line: &str| {
        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
        writeln!(w, "{line}").and_then(|()| w.flush()).is_ok()
    };
    // Seals a reply: final `write` mark, reply-byte accounting, one
    // registry record plus the access-log line — all *before* the socket
    // write syscall, so a sequential client's next request (possibly a
    // `stats` probe) always observes this request's telemetry.
    let complete = |msg: ReplyMsg| -> String {
        let ReplyMsg { line, mut telem } = msg;
        telem.set_bytes_out(line.len() as u64 + 1);
        telem.mark(Stage::Write);
        state.telemetry().record(&telem);
        line
    };
    let (tx_order, rx_order) = mpsc::channel::<mpsc::Receiver<ReplyMsg>>();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut broken = false;
            for pending in rx_order {
                // On any failure keep draining so compile workers never
                // block on a dead connection's channels.
                if let Ok(msg) = pending.recv() {
                    let line = complete(msg);
                    if !broken && !write_line(&line) {
                        broken = true;
                    }
                }
                pending_writes.fetch_sub(1, Ordering::Release);
            }
        });
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let telem = ReqTelem::start(line.len() as u64 + 1);
            let (tx, rx) = mpsc::channel();
            state.handle_line(&line, telem, tx);
            // Already answered (stats, memo hit, busy, error) with
            // nothing queued ahead? Write it in-line; ordering is safe
            // because the writer has provably finished everything else.
            if pending_writes.load(Ordering::Acquire) == 0 {
                if let Ok(ready) = rx.try_recv() {
                    let ready = complete(ready);
                    if !write_line(&ready) {
                        break;
                    }
                    continue;
                }
            }
            pending_writes.fetch_add(1, Ordering::Release);
            if tx_order.send(rx).is_err() {
                break;
            }
        }
        drop(tx_order);
    });
    drop(span);
}

/// A running server: queue workers plus (optionally) a Unix-socket
/// accept loop. Dropping without [`Server::shutdown`] leaks the worker
/// threads until process exit — fine for a daemon, rude in tests.
#[derive(Debug)]
pub struct Server {
    state: Arc<ServerState>,
    workers: Vec<std::thread::JoinHandle<()>>,
    listener: Option<(std::thread::JoinHandle<()>, PathBuf)>,
}

impl Server {
    /// Starts the workers. No I/O yet: combine with
    /// [`Server::bind_unix`] or [`Server::serve_stdio`].
    pub fn start(cfg: ServeConfig) -> Server {
        let state = Arc::new(ServerState::new(cfg));
        let workers = (0..state.cfg.workers.max(1))
            .map(|i| {
                let state = state.clone();
                std::thread::Builder::new()
                    .name(format!("snslpd-worker-{i}"))
                    .spawn(move || state.worker(i))
                    .expect("spawn worker")
            })
            .collect();
        Server {
            state,
            workers,
            listener: None,
        }
    }

    /// Shared state (for stats and in-process request handling).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Binds a Unix socket and spawns the accept loop. A stale socket
    /// file at `path` is removed first.
    pub fn bind_unix(&mut self, path: &Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let state = self.state.clone();
        let handle = std::thread::Builder::new()
            .name("snslpd-accept".to_string())
            .spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let state = state.clone();
                        let _ = std::thread::Builder::new()
                            .name("snslpd-conn".to_string())
                            .spawn(move || {
                                stream.set_nonblocking(false).ok();
                                let reader = match stream.try_clone() {
                                    Ok(s) => BufReader::new(s),
                                    Err(_) => return,
                                };
                                serve_connection(&state, reader, stream);
                            });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if state.stop.load(Ordering::Relaxed) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            })?;
        self.listener = Some((handle, path.to_path_buf()));
        Ok(())
    }

    /// Serves stdin/stdout as one connection; returns at EOF.
    pub fn serve_stdio(&self) {
        let stdin = std::io::stdin();
        serve_connection(&self.state, stdin.lock(), std::io::stdout());
    }

    /// Connects to this server in-process over a `UnixStream` pair —
    /// used by tests.
    pub fn connect_in_process(&self) -> std::io::Result<UnixStream> {
        let (client, server_side) = UnixStream::pair()?;
        let state = self.state.clone();
        std::thread::Builder::new()
            .name("snslpd-conn".to_string())
            .spawn(move || {
                let reader = match server_side.try_clone() {
                    Ok(s) => BufReader::new(s),
                    Err(_) => return,
                };
                serve_connection(&state, reader, server_side);
            })?;
        Ok(client)
    }

    /// Stops workers and the accept loop, removes the socket file.
    pub fn shutdown(self) {
        {
            let _queue = self.state.lock_queue();
            self.state.stop.store(true, Ordering::Relaxed);
        }
        self.state.queue_cv.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
        if let Some((handle, path)) = self.listener {
            let _ = handle.join();
            let _ = std::fs::remove_file(path);
        }
    }
}
