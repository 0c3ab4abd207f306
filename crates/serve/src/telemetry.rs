//! Server-side telemetry: per-request stage timing, lock-free latency
//! histograms, rolling gauges, and the `snslpd-telemetry/v1` snapshot.
//!
//! # Stages
//!
//! Every request carries a [`ReqTelem`] from the moment its line is read
//! to the moment its reply hits the connection writer. [`ReqTelem::mark`]
//! charges the time since the previous mark to one of five stages:
//!
//! * **parse** — request-line JSON decode plus module parse/verify;
//! * **queue** — waiting in the job queue for a worker;
//! * **compile** — the driver invocation (or the memo lookup on a hit);
//! * **render** — reply-body JSON rendering;
//! * **write** — from render until the reply is handed to the socket.
//!
//! Because every interval lands in exactly one stage, the stage sums of a
//! request equal its span duration *by construction* — the fuzz oracle in
//! `crates/serve/tests/access_log.rs` holds the implementation to that.
//!
//! # Recording policy
//!
//! Only successful compile replies (fresh compiles and memo hits) enter
//! the latency histograms; `requests_served` counts exactly those, so
//! every stage histogram's `count` equals `requests_served` and
//! `compile_hit.count + compile_miss.count` equals it too. Busy refusals,
//! compile errors, malformed requests, and `stats` requests land in their
//! own counters and never touch the histograms — a retry storm cannot
//! poison p99.
//!
//! All record-path operations are relaxed atomics (no locks); snapshots
//! are read with the same cheap loads, so a `stats` request under load
//! observes a consistent-enough view without stalling compiles.

use std::sync::atomic::{AtomicU64, Ordering};

use snslp_bench::json::{as_count, obj, read_doc, Json, View};
use snslp_core::CacheStats;
use snslp_trace::hist::{bucket_lo, bucket_width, NUM_BUCKETS};
use snslp_trace::serve::EVENT_ACCESS;
use snslp_trace::{clock, trace_event, HistSnapshot, Histogram};

/// Schema tag of the telemetry snapshot returned by the `stats` op.
pub const TELEMETRY_SCHEMA: &str = "snslpd-telemetry/v1";

/// The latency histograms a snapshot carries, in canonical order.
pub const HIST_NAMES: [&str; 7] = [
    "request_total",
    "parse",
    "queue",
    "compile_hit",
    "compile_miss",
    "render",
    "write",
];

/// One of the five per-request timing stages (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Request-line decode plus module parse/verify.
    Parse,
    /// Job-queue wait.
    Queue,
    /// Driver invocation or memo lookup.
    Compile,
    /// Reply-body rendering.
    Render,
    /// Render-to-socket handoff.
    Write,
}

const NUM_STAGES: usize = 5;

impl Stage {
    fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Queue => 1,
            Stage::Compile => 2,
            Stage::Render => 3,
            Stage::Write => 4,
        }
    }
}

/// What kind of request this was, for the access log and counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// A compile request (well-formed enough to classify).
    Compile,
    /// A `stats` control request.
    Stats,
    /// A line that failed request parsing.
    Invalid,
}

impl ReqKind {
    fn label(self) -> &'static str {
        match self {
            ReqKind::Compile => "compile",
            ReqKind::Stats => "stats",
            ReqKind::Invalid => "invalid",
        }
    }
}

/// How the request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyClass {
    /// `status: ok`.
    Ok,
    /// `status: busy` (admission refusal; not compiled).
    Busy,
    /// `status: error` (malformed request or compile failure).
    Error,
}

impl ReplyClass {
    fn label(self) -> &'static str {
        match self {
            ReplyClass::Ok => "ok",
            ReplyClass::Busy => "busy",
            ReplyClass::Error => "error",
        }
    }
}

/// Per-request stage accumulator. Created when the request line is read,
/// marked at each stage boundary, and recorded into the registry just
/// before the reply is written.
#[derive(Debug)]
pub struct ReqTelem {
    /// Request classification (set after parse; starts `Invalid`).
    pub kind: ReqKind,
    /// Reply classification (set when the body is chosen).
    pub class: ReplyClass,
    /// Was this compile answered from the whole-request memo?
    pub memo: bool,
    /// Instrumented native activations this request executed while
    /// rendering a `hot` artifact (0 when the artifact was not asked
    /// for, memoized, or the host has no native backend).
    pub native_runs: u64,
    /// Native instruction executions those activations measured.
    pub native_ops: u64,
    id: u64,
    bytes_in: u64,
    bytes_out: u64,
    start_ns: u64,
    last_ns: u64,
    stage_ns: [u64; NUM_STAGES],
}

impl ReqTelem {
    /// Starts the span: one clock read, `bytes_in` = request line bytes
    /// including the newline.
    pub fn start(bytes_in: u64) -> ReqTelem {
        let now = clock::now_ns();
        ReqTelem {
            kind: ReqKind::Invalid,
            class: ReplyClass::Error,
            memo: false,
            native_runs: 0,
            native_ops: 0,
            id: 0,
            bytes_in,
            bytes_out: 0,
            start_ns: now,
            last_ns: now,
            stage_ns: [0; NUM_STAGES],
        }
    }

    /// Sets the echoed request id once parsing recovers it.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    /// Charges the time since the previous mark to `stage`.
    pub fn mark(&mut self, stage: Stage) {
        let now = clock::now_ns();
        self.stage_ns[stage.index()] += now.saturating_sub(self.last_ns);
        self.last_ns = now;
    }

    /// Reply line bytes, including the newline.
    pub fn set_bytes_out(&mut self, bytes: u64) {
        self.bytes_out = bytes;
    }

    /// Accounts a native-execution pass made for the `hot` artifact:
    /// `runs` instrumented activations measuring `ops` instruction
    /// executions in total.
    pub fn note_native(&mut self, runs: u64, ops: u64) {
        self.native_runs += runs;
        self.native_ops += ops;
    }

    /// Nanoseconds accumulated in `stage` so far.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stage_ns[stage.index()]
    }

    /// Span duration so far: start to the latest mark. Equals the sum of
    /// the stage accumulators by construction.
    pub fn total_ns(&self) -> u64 {
        self.last_ns.saturating_sub(self.start_ns)
    }
}

/// The server's telemetry registry: histograms, counters, gauges. One
/// per [`crate::ServerState`]; shared by every connection and worker.
#[derive(Debug)]
pub struct Telemetry {
    request_total: Histogram,
    parse: Histogram,
    queue: Histogram,
    compile_hit: Histogram,
    compile_miss: Histogram,
    render: Histogram,
    write: Histogram,
    requests_served: AtomicU64,
    memo_hits: AtomicU64,
    busy_replies: AtomicU64,
    error_replies: AtomicU64,
    stats_requests: AtomicU64,
    invalid_requests: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    hot_requests: AtomicU64,
    native_runs: AtomicU64,
    native_ops: AtomicU64,
    busy_workers: AtomicU64,
    peak_busy_workers: AtomicU64,
    peak_inflight: AtomicU64,
    peak_queue_depth: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    pub fn new() -> Telemetry {
        Telemetry {
            request_total: Histogram::new(),
            parse: Histogram::new(),
            queue: Histogram::new(),
            compile_hit: Histogram::new(),
            compile_miss: Histogram::new(),
            render: Histogram::new(),
            write: Histogram::new(),
            requests_served: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            busy_replies: AtomicU64::new(0),
            error_replies: AtomicU64::new(0),
            stats_requests: AtomicU64::new(0),
            invalid_requests: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            hot_requests: AtomicU64::new(0),
            native_runs: AtomicU64::new(0),
            native_ops: AtomicU64::new(0),
            busy_workers: AtomicU64::new(0),
            peak_busy_workers: AtomicU64::new(0),
            peak_inflight: AtomicU64::new(0),
            peak_queue_depth: AtomicU64::new(0),
        }
    }

    /// Records one finished request (all marks done, `bytes_out` set) and
    /// emits its access-log line. Called exactly once per request, just
    /// before the reply is written.
    pub fn record(&self, t: &ReqTelem) {
        self.bytes_in.fetch_add(t.bytes_in, Ordering::Relaxed);
        self.bytes_out.fetch_add(t.bytes_out, Ordering::Relaxed);
        match t.kind {
            ReqKind::Invalid => {
                self.invalid_requests.fetch_add(1, Ordering::Relaxed);
            }
            ReqKind::Stats => {
                self.stats_requests.fetch_add(1, Ordering::Relaxed);
            }
            ReqKind::Compile => match t.class {
                ReplyClass::Busy => {
                    self.busy_replies.fetch_add(1, Ordering::Relaxed);
                }
                ReplyClass::Error => {
                    self.error_replies.fetch_add(1, Ordering::Relaxed);
                }
                ReplyClass::Ok => {
                    self.requests_served.fetch_add(1, Ordering::Relaxed);
                    if t.native_runs > 0 {
                        self.hot_requests.fetch_add(1, Ordering::Relaxed);
                        self.native_runs.fetch_add(t.native_runs, Ordering::Relaxed);
                        self.native_ops.fetch_add(t.native_ops, Ordering::Relaxed);
                    }
                    self.request_total.record(t.total_ns());
                    self.parse.record(t.stage_ns(Stage::Parse));
                    self.queue.record(t.stage_ns(Stage::Queue));
                    if t.memo {
                        self.memo_hits.fetch_add(1, Ordering::Relaxed);
                        self.compile_hit.record(t.stage_ns(Stage::Compile));
                    } else {
                        self.compile_miss.record(t.stage_ns(Stage::Compile));
                    }
                    self.render.record(t.stage_ns(Stage::Render));
                    self.write.record(t.stage_ns(Stage::Write));
                }
            },
        }
        trace_event!(EVENT_ACCESS,
            "id" => t.id,
            "op" => t.kind.label(),
            "status" => t.class.label(),
            "cache" => if t.kind != ReqKind::Compile || t.class != ReplyClass::Ok {
                "none"
            } else if t.memo {
                "memo"
            } else {
                "compiled"
            },
            "parse_ns" => t.stage_ns(Stage::Parse),
            "queue_ns" => t.stage_ns(Stage::Queue),
            "compile_ns" => t.stage_ns(Stage::Compile),
            "render_ns" => t.stage_ns(Stage::Render),
            "write_ns" => t.stage_ns(Stage::Write),
            "total_ns" => t.total_ns(),
            "bytes_in" => t.bytes_in,
            "bytes_out" => t.bytes_out,
        );
    }

    /// A worker started compiling a job.
    pub fn worker_busy_enter(&self) {
        let now = self.busy_workers.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_busy_workers.fetch_max(now, Ordering::Relaxed);
    }

    /// A worker finished its job (called before the reply is sent, so a
    /// client that has seen its reply also sees the worker idle).
    pub fn worker_busy_exit(&self) {
        self.busy_workers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Admission control admitted a request; `inflight_now` is the new
    /// queued-or-running total.
    pub fn note_admitted(&self, inflight_now: u64) {
        self.peak_inflight
            .fetch_max(inflight_now, Ordering::Relaxed);
    }

    /// The job queue grew to `depth` entries.
    pub fn note_queue_depth(&self, depth: u64) {
        self.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Whole-request memo hits so far.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Busy refusals so far.
    pub fn busy_replies(&self) -> u64 {
        self.busy_replies.load(Ordering::Relaxed)
    }

    /// Assembles the full snapshot. The caller supplies the scheduler
    /// gauges the registry cannot see (current inflight, queue depths)
    /// and the function-cache counters.
    pub fn snapshot(
        &self,
        inflight: u64,
        queue_depths: Vec<u64>,
        cache: &CacheStats,
    ) -> TelemetrySnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        TelemetrySnapshot {
            counters: TelemetryCounters {
                requests_served: load(&self.requests_served),
                memo_hits: load(&self.memo_hits),
                busy_replies: load(&self.busy_replies),
                error_replies: load(&self.error_replies),
                stats_requests: load(&self.stats_requests),
                invalid_requests: load(&self.invalid_requests),
                bytes_in: load(&self.bytes_in),
                bytes_out: load(&self.bytes_out),
                hot_requests: load(&self.hot_requests),
                native_runs: load(&self.native_runs),
                native_ops: load(&self.native_ops),
            },
            cache: CacheCounters {
                hits: cache.hits,
                misses: cache.misses,
                evictions: cache.evictions,
                entries: cache.entries as u64,
            },
            gauges: TelemetryGauges {
                inflight,
                busy_workers: load(&self.busy_workers),
                queue_depths,
                peak_inflight: load(&self.peak_inflight),
                peak_busy_workers: load(&self.peak_busy_workers),
                peak_queue_depth: load(&self.peak_queue_depth),
            },
            hists: vec![
                ("request_total".to_string(), self.request_total.snapshot()),
                ("parse".to_string(), self.parse.snapshot()),
                ("queue".to_string(), self.queue.snapshot()),
                ("compile_hit".to_string(), self.compile_hit.snapshot()),
                ("compile_miss".to_string(), self.compile_miss.snapshot()),
                ("render".to_string(), self.render.snapshot()),
                ("write".to_string(), self.write.snapshot()),
            ],
        }
    }
}

/// Lifetime counters. `requests_served` counts successful compile
/// replies only — it equals every stage histogram's `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryCounters {
    pub requests_served: u64,
    pub memo_hits: u64,
    pub busy_replies: u64,
    pub error_replies: u64,
    pub stats_requests: u64,
    pub invalid_requests: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Served compiles whose `hot` artifact ran native code.
    pub hot_requests: u64,
    /// Instrumented native activations across those requests.
    pub native_runs: u64,
    /// Native instruction executions those activations measured.
    pub native_ops: u64,
}

/// Function-level artifact-cache counters (mirrors
/// [`snslp_core::CacheStats`], with `entries` widened for the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: u64,
}

/// Point-in-time scheduler gauges plus lifetime peaks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryGauges {
    /// Compile requests queued-or-running right now.
    pub inflight: u64,
    /// Workers inside a compile right now.
    pub busy_workers: u64,
    /// Current depth of each job queue (`snslpd` has one).
    pub queue_depths: Vec<u64>,
    pub peak_inflight: u64,
    pub peak_busy_workers: u64,
    pub peak_queue_depth: u64,
}

/// One `snslpd-telemetry/v1` document: counters, cache, gauges, and the
/// seven latency histograms of [`HIST_NAMES`].
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    pub counters: TelemetryCounters,
    pub cache: CacheCounters,
    pub gauges: TelemetryGauges,
    /// `(name, snapshot)` in [`HIST_NAMES`] order.
    pub hists: Vec<(String, HistSnapshot)>,
}

impl TelemetrySnapshot {
    /// The named histogram, if present.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Everything that happened between `earlier` and `self` (two
    /// snapshots of the same server, `self` taken later): counters and
    /// cache subtract, histograms take bucket-wise deltas, gauges come
    /// from `self` (they are point-in-time, not cumulative).
    #[must_use]
    pub fn delta(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let c = &self.counters;
        let e = &earlier.counters;
        TelemetrySnapshot {
            counters: TelemetryCounters {
                requests_served: c.requests_served.saturating_sub(e.requests_served),
                memo_hits: c.memo_hits.saturating_sub(e.memo_hits),
                busy_replies: c.busy_replies.saturating_sub(e.busy_replies),
                error_replies: c.error_replies.saturating_sub(e.error_replies),
                stats_requests: c.stats_requests.saturating_sub(e.stats_requests),
                invalid_requests: c.invalid_requests.saturating_sub(e.invalid_requests),
                bytes_in: c.bytes_in.saturating_sub(e.bytes_in),
                bytes_out: c.bytes_out.saturating_sub(e.bytes_out),
                hot_requests: c.hot_requests.saturating_sub(e.hot_requests),
                native_runs: c.native_runs.saturating_sub(e.native_runs),
                native_ops: c.native_ops.saturating_sub(e.native_ops),
            },
            cache: CacheCounters {
                hits: self.cache.hits.saturating_sub(earlier.cache.hits),
                misses: self.cache.misses.saturating_sub(earlier.cache.misses),
                evictions: self.cache.evictions.saturating_sub(earlier.cache.evictions),
                entries: self.cache.entries,
            },
            gauges: self.gauges.clone(),
            hists: self
                .hists
                .iter()
                .map(|(name, h)| {
                    let before = earlier.hist(name).cloned().unwrap_or_default();
                    (name.clone(), h.delta(&before))
                })
                .collect(),
        }
    }

    // -- wire form ----------------------------------------------------

    /// The snapshot as a JSON value (deterministic member order).
    pub fn to_json(&self) -> Json {
        let c = &self.counters;
        let g = &self.gauges;
        let cache = &self.cache;
        obj([
            ("schema", TELEMETRY_SCHEMA.into()),
            (
                "counters",
                obj([
                    ("requests_served", c.requests_served.into()),
                    ("memo_hits", c.memo_hits.into()),
                    ("busy_replies", c.busy_replies.into()),
                    ("error_replies", c.error_replies.into()),
                    ("stats_requests", c.stats_requests.into()),
                    ("invalid_requests", c.invalid_requests.into()),
                    ("bytes_in", c.bytes_in.into()),
                    ("bytes_out", c.bytes_out.into()),
                    ("hot_requests", c.hot_requests.into()),
                    ("native_runs", c.native_runs.into()),
                    ("native_ops", c.native_ops.into()),
                ]),
            ),
            (
                "cache",
                obj([
                    ("hits", cache.hits.into()),
                    ("misses", cache.misses.into()),
                    ("evictions", cache.evictions.into()),
                    ("entries", cache.entries.into()),
                ]),
            ),
            (
                "gauges",
                obj([
                    ("inflight", g.inflight.into()),
                    ("busy_workers", g.busy_workers.into()),
                    (
                        "queue_depths",
                        Json::Arr(g.queue_depths.iter().map(|&d| d.into()).collect()),
                    ),
                    ("peak_inflight", g.peak_inflight.into()),
                    ("peak_busy_workers", g.peak_busy_workers.into()),
                    ("peak_queue_depth", g.peak_queue_depth.into()),
                ]),
            ),
            (
                "histograms",
                obj(self
                    .hists
                    .iter()
                    .map(|(name, h)| (name.as_str(), hist_to_json(h)))),
            ),
        ])
    }

    /// Pretty-printed document (the golden-file form).
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// The strict re-validating reader. Beyond shape and types it
    /// re-derives every derivable field and rejects any disagreement:
    /// quantiles must match a recomputation from the buckets, bucket
    /// counts must sum to `count`, `min`/`max` must fall inside the
    /// outermost occupied buckets, stage-histogram counts must equal
    /// `requests_served`, and the stage sums must add up to the
    /// request-total sum.
    pub fn from_json(doc: &Json) -> Result<TelemetrySnapshot, String> {
        let snapshot = read_doc(doc, TELEMETRY_SCHEMA, |o| {
            let counters = o.obj("counters", |c| {
                Ok(TelemetryCounters {
                    requests_served: c.u64("requests_served")?,
                    memo_hits: c.u64("memo_hits")?,
                    busy_replies: c.u64("busy_replies")?,
                    error_replies: c.u64("error_replies")?,
                    stats_requests: c.u64("stats_requests")?,
                    invalid_requests: c.u64("invalid_requests")?,
                    bytes_in: c.u64("bytes_in")?,
                    bytes_out: c.u64("bytes_out")?,
                    hot_requests: c.u64("hot_requests")?,
                    native_runs: c.u64("native_runs")?,
                    native_ops: c.u64("native_ops")?,
                })
            })?;
            let cache = o.obj("cache", |c| {
                Ok(CacheCounters {
                    hits: c.u64("hits")?,
                    misses: c.u64("misses")?,
                    evictions: c.u64("evictions")?,
                    entries: c.u64("entries")?,
                })
            })?;
            let gauges = o.obj("gauges", |g| {
                Ok(TelemetryGauges {
                    inflight: g.u64("inflight")?,
                    busy_workers: g.u64("busy_workers")?,
                    queue_depths: g.counts("queue_depths")?,
                    peak_inflight: g.u64("peak_inflight")?,
                    peak_busy_workers: g.u64("peak_busy_workers")?,
                    peak_queue_depth: g.u64("peak_queue_depth")?,
                })
            })?;
            let hists = o.obj("histograms", |h| {
                HIST_NAMES
                    .iter()
                    .map(|&name| Ok((name.to_string(), h.obj(name, hist_from_json)?)))
                    .collect()
            })?;
            Ok(TelemetrySnapshot {
                counters,
                cache,
                gauges,
                hists,
            })
        })?;
        if snapshot.gauges.queue_depths.is_empty() {
            return Err("gauges.queue_depths must name at least one queue".to_string());
        }
        snapshot.check_cross_invariants()?;
        Ok(snapshot)
    }

    /// Counter/histogram agreement: the invariants the recording policy
    /// guarantees, re-checked on every read so the two can never
    /// silently diverge.
    fn check_cross_invariants(&self) -> Result<(), String> {
        let served = self.counters.requests_served;
        let total = self.hist("request_total").expect("canonical set");
        if total.count != served {
            return Err(format!(
                "request_total.count {} != counters.requests_served {served}",
                total.count
            ));
        }
        let hit = self.hist("compile_hit").expect("canonical set");
        let miss = self.hist("compile_miss").expect("canonical set");
        if hit.count + miss.count != served {
            return Err(format!(
                "compile_hit.count {} + compile_miss.count {} != requests_served {served}",
                hit.count, miss.count
            ));
        }
        if hit.count != self.counters.memo_hits {
            return Err(format!(
                "compile_hit.count {} != counters.memo_hits {}",
                hit.count, self.counters.memo_hits
            ));
        }
        let mut stage_sum = 0u64;
        for name in ["parse", "queue", "render", "write"] {
            let h = self.hist(name).expect("canonical set");
            if h.count != served {
                return Err(format!(
                    "{name}.count {} != counters.requests_served {served}",
                    h.count
                ));
            }
            stage_sum += h.sum;
        }
        stage_sum += hit.sum + miss.sum;
        if stage_sum != total.sum {
            return Err(format!(
                "stage sums {stage_sum} != request_total.sum {} \
                 (stages must partition every request's span)",
                total.sum
            ));
        }
        let c = &self.counters;
        if c.hot_requests > served {
            return Err(format!(
                "hot_requests {} > requests_served {served} \
                 (only served compiles can run native code)",
                c.hot_requests
            ));
        }
        if c.native_runs < c.hot_requests {
            return Err(format!(
                "native_runs {} < hot_requests {} \
                 (every hot request executes at least one activation)",
                c.native_runs, c.hot_requests
            ));
        }
        if c.native_ops > 0 && c.native_runs == 0 {
            return Err(format!(
                "native_ops {} counted without any native_runs",
                c.native_ops
            ));
        }
        Ok(())
    }
}

/// Renders one histogram as its wire object: summary fields plus sparse
/// `[index, count]` bucket pairs.
fn hist_to_json(h: &HistSnapshot) -> Json {
    obj([
        ("count", h.count.into()),
        ("sum_ns", h.sum.into()),
        ("min_ns", h.min.into()),
        ("max_ns", h.max.into()),
        ("p50_ns", h.quantile(50.0).into()),
        ("p90_ns", h.quantile(90.0).into()),
        ("p99_ns", h.quantile(99.0).into()),
        (
            "buckets",
            Json::Arr(
                h.buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| Json::Arr(vec![i.into(), c.into()]))
                    .collect(),
            ),
        ),
    ])
}

/// Strict histogram reader: reads the members, then [`rebuild_hist`]
/// checks them, its errors prefixed with the histogram's path.
fn hist_from_json(doc: &mut View) -> Result<HistSnapshot, String> {
    let count = doc.u64("count")?;
    let sum = doc.u64("sum_ns")?;
    let min = doc.u64("min_ns")?;
    let max = doc.u64("max_ns")?;
    let claimed = [doc.u64("p50_ns")?, doc.u64("p90_ns")?, doc.u64("p99_ns")?];
    let pairs = doc.arr("buckets")?;
    rebuild_hist(count, sum, min, max, claimed, pairs).map_err(|e| format!("{}: {e}", doc.path()))
}

/// Rebuilds the dense snapshot from the sparse pairs, then re-derives
/// the summary fields and rejects disagreement.
fn rebuild_hist(
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    claimed: [u64; 3],
    pairs: &[Json],
) -> Result<HistSnapshot, String> {
    let mut buckets = vec![0u64; NUM_BUCKETS];
    let mut last_idx: Option<usize> = None;
    let mut bucket_total = 0u64;
    for pair in pairs {
        let Some([idx, c]) = pair.as_arr() else {
            return Err("bucket entries must be [index, count]".to_string());
        };
        let idx = as_count(idx).ok_or("bucket index must be a count")?;
        let c = as_count(c).ok_or("bucket count must be a count")?;
        let Some(idx) = usize::try_from(idx).ok().filter(|&i| i < NUM_BUCKETS) else {
            return Err(format!("bucket index {idx} out of range"));
        };
        if last_idx.is_some_and(|prev| idx <= prev) {
            return Err("bucket indices must be strictly ascending".to_string());
        }
        if c == 0 {
            return Err("sparse buckets must omit zero counts".to_string());
        }
        last_idx = Some(idx);
        buckets[idx] = c;
        bucket_total += c;
    }
    if bucket_total != count {
        return Err(format!(
            "bucket counts sum to {bucket_total}, `count` says {count}"
        ));
    }
    let snap = HistSnapshot {
        buckets,
        count,
        sum,
        min,
        max,
    };
    if count == 0 {
        if sum != 0 || min != 0 || max != 0 {
            return Err("empty histogram must have zero sum/min/max".to_string());
        }
    } else {
        let first = snap.buckets.iter().position(|&c| c > 0).expect("count > 0");
        let last = snap
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .expect("count > 0");
        let in_bucket = |v: u64, i: usize| v >= bucket_lo(i) && v - bucket_lo(i) < bucket_width(i);
        if !in_bucket(min, first) {
            return Err(format!(
                "min_ns {min} outside first occupied bucket {first}"
            ));
        }
        if !in_bucket(max, last) {
            return Err(format!("max_ns {max} outside last occupied bucket {last}"));
        }
        if min > max {
            return Err("min_ns > max_ns".to_string());
        }
        if sum < count.saturating_mul(min) || sum > count.saturating_mul(max) {
            return Err(format!(
                "sum_ns {sum} implausible for count {count} in [{min}, {max}]"
            ));
        }
    }
    for ((key, p), claimed) in [("p50_ns", 50.0), ("p90_ns", 90.0), ("p99_ns", 99.0)]
        .into_iter()
        .zip(claimed)
    {
        let derived = snap.quantile(p);
        if claimed != derived {
            return Err(format!(
                "{key} {claimed} disagrees with bucket recomputation {derived}"
            ));
        }
    }
    Ok(snap)
}

// -- human rendering ---------------------------------------------------

/// Formats nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the snapshot as an aligned human-readable table — the
/// `snslp-client stats` and `snslp-top --once` form.
pub fn render_table(s: &TelemetrySnapshot) -> String {
    use std::fmt::Write as _;
    let c = &s.counters;
    let g = &s.gauges;
    let mut out = String::new();
    let _ = writeln!(out, "snslpd telemetry ({TELEMETRY_SCHEMA})");
    out.push_str("\ncounters\n");
    let rows = [
        ("requests_served", c.requests_served),
        ("memo_hits", c.memo_hits),
        ("busy_replies", c.busy_replies),
        ("error_replies", c.error_replies),
        ("stats_requests", c.stats_requests),
        ("invalid_requests", c.invalid_requests),
        ("bytes_in", c.bytes_in),
        ("bytes_out", c.bytes_out),
        ("hot_requests", c.hot_requests),
        ("native_runs", c.native_runs),
        ("native_ops", c.native_ops),
    ];
    for (name, v) in rows {
        let _ = writeln!(out, "  {name:<18} {v:>12}");
    }
    let lookups = s.cache.hits + s.cache.misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        100.0 * s.cache.hits as f64 / lookups as f64
    };
    out.push_str("\ncache\n");
    let _ = writeln!(
        out,
        "  hits {:<10} misses {:<10} evictions {:<8} entries {:<8} hit_rate {:.1}%",
        s.cache.hits, s.cache.misses, s.cache.evictions, s.cache.entries, hit_rate
    );
    out.push_str("\ngauges\n");
    let depths = g
        .queue_depths
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        out,
        "  inflight {:<6} busy_workers {:<6} queue_depths [{depths}]",
        g.inflight, g.busy_workers
    );
    let _ = writeln!(
        out,
        "  peaks: inflight {:<6} busy_workers {:<6} queue_depth {}",
        g.peak_inflight, g.peak_busy_workers, g.peak_queue_depth
    );
    out.push_str("\nhistograms\n");
    let _ = writeln!(
        out,
        "  {:<15} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50", "p90", "p99", "max"
    );
    for (name, h) in &s.hists {
        let _ = writeln!(
            out,
            "  {:<15} {:>8} {:>10} {:>10} {:>10} {:>10}",
            name,
            h.count,
            fmt_ns(h.quantile(50.0)),
            fmt_ns(h.quantile(90.0)),
            fmt_ns(h.quantile(99.0)),
            fmt_ns(h.max),
        );
    }
    out
}

/// Compresses a histogram's occupied bucket range into at most `cols`
/// columns of block glyphs (`▁`..`█`), each column scaled against the
/// densest column. Empty histograms render as an empty string.
pub fn sparkline(h: &HistSnapshot, cols: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (Some(first), Some(last)) = (
        h.buckets.iter().position(|&c| c > 0),
        h.buckets.iter().rposition(|&c| c > 0),
    ) else {
        return String::new();
    };
    let span = last - first + 1;
    let mut columns = vec![0u64; cols.max(1).min(span)];
    let n = columns.len();
    for (i, &c) in h.buckets[first..=last].iter().enumerate() {
        columns[i * n / span] += c;
    }
    let peak = *columns.iter().max().expect("at least one column");
    columns
        .iter()
        .map(|&c| {
            if c == 0 {
                ' '
            } else {
                GLYPHS[((c * 8).div_ceil(peak) as usize).clamp(1, 8) - 1]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snslp_trace::hist::Histogram;

    fn sample_snapshot() -> TelemetrySnapshot {
        let telem = Telemetry::new();
        // Three served requests: two compiled, one memo hit. The first
        // compile also renders a `hot` artifact (native execution).
        for (memo, scale) in [(false, 7u64), (false, 3), (true, 1)] {
            let mut t = ReqTelem::start(100);
            t.kind = ReqKind::Compile;
            t.class = ReplyClass::Ok;
            t.memo = memo;
            if scale == 7 {
                t.note_native(4, 1_000);
            }
            // Synthesize stage times directly (virtual-clock-free).
            t.stage_ns = [
                50 * scale,
                200 * scale,
                9000 * scale,
                30 * scale,
                20 * scale,
            ];
            t.last_ns = t.start_ns + t.stage_ns.iter().sum::<u64>();
            t.set_bytes_out(400);
            telem.record(&t);
        }
        let mut busy = ReqTelem::start(80);
        busy.kind = ReqKind::Compile;
        busy.class = ReplyClass::Busy;
        busy.set_bytes_out(60);
        telem.record(&busy);
        telem.note_admitted(2);
        telem.note_queue_depth(3);
        telem.snapshot(
            1,
            vec![0, 2],
            &CacheStats {
                hits: 10,
                misses: 5,
                evictions: 1,
                entries: 5,
            },
        )
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample_snapshot();
        assert_eq!(snap.counters.requests_served, 3);
        assert_eq!(snap.counters.memo_hits, 1);
        assert_eq!(snap.counters.busy_replies, 1);
        assert_eq!(snap.counters.hot_requests, 1);
        assert_eq!(snap.counters.native_runs, 4);
        assert_eq!(snap.counters.native_ops, 1_000);
        let doc = Json::parse(&snap.render()).unwrap();
        let back = TelemetrySnapshot::from_json(&doc).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn busy_replies_stay_out_of_the_histograms() {
        let snap = sample_snapshot();
        assert_eq!(snap.hist("request_total").unwrap().count, 3);
        assert_eq!(snap.counters.busy_replies, 1);
        // bytes still counted for the busy request
        assert_eq!(snap.counters.bytes_in, 380);
    }

    #[test]
    fn reader_rejects_tampered_documents() {
        let snap = sample_snapshot();
        let tamper = |edit: &dyn Fn(&mut Json)| -> Result<TelemetrySnapshot, String> {
            let mut doc = Json::parse(&snap.render()).unwrap();
            edit(&mut doc);
            TelemetrySnapshot::from_json(&doc)
        };
        let set = |doc: &mut Json, path: &[&str], v: Json| {
            let mut cur = doc;
            for (i, key) in path.iter().enumerate() {
                let Json::Obj(members) = cur else {
                    panic!("not an object")
                };
                let slot = &mut members
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .expect("path exists")
                    .1;
                if i + 1 == path.len() {
                    *slot = v;
                    return;
                }
                cur = slot;
            }
        };
        // Wrong schema tag.
        assert!(tamper(&|d| set(d, &["schema"], Json::Str("nope/v0".into()))).is_err());
        // Counter that disagrees with the histograms.
        assert!(tamper(&|d| set(d, &["counters", "requests_served"], Json::Num(99.0))).is_err());
        // Native ops without any recorded activation.
        assert!(tamper(&|d| set(d, &["counters", "native_runs"], Json::Num(0.0))).is_err());
        // More hot requests than served compiles.
        assert!(tamper(&|d| set(d, &["counters", "hot_requests"], Json::Num(9.0))).is_err());
        // Quantile that disagrees with the buckets.
        assert!(tamper(&|d| set(
            d,
            &["histograms", "request_total", "p50_ns"],
            Json::Num(1.0)
        ))
        .is_err());
        // Unknown member.
        assert!(tamper(&|d| {
            let Json::Obj(members) = d else {
                unreachable!()
            };
            members.push(("extra".to_string(), Json::Null));
        })
        .is_err());
        // Untouched parses fine.
        assert!(tamper(&|_| {}).is_ok());
    }

    #[test]
    fn delta_isolates_a_window() {
        let telem = Telemetry::new();
        let record_one = |memo: bool| {
            let mut t = ReqTelem::start(10);
            t.kind = ReqKind::Compile;
            t.class = ReplyClass::Ok;
            t.memo = memo;
            t.stage_ns = [1, 2, 3, 4, 5];
            t.last_ns = t.start_ns + 15;
            t.set_bytes_out(20);
            telem.record(&t);
        };
        let stats = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            entries: 0,
        };
        record_one(false);
        let before = telem.snapshot(0, vec![0], &stats);
        record_one(true);
        record_one(true);
        let after = telem.snapshot(0, vec![0], &stats);
        let window = after.delta(&before);
        assert_eq!(window.counters.requests_served, 2);
        assert_eq!(window.counters.memo_hits, 2);
        assert_eq!(window.hist("request_total").unwrap().count, 2);
        assert_eq!(window.hist("compile_miss").unwrap().count, 0);
        // Deltas still satisfy every cross-invariant.
        window.check_cross_invariants().unwrap();
    }

    #[test]
    fn table_rendering_covers_every_histogram() {
        let table = render_table(&sample_snapshot());
        for name in HIST_NAMES {
            assert!(table.contains(name), "table missing {name}");
        }
        assert!(table.contains("hit_rate"));
    }

    #[test]
    fn sparkline_scales_to_the_densest_column() {
        let hist = Histogram::new();
        for _ in 0..80 {
            hist.record(1_000);
        }
        hist.record(1_000_000);
        let line = sparkline(&hist.snapshot(), 16);
        assert!(line.chars().count() <= 16);
        assert!(line.contains('█'), "dense column must peak: {line:?}");
        assert!(line.contains('▁'), "sparse column must floor: {line:?}");
        assert_eq!(sparkline(&Histogram::new().snapshot(), 16), "");
    }

    #[test]
    fn empty_histogram_serializes_and_validates() {
        let h = Histogram::new().snapshot();
        let doc = hist_to_json(&h);
        let back = View::read(&doc, String::new(), hist_from_json).unwrap();
        assert_eq!(back, h);
    }
}
