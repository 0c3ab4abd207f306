//! Service-side trace vocabulary for `snslpd`.
//!
//! The compile service emits the same record stream as the batch driver,
//! so every span and event it produces must come from this fixed
//! vocabulary — consumers (the Perfetto exporter, `tracecheck`, log
//! grepping in CI) match on these literal names. Keep the constants here
//! rather than scattering string literals through `crates/serve`.

/// Span covering one accepted connection, from accept to hangup.
pub const SPAN_CONNECTION: &str = "serve.connection";

/// Event: a request was refused with a `busy` reply (in-flight limit).
pub const EVENT_BUSY: &str = "serve.busy";

/// Event: a whole request was answered from the module-text memo.
pub const EVENT_MEMO_HIT: &str = "serve.memo_hit";

/// Event: an invalid environment override was ignored (e.g. a
/// non-numeric `SNSLP_THREADS`); carries the variable and raw value.
pub const EVENT_ENV_IGNORED: &str = "env.ignored";

/// Access-log record: exactly one per request the server answered, with
/// the per-stage nanosecond breakdown (`parse_ns`, `queue_ns`,
/// `compile_ns`, `render_ns`, `write_ns`, `total_ns`), the request `id`,
/// `op`, reply `status`, `cache` outcome, and `bytes_in`/`bytes_out`.
/// With the JSON sink this is the NDJSON access log; the strict
/// validator lives in `snslp_bench::tracecheck::validate_access_log`.
pub const EVENT_ACCESS: &str = "serve.access";
