//! The SN-SLP compile service: `snslpd` (a long-running daemon answering
//! newline-delimited JSON compile requests over a Unix socket or stdio),
//! `snslp-client` (a one-shot CLI client), and the latency-gated load
//! generator behind `snslp-bench serve`.
//!
//! Why a service at all: the driver is fast, but cold process startup
//! plus module parsing dominates small-module compile latency, and a
//! fleet of short-lived `snslpc` invocations shares nothing. A resident
//! server amortizes both through two content-addressed cache levels — a
//! whole-request memo over the raw module text and the function-level
//! [`snslp_core::ArtifactCache`] — and schedules concurrent requests
//! onto work-stealing shards that batch compatible jobs into single
//! driver invocations. See [`server`] for the architecture and
//! [`proto`] for the wire format.

pub mod client;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod telemetry;

pub use client::{Client, Reply};
pub use loadgen::{run_loadgen, LoadgenOptions};
pub use proto::{Request, STATUS_BUSY, STATUS_ERROR, STATUS_OK};
pub use server::{serve_connection, ReplyMsg, ServeConfig, Server, ServerState};
pub use telemetry::{TelemetrySnapshot, TELEMETRY_SCHEMA};
