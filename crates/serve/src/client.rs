//! Minimal blocking client for the `snslpd` NDJSON protocol: one
//! connection, sequential request/reply, plus reply parsing helpers
//! shared by `snslp-client`, `snslp-top` and perfbench.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use snslp_bench::json::Json;

use crate::proto::Request;

/// One blocking connection to a server.
#[derive(Debug)]
pub struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
    next_id: u64,
}

/// A parsed reply: the envelope fields every response carries.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Echoed request id.
    pub id: u64,
    /// `ok`, `busy`, or `error`.
    pub status: String,
    /// Error message (non-`ok` replies).
    pub error: Option<String>,
    /// The full reply document, for callers that want reports/artifacts.
    pub json: Json,
    /// The raw reply line as received (byte-identity checks key off this).
    pub raw: String,
}

impl Reply {
    /// Parses one reply line.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing/ill-typed envelope field.
    pub fn parse(line: &str) -> Result<Reply, String> {
        let json = Json::parse(line).map_err(|e| format!("bad reply JSON: {e}"))?;
        let Json::Obj(fields) = &json else {
            return Err("reply is not a JSON object".to_string());
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let id = match get("id") {
            Some(Json::Num(n)) if *n >= 0.0 => *n as u64,
            _ => return Err("reply lacks a numeric `id`".to_string()),
        };
        let status = match get("status") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err("reply lacks a string `status`".to_string()),
        };
        let error = match get("error") {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        };
        Ok(Reply {
            id,
            status,
            error,
            json,
            raw: line.to_string(),
        })
    }
}

impl Client {
    /// Connects to a server's Unix socket.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(socket: &Path) -> std::io::Result<Client> {
        Ok(Client::from_stream(UnixStream::connect(socket)?))
    }

    /// Wraps an already-connected stream (in-process server pairs).
    #[must_use]
    pub fn from_stream(stream: UnixStream) -> Client {
        let reader = BufReader::new(stream.try_clone().expect("clone unix stream"));
        Client {
            stream,
            reader,
            next_id: 1,
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends one raw request line and reads one reply line.
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed reply.
    pub fn round_trip(&mut self, line: &str) -> Result<Reply, String> {
        writeln!(self.stream, "{line}").map_err(|e| format!("send failed: {e}"))?;
        self.stream
            .flush()
            .map_err(|e| format!("flush failed: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive failed: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        Reply::parse(reply.trim_end())
    }

    /// Compiles a module, retrying `busy` replies with a short backoff.
    /// Returns the final reply plus how many busy refusals preceded it.
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed reply.
    pub fn compile(
        &mut self,
        module_text: &str,
        mode: &str,
        target: &str,
        artifacts: &[&str],
    ) -> Result<(Reply, u64), String> {
        let mut busy = 0u64;
        loop {
            let id = self.fresh_id();
            let line = Request::render_compile(id, module_text, mode, target, artifacts);
            let reply = self.round_trip(&line)?;
            if reply.status == crate::proto::STATUS_BUSY {
                busy += 1;
                std::thread::sleep(std::time::Duration::from_micros(200));
                continue;
            }
            return Ok((reply, busy));
        }
    }

    /// Fetches server cache statistics.
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed reply.
    pub fn stats(&mut self) -> Result<Reply, String> {
        let id = self.fresh_id();
        self.round_trip(&Request::render_stats(id))
    }

    /// Fetches and strictly validates the server's `snslpd-telemetry/v1`
    /// snapshot (the `telemetry` member of a `stats` reply).
    ///
    /// # Errors
    ///
    /// I/O failure, a malformed reply, or a snapshot the strict reader
    /// rejects.
    pub fn telemetry(&mut self) -> Result<crate::telemetry::TelemetrySnapshot, String> {
        let reply = self.stats()?;
        let doc = reply
            .json
            .get("telemetry")
            .ok_or("stats reply lacks a `telemetry` member")?;
        crate::telemetry::TelemetrySnapshot::from_json(doc)
    }
}
