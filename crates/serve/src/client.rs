//! The client library: a blocking, single-connection `prdnn-serve` client
//! used by `servebench`, the end-to-end tests, and any embedding that
//! wants typed calls instead of raw frames.

use crate::protocol::{
    read_frame_text, DecodeError, ErrorKind, FrameError, JobState, ModelRef, RegionWire, Request,
    Response, ServerStats, VersionInfo,
};
use prdnn_core::{PointSpec, RepairConfig};
use serde::json::Value;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Transport(String),
    /// The server answered with an error response.
    Server {
        /// Machine-readable category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
        /// Server's backoff hint for retryable errors, when it sent one.
        retry_after_ms: Option<u64>,
    },
    /// The server answered with a response of the wrong type.
    UnexpectedResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(m) => write!(f, "transport error: {m}"),
            ClientError::Server { kind, message, .. } => {
                write!(f, "server error ({kind:?}): {message}")
            }
            ClientError::UnexpectedResponse(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// The server-side error kind, if this is a server error.
    pub fn kind(&self) -> Option<ErrorKind> {
        match self {
            ClientError::Server { kind, .. } => Some(*kind),
            _ => None,
        }
    }
}

/// A blocking client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    /// A correlation id to stamp on the next request sent (one-shot).
    next_request_id: Option<u64>,
    /// The `request_id` the server echoed in the last response.
    last_request_id: Option<u64>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            next_request_id: None,
            last_request_id: None,
        })
    }

    /// Connects with a bound on how long the TCP handshake may take —
    /// under fault injection a proxy may accept slowly or not at all, and
    /// a resilient caller must not block forever on `connect`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures, including the timeout.
    pub fn connect_timeout(addr: &std::net::SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            next_request_id: None,
            last_request_id: None,
        })
    }

    /// Bounds every socket read and write (`None` removes the bound).  A
    /// request whose response never arrives then fails as
    /// [`ClientError::Transport`] instead of hanging the caller.
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failures.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] on connection/framing failures; error
    /// *responses* are returned as `Ok(Response::Error { .. })` here (the
    /// typed helpers below turn them into [`ClientError::Server`]).
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        request
            .send(&mut self.stream, self.next_request_id.take())
            .map_err(|e| ClientError::Transport(e.to_string()))?;
        let (text, _) =
            read_frame_text(&mut self.stream).map_err(|e| ClientError::Transport(e.to_string()))?;
        match Response::decode(&text) {
            Ok((response, request_id)) => {
                self.last_request_id = request_id;
                Ok(response)
            }
            Err(DecodeError::Invalid {
                message,
                request_id,
            }) => {
                self.last_request_id = request_id;
                Err(ClientError::UnexpectedResponse(message))
            }
            Err(DecodeError::Malformed(e)) => {
                self.last_request_id = None;
                let e = FrameError::Malformed(e.to_string());
                Err(ClientError::Transport(e.to_string()))
            }
        }
    }

    /// Stamps `id` as the correlation `request_id` of the **next** request
    /// only; the server echoes it in the response and tags the request's
    /// telemetry spans with it (useful for finding a specific request in
    /// `trace` output).  Without this, the server assigns one.
    pub fn set_next_request_id(&mut self, id: u64) {
        self.next_request_id = Some(id);
    }

    /// The `request_id` the server echoed in the most recent response.
    pub fn last_request_id(&self) -> Option<u64> {
        self.last_request_id
    }

    fn expect(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.request(request)? {
            Response::Error {
                kind,
                message,
                retry_after_ms,
            } => Err(ClientError::Server {
                kind,
                message,
                retry_after_ms,
            }),
            response => Ok(response),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.expect(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Loads a generator-spec model; returns the published version (1).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn load_generator(&mut self, name: &str, generator: &str) -> Result<u32, ClientError> {
        let request = Request::LoadGenerator {
            name: name.to_owned(),
            generator: generator.to_owned(),
        };
        match self.expect(&request)? {
            Response::Loaded { version, .. } => Ok(version),
            other => Err(unexpected("loaded", &other)),
        }
    }

    /// Loads a serialised network (see `prdnn_nn::network_to_json`).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn load_network(
        &mut self,
        name: &str,
        network: &prdnn_nn::Network,
    ) -> Result<u32, ClientError> {
        let request = Request::LoadNetwork {
            name: name.to_owned(),
            network: prdnn_nn::network_to_json(network),
        };
        match self.expect(&request)? {
            Response::Loaded { version, .. } => Ok(version),
            other => Err(unexpected("loaded", &other)),
        }
    }

    /// Evaluates a model version on a batch of inputs.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn eval(
        &mut self,
        model: &ModelRef,
        inputs: Vec<Vec<f64>>,
        deadline_ms: Option<u64>,
    ) -> Result<Vec<Vec<f64>>, ClientError> {
        let request = Request::Eval {
            model: model.clone(),
            inputs,
            deadline_ms,
        };
        match self.expect(&request)? {
            Response::Outputs(outputs) => Ok(outputs),
            other => Err(unexpected("outputs", &other)),
        }
    }

    /// Computes linear regions of a model version over input polytopes.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn lin_regions(
        &mut self,
        model: &ModelRef,
        polytopes: Vec<Vec<Vec<f64>>>,
        deadline_ms: Option<u64>,
    ) -> Result<Vec<Vec<RegionWire>>, ClientError> {
        let request = Request::LinRegions {
            model: model.clone(),
            polytopes,
            deadline_ms,
        };
        match self.expect(&request)? {
            Response::Regions(regions) => Ok(regions),
            other => Err(unexpected("regions", &other)),
        }
    }

    /// Enqueues a repair; returns the job id.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn repair(
        &mut self,
        model: &ModelRef,
        layer: usize,
        spec: PointSpec,
        config: RepairConfig,
    ) -> Result<u64, ClientError> {
        let request = Request::Repair {
            model: model.clone(),
            layer,
            spec,
            config,
        };
        match self.expect(&request)? {
            Response::JobQueued { job } => Ok(job),
            other => Err(unexpected("job_queued", &other)),
        }
    }

    /// Polls a job once.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn job_status(&mut self, job: u64) -> Result<JobState, ClientError> {
        match self.expect(&Request::JobStatus { job })? {
            Response::Job(state) => Ok(state),
            other => Err(unexpected("job", &other)),
        }
    }

    /// Polls a job until it settles (done or failed) or `timeout` passes.
    ///
    /// Poll spacing backs off exponentially (1 ms doubling to a 64 ms
    /// ceiling) so a minutes-long repair costs dozens of status requests,
    /// not tens of thousands, while a fast job is still observed settling
    /// within a couple of milliseconds.  Each sleep is clamped to the time
    /// remaining so the deadline overshoots by at most one poll.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] with a timeout message when the job does
    /// not settle in time; otherwise see [`Client::request`].
    pub fn wait_for_job(&mut self, job: u64, timeout: Duration) -> Result<JobState, ClientError> {
        let deadline = Instant::now() + timeout;
        let mut attempt = 0u32;
        loop {
            match self.job_status(job)? {
                state @ (JobState::Done { .. } | JobState::Failed { .. }) => return Ok(state),
                _ => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    match poll_delay(attempt, remaining) {
                        Some(delay) => std::thread::sleep(delay),
                        None => {
                            return Err(ClientError::Transport(format!(
                                "job {job} did not settle within {timeout:?}"
                            )))
                        }
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Fetches a model version's full serialised form.  The returned
    /// response is always [`Response::Network`]; its `activation`/`value`
    /// documents round-trip weights bit-for-bit, so two fetches of the
    /// same acknowledged version compare equal even across a server
    /// restart.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn get_network(&mut self, model: &ModelRef) -> Result<Response, ClientError> {
        let request = Request::GetNetwork {
            model: model.clone(),
        };
        match self.expect(&request)? {
            network @ Response::Network { .. } => Ok(network),
            other => Err(unexpected("network", &other)),
        }
    }

    /// Lists stored models as `(name, latest_version)`.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn list_models(&mut self) -> Result<Vec<(String, u32)>, ClientError> {
        match self.expect(&Request::ListModels)? {
            Response::Models(models) => Ok(models),
            other => Err(unexpected("models", &other)),
        }
    }

    /// Lists one model's versions with provenance.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn list_versions(&mut self, name: &str) -> Result<Vec<VersionInfo>, ClientError> {
        let request = Request::ListVersions {
            name: name.to_owned(),
        };
        match self.expect(&request)? {
            Response::Versions(versions) => Ok(versions),
            other => Err(unexpected("versions", &other)),
        }
    }

    /// Reads the server's counters.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.expect(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Reads the server's counters rendered as Prometheus text exposition
    /// format (the same numbers as [`Client::stats`], for scrapers).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.expect(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Fetches the server's retained slow-request traces as structured
    /// JSON: an array of `{request_id, kind, total_ms, spans}` objects,
    /// oldest first (see the `telemetry` module docs for the span
    /// taxonomy).  Empty when nothing crossed `--slow-ms`, or when tracing
    /// is disabled (`--slow-ms 0`).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn trace(&mut self) -> Result<Value, ClientError> {
        match self.expect(&Request::Trace)? {
            Response::Trace { slow } => Ok(slow),
            other => Err(unexpected("trace", &other)),
        }
    }

    /// Asks the server to begin graceful shutdown.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.expect(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutting_down", &other)),
        }
    }
}

/// The sleep before poll `attempt + 1` of [`Client::wait_for_job`]:
/// `min(1ms << attempt, 64ms)`, clamped to the `remaining` budget.
/// `None` once the budget is exhausted — time to report the timeout.
fn poll_delay(attempt: u32, remaining: Duration) -> Option<Duration> {
    if remaining.is_zero() {
        return None;
    }
    let backoff = Duration::from_millis(1u64 << attempt.min(6));
    Some(backoff.min(remaining))
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::UnexpectedResponse(format!("expected {wanted}, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_schedule_doubles_caps_and_respects_the_deadline() {
        let budget = Duration::from_secs(60);
        // Doubling run: 1, 2, 4, 8, 16, 32 ms...
        for attempt in 0..6 {
            assert_eq!(
                poll_delay(attempt, budget),
                Some(Duration::from_millis(1 << attempt))
            );
        }
        // ...then pinned to the 64 ms ceiling forever.
        for attempt in [6, 7, 20, 63, u32::MAX] {
            assert_eq!(poll_delay(attempt, budget), Some(Duration::from_millis(64)));
        }
        // Total sleep over the first n polls stays bounded by the budget:
        // each delay is clamped to what is left.
        assert_eq!(
            poll_delay(10, Duration::from_millis(3)),
            Some(Duration::from_millis(3))
        );
        assert_eq!(
            poll_delay(0, Duration::from_micros(200)),
            Some(Duration::from_micros(200))
        );
        // An exhausted budget stops the loop instead of sleeping zero and
        // spinning.
        assert_eq!(poll_delay(4, Duration::ZERO), None);
    }
}
