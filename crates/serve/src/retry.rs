//! Client-side resilience: retry with exponential backoff.
//!
//! [`RetryPolicy`] is the schedule — exponential backoff with
//! deterministic jitter, every delay clamped to the caller's remaining
//! deadline budget so retrying never extends a request past its deadline.
//! [`RetryingClient`] applies it over [`Client`] with the crate's error
//! contract (see the crate docs):
//!
//! * **Idempotent reads** (`eval`, `lin_regions`, `job_status`, `stats`,
//!   `list_models`) retry on transport errors (reconnecting first) and on
//!   typed `overloaded` / `unavailable` responses, honouring any
//!   `retry_after_ms` hint the server attached.
//! * **Repairs are never resent.**  A transport error after the request
//!   frame left the socket is ambiguous — the server may have enqueued the
//!   job — and a blind resend could repair twice.  Connection establishment
//!   retries; the send happens once.
//!
//! Jitter is deterministic (seeded `faults::splitmix64`
//! keyed by attempt number), so a given policy produces one reproducible
//! schedule — load tests and proptests can pin it exactly.

use crate::client::{Client, ClientError};
use crate::faults::splitmix64;
use crate::protocol::{ErrorKind, JobState, ModelRef, RegionWire, ServerStats};
use prdnn_core::{PointSpec, RepairConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// An exponential-backoff schedule with deterministic jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total tries including the first (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Ceiling on any single backoff, pre-jitter.
    pub max_delay: Duration,
    /// Jitter half-width in per-mille: each delay is scaled by a factor
    /// drawn uniformly from `[1 - j/1000, 1 + j/1000]`.  Must be < 1000.
    pub jitter_per_mille: u32,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter_per_mille: 200,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry number `attempt` (1-based): the
    /// exponential `base_delay << (attempt-1)` capped at `max_delay`, then
    /// scaled by the deterministic jitter factor for this attempt.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(
                1u32.checked_shl(attempt.saturating_sub(1))
                    .unwrap_or(u32::MAX),
            )
            .min(self.max_delay);
        let j = self.jitter_per_mille.min(999) as u64;
        // Uniform in [1000 - j, 1000 + j] per-mille.
        let factor = 1000 - j + splitmix64(self.seed ^ u64::from(attempt)) % (2 * j + 1);
        exp.saturating_mul(factor as u32) / 1000
    }

    /// The sleep before retry number `attempt` (1-based count of attempts
    /// already made), clamped to the `remaining` deadline budget.  `None`
    /// means give up: attempts exhausted or no budget left to sleep in.
    pub fn next_delay(&self, attempt: u32, remaining: Duration) -> Option<Duration> {
        if attempt >= self.max_attempts || remaining.is_zero() {
            return None;
        }
        Some(self.backoff(attempt).min(remaining))
    }
}

/// Counters describing what a [`RetryingClient`] actually did.
#[derive(Debug, Default, Clone, Copy)]
pub struct RetryStats {
    /// Request attempts sent (first tries + retries).
    pub attempts: u64,
    /// Retries after a retryable failure.
    pub retries: u64,
    /// Reconnects after a transport error.
    pub reconnects: u64,
    /// Requests abandoned with attempts or deadline budget exhausted.
    pub giveups: u64,
}

/// A [`Client`] wrapper that reconnects and retries per [`RetryPolicy`].
///
/// Connections are lazy: the first request dials, and any transport error
/// drops the connection so the next attempt redials.  All methods take a
/// total `budget` that bounds the whole retry loop (connect + request +
/// backoff sleeps), independent of the per-request `deadline_ms` the
/// server enforces.
pub struct RetryingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    io_timeout: Duration,
    conn: Option<Client>,
    /// What the retry loop did so far; read it after a run for reporting.
    pub stats: RetryStats,
}

impl RetryingClient {
    /// Creates a client for `addr`; no I/O happens until the first call.
    ///
    /// `io_timeout` bounds the connect handshake and every socket
    /// read/write, so a severed or black-holed connection surfaces as a
    /// retryable transport error instead of a hang.
    pub fn new(addr: SocketAddr, policy: RetryPolicy, io_timeout: Duration) -> RetryingClient {
        RetryingClient {
            addr,
            policy,
            io_timeout,
            conn: None,
            stats: RetryStats::default(),
        }
    }

    /// Drops the current connection; the next request redials.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    fn client(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            let mut client = Client::connect_timeout(&self.addr, self.io_timeout)
                .map_err(|e| ClientError::Transport(format!("connect: {e}")))?;
            client
                .set_io_timeout(Some(self.io_timeout))
                .map_err(|e| ClientError::Transport(format!("set timeout: {e}")))?;
            self.conn = Some(client);
        }
        Ok(self.conn.as_mut().expect("connection was just established"))
    }

    /// Whether the error contract allows resending an idempotent read.
    fn retryable(error: &ClientError) -> bool {
        match error {
            ClientError::Transport(_) => true,
            ClientError::Server { kind, .. } => {
                matches!(kind, ErrorKind::Overloaded | ErrorKind::Unavailable)
            }
            ClientError::UnexpectedResponse(_) => false,
        }
    }

    /// The retry loop for idempotent requests.
    fn retry_read<T>(
        &mut self,
        budget: Duration,
        mut call: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let deadline = Instant::now() + budget;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            self.stats.attempts += 1;
            let result = self.client().and_then(&mut call);
            let error = match result {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            if matches!(error, ClientError::Transport(_)) {
                // The stream may hold half a frame; never reuse it.
                self.conn = None;
                self.stats.reconnects += 1;
            }
            if !Self::retryable(&error) {
                return Err(error);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            let Some(delay) = self.policy.next_delay(attempt, remaining) else {
                self.stats.giveups += 1;
                return Err(error);
            };
            // An explicit server hint overrides a shorter backoff — the
            // server knows its queue — but never the deadline budget.
            let delay = match error {
                ClientError::Server {
                    retry_after_ms: Some(ms),
                    ..
                } => delay.max(Duration::from_millis(ms)).min(remaining),
                _ => delay,
            };
            std::thread::sleep(delay);
            self.stats.retries += 1;
        }
    }

    /// [`Client::eval`] with retries.
    ///
    /// # Errors
    ///
    /// The last attempt's error once the policy or `budget` is exhausted,
    /// or immediately for non-retryable kinds.
    pub fn eval(
        &mut self,
        model: &ModelRef,
        inputs: &[Vec<f64>],
        deadline_ms: Option<u64>,
        budget: Duration,
    ) -> Result<Vec<Vec<f64>>, ClientError> {
        self.retry_read(budget, |c| c.eval(model, inputs.to_vec(), deadline_ms))
    }

    /// [`Client::lin_regions`] with retries.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::eval`].
    pub fn lin_regions(
        &mut self,
        model: &ModelRef,
        polytopes: &[Vec<Vec<f64>>],
        deadline_ms: Option<u64>,
        budget: Duration,
    ) -> Result<Vec<Vec<RegionWire>>, ClientError> {
        self.retry_read(budget, |c| {
            c.lin_regions(model, polytopes.to_vec(), deadline_ms)
        })
    }

    /// [`Client::job_status`] with retries.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::eval`].
    pub fn job_status(&mut self, job: u64, budget: Duration) -> Result<JobState, ClientError> {
        self.retry_read(budget, |c| c.job_status(job))
    }

    /// [`Client::stats`] with retries.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::eval`].
    pub fn server_stats(&mut self, budget: Duration) -> Result<ServerStats, ClientError> {
        self.retry_read(budget, |c| c.stats())
    }

    /// [`Client::list_models`] with retries.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::eval`].
    pub fn list_models(&mut self, budget: Duration) -> Result<Vec<(String, u32)>, ClientError> {
        self.retry_read(budget, |c| c.list_models())
    }

    /// Submits a repair **once**.  Establishing the connection may retry
    /// (nothing has been sent yet); after the request frame is written the
    /// outcome is returned as-is — resending could enqueue the repair
    /// twice, and repairs are not idempotent.
    ///
    /// # Errors
    ///
    /// See [`Client::repair`]; transport errors here leave the job's fate
    /// unknown.
    pub fn repair(
        &mut self,
        model: &ModelRef,
        layer: usize,
        spec: PointSpec,
        config: RepairConfig,
        budget: Duration,
    ) -> Result<u64, ClientError> {
        let deadline = Instant::now() + budget;
        let mut attempt = 0u32;
        // Retry only the dial; first usable connection gets the one send.
        loop {
            attempt += 1;
            self.stats.attempts += 1;
            match self.client() {
                Ok(_) => break,
                Err(e) => {
                    self.conn = None;
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    let Some(delay) = self.policy.next_delay(attempt, remaining) else {
                        self.stats.giveups += 1;
                        return Err(e);
                    };
                    std::thread::sleep(delay);
                    self.stats.retries += 1;
                }
            }
        }
        let result = self
            .conn
            .as_mut()
            .expect("connection was just established")
            .repair(model, layer, spec, config);
        if matches!(result, Err(ClientError::Transport(_))) {
            self.conn = None;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(jitter: u32, seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(400),
            jitter_per_mille: jitter,
            seed,
        }
    }

    #[test]
    fn backoff_doubles_and_caps_without_jitter() {
        let p = policy(0, 7);
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        assert_eq!(p.backoff(6), Duration::from_millis(320));
        // Capped at max_delay from attempt 7 on — including absurd counts.
        assert_eq!(p.backoff(7), Duration::from_millis(400));
        assert_eq!(p.backoff(100), Duration::from_millis(400));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = policy(200, 42);
        for attempt in 1..=12 {
            let d = p.backoff(attempt);
            assert_eq!(d, p.backoff(attempt), "same seed, same schedule");
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << (attempt - 1).min(31))
                .min(Duration::from_millis(400));
            assert!(
                d >= exp.mul_f64(0.8) && d <= exp.mul_f64(1.2),
                "{d:?} vs {exp:?}"
            );
        }
        // A different seed moves at least one delay (jitter is real).
        let q = policy(200, 43);
        assert!((1..=12).any(|a| p.backoff(a) != q.backoff(a)));
    }

    #[test]
    fn next_delay_respects_attempts_and_budget() {
        let p = policy(0, 0);
        assert_eq!(
            p.next_delay(1, Duration::from_secs(10)),
            Some(Duration::from_millis(10))
        );
        // Clamped to the remaining budget.
        assert_eq!(
            p.next_delay(3, Duration::from_millis(5)),
            Some(Duration::from_millis(5))
        );
        // Exhausted attempts or budget: give up.
        assert_eq!(p.next_delay(8, Duration::from_secs(10)), None);
        assert_eq!(p.next_delay(1, Duration::ZERO), None);
    }

    #[test]
    fn server_errors_classify_per_the_contract() {
        let retryable = |kind| {
            RetryingClient::retryable(&ClientError::Server {
                kind,
                message: String::new(),
                retry_after_ms: None,
            })
        };
        assert!(retryable(ErrorKind::Overloaded));
        assert!(retryable(ErrorKind::Unavailable));
        assert!(!retryable(ErrorKind::BadRequest));
        assert!(!retryable(ErrorKind::DeadlineExceeded));
        assert!(!retryable(ErrorKind::Internal));
        assert!(RetryingClient::retryable(&ClientError::Transport(
            "broken pipe".into()
        )));
        assert!(!RetryingClient::retryable(
            &ClientError::UnexpectedResponse("?".into())
        ));
    }
}
