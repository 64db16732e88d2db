//! `prdnn-serve` — a batching repair-and-analysis service layer with a
//! versioned model store.
//!
//! Everything below this crate is single-shot: a benchmark binary builds a
//! network, runs one repair or one analysis, and exits.  This crate is the
//! serving top layer that turns those calls into *requests against
//! long-lived, versioned models*:
//!
//! * [`store`] — the **versioned model store**.  Models are loaded by name
//!   from `prdnn-datasets` generator specs or serialised JSON; every
//!   successful repair publishes a new immutable version carrying its
//!   [`prdnn_core::RepairProvenance`] (spec hash, config, delta norms).
//!   Readers resolve `name@latest` / `name@vN` lock-free through an
//!   arc-swap-style atomic head pointer — a repair publishing version `N+1`
//!   never blocks an eval reading version `N`.
//! * [`batcher`] — the **request planner**.  Concurrent `eval` /
//!   `lin_regions` requests against the same model version are coalesced
//!   into single batched calls (`forward_decoupled_batch_in`,
//!   `lin_regions_batch_in`) on the shared `prdnn-par` pool, so ten
//!   clients asking about the same version cost one layer-at-a-time sweep,
//!   not ten.
//! * [`cache`] — the **per-version result cache** in front of the pool:
//!   a bounded LRU keyed by `(version content hash, input content hash)`
//!   memoizing eval and `lin_regions` payloads.  Versions are immutable,
//!   so entries never go stale; a repair publishing `m@v2` changes the
//!   value-channel hash and can never hit `m@v1`'s eval entries, while
//!   value-only repairs deliberately *share* the parent's `lin_regions`
//!   entries (Theorem 4.6: value edits preserve the linear regions).
//! * [`version_log`] / [`wal`] — the **durable version log** under the
//!   store.  Every publish funnels through a [`version_log::VersionLog`]
//!   backend *before* it becomes visible: [`version_log::MemoryLog`] keeps
//!   the original process-lifetime behaviour, while [`wal::WalLog`]
//!   fsyncs a length-prefixed JSON record per publish, snapshots and
//!   compacts the chains every `--snapshot-every` publishes, and replays
//!   `snapshot.json` + the WAL tail (hash-verified, torn-tail tolerant) on
//!   `--store-dir` cold start.
//! * [`jobs`] — the **repair job queue**: a bounded FIFO whose workers run
//!   repairs off the connection threads and publish the repaired versions;
//!   clients poll job status instead of holding a connection hostage for
//!   the length of an LP solve.
//! * [`server`] / [`client`] / [`protocol`] — a std-only multi-threaded
//!   TCP server speaking length-prefixed JSON ([`serde::json`]), with
//!   admission control (bounded queues, per-request deadlines, connection
//!   cap) and graceful-shutdown drain, plus the client library used by the
//!   `servebench` load generator and the end-to-end tests.
//!
//! The serving path adds **no numeric degrees of freedom**: model JSON and
//! wire floats round-trip bit-for-bit, and the batched entry points are
//! bit-identical to their serial counterparts, so an `eval` answered by the
//! server equals the direct library call exactly.
//!
//! # Error policy
//!
//! Every failure a client can observe is **typed** (an
//! [`protocol::ErrorKind`]), and the kinds partition by what the client
//! should do next:
//!
//! * `overloaded` — shed by admission control; safe to retry after the
//!   attached `retry_after_ms` hint.
//! * `unavailable` — the durable log refused a publish (I/O fault);
//!   nothing was published, the store is intact, safe to retry.
//! * `deadline_exceeded` — the request (or its socket) ran out of time;
//!   idempotent reads are safe to retry with a fresh deadline.
//! * `bad_request` / `unknown_model` / `unknown_version` / `unknown_job`
//!   — retrying the same request cannot succeed.
//! * `shutting_down` — the server is draining; reconnect elsewhere.
//! * `internal` — a server-side invariant failed; not retried by default.
//!
//! The [`retry`] module implements that contract client-side
//! ([`retry::RetryingClient`]), [`faults`] injects storage faults under
//! test, and [`chaos`] is a fault-injecting TCP proxy for wire-level
//! end-to-end tests.
//!
//! # Observability
//!
//! [`metrics`] is the registry: every counter, gauge and histogram family
//! is declared there once, and the shared counter block, the `stats`
//! reply, and the `metrics` exposition are generated from it.
//! [`telemetry`] is the hand-rolled observability layer: lock-free
//! log-linear latency histograms at every stage boundary (request
//! end-to-end per kind, batcher queue-wait vs execution, gulp size,
//! repair queue-wait vs LP solve, WAL fsync, cache hit vs miss service
//! time) exported through the `metrics` endpoint as Prometheus histogram
//! families, plus per-request span tracing: every request carries a
//! `request_id` (client-settable, echoed in each response), stages record
//! spans into a bounded ring, and requests slower than `--slow-ms` are
//! promoted to a retained slow-log served by the `trace` request
//! ([`client::Client::trace`]).
//!
//! # Quickstart
//!
//! ```
//! use prdnn_serve::{client::Client, protocol::ModelRef, server};
//!
//! let handle = server::serve(server::ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..server::ServerConfig::default()
//! })
//! .unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! client.load_generator("n1", "n1").unwrap();
//! let out = client
//!     .eval(&ModelRef::latest("n1"), vec![vec![0.5]], None)
//!     .unwrap();
//! assert_eq!(out, vec![vec![-0.5]]);
//! client.shutdown_server().unwrap();
//! handle.join().unwrap();
//! ```

pub mod batcher;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod faults;
pub mod jobs;
pub mod metrics;
pub mod protocol;
pub mod retry;
pub mod server;
pub mod store;
pub mod telemetry;
pub mod version_log;
pub mod wal;

pub use client::Client;
pub use protocol::{ModelRef, Request, Response};
pub use retry::{RetryPolicy, RetryingClient};
pub use server::{serve, ServerConfig, ServerHandle};
pub use store::{ModelStore, ModelVersion};
