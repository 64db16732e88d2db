//! A fault-injecting TCP proxy for wire-level resilience tests.
//!
//! [`ChaosProxy`] sits between a client and a `prdnn-serve` listener and
//! mistreats the byte stream the way a bad network would: chunks are
//! delayed, dropped, bit-corrupted, truncated-then-severed, or the
//! connection is cut outright mid-stream.  The server never sees a special
//! "test" code path — it must survive whatever arrives on the socket —
//! and the proxy never parses frames, so faults land at arbitrary byte
//! boundaries (half a length prefix, mid-float in a JSON body).
//!
//! Faults are **deterministic**: each decision is a pure function of
//! `(seed, connection index, direction, chunk index)` via
//! `faults::splitmix64`, so a failing chaos run
//! replays exactly from its seed.
//!
//! The proxy is std-only (two pump threads per connection) and counts
//! every action in [`ChaosCounters`] so tests can assert that the
//! configured fault classes actually fired.

use crate::faults::splitmix64;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Per-chunk fault probabilities, in per-mille.  The classes are checked
/// in the order severed → truncated → corrupted → dropped → delayed, so
/// their per-milles partition a single roll and must sum to at most 1000.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosConfig {
    /// Seed for the deterministic decision stream.
    pub seed: u64,
    /// Cut the connection before forwarding the chunk.
    pub sever_per_mille: u32,
    /// Forward a strict prefix of the chunk, then cut the connection.
    pub truncate_per_mille: u32,
    /// Flip one byte of the chunk, then forward it.
    pub corrupt_per_mille: u32,
    /// Swallow the chunk entirely (the connection stays up and stalls).
    pub drop_per_mille: u32,
    /// Sleep before forwarding the chunk.
    pub delay_per_mille: u32,
    /// Ceiling for injected delays, in milliseconds.
    pub max_delay_ms: u64,
}

impl ChaosConfig {
    /// A pass-through configuration (no faults) — the control regime.
    pub fn fault_free(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            ..ChaosConfig::default()
        }
    }
}

/// How many of each fault the proxy actually injected.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    /// Proxied connections accepted.
    pub connections: AtomicU64,
    /// Chunks forwarded unmodified (possibly after a delay).
    pub forwarded: AtomicU64,
    /// Chunks delayed.
    pub delayed: AtomicU64,
    /// Chunks with a byte flipped.
    pub corrupted: AtomicU64,
    /// Chunks swallowed.
    pub dropped: AtomicU64,
    /// Chunks cut to a prefix (each also severs its connection).
    pub truncated: AtomicU64,
    /// Connections cut mid-stream (sever + truncate).
    pub severed: AtomicU64,
}

impl ChaosCounters {
    /// Total faults injected across all classes.
    pub fn total_faults(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
            + self.corrupted.load(Ordering::Relaxed)
            + self.dropped.load(Ordering::Relaxed)
            + self.truncated.load(Ordering::Relaxed)
            + self.severed.load(Ordering::Relaxed)
    }
}

enum Action {
    Sever,
    Truncate,
    Corrupt,
    Drop,
    Delay,
    Forward,
}

fn decide(config: &ChaosConfig, conn: u64, direction: u64, chunk: u64) -> (Action, u64) {
    let bits = splitmix64(config.seed ^ (conn << 24) ^ (direction << 23) ^ chunk);
    let roll = (bits % 1000) as u32;
    let mut band = config.sever_per_mille;
    if roll < band {
        return (Action::Sever, bits);
    }
    band += config.truncate_per_mille;
    if roll < band {
        return (Action::Truncate, bits);
    }
    band += config.corrupt_per_mille;
    if roll < band {
        return (Action::Corrupt, bits);
    }
    band += config.drop_per_mille;
    if roll < band {
        return (Action::Drop, bits);
    }
    band += config.delay_per_mille;
    if roll < band {
        return (Action::Delay, bits);
    }
    (Action::Forward, bits)
}

/// One direction of one proxied connection: read chunks from `from`,
/// mistreat them per the decision stream, write the survivors to `to`.
fn pump(
    config: &ChaosConfig,
    counters: &ChaosCounters,
    conn: u64,
    direction: u64,
    mut from: TcpStream,
    mut to: TcpStream,
) {
    let mut buf = [0u8; 4096];
    let mut chunk_index = 0u64;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let (action, bits) = decide(config, conn, direction, chunk_index);
        chunk_index += 1;
        match action {
            Action::Sever => {
                counters.severed.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Action::Truncate => {
                // A strict prefix (possibly empty): the peer sees a frame
                // that stops mid-header or mid-body.
                let keep = (bits >> 10) as usize % n;
                counters.truncated.fetch_add(1, Ordering::Relaxed);
                counters.severed.fetch_add(1, Ordering::Relaxed);
                let _ = to.write_all(&buf[..keep]);
                break;
            }
            Action::Corrupt => {
                let at = (bits >> 10) as usize % n;
                buf[at] ^= 0x40 | ((bits >> 32) as u8 & 0x3f);
                counters.corrupted.fetch_add(1, Ordering::Relaxed);
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Action::Drop => {
                counters.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Action::Delay => {
                let ms = (bits >> 10) % config.max_delay_ms.max(1) + 1;
                thread::sleep(Duration::from_millis(ms));
                counters.delayed.fetch_add(1, Ordering::Relaxed);
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Action::Forward => {
                counters.forwarded.fetch_add(1, Ordering::Relaxed);
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    // Cut both directions so the peers observe the fault promptly instead
    // of waiting out their socket timeouts.
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// The proxy: accepts on its own ephemeral port and forwards to
/// `upstream` through the fault machinery.  Drop order matters in tests:
/// call [`ChaosProxy::shutdown`] (or just drop it) after the server side
/// has been told to stop.
pub struct ChaosProxy {
    addr: SocketAddr,
    counters: Arc<ChaosCounters>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts the proxy on an ephemeral local port.
    ///
    /// # Errors
    ///
    /// Propagates listener-creation failures.
    pub fn start(upstream: SocketAddr, config: ChaosConfig) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let counters = Arc::new(ChaosCounters::default());
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let counters = Arc::clone(&counters);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut conn_index = 0u64;
                for inbound in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(inbound) = inbound else { continue };
                    let Ok(outbound) = TcpStream::connect(upstream) else {
                        // Upstream refused: the client sees its connection
                        // close, which is just another fault to survive.
                        continue;
                    };
                    inbound.set_nodelay(true).ok();
                    outbound.set_nodelay(true).ok();
                    counters.connections.fetch_add(1, Ordering::Relaxed);
                    let conn = conn_index;
                    conn_index += 1;
                    for direction in 0..2u64 {
                        let (from, to) = if direction == 0 {
                            (inbound.try_clone(), outbound.try_clone())
                        } else {
                            (outbound.try_clone(), inbound.try_clone())
                        };
                        let (Ok(from), Ok(to)) = (from, to) else {
                            continue;
                        };
                        let counters = Arc::clone(&counters);
                        thread::spawn(move || {
                            pump(&config, &counters, conn, direction, from, to);
                        });
                    }
                }
            })
        };
        Ok(ChaosProxy {
            addr,
            counters,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The proxy's fault counters.
    pub fn counters(&self) -> &ChaosCounters {
        &self.counters
    }

    /// Stops accepting and joins the accept thread.  Pump threads for
    /// connections already in flight exit when either endpoint closes.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway dial.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heavy() -> ChaosConfig {
        ChaosConfig {
            seed: 1,
            sever_per_mille: 100,
            truncate_per_mille: 100,
            corrupt_per_mille: 200,
            drop_per_mille: 100,
            delay_per_mille: 300,
            max_delay_ms: 5,
        }
    }

    #[test]
    fn decisions_are_deterministic_in_all_coordinates() {
        let config = heavy();
        for conn in 0..4 {
            for direction in 0..2 {
                for chunk in 0..64 {
                    let (a, bits_a) = decide(&config, conn, direction, chunk);
                    let (b, bits_b) = decide(&config, conn, direction, chunk);
                    assert_eq!(bits_a, bits_b);
                    assert_eq!(std::mem::discriminant(&a), std::mem::discriminant(&b));
                }
            }
        }
        // Coordinates matter: two directions of one connection must not
        // share a decision stream.
        let stream = |direction| {
            (0..256)
                .map(|chunk| decide(&heavy(), 0, direction, chunk).1)
                .collect::<Vec<_>>()
        };
        assert_ne!(stream(0), stream(1));
    }

    #[test]
    fn fault_free_config_forwards_everything() {
        let config = ChaosConfig::fault_free(9);
        for chunk in 0..512 {
            let (action, _) = decide(&config, 0, 0, chunk);
            assert!(matches!(action, Action::Forward));
        }
    }

    #[test]
    fn bands_partition_the_roll() {
        // With heavy faults, every class fires somewhere in a long stream.
        let config = heavy();
        let mut seen = [false; 6];
        for chunk in 0..4096 {
            let (action, _) = decide(&config, 3, 1, chunk);
            seen[match action {
                Action::Sever => 0,
                Action::Truncate => 1,
                Action::Corrupt => 2,
                Action::Drop => 3,
                Action::Delay => 4,
                Action::Forward => 5,
            }] = true;
        }
        assert_eq!(seen, [true; 6]);
    }
}
