//! A minimal blocking HTTP/1.1 client over one keep-alive connection,
//! plus a [`RetryingClient`] that survives an imperfect network.
//!
//! Exists for the loopback consumers of the stack — the integration
//! tests, `examples/http_client.rs`, and the `transport`/`overload`
//! bench phases — so none of them has to hand-roll sockets. One
//! [`Client`] is one connection; open several for concurrency.
//!
//! [`RetryingClient`] layers reconnects, capped exponential backoff with
//! seeded jitter, and `Retry-After` honoring on top. It retries a failed
//! send only when the request is *idempotent* — `GET`/`DELETE` by
//! method, or a `POST` explicitly marked so by the caller (answer
//! batches are class-addressed idempotent) — because a connection that
//! died mid-exchange leaves the fate of a non-idempotent request
//! unknown. A `503` with `Retry-After` is different: the server rejected
//! the work *before doing any of it*, so any request may be retried. The
//! server's hint replaces the computed backoff as the nominal wait, but
//! is floored at the policy base and jittered to 50–100 % like any other
//! sleep — a fleet of shed clients obeying the same hint verbatim would
//! return in lockstep and re-create the overload it hinted them away
//! from.

use crate::wire::{format_request_with, read_client_response, ClientResponse, HttpError, Limits};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One keep-alive connection to an HTTP server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    limits: Limits,
}

impl Client {
    /// Connects with a 10-second read timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connects with an explicit per-read timeout.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
            limits: Limits {
                // Responses (stats dumps, snapshots) can be bigger than
                // what we let clients upload.
                max_body_bytes: 64 << 20,
                ..Limits::default()
            },
        })
    }

    /// Sends one request and reads the matching response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<ClientResponse, HttpError> {
        self.request_with(method, path, body, &[])
    }

    /// Sends one request with extra headers and reads the response.
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        extra: &[(String, String)],
    ) -> Result<ClientResponse, HttpError> {
        use std::io::Write;
        let bytes = format_request_with(method, path, body, false, extra);
        self.stream
            .write_all(&bytes)
            .map_err(|e| HttpError::Io(e.to_string()))?;
        read_client_response(&mut self.stream, &mut self.buf, &self.limits)
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> Result<ClientResponse, HttpError> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> Result<ClientResponse, HttpError> {
        self.request("POST", path, Some(body.as_bytes()))
    }

    /// `DELETE path`.
    pub fn delete(&mut self, path: &str) -> Result<ClientResponse, HttpError> {
        self.request("DELETE", path, None)
    }
}

/// Retry/backoff knobs for [`RetryingClient`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, the first included (so `1` never retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt. Also the
    /// floor under server-hinted waits, so `Retry-After: 0` cannot turn
    /// the retry loop hot.
    pub base_backoff: Duration,
    /// Ceiling on any one computed or server-hinted wait.
    pub max_backoff: Duration,
    /// Seed for the jitter stream (same seed → same waits).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            seed: 0x6a71_6e65,
        }
    }
}

/// Counters a [`RetryingClient`] keeps about its own persistence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Requests re-sent after a connection-level failure.
    pub retried_errors: u64,
    /// Requests re-sent after a `503` + `Retry-After` shed.
    pub retried_sheds: u64,
    /// Reconnects performed (initial connects not included).
    pub reconnects: u64,
    /// Requests that exhausted every attempt.
    pub gave_up: u64,
}

/// A [`Client`] wrapper that reconnects, backs off, and retries.
///
/// See the module docs for the retry rules.
#[derive(Debug)]
pub struct RetryingClient {
    addr: SocketAddr,
    conn: Option<Client>,
    policy: RetryPolicy,
    read_timeout: Duration,
    rng: u64,
    connected_once: bool,
    stats: RetryStats,
}

impl RetryingClient {
    /// Creates a client for `addr`. The connection is opened lazily on
    /// the first request and re-opened whenever it breaks.
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> RetryingClient {
        RetryingClient {
            addr,
            conn: None,
            policy,
            read_timeout: Duration::from_secs(10),
            rng: policy.seed | 1,
            connected_once: false,
            stats: RetryStats::default(),
        }
    }

    /// Sets the per-read socket timeout used for (re)connects.
    pub fn set_read_timeout(&mut self, read_timeout: Duration) {
        self.read_timeout = read_timeout;
    }

    /// The retry counters so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// `GET path` — idempotent, retried on failure.
    pub fn get(&mut self, path: &str) -> Result<ClientResponse, HttpError> {
        self.request("GET", path, None, true)
    }

    /// `DELETE path` — idempotent, retried on failure.
    pub fn delete(&mut self, path: &str) -> Result<ClientResponse, HttpError> {
        self.request("DELETE", path, None, true)
    }

    /// `POST path` — *not* retried on connection failure (its fate is
    /// unknown once the connection dies), still retried on a shed `503`.
    pub fn post(&mut self, path: &str, body: &str) -> Result<ClientResponse, HttpError> {
        self.request("POST", path, Some(body.as_bytes()), false)
    }

    /// `POST path` for an endpoint the caller asserts is idempotent
    /// (e.g. class-addressed answer batches): retried like a `GET`.
    pub fn post_idempotent(&mut self, path: &str, body: &str) -> Result<ClientResponse, HttpError> {
        self.request("POST", path, Some(body.as_bytes()), true)
    }

    /// One request with the retry loop around it.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        idempotent: bool,
    ) -> Result<ClientResponse, HttpError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let last = attempt >= self.policy.max_attempts.max(1);
            let outcome = self
                .ensure_conn()
                .and_then(|conn| conn.request(method, path, body));
            match outcome {
                Ok(response) if response.status == 503 => {
                    let hinted = retry_after(&response);
                    if response.close {
                        self.conn = None;
                    }
                    // A shed happened before any work: safe to retry any
                    // method. The server's hint sets the nominal wait,
                    // floored at the policy base (a `Retry-After: 0` must
                    // not become a hot retry loop) and jittered like any
                    // other backoff — every shed client got the same hint
                    // at the same moment, so sleeping it verbatim would
                    // march them back in lockstep for a retry stampede.
                    if last || hinted.is_none() {
                        if last {
                            self.stats.gave_up += 1;
                        }
                        return Ok(response);
                    }
                    self.stats.retried_sheds += 1;
                    let nominal = hinted
                        .unwrap_or_default()
                        .max(self.policy.base_backoff)
                        .min(self.policy.max_backoff);
                    let wait = self.jittered(nominal);
                    std::thread::sleep(wait);
                }
                Ok(response) => {
                    if response.close {
                        self.conn = None;
                    }
                    return Ok(response);
                }
                Err(error) => {
                    // The connection's state is unknown; start fresh.
                    self.conn = None;
                    if last || !idempotent {
                        self.stats.gave_up += 1;
                        return Err(error);
                    }
                    self.stats.retried_errors += 1;
                    std::thread::sleep(self.backoff(attempt));
                }
            }
        }
    }

    fn ensure_conn(&mut self) -> Result<&mut Client, HttpError> {
        if self.conn.is_none() {
            let fresh = Client::connect_with_timeout(self.addr, self.read_timeout)
                .map_err(|e| HttpError::Io(e.to_string()))?;
            if self.connected_once {
                self.stats.reconnects += 1;
            }
            self.connected_once = true;
            self.conn = Some(fresh);
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }

    /// Capped exponential backoff with seeded jitter: the nominal wait
    /// is `base << (attempt-1)` capped at `max_backoff`, jittered to
    /// 50–100 % so synchronized clients fan out.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let nominal = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.policy.max_backoff);
        self.jittered(nominal)
    }

    /// Jitters `nominal` to a seeded-random 50–100 % of itself. Applied
    /// to every sleep, including server-hinted `Retry-After` waits.
    fn jittered(&mut self, nominal: Duration) -> Duration {
        self.rng = splitmix(self.rng);
        let ns = nominal.as_nanos().min(u128::from(u64::MAX)) as u64;
        Duration::from_nanos(ns / 2 + self.rng % (ns / 2 + 1).max(1))
    }
}

/// The `Retry-After` header as a duration, when present and well-formed.
fn retry_after(response: &ClientResponse) -> Option<Duration> {
    response
        .headers
        .iter()
        .find(|(n, _)| n == "retry-after")
        .and_then(|(_, v)| v.parse::<u64>().ok())
        .map(Duration::from_secs)
}

/// One step of splitmix64 (same generator the chaos proxy jitters with).
fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(seed: u64) -> RetryingClient {
        let policy = RetryPolicy {
            seed,
            ..RetryPolicy::default()
        };
        RetryingClient::new("127.0.0.1:1".parse().unwrap(), policy)
    }

    #[test]
    fn jittered_waits_land_in_the_half_to_full_window() {
        let mut c = client(7);
        let nominal = Duration::from_millis(100);
        for _ in 0..64 {
            let wait = c.jittered(nominal);
            assert!(wait >= nominal / 2 && wait <= nominal, "wait {wait:?}");
        }
    }

    #[test]
    fn jitter_spreads_identically_hinted_clients_apart() {
        // Two clients with different seeds obeying the same hint must not
        // come back at the same instant — that is the retry stampede the
        // jitter exists to break.
        let (mut a, mut b) = (client(1), client(2));
        let nominal = Duration::from_secs(1);
        let spread = (0..16).any(|_| a.jittered(nominal) != b.jittered(nominal));
        assert!(spread);
    }
}
