//! Admission control: which requests to shed, and when.
//!
//! The transport ([`jqi_net`]) owns the *mechanism* — a fast `503
//! overloaded` with `Retry-After`, decided on the framed request head
//! before any body transfer or body parsing happens — and consults the
//! gateway for the *policy* through [`jqi_net::Handler::admit`]. This
//! module is that policy: endpoint priority tiers (each row of the
//! gateway's endpoint table names its own) plus thresholds over the two
//! live pressure signals, the transport's aggregate worker queue depth
//! and the per-endpoint rolling latency estimate
//! ([`crate::http::metrics::LatencyHistogram::ewma_us`]).
//!
//! Latency-based shedding cannot latch: the rolling estimate only gains
//! samples from requests that are actually served, so while an endpoint
//! sheds it is sample-starved — but the estimate time-decays (halving
//! per half-life of silence, see `metrics`), so within a few half-lives
//! it falls back under the threshold and traffic is readmitted. A still
//! -slow endpoint re-raises the estimate and sheds again: a bounded
//! duty cycle, never a lockout until restart.
//!
//! The shed order is deliberate for an interactive inference service:
//! read-only traffic (`question`, `snapshot`, listings, status) is cheap
//! for the *client* to retry and goes first; mutating traffic
//! (`answers`, session creation, `restore`, `delta`, delete) carries
//! crowd work that is expensive to re-collect and sheds only past the
//! hard thresholds; and `GET /v1/stats` never sheds, under any spelling
//! that routes to it — blinding the operators during the incident is how
//! an overload becomes an outage. A request that names no endpoint sheds
//! as a read: all it can earn is a 404 or 405.

use jqi_net::{Admission, Pressure};

/// The priority tier a request belongs to, lowest-priority first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointClass {
    /// Read-only traffic: shed first (past the *soft* thresholds).
    ReadOnly,
    /// Mutating traffic: shed only past the *hard* thresholds.
    Mutating,
    /// Observability (`GET /v1/stats`): never shed.
    Control,
}

/// Shedding thresholds. A request sheds when its tier's queue-depth
/// *or* rolling-latency threshold is exceeded.
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Queue depth above which [`EndpointClass::ReadOnly`] sheds.
    pub queue_soft: usize,
    /// Queue depth above which [`EndpointClass::Mutating`] sheds too.
    pub queue_hard: usize,
    /// Per-endpoint rolling latency (µs) above which read-only sheds.
    pub latency_soft_us: u64,
    /// Per-endpoint rolling latency (µs) above which mutating sheds.
    pub latency_hard_us: u64,
    /// The `Retry-After` hint (seconds) on shed responses.
    pub retry_after_s: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            // Depth is measured in dispatched-but-unfinished wake-ups;
            // 4×/16× the default 8-worker pool leaves headroom for
            // bursts while bounding the queue a request waits behind.
            queue_soft: 32,
            queue_hard: 128,
            latency_soft_us: 250_000,
            latency_hard_us: 1_000_000,
            retry_after_s: 1,
        }
    }
}

impl OverloadConfig {
    /// The admission decision for one request, given its endpoint's
    /// tier, the transport pressure, and the endpoint's rolling latency
    /// estimate (already time-decayed by the histogram, so a shed
    /// endpoint's estimate self-recovers — see the module docs).
    pub fn admit(&self, tier: EndpointClass, pressure: Pressure, ewma_us: u64) -> Admission {
        let (queue, latency_us) = match tier {
            EndpointClass::Control => return Admission::Accept,
            EndpointClass::ReadOnly => (self.queue_soft, self.latency_soft_us),
            EndpointClass::Mutating => (self.queue_hard, self.latency_hard_us),
        };
        if pressure.queue_depth > queue || ewma_us > latency_us {
            Admission::Shed {
                retry_after_s: self.retry_after_s,
            }
        } else {
            Admission::Accept
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use EndpointClass::{Control, Mutating, ReadOnly};

    fn pressure(queue_depth: usize) -> Pressure {
        Pressure {
            queue_depth,
            open_connections: 10,
            workers: 8,
        }
    }

    #[test]
    fn read_only_sheds_before_mutating_and_stats_never_does() {
        let config = OverloadConfig {
            queue_soft: 4,
            queue_hard: 16,
            ..OverloadConfig::default()
        };
        // Calm: everyone admitted.
        for tier in [ReadOnly, Mutating, Control] {
            assert_eq!(config.admit(tier, pressure(2), 0), Admission::Accept);
        }
        // Past soft: reads shed, writes and stats do not.
        assert!(matches!(
            config.admit(ReadOnly, pressure(8), 0),
            Admission::Shed { retry_after_s: 1 }
        ));
        assert_eq!(config.admit(Mutating, pressure(8), 0), Admission::Accept);
        assert_eq!(config.admit(Control, pressure(8), 0), Admission::Accept);
        // Past hard: writes shed too; stats still answers.
        assert!(matches!(
            config.admit(Mutating, pressure(20), 0),
            Admission::Shed { .. }
        ));
        assert_eq!(
            config.admit(Control, pressure(20), u64::MAX),
            Admission::Accept
        );
    }

    #[test]
    fn rolling_latency_sheds_even_at_low_queue_depth() {
        let config = OverloadConfig::default();
        // A slow endpoint sheds its own readers first.
        assert!(matches!(
            config.admit(ReadOnly, pressure(1), 300_000),
            Admission::Shed { .. }
        ));
        assert_eq!(
            config.admit(Mutating, pressure(1), 300_000),
            Admission::Accept
        );
        assert!(matches!(
            config.admit(Mutating, pressure(1), 1_500_000),
            Admission::Shed { .. }
        ));
    }
}
