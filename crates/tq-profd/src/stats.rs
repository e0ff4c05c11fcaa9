//! Service observability: cache counters and per-tool latency histograms.
//!
//! The stats live behind the server's mutex and are the node's only count
//! of its jobs: a `stats` request snapshots them into JSON, a `metrics`
//! request renders the same numbers as `tq_profd_*` families.
//! Latencies go into log₂ buckets of microseconds — cheap to record under
//! a lock, and enough resolution to tell a cache hit (tens of µs) from a
//! replay (ms) from a capture run (often seconds).

use crate::cache::CaptureSource;
use crate::protocol::ToolId;
use tq_obs::metrics::{log2_bucket, Family, Value, HISTO_BUCKETS};
use tq_report::Json;

/// A log₂ histogram of job latencies in microseconds, bucketed by
/// [`log2_bucket`].
#[derive(Clone, Debug, Default)]
pub struct LatencyHisto {
    buckets: [u64; HISTO_BUCKETS],
    count: u64,
    total_micros: u64,
    max_micros: u64,
}

impl LatencyHisto {
    /// Record one duration.
    pub fn record(&mut self, micros: u64) {
        self.buckets[log2_bucket(micros)] += 1;
        self.count += 1;
        self.total_micros = self.total_micros.saturating_add(micros);
        self.max_micros = self.max_micros.max(micros);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// JSON snapshot. Trailing empty buckets are trimmed.
    pub fn to_json(&self) -> Json {
        let used = self
            .buckets
            .iter()
            .rposition(|&b| b > 0)
            .map(|i| i + 1)
            .unwrap_or(0);
        let mean = if self.count > 0 {
            self.total_micros as f64 / self.count as f64
        } else {
            0.0
        };
        Json::obj([
            ("count", Json::from(self.count)),
            ("mean_micros", Json::from(mean)),
            ("max_micros", Json::from(self.max_micros)),
            (
                "log2_buckets",
                Json::from(
                    self.buckets[..used]
                        .iter()
                        .map(|&b| Json::from(b))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }
}

/// Service-wide counters. `vm_runs` counts actual interpreter executions —
/// the acceptance criterion "the warm job completes without re-running the
/// VM" is checked by this number staying flat.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Jobs received (valid submits).
    pub jobs_submitted: u64,
    /// Jobs that produced a profile.
    pub jobs_completed: u64,
    /// Jobs that errored.
    pub jobs_failed: u64,
    /// Full result-memo hits (byte-identical replies, no replay).
    pub result_hits: u64,
    /// Captures served from the in-memory tier.
    pub capture_mem_hits: u64,
    /// Captures loaded from the on-disk tier.
    pub capture_disk_hits: u64,
    /// Captures recorded by running the VM (cold misses).
    pub vm_runs: u64,
    /// Encoded trace bytes fed through offline replay.
    pub bytes_replayed: u64,
    /// Events fed through offline replay.
    pub events_replayed: u64,
    /// Replays that fanned out over idle workers (more than one shard).
    pub sharded_replays: u64,
    /// Queued jobs shed with an error reply when shutdown began.
    pub sheds: u64,
    /// Requests turned away under overload: submits answered `busy`
    /// (queue full) plus connections refused at the `max_conns` limit.
    pub rejects: u64,
    /// Submits that arrived flagged as client retries (`attempt > 0`) —
    /// nonzero means clients are seeing `busy` and backing off.
    pub retries_observed: u64,
    /// Jobs served under a reduced instrumentation mode (`instr` other
    /// than `full`): replayed sequentially through the gate emulator
    /// over the shared full capture.
    pub reduced_jobs: u64,
    /// Per-tool job latency (tquad, quad, gprof, phases).
    pub latency: [LatencyHisto; 4],
}

impl ServiceStats {
    fn tool_idx(tool: ToolId) -> usize {
        match tool {
            ToolId::Tquad => 0,
            ToolId::Quad => 1,
            ToolId::Gprof => 2,
            ToolId::Phases => 3,
        }
    }

    /// Record a finished job's latency under its tool.
    pub fn record_latency(&mut self, tool: ToolId, micros: u64) {
        self.latency[Self::tool_idx(tool)].record(micros);
    }

    /// Mean end-to-end job latency in microseconds across every tool, or
    /// `None` before the first job finishes. Feeds the server's
    /// `retry_after_ms` hint on `busy` responses.
    pub fn mean_job_micros(&self) -> Option<f64> {
        let (count, total) = self.latency.iter().fold((0u64, 0u64), |(c, t), h| {
            (c + h.count, t.saturating_add(h.total_micros))
        });
        (count > 0).then(|| total as f64 / count as f64)
    }

    /// Count a capture by where it came from: a cache tier or a VM run.
    pub fn count_capture(&mut self, source: CaptureSource) {
        match source {
            CaptureSource::Memory => self.capture_mem_hits += 1,
            CaptureSource::Disk => self.capture_disk_hits += 1,
            CaptureSource::Recorded => self.vm_runs += 1,
        }
    }

    /// Answers that avoided a VM run entirely: result-memo hits plus
    /// capture-cache hits from either tier.
    pub fn cache_hits(&self) -> u64 {
        self.result_hits + self.capture_mem_hits + self.capture_disk_hits
    }

    /// Answers that had to record a fresh capture (cold misses). Equal to
    /// `vm_runs` by construction; exposed under the name operators expect
    /// next to `cache_hits`.
    pub fn cache_misses(&self) -> u64 {
        self.vm_runs
    }

    /// JSON snapshot; `uptime_micros` comes from the server's start instant.
    pub fn to_json(&self, uptime_micros: u64) -> Json {
        let tools = Json::obj([
            ("tquad", self.latency[0].to_json()),
            ("quad", self.latency[1].to_json()),
            ("gprof", self.latency[2].to_json()),
            ("phases", self.latency[3].to_json()),
        ]);
        Json::obj([
            ("uptime_micros", Json::from(uptime_micros)),
            (
                "uptime_seconds",
                Json::from(uptime_micros as f64 / 1_000_000.0),
            ),
            ("jobs_submitted", Json::from(self.jobs_submitted)),
            ("jobs_completed", Json::from(self.jobs_completed)),
            ("jobs_failed", Json::from(self.jobs_failed)),
            ("result_hits", Json::from(self.result_hits)),
            ("capture_mem_hits", Json::from(self.capture_mem_hits)),
            ("capture_disk_hits", Json::from(self.capture_disk_hits)),
            ("cache_hits", Json::from(self.cache_hits())),
            ("cache_misses", Json::from(self.cache_misses())),
            ("vm_runs", Json::from(self.vm_runs)),
            ("bytes_replayed", Json::from(self.bytes_replayed)),
            ("events_replayed", Json::from(self.events_replayed)),
            ("sharded_replays", Json::from(self.sharded_replays)),
            ("sheds", Json::from(self.sheds)),
            ("rejects", Json::from(self.rejects)),
            ("retries_observed", Json::from(self.retries_observed)),
            ("reduced_jobs", Json::from(self.reduced_jobs)),
            ("latency", tools),
        ])
    }

    /// The `tq_profd_*` families of the `metrics`
    /// exposition, rendered from these counters (the queue, uptime and
    /// fault gauges are the server's).
    pub fn families(&self) -> Vec<Family> {
        let counters = [
            (
                "tq_profd_jobs_submitted_total",
                "Valid submit requests received",
                self.jobs_submitted,
            ),
            (
                "tq_profd_jobs_completed_total",
                "Jobs that produced a profile",
                self.jobs_completed,
            ),
            (
                "tq_profd_jobs_failed_total",
                "Jobs that errored",
                self.jobs_failed,
            ),
            (
                "tq_profd_result_hits_total",
                "Result-memo hits (byte-identical replies, no replay)",
                self.result_hits,
            ),
            (
                "tq_profd_capture_hits_total",
                "Captures served from the cache (memory or disk tier)",
                self.capture_mem_hits + self.capture_disk_hits,
            ),
            (
                "tq_profd_capture_misses_total",
                "Cold captures recorded by running the VM",
                self.vm_runs,
            ),
            (
                "tq_profd_sheds_total",
                "Queued jobs shed with an error reply at shutdown",
                self.sheds,
            ),
            (
                "tq_profd_rejects_total",
                "Submits answered busy (queue full) plus connections turned away at the limit",
                self.rejects,
            ),
            (
                "tq_profd_retries_observed_total",
                "Submits that arrived flagged as client retries (attempt > 0)",
                self.retries_observed,
            ),
        ];
        let mut buckets = [0; HISTO_BUCKETS];
        let mut sum = 0u64;
        for h in &self.latency {
            for (b, n) in buckets.iter_mut().zip(h.buckets) {
                *b += n;
            }
            sum = sum.saturating_add(h.total_micros);
        }
        let mut families: Vec<Family> = counters
            .into_iter()
            .map(|(name, help, v)| Family {
                name,
                help,
                value: Value::Counter(v),
            })
            .collect();
        families.push(Family {
            name: "tq_profd_job_micros",
            help: "End-to-end job latency in microseconds",
            value: Value::Histogram(buckets, sum),
        });
        families
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = LatencyHisto::default();
        for micros in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.record(micros);
        }
        assert_eq!(h.count(), 7);
        let j = h.to_json();
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(7));
        assert_eq!(j.get("max_micros").and_then(Json::as_u64), Some(u64::MAX));
        let buckets = j.get("log2_buckets").and_then(Json::as_arr).unwrap();
        // 0 and 1 land in bucket 0; 2 and 3 in bucket 1; 4 in bucket 2.
        assert_eq!(buckets[0].as_u64(), Some(2));
        assert_eq!(buckets[1].as_u64(), Some(2));
        assert_eq!(buckets[2].as_u64(), Some(1));
        // u64::MAX clamps into the open-ended last bucket.
        assert_eq!(buckets.len(), HISTO_BUCKETS);
        assert_eq!(buckets[HISTO_BUCKETS - 1].as_u64(), Some(1));
    }

    #[test]
    fn stats_snapshot_shape() {
        let mut s = ServiceStats::default();
        s.jobs_submitted = 3;
        s.vm_runs = 1;
        s.result_hits = 2;
        s.capture_disk_hits = 1;
        s.record_latency(ToolId::Tquad, 1500);
        let j = s.to_json(42);
        assert_eq!(j.get("uptime_micros").and_then(Json::as_u64), Some(42));
        assert_eq!(
            j.get("uptime_seconds").and_then(Json::as_f64),
            Some(42.0 / 1_000_000.0)
        );
        assert_eq!(j.get("vm_runs").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("cache_hits").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("cache_misses").and_then(Json::as_u64), Some(1));
        let lat = j.get("latency").unwrap();
        assert_eq!(
            lat.get("tquad")
                .and_then(|t| t.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            lat.get("quad")
                .and_then(|t| t.get("count"))
                .and_then(Json::as_u64),
            Some(0)
        );
    }
}
