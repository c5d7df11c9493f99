//! Engine observability: a process-wide metrics registry plus per-query
//! profiles.
//!
//! The paper's demo shows a per-operator cardinality/timing table next to
//! every query (§4.2); [`crate::query::Explain`] reproduces that table but
//! is the *only* window into the engine — nothing accumulates across
//! queries, and the loader, persister, imprint cache and morsel workers
//! are invisible. This module adds the missing layer, in the tree's
//! "simple, fast, lean" style: no tracing framework, no external crates,
//! just `std` atomics.
//!
//! * [`MetricsRegistry`] — a process-wide, fixed-shape registry of atomic
//!   [`Counter`]s, [`Gauge`]s and log-scaled latency [`Histogram`]s. The
//!   hot path is lock-free and `O(1)`: recording a stage is a handful of
//!   relaxed `fetch_add`s. [`MetricsRegistry::snapshot_json`] renders a
//!   stable JSON document (fixed key order, no floats beyond fixed-point
//!   seconds) that the bench harness writes next to `BENCH_query.json`.
//! * [`Stage`] — the stage taxonomy every layer records against:
//!   `imprint_probe`, `bbox_scan`, `grid_refine`, `aggregate`,
//!   `imprint_build`, `persist_save`, `persist_load`, `morsel`.
//! * [`QueryProfile`] — the per-query view. It *subsumes* `Explain`: the
//!   legacy cardinality/timing struct is kept as the `explain` component
//!   (and [`crate::query::Selection`] derefs to the profile, so existing
//!   `sel.explain.*` call sites compile unchanged) while `stages` carries
//!   the named [`StageSample`]s recorded while the query ran.
//!
//! Cross-crate counters that cannot live here without inverting the
//! dependency graph (the imprints and storage crates sit *below* core)
//! are pulled into the snapshot from their owning crates:
//! `lidardb_imprints::probe_count()` and
//! `lidardb_storage::scan::{scan_calls, rows_examined}()`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Named stage scopes the engine records. The set is fixed so the registry
/// needs no allocation or locking on the record path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Imprint probe + candidate-list intersection (step 1a, probe-only).
    ImprintProbe,
    /// Exact bbox scan + attribute refines over candidates (step 1b).
    BboxScan,
    /// Spatial refinement (grid classification / exhaustive tests, step 2).
    GridRefine,
    /// Aggregate evaluation over a selection.
    Aggregate,
    /// Lazy imprint-index construction (cache misses only).
    ImprintBuild,
    /// Atomic column-dump save (`save_dir`).
    PersistSave,
    /// Bulk bytes → table ingestion: `open_dir` and the tile loader.
    PersistLoad,
    /// One morsel of the parallel executor (recorded per worker).
    Morsel,
    /// Query-lifecycle governance: admission-queue waits (`seconds`) and
    /// shed/timeout/kill/budget decisions (the dedicated counters).
    Governor,
    /// One framed batch appended to the write-ahead log (`rows` = points
    /// in the batch; `seconds` includes any group-commit fsync it trips).
    WalAppend,
    /// WAL recovery during `open_ingest`: replaying the committed frame
    /// prefix on top of the last dump.
    Recover,
    /// One request frame received and decoded by the network server
    /// (`rows` = payload bytes; `seconds` = read + decode time).
    ServerRecv,
    /// One result frame encoded and written by the network server
    /// (`rows` = result rows in the batch; `seconds` includes the
    /// backpressured socket write).
    ServerSend,
}

impl Stage {
    /// Every stage, in the (stable) order the snapshot renders them.
    /// New stages are always appended so the positional span codes of the
    /// earlier stages (see `trace::SpanKind::code`) stay stable —
    /// `Governor` in PR 5, `WalAppend`/`Recover` with the streaming-ingest
    /// WAL, `ServerRecv`/`ServerSend` with the wire protocol.
    pub const ALL: [Stage; 13] = [
        Stage::ImprintProbe,
        Stage::BboxScan,
        Stage::GridRefine,
        Stage::Aggregate,
        Stage::ImprintBuild,
        Stage::PersistSave,
        Stage::PersistLoad,
        Stage::Morsel,
        Stage::Governor,
        Stage::WalAppend,
        Stage::Recover,
        Stage::ServerRecv,
        Stage::ServerSend,
    ];

    /// The stage's snapshot/display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::ImprintProbe => "imprint_probe",
            Stage::BboxScan => "bbox_scan",
            Stage::GridRefine => "grid_refine",
            Stage::Aggregate => "aggregate",
            Stage::ImprintBuild => "imprint_build",
            Stage::PersistSave => "persist_save",
            Stage::PersistLoad => "persist_load",
            Stage::Morsel => "morsel",
            Stage::Governor => "governor",
            Stage::WalAppend => "wal_append",
            Stage::Recover => "recover",
            Stage::ServerRecv => "server_recv",
            Stage::ServerSend => "server_send",
        }
    }

    fn index(self) -> usize {
        Stage::ALL.iter().position(|s| *s == self).expect("stage in ALL")
    }
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter (relaxed; counters are statistics, not
    /// synchronisation).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins atomic gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increment the gauge (live-object counts: open connections).
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement the gauge, saturating at zero.
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.set(0);
    }
}

/// Number of log₂ latency buckets: bucket *b* counts durations in
/// `[2^b, 2^(b+1))` nanoseconds, with the last bucket open-ended.
/// 2⁴⁷ ns ≈ 39 hours, far beyond any stage this engine runs.
pub const HIST_BUCKETS: usize = 48;

/// A log₂-scaled latency histogram over nanoseconds. Recording is one
/// relaxed `fetch_add` into the bucket picked by `ilog2` — `O(1)`, no
/// locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Bucket index for a duration (log₂ of its nanoseconds, clamped).
    pub fn bucket_of(d: Duration) -> usize {
        let nanos = d.as_nanos().max(1) as u64;
        (nanos.ilog2() as usize).min(HIST_BUCKETS - 1)
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.buckets[Self::bucket_of(d)].fetch_add(1, Ordering::Relaxed);
    }

    /// Bucket counts (index = log₂ nanoseconds).
    pub fn counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Upper bound (exclusive, in nanoseconds) of the bucket where the
    /// cumulative count first reaches fraction `p` of the observations —
    /// a log₂-quantised percentile. Returns 0 when nothing was recorded.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        let counts = self.counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let need = (p.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (b, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= need {
                return 1u64 << ((b as u32 + 1).min(63));
            }
        }
        1u64 << 63
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// The per-stage instrument bundle: call count, rows processed, total
/// nanoseconds, and the latency distribution.
#[derive(Debug, Default)]
pub struct StageStats {
    /// Times the stage ran.
    pub calls: Counter,
    /// Rows the stage processed (stage-specific meaning; see [`Stage`]).
    pub rows: Counter,
    /// Total wall-clock nanoseconds across all calls.
    pub nanos: Counter,
    /// Log₂-bucketed per-call latency.
    pub latency: Histogram,
}

impl StageStats {
    /// Total seconds spent in the stage.
    pub fn seconds(&self) -> f64 {
        self.nanos.get() as f64 * 1e-9
    }

    fn reset(&self) {
        self.calls.reset();
        self.rows.reset();
        self.nanos.reset();
        self.latency.reset();
    }
}

/// The process-wide metrics registry. One static instance
/// ([`MetricsRegistry::global`]) accumulates over the process lifetime;
/// [`MetricsRegistry::reset`] zeroes it for benchmarks and tests.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    stages: [StageStats; Stage::ALL.len()],
    /// Queries answered by the two-step engine.
    pub queries: Counter,
    /// Imprint-cache hits (probe found a built index).
    pub imprint_cache_hits: Counter,
    /// Imprint-cache misses (lazy build was triggered).
    pub imprint_cache_misses: Counter,
    /// Probes degraded to exact scans because an imprint failed to build.
    pub degraded_probes: Counter,
    /// Morsels executed by the parallel executor.
    pub morsels: Counter,
    /// Files the bulk loader ingested.
    pub files_loaded: Counter,
    /// Files the bulk loader quarantined.
    pub files_quarantined: Counter,
    /// Points appended by the bulk loader.
    pub points_loaded: Counter,
    /// Queries shed by admission control (queue full or wait expired).
    pub queries_shed: Counter,
    /// Queries cancelled by an expired statement deadline.
    pub queries_timed_out: Counter,
    /// Queries cancelled by `KILL` / `kill_query` (incl. injected Cancel
    /// faults).
    pub queries_killed: Counter,
    /// Queries cancelled by an exceeded memory budget.
    pub budget_trips: Counter,
    /// Batches appended to a write-ahead log.
    pub wal_batches: Counter,
    /// WAL group-commit fsyncs (every durability acknowledgement).
    pub wal_syncs: Counter,
    /// WAL recoveries performed by `open_ingest` (incl. empty-log opens).
    pub wal_recoveries: Counter,
    /// Tiles zone-map-pruned before any imprint probe (tiled storage).
    pub tiles_pruned: Counter,
    /// Tiles that survived pruning and were probed/scanned.
    pub tiles_probed: Counter,
    /// Tile segments loaded from disk into the resident cache.
    pub tiles_loaded: Counter,
    /// Tile segments evicted by the resident-budget LRU.
    pub tiles_evicted: Counter,
    /// Rows in the most recently appended-to table.
    pub table_rows: Gauge,
    /// Imprint indexes currently cached on the most recently probed table.
    pub indexed_columns: Gauge,
    /// Bytes of tile segments currently resident in the most recently
    /// touched tiled cloud's cache.
    pub resident_tile_bytes: Gauge,
    /// Network connections currently open on the server.
    pub open_connections: Gauge,
    /// Queries executing under the most recently active admission
    /// controller (same last-writer convention as `table_rows`).
    pub admission_in_flight: Gauge,
    /// Queries waiting in that controller's FIFO queue.
    pub admission_queued: Gauge,
    /// Queries currently registered in the process-wide query registry.
    pub inflight_queries: Gauge,
    /// Rows applied but not yet WAL-durable on the most recently
    /// appended-to streaming table (the group-commit backlog).
    pub wal_backlog_rows: Gauge,
    /// INSERT batches skipped because their idempotency token was already
    /// in a table's replay ledger (a client retried after a lost ack).
    pub wal_dedup_hits: Counter,
    /// Streaming tables currently in read-only degraded mode after an
    /// `ENOSPC`/`EIO` (queries serve the durable snapshot; INSERTs are
    /// rejected typed until `seal()` succeeds).
    pub degraded_tables: Gauge,
    /// Servers in this process currently draining (graceful shutdown in
    /// progress: not accepting, in-flight statements running out their
    /// deadline). Each server increments it when its drain starts and
    /// decrements it when the drain ends; its own `/healthz` reads its own
    /// drain flag, not this process-wide count.
    pub server_draining: Gauge,
    /// Monotonic snapshot sequence: bumped by every
    /// [`snapshot_json`](Self::snapshot_json) so two scrapes of the same
    /// registry are totally ordered even at equal wall-clock resolution.
    snapshot_seq: AtomicU64,
    /// Lazily pinned epoch `uptime_ns` is measured from (first observation
    /// of this registry). `Instant` has no `Default`, hence the `OnceLock`.
    epoch: OnceLock<Instant>,
}

/// The singleton behind [`MetricsRegistry::global`].
static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

impl MetricsRegistry {
    /// The process-wide registry every layer records into.
    pub fn global() -> &'static MetricsRegistry {
        GLOBAL.get_or_init(MetricsRegistry::default)
    }

    /// Record one stage execution: `rows` processed in `took` wall-clock.
    /// Lock-free, `O(1)` — three relaxed adds and one histogram bucket.
    #[inline]
    pub fn record_stage(&self, stage: Stage, rows: usize, took: Duration) {
        let s = &self.stages[stage.index()];
        s.calls.inc();
        s.rows.add(rows as u64);
        s.nanos.add(took.as_nanos() as u64);
        s.latency.record(took);
    }

    /// The instrument bundle of one stage.
    pub fn stage(&self, stage: Stage) -> &StageStats {
        &self.stages[stage.index()]
    }

    /// Nanoseconds since this registry was first observed. The epoch pins
    /// itself on first call, so deltas between two snapshots are always
    /// measured on the same clock.
    pub fn uptime_ns(&self) -> u64 {
        self.epoch.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// Take the next snapshot sequence number (strictly monotonic across
    /// threads; the first snapshot observes 1).
    pub fn next_snapshot_seq(&self) -> u64 {
        self.snapshot_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Zero every instrument, including the cross-crate scan/probe
    /// counters. For benchmarks and tests; not linearisable against
    /// concurrent recorders.
    pub fn reset(&self) {
        for s in &self.stages {
            s.reset();
        }
        self.queries.reset();
        self.imprint_cache_hits.reset();
        self.imprint_cache_misses.reset();
        self.degraded_probes.reset();
        self.morsels.reset();
        self.files_loaded.reset();
        self.files_quarantined.reset();
        self.points_loaded.reset();
        self.queries_shed.reset();
        self.queries_timed_out.reset();
        self.queries_killed.reset();
        self.budget_trips.reset();
        self.wal_batches.reset();
        self.wal_syncs.reset();
        self.wal_recoveries.reset();
        self.tiles_pruned.reset();
        self.tiles_probed.reset();
        self.tiles_loaded.reset();
        self.tiles_evicted.reset();
        self.table_rows.reset();
        self.indexed_columns.reset();
        self.resident_tile_bytes.reset();
        self.open_connections.reset();
        self.admission_in_flight.reset();
        self.admission_queued.reset();
        self.inflight_queries.reset();
        self.wal_backlog_rows.reset();
        self.wal_dedup_hits.reset();
        self.degraded_tables.reset();
        self.server_draining.reset();
        // `snapshot_seq` and the epoch survive a reset on purpose: they
        // order *snapshots*, not workload, and rate conversion between two
        // scrapes must stay valid across a benchmark's reset.
        lidardb_imprints::reset_probe_count();
        lidardb_storage::scan::reset_scan_counters();
    }

    /// Every process counter as `(name, value)`, in the stable order the
    /// snapshot renders them. The single source of truth shared by
    /// [`snapshot_json`](Self::snapshot_json), the `sys.metrics` virtual
    /// table, the flight recorder and the Prometheus exposition — so a
    /// counter added here is visible on every surface at once. The last
    /// three are the cross-crate counters pulled from the imprint and
    /// storage layers.
    pub fn counter_values(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("queries", self.queries.get()),
            ("imprint_cache_hits", self.imprint_cache_hits.get()),
            ("imprint_cache_misses", self.imprint_cache_misses.get()),
            ("degraded_probes", self.degraded_probes.get()),
            ("morsels", self.morsels.get()),
            ("files_loaded", self.files_loaded.get()),
            ("files_quarantined", self.files_quarantined.get()),
            ("points_loaded", self.points_loaded.get()),
            ("queries_shed", self.queries_shed.get()),
            ("queries_timed_out", self.queries_timed_out.get()),
            ("queries_killed", self.queries_killed.get()),
            ("budget_trips", self.budget_trips.get()),
            ("wal_batches", self.wal_batches.get()),
            ("wal_syncs", self.wal_syncs.get()),
            ("wal_recoveries", self.wal_recoveries.get()),
            ("tiles_pruned", self.tiles_pruned.get()),
            ("tiles_probed", self.tiles_probed.get()),
            ("tiles_loaded", self.tiles_loaded.get()),
            ("tiles_evicted", self.tiles_evicted.get()),
            ("wal_dedup_hits", self.wal_dedup_hits.get()),
            ("imprint_probes", lidardb_imprints::probe_count()),
            ("imprint_candidate_rows", lidardb_imprints::probe_rows()),
            ("scan_rows_examined", lidardb_storage::scan::rows_examined()),
        ]
    }

    /// Every process gauge as `(name, value)`, in snapshot order.
    pub fn gauge_values(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("table_rows", self.table_rows.get()),
            ("indexed_columns", self.indexed_columns.get()),
            ("resident_tile_bytes", self.resident_tile_bytes.get()),
            ("open_connections", self.open_connections.get()),
            ("admission_in_flight", self.admission_in_flight.get()),
            ("admission_queued", self.admission_queued.get()),
            ("inflight_queries", self.inflight_queries.get()),
            ("wal_backlog_rows", self.wal_backlog_rows.get()),
            ("degraded_tables", self.degraded_tables.get()),
            ("server_draining", self.server_draining.get()),
            ("scan_calls", lidardb_storage::scan::scan_calls()),
        ]
    }

    /// Render a stable JSON snapshot: fixed key order, counters as
    /// integers, stage seconds with fixed six-digit precision, histogram
    /// buckets as a dense array (index = log₂ nanoseconds). Hand-rolled —
    /// the tree deliberately has no serde.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        // `seq` + `uptime_ns` first: every snapshot is totally ordered and
        // rate-convertible (delta(counter) / delta(uptime_ns)) — two
        // scrapes without them are wall-clock-ambiguous.
        out.push_str(&format!(
            "{{\n  \"seq\": {},\n  \"uptime_ns\": {},\n  \"counters\": {{\n",
            self.next_snapshot_seq(),
            self.uptime_ns(),
        ));
        let counters = self.counter_values();
        for (i, (name, v)) in counters.iter().enumerate() {
            let sep = if i + 1 < counters.len() { "," } else { "" };
            out.push_str(&format!("    \"{name}\": {v}{sep}\n"));
        }
        out.push_str("  },\n  \"gauges\": {\n");
        let gauges = self.gauge_values();
        for (i, (name, v)) in gauges.iter().enumerate() {
            let sep = if i + 1 < gauges.len() { "," } else { "" };
            out.push_str(&format!("    \"{name}\": {v}{sep}\n"));
        }
        out.push_str("  },\n  \"stages\": [\n");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            let s = self.stage(*stage);
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"calls\": {}, \"rows\": {}, \"seconds\": {:.6}, \
                 \"latency_log2ns\": [",
                stage.name(),
                s.calls.get(),
                s.rows.get(),
                s.seconds(),
            ));
            // Trailing zero buckets are elided so the document stays small;
            // index *is* the log₂-nanosecond bucket either way.
            let counts = s.latency.counts();
            let used = counts.iter().rposition(|&c| c > 0).map_or(0, |p| p + 1);
            for (j, c) in counts[..used].iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&c.to_string());
            }
            // Exclusive upper bound of each emitted bucket (`2^(b+1)` ns;
            // bucket b counts durations in `[2^b, 2^(b+1))`, the last one
            // open-ended), so external tooling can reconstruct the latency
            // distribution without reading the source.
            out.push_str("], \"latency_le_ns\": [");
            for j in 0..used {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&(1u64 << (j as u32 + 1).min(63)).to_string());
            }
            out.push_str(&format!(
                "]}}{}\n",
                if i + 1 < Stage::ALL.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One named stage execution observed while answering a single query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSample {
    /// Which stage ran.
    pub stage: Stage,
    /// Rows the stage emitted (its output cardinality).
    pub rows: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// The full observability record of one query. Subsumes
/// [`crate::query::Explain`]: `explain` is the legacy per-operator view
/// (kept so existing tests and benches hold — [`crate::query::Selection`]
/// derefs here, making `sel.explain` reach it unchanged), `stages` the
/// named samples recorded into the global registry while the query ran.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// Legacy per-operator cardinalities and timings.
    pub explain: crate::query::Explain,
    /// Named stage samples, in execution order.
    pub stages: Vec<StageSample>,
    /// The query's span-trace id, when it ran traced (see [`crate::trace`]):
    /// `Tracer::global().snapshot().for_trace(id)` yields its span tree.
    pub trace_id: Option<u64>,
}

impl QueryProfile {
    /// Total seconds across the recorded stage samples.
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.seconds).sum()
    }

    /// Seconds spent in one stage (summed over its samples).
    pub fn stage_seconds(&self, stage: Stage) -> f64 {
        self.stages
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.seconds)
            .sum()
    }

    /// Output rows of one stage (summed over its samples), `None` if the
    /// stage never ran in this query.
    pub fn stage_rows(&self, stage: Stage) -> Option<usize> {
        let mut any = false;
        let mut rows = 0usize;
        for s in self.stages.iter().filter(|s| s.stage == stage) {
            any = true;
            rows += s.rows;
        }
        any.then_some(rows)
    }

    /// Every deterministic counter of the profile as `(name, value)`
    /// pairs — cardinalities and probe counts, no timings. The
    /// differential suite asserts these are identical between runs of the
    /// same query at different worker counts.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let e = &self.explain;
        vec![
            ("after_imprints", e.after_imprints as u64),
            ("sure_rows", e.sure_rows as u64),
            ("after_bbox", e.after_bbox as u64),
            ("cells_inside", e.cells_inside as u64),
            ("cells_outside", e.cells_outside as u64),
            ("cells_boundary", e.cells_boundary as u64),
            ("exact_tests", e.exact_tests as u64),
            ("attr_probes", e.attr_probes as u64),
            ("degraded_probes", e.degraded_probes as u64),
            ("result_rows", e.result_rows as u64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable_and_indexed() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "imprint_probe",
                "bbox_scan",
                "grid_refine",
                "aggregate",
                "imprint_build",
                "persist_save",
                "persist_load",
                "morsel",
                "governor",
                "wal_append",
                "recover",
                "server_recv",
                "server_send"
            ]
        );
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn histogram_buckets_are_log2_nanos() {
        assert_eq!(Histogram::bucket_of(Duration::from_nanos(0)), 0);
        assert_eq!(Histogram::bucket_of(Duration::from_nanos(1)), 0);
        assert_eq!(Histogram::bucket_of(Duration::from_nanos(2)), 1);
        assert_eq!(Histogram::bucket_of(Duration::from_nanos(1023)), 9);
        assert_eq!(Histogram::bucket_of(Duration::from_nanos(1024)), 10);
        assert_eq!(
            Histogram::bucket_of(Duration::from_secs(1_000_000)),
            HIST_BUCKETS - 1,
            "open-ended last bucket"
        );
        let h = Histogram::default();
        h.record(Duration::from_micros(3)); // 3000 ns -> bucket 11
        h.record(Duration::from_micros(3));
        assert_eq!(h.counts()[11], 2);
    }

    #[test]
    fn record_stage_accumulates() {
        let r = MetricsRegistry::default();
        r.record_stage(Stage::BboxScan, 100, Duration::from_millis(2));
        r.record_stage(Stage::BboxScan, 50, Duration::from_millis(1));
        let s = r.stage(Stage::BboxScan);
        assert_eq!(s.calls.get(), 2);
        assert_eq!(s.rows.get(), 150);
        assert!((s.seconds() - 0.003).abs() < 1e-9);
        assert_eq!(r.stage(Stage::GridRefine).calls.get(), 0);
    }

    #[test]
    fn profile_stage_accessors() {
        let mut p = QueryProfile::default();
        p.stages.push(StageSample {
            stage: Stage::ImprintProbe,
            rows: 10,
            seconds: 0.5,
        });
        p.stages.push(StageSample {
            stage: Stage::BboxScan,
            rows: 7,
            seconds: 0.25,
        });
        assert_eq!(p.stage_rows(Stage::ImprintProbe), Some(10));
        assert_eq!(p.stage_rows(Stage::Morsel), None);
        assert!((p.total_seconds() - 0.75).abs() < 1e-12);
        assert!((p.stage_seconds(Stage::BboxScan) - 0.25).abs() < 1e-12);
        assert_eq!(p.counters().len(), 10);
        assert!(p.counters().iter().any(|(n, _)| *n == "attr_probes"));
    }

    #[test]
    fn snapshot_seq_is_monotonic_under_concurrent_recording() {
        fn field(json: &str, key: &str) -> u64 {
            let tag = format!("\"{key}\": ");
            let at = json.find(&tag).unwrap_or_else(|| panic!("{key} missing")) + tag.len();
            json[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap()
        }
        let r = std::sync::Arc::new(MetricsRegistry::default());
        // Writers hammer record_stage while snapshotters scrape; every
        // snapshot must carry a distinct seq and a non-decreasing uptime.
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        r.record_stage(Stage::BboxScan, 7, Duration::from_nanos(900));
                    }
                })
            })
            .collect();
        let snappers: Vec<_> = (0..4)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    (0..50)
                        .map(|_| {
                            let json = r.snapshot_json();
                            (field(&json, "seq"), field(&json, "uptime_ns"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = Vec::new();
        for s in snappers {
            let per_thread = s.join().unwrap();
            // Within one thread the sequence and uptime strictly advance.
            for w in per_thread.windows(2) {
                assert!(w[1].0 > w[0].0, "seq not monotonic within thread");
                assert!(w[1].1 >= w[0].1, "uptime went backwards");
            }
            all.extend(per_thread);
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        // Across all threads every snapshot got a distinct seq.
        let mut seqs: Vec<u64> = all.iter().map(|(s, _)| *s).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), all.len(), "snapshot seq collided");
        // reset() keeps ordering alive: the next snapshot still advances.
        let before = field(&r.snapshot_json(), "seq");
        r.reset();
        assert!(field(&r.snapshot_json(), "seq") > before);
    }

    #[test]
    fn histogram_percentiles_are_log2_bounds() {
        let h = Histogram::default();
        assert_eq!(h.percentile_ns(0.99), 0, "empty histogram");
        for _ in 0..99 {
            h.record(Duration::from_nanos(700)); // bucket 9 -> le 1024
        }
        h.record(Duration::from_micros(50)); // bucket 15 -> le 65536
        assert_eq!(h.percentile_ns(0.5), 1024);
        assert_eq!(h.percentile_ns(0.99), 1024);
        assert_eq!(h.percentile_ns(1.0), 65536);
    }

    #[test]
    fn snapshot_json_has_stable_shape() {
        let r = MetricsRegistry::default();
        r.queries.add(3);
        r.record_stage(Stage::PersistSave, 42, Duration::from_micros(10));
        let json = r.snapshot_json();
        assert!(json.contains("\"queries\": 3"));
        assert!(json.contains("\"name\": \"persist_save\", \"calls\": 1, \"rows\": 42"));
        // The governor's shed/timeout/kill/budget decisions are part of
        // the stable snapshot shape.
        r.queries_shed.add(2);
        r.queries_timed_out.inc();
        r.queries_killed.inc();
        r.budget_trips.inc();
        let json = r.snapshot_json();
        assert!(json.contains("\"queries_shed\": 2"));
        assert!(json.contains("\"queries_timed_out\": 1"));
        assert!(json.contains("\"queries_killed\": 1"));
        assert!(json.contains("\"budget_trips\": 1"));
        assert!(json.contains("\"name\": \"governor\""));
        // The tiled-storage counters and cache gauge are part of the shape.
        r.tiles_pruned.add(4);
        r.tiles_probed.add(2);
        r.tiles_loaded.inc();
        r.tiles_evicted.inc();
        r.resident_tile_bytes.set(4096);
        let json = r.snapshot_json();
        assert!(json.contains("\"tiles_pruned\": 4"));
        assert!(json.contains("\"tiles_probed\": 2"));
        assert!(json.contains("\"tiles_loaded\": 1"));
        assert!(json.contains("\"tiles_evicted\": 1"));
        assert!(json.contains("\"resident_tile_bytes\": 4096"));
        // Every stage appears exactly once, in declaration order.
        let mut last = 0;
        for s in Stage::ALL {
            let pos = json.find(&format!("\"name\": \"{}\"", s.name())).unwrap();
            assert!(pos > last, "{} out of order", s.name());
            last = pos;
        }
    }
}
