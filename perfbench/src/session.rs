//! The closed-loop client sessions of each workload, over the wire.
//!
//! Every latency is client wall time from send to `Done`, including the
//! client's frame decode. A traced phase additionally snapshots the
//! process-wide metrics registry around each statement, so the server's
//! per-stage work can be attributed to it (the server runs in this
//! process).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lidardb::core::{MetricsRegistry, Stage};
use lidardb::sql::SqlValue;
use lidardb_server::{Client, QueryStats};

use crate::reference::{check, Expected, Reference};
use crate::stream::{HeadReader, NavWalk, Rng, Shape, Stmt, Strip, INSERT_ROWS};

/// Statements run before the measured window of each phase.
const NAV_WARMUP: usize = 20;
const INGEST_WARMUP: usize = 20;
/// One navigate statement in this many is checked against the reference.
const NAV_CHECK_EVERY: usize = 8;
/// Distinct statements kept per class and phase for the embedded replay.
const KEEP_PER_CLASS: usize = 120;
/// Failure messages kept for the report.
const KEEP_FAILURES: usize = 5;

/// Process-wide registry state: per-stage calls/rows/nanos and every
/// counter, in `counter_values` order.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    pub calls: [u64; Stage::ALL.len()],
    pub rows: [u64; Stage::ALL.len()],
    pub nanos: [u64; Stage::ALL.len()],
    pub counters: Vec<u64>,
}

impl Snap {
    pub fn take() -> Snap {
        let m = MetricsRegistry::global();
        let mut s = Snap::default();
        for (i, st) in Stage::ALL.iter().enumerate() {
            let st = m.stage(*st);
            s.calls[i] = st.calls.get();
            s.rows[i] = st.rows.get();
            s.nanos[i] = st.nanos.get();
        }
        s.counters = m.counter_values().into_iter().map(|(_, v)| v).collect();
        s
    }

    /// `self - before`, saturating (counters only grow).
    pub fn since(&self, before: &Snap) -> Snap {
        let mut d = Snap::default();
        for i in 0..Stage::ALL.len() {
            d.calls[i] = self.calls[i].saturating_sub(before.calls[i]);
            d.rows[i] = self.rows[i].saturating_sub(before.rows[i]);
            d.nanos[i] = self.nanos[i].saturating_sub(before.nanos[i]);
        }
        d.counters = self
            .counters
            .iter()
            .zip(&before.counters)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        d
    }

    pub fn add(&mut self, other: &Snap) {
        for i in 0..Stage::ALL.len() {
            self.calls[i] += other.calls[i];
            self.rows[i] += other.rows[i];
            self.nanos[i] += other.nanos[i];
        }
        if self.counters.is_empty() {
            self.counters = vec![0; other.counters.len()];
        }
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
    }

    fn idx(stage: Stage) -> usize {
        Stage::ALL
            .iter()
            .position(|s| *s == stage)
            .expect("stage in ALL")
    }

    pub fn stage_ms(&self, stage: Stage) -> f64 {
        self.nanos[Self::idx(stage)] as f64 / 1e6
    }

    pub fn stage_rows(&self, stage: Stage) -> u64 {
        self.rows[Self::idx(stage)]
    }

    pub fn stage_calls(&self, stage: Stage) -> u64 {
        self.calls[Self::idx(stage)]
    }

    pub fn counter(&self, name: &str) -> u64 {
        MetricsRegistry::global()
            .counter_values()
            .iter()
            .position(|(n, _)| *n == name)
            .and_then(|i| self.counters.get(i).copied())
            .unwrap_or(0)
    }
}

/// One measured statement.
#[derive(Debug, Clone)]
pub struct Record {
    pub class: &'static str,
    /// Start, nanoseconds since the phase began.
    pub start_ns: u64,
    pub client_ns: u64,
    pub server_us: u64,
    pub rows: u64,
    /// Registry delta across the statement (traced phases only).
    pub delta: Option<Snap>,
}

impl Record {
    pub fn client_ms(&self) -> f64 {
        self.client_ns as f64 / 1e6
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub elapsed_s: f64,
    pub records: Vec<Record>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub checked: u64,
    /// Peak RSS seen during the phase, bytes.
    pub rss_peak: u64,
    /// Statements replayed by the embedded pass.
    pub kept: Vec<Stmt>,
}

impl Phase {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < KEEP_FAILURES {
            self.failures.push(msg);
        }
    }

    /// Keep a statement for the embedded replay: distinct ones only, up to
    /// [`KEEP_PER_CLASS`] per class.
    fn keep(&mut self, s: &Stmt) {
        let same_class = self.kept.iter().filter(|k| k.class() == s.class());
        if same_class.clone().count() < KEEP_PER_CLASS
            && !same_class.clone().any(|k| k.sql == s.sql)
        {
            self.kept.push(s.clone());
        }
    }

    /// Fold another phase's statements, failures and checks into this one.
    pub fn merge(&mut self, other: Phase) {
        self.records.extend(other.records);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(f);
            }
        }
        self.checked += other.checked;
        for s in other.kept {
            self.keep(&s);
        }
    }
}

/// Resident set size of this process, bytes.
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Run `body` while a sampler thread tracks peak RSS every 10 ms.
fn with_rss_peak<T>(body: impl FnOnce() -> T) -> (T, u64) {
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(rss_bytes());
    let out = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                peak.fetch_max(rss_bytes(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let out = body();
        stop.store(true, Ordering::Release);
        sampler.join().expect("rss sampler thread");
        out
    });
    peak.fetch_max(rss_bytes(), Ordering::Relaxed);
    (out, peak.load(Ordering::Relaxed))
}

/// Result of one statement on the wire.
struct Answer {
    stats: QueryStats,
    decoded: u64,
    values: Vec<Vec<SqlValue>>,
    client_ns: u64,
    delta: Option<Snap>,
}

/// Send one statement and consume its result. `keep_values` collects the
/// rows (small results only); otherwise rows are only counted.
fn run_one(
    client: &mut Client,
    sql: &str,
    keep_values: bool,
    traced: bool,
) -> Result<Answer, String> {
    let before = traced.then(Snap::take);
    let mut decoded = 0u64;
    let mut values = Vec::new();
    let t0 = Instant::now();
    let stats = client
        .query_streamed(
            sql,
            |_| {},
            |batch| {
                decoded += batch.len() as u64;
                if keep_values {
                    values.extend(batch);
                } else {
                    std::hint::black_box(batch);
                }
            },
        )
        .map_err(|e| e.to_string())?;
    let client_ns = t0.elapsed().as_nanos() as u64;
    let delta = before.map(|b| Snap::take().since(&b));
    Ok(Answer {
        stats,
        decoded,
        values,
        client_ns,
        delta,
    })
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect: {e}"))
}

fn record(class: &'static str, phase_t0: Instant, a: &Answer) -> Record {
    Record {
        class,
        start_ns: (phase_t0.elapsed().as_nanos() as u64).saturating_sub(a.client_ns),
        client_ns: a.client_ns,
        server_us: a.stats.elapsed_us,
        rows: a.stats.rows,
        delta: a.delta.clone(),
    }
}

/// Navigate: one viewer in a closed loop over the pan/zoom walk. A seeded
/// one-in-eight sample of viewports is checked against the reference.
pub fn navigate(
    addr: SocketAddr,
    walk: &mut NavWalk,
    check_rng: &mut Rng,
    reference: &Reference,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let mut client = connect(addr)?;
    for s in walk.by_ref().take(NAV_WARMUP) {
        run_one(&mut client, &s.sql, false, false).map_err(|e| format!("warm-up: {e}"))?;
    }
    let mut to_check: Vec<(Stmt, u64)> = Vec::new();
    let (mut phase, rss_peak) = with_rss_peak(|| {
        let mut p = Phase::default();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds {
            let s = walk.next().expect("endless walk");
            p.attempted += 1;
            p.keep(&s);
            match run_one(&mut client, &s.sql, false, traced) {
                Ok(a) if a.decoded != a.stats.rows => p.fail(format!(
                    "decoded {} rows, Done says {}",
                    a.decoded, a.stats.rows
                )),
                Ok(a) => {
                    if check_rng.below(NAV_CHECK_EVERY) == 0 {
                        to_check.push((s.clone(), a.decoded));
                    }
                    p.records.push(record("viewport", t0, &a));
                }
                Err(e) => p.fail(e),
            }
        }
        p.elapsed_s = t0.elapsed().as_secs_f64();
        p
    });
    phase.rss_peak = rss_peak;
    for (s, rows) in to_check {
        let want = reference.expected(&s).expect("viewports have answers");
        phase.checked += 1;
        if let Err(e) = check(&want, rows, &[]) {
            phase.fail(format!("{}: {e}", s.sql));
        }
    }
    Ok(phase)
}

/// Analyze: one analyst cycling the statement list; every answer is
/// compared with the reference computed once per seed.
pub fn analyze(
    addr: SocketAddr,
    list: &[(Stmt, Expected)],
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let mut client = connect(addr)?;
    // Warm-up: one statement of each class.
    for (s, _) in &list[..3] {
        run_one(&mut client, &s.sql, true, false).map_err(|e| format!("warm-up: {e}"))?;
    }
    let (mut phase, rss_peak) = with_rss_peak(|| {
        let mut p = Phase::default();
        let t0 = Instant::now();
        let mut i = 3;
        while t0.elapsed().as_secs_f64() < seconds {
            let (s, want) = &list[i % list.len()];
            i += 1;
            p.attempted += 1;
            p.keep(s);
            match run_one(&mut client, &s.sql, true, traced) {
                Ok(a) => {
                    p.checked += 1;
                    match check(want, a.decoded, &a.values) {
                        Ok(()) => p.records.push(record(s.class(), t0, &a)),
                        Err(e) => p.fail(format!("{}: {e}", s.sql)),
                    }
                }
                Err(e) => p.fail(e),
            }
        }
        p.elapsed_s = t0.elapsed().as_secs_f64();
        p
    });
    phase.rss_peak = rss_peak;
    Ok(phase)
}

/// Ingest writer state carried across phases: the next strip row.
#[derive(Debug)]
pub struct IngestState {
    pub strip: Strip,
    pub reader: HeadReader,
    pub next_row: u64,
    /// Rows up to the last batch acknowledged as durable (visible).
    pub durable_row: u64,
    /// Set when an INSERT failed: later rows would leave a gap, so the
    /// writer stops and the acked prefix is what recovery must restore.
    pub writer_failed: bool,
}

/// Ingest: a writer session streaming `INSERT` batches along the strip
/// and a reader session counting a window at the scan head after each
/// acknowledged batch. The two sessions take turns: on a two-core host,
/// free-running concurrent sessions varied ±12% in statements per second
/// at one seed, so the turns keep lock acquisition and visibility on the
/// path but not contention. Reader counts are checked against bounds: at
/// least the base rows plus every row of a batch acknowledged as durable,
/// at most the base rows plus every row acknowledged.
pub fn ingest(
    addr: SocketAddr,
    st: &mut IngestState,
    table: &str,
    reference: &Reference,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let mut writer = connect(addr)?;
    let mut reader = connect(addr)?;
    for _ in 0..INGEST_WARMUP {
        let s = st.strip.insert(table, st.next_row);
        let a = run_one(&mut writer, &s.sql, true, false).map_err(|e| format!("warm-up: {e}"))?;
        st.next_row += INSERT_ROWS;
        if matches!(
            a.values.first().map(|r| r.as_slice()),
            Some([_, SqlValue::Int(1), ..])
        ) {
            st.durable_row = st.next_row;
        }
    }
    let mut reads = Vec::new();
    let (mut phase, rss_peak) = with_rss_peak(|| {
        let mut p = Phase::default();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds && !st.writer_failed {
            let s = st.strip.insert(table, st.next_row);
            p.attempted += 1;
            p.keep(&s);
            match run_one(&mut writer, &s.sql, true, traced) {
                Ok(a) => match a.values.first().map(|r| r.as_slice()) {
                    Some([SqlValue::Int(n), SqlValue::Int(d), ..]) if *n as u64 == INSERT_ROWS => {
                        st.next_row += INSERT_ROWS;
                        if *d == 1 {
                            st.durable_row = st.next_row;
                        }
                        p.records.push(record("insert", t0, &a));
                    }
                    other => {
                        p.fail(format!("insert ack {other:?}"));
                        st.writer_failed = true;
                    }
                },
                Err(e) => {
                    p.fail(format!("insert: {e}"));
                    st.writer_failed = true;
                }
            }
            let s = st.reader.next(st.next_row);
            p.attempted += 1;
            p.keep(&s);
            match run_one(&mut reader, &s.sql, true, traced) {
                Ok(a) => match a.values.first().map(|r| r.as_slice()) {
                    Some([SqlValue::Int(n)]) => {
                        reads.push((s.shape.clone(), *n as u64, st.durable_row, st.next_row));
                        p.records.push(record("read", t0, &a));
                    }
                    other => p.fail(format!("read answer {other:?}")),
                },
                Err(e) => p.fail(format!("read: {e}")),
            }
        }
        p.elapsed_s = t0.elapsed().as_secs_f64();
        p
    });
    phase.rss_peak = rss_peak;
    for (shape, n, floor, ceiling) in reads {
        let Shape::Read(r) = shape else { continue };
        let base = reference.count_rect(&r);
        let (lo, hi) = (
            base + st.strip.count_in(&r, floor),
            base + st.strip.count_in(&r, ceiling),
        );
        phase.checked += 1;
        if n < lo || n > hi {
            phase.fail(format!("read window {r:?}: count {n} outside [{lo}, {hi}]"));
        }
    }
    Ok(phase)
}
