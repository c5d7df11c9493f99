//! The CI perf-regression gate: diff a fresh `BENCH_query.json` against
//! the committed baseline and fail on >25% regression in any stage's p50.
//!
//! The harness's per-run timings are already medians-of-3 (`e9_parallel`
//! picks the median repetition), so each `t_*` field *is* the stage's
//! p50 for that (query, mode, workers) cell. The gate compares cells
//! pairwise — a fresh run missing a baseline cell is itself a regression
//! (coverage must not silently shrink) — and ignores cells faster than
//! [`TIME_FLOOR_SECONDS`], where scheduler noise dwarfs the signal.
//!
//! Everything is hand-rolled (tiny JSON value parser included): the tree
//! deliberately has no serde. `scripts/bench_gate.sh` wires this into CI
//! via the `bench_gate` binary; `--scale` produces the synthetically
//! slowed copy the negative test feeds back through the gate.

use std::collections::BTreeMap;

/// Fractional slowdown tolerated per stage before the gate trips (25%).
pub const REGRESSION_THRESHOLD: f64 = 0.25;

/// Baseline cells faster than this (seconds) are not gated — at
/// sub-millisecond scale a cold cache costs more than 25%.
pub const TIME_FLOOR_SECONDS: f64 = 1e-3;

/// The timed stages of one benchmark run, in report order.
pub const STAGES: [&str; 4] = ["t_imprints", "t_bbox", "t_refine", "t_total"];

/// A structural problem with a benchmark document. The gate treats these
/// as "the gate itself is broken" (exit code 2), never as a pass: a
/// baseline with a NaN or negative p50 would otherwise defeat every
/// `fresh > base * (1 + threshold)` comparison silently.
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// A document is missing required structure (arrays, names, stages).
    Shape(String),
    /// A timing or throughput cell holds a non-finite or negative value.
    InvalidMeasurement {
        /// `query/mode/workers` (or `ingest/<policy>`) of the bad cell.
        cell: String,
        /// The offending field.
        field: String,
        /// The value as parsed.
        value: f64,
    },
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::Shape(msg) => write!(f, "{msg}"),
            GateError::InvalidMeasurement { cell, field, value } => write!(
                f,
                "{cell}: {field} = {value} is not a valid measurement \
                 (finite and non-negative required)"
            ),
        }
    }
}

impl std::error::Error for GateError {}

impl From<String> for GateError {
    fn from(msg: String) -> Self {
        GateError::Shape(msg)
    }
}

/// Reject NaN/∞/negative measurements before they reach a comparison.
fn check_measurement(cell: &str, field: &str, value: f64) -> Result<f64, GateError> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(GateError::InvalidMeasurement {
            cell: cell.to_string(),
            field: field.to_string(),
            value,
        })
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON value parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Only what `BENCH_query.json` needs — numbers are
/// `f64`, object keys keep insertion order via pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (no escape handling beyond `\"` and `\\` — the harness
    /// emits neither).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(v)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let Json::Str(key) = parse_value(b, pos)? else {
                    return Err(format!("object key is not a string at byte {pos}"));
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                pairs.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            while let Some(&c) = b.get(*pos) {
                *pos += 1;
                match c {
                    b'"' => return Ok(Json::Str(s)),
                    b'\\' => {
                        let esc = *b.get(*pos).ok_or("unterminated escape")?;
                        *pos += 1;
                        s.push(match esc {
                            b'"' => '"',
                            b'\\' => '\\',
                            b'n' => '\n',
                            b't' => '\t',
                            other => {
                                return Err(format!("unsupported escape \\{}", other as char))
                            }
                        });
                    }
                    other => s.push(other as char),
                }
            }
            Err("unterminated string".into())
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }
    }
}

// ---------------------------------------------------------------------------
// Benchmark-run extraction and comparison
// ---------------------------------------------------------------------------

/// One gateable cell of `BENCH_query.json`: a (query, mode, workers) run
/// with its per-stage p50 seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Query name (`bbox_36pct`, `diamond_32pct`, ...).
    pub query: String,
    /// Execution mode (`serial` / `threads`).
    pub mode: String,
    /// Worker count.
    pub workers: u64,
    /// Stage name → median seconds, in [`STAGES`] order.
    pub stages: Vec<(String, f64)>,
}

impl BenchRun {
    /// The cell's identity within a document.
    pub fn key(&self) -> (String, String, u64) {
        (self.query.clone(), self.mode.clone(), self.workers)
    }
}

/// Pull every run out of a parsed `BENCH_query.json`. Every captured
/// stage timing is validated: NaN, infinite, or negative p50s are a
/// [`GateError::InvalidMeasurement`], not data.
pub fn extract_runs(doc: &Json) -> Result<Vec<BenchRun>, GateError> {
    let queries = doc
        .get("queries")
        .and_then(Json::as_arr)
        .ok_or_else(|| GateError::Shape("document has no \"queries\" array".into()))?;
    let mut out = Vec::new();
    for q in queries {
        let qname = q
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| GateError::Shape("query entry has no \"name\"".into()))?;
        for run in q.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
            let mode = run
                .get("mode")
                .and_then(Json::as_str)
                .ok_or_else(|| GateError::Shape("run has no \"mode\"".into()))?;
            let workers = run.get("workers").and_then(Json::as_f64).unwrap_or(1.0) as u64;
            let cell = format!("{qname}/{mode}/{workers}");
            let mut stages = Vec::with_capacity(STAGES.len());
            for s in STAGES {
                if let Some(v) = run.get(s).and_then(Json::as_f64) {
                    stages.push((s.to_string(), check_measurement(&cell, s, v)?));
                }
            }
            if stages.is_empty() {
                return Err(GateError::Shape(format!("run {cell} has no stage timings")));
            }
            out.push(BenchRun {
                query: qname.to_string(),
                mode: mode.to_string(),
                workers,
                stages,
            });
        }
    }
    if out.is_empty() {
        return Err(GateError::Shape("document contains no runs".into()));
    }
    Ok(out)
}

/// One gate violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// `query/mode/workers` of the offending cell.
    pub cell: String,
    /// Stage that regressed, `"<missing>"` for a vanished cell, or
    /// `"<unexpected>"` for a fresh cell the baseline never measured.
    pub stage: String,
    /// Baseline p50 seconds.
    pub base: f64,
    /// Fresh p50 seconds.
    pub fresh: f64,
}

impl Regression {
    /// Human-readable one-liner.
    pub fn describe(&self) -> String {
        if self.stage == "<missing>" {
            format!("{}: cell missing from fresh run", self.cell)
        } else if self.stage == "<unexpected>" {
            format!(
                "{}: fresh cell has no baseline (re-run the harness and \
                 commit an updated baseline to gate it)",
                self.cell
            )
        } else {
            format!(
                "{} {}: {:.6} -> {:.6} ({:+.0}%)",
                self.cell,
                self.stage,
                self.base,
                self.fresh,
                (self.fresh / self.base - 1.0) * 100.0
            )
        }
    }
}

/// Compare a fresh run set against the baseline: every baseline cell must
/// be present, no gated stage may slow down by more than `threshold`, and
/// a fresh cell the baseline never measured is flagged too — ungated
/// coverage silently creeping in is how a gate rots.
pub fn compare(base: &[BenchRun], fresh: &[BenchRun], threshold: f64) -> Vec<Regression> {
    let fresh_by_key: BTreeMap<_, _> = fresh.iter().map(|r| (r.key(), r)).collect();
    let base_keys: std::collections::BTreeSet<_> = base.iter().map(BenchRun::key).collect();
    let mut out = Vec::new();
    for f in fresh {
        if !base_keys.contains(&f.key()) {
            out.push(Regression {
                cell: format!("{}/{}/{}", f.query, f.mode, f.workers),
                stage: "<unexpected>".into(),
                base: 0.0,
                fresh: 0.0,
            });
        }
    }
    for b in base {
        let cell = format!("{}/{}/{}", b.query, b.mode, b.workers);
        let Some(f) = fresh_by_key.get(&b.key()) else {
            out.push(Regression {
                cell,
                stage: "<missing>".into(),
                base: 0.0,
                fresh: 0.0,
            });
            continue;
        };
        for (stage, base_secs) in &b.stages {
            if *base_secs < TIME_FLOOR_SECONDS {
                continue;
            }
            let Some((_, fresh_secs)) = f.stages.iter().find(|(s, _)| s == stage) else {
                out.push(Regression {
                    cell: cell.clone(),
                    stage: stage.clone(),
                    base: *base_secs,
                    fresh: 0.0,
                });
                continue;
            };
            if *fresh_secs > base_secs * (1.0 + threshold) {
                out.push(Regression {
                    cell: cell.clone(),
                    stage: stage.clone(),
                    base: *base_secs,
                    fresh: *fresh_secs,
                });
            }
        }
    }
    out
}

/// Render runs back into a document the gate can read — used by `--scale`
/// to produce the synthetically slowed copy for the negative CI test.
pub fn render_runs(runs: &[BenchRun]) -> String {
    let mut by_query: Vec<(&str, Vec<&BenchRun>)> = Vec::new();
    for r in runs {
        match by_query.iter_mut().find(|(q, _)| *q == r.query) {
            Some((_, v)) => v.push(r),
            None => by_query.push((&r.query, vec![r])),
        }
    }
    let mut out = String::from("{\n  \"experiment\": \"bench_gate_scaled\",\n  \"queries\": [\n");
    for (qi, (qname, runs)) in by_query.iter().enumerate() {
        out.push_str(&format!("    {{\n      \"name\": \"{qname}\",\n      \"runs\": [\n"));
        for (ri, r) in runs.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"mode\": \"{}\", \"workers\": {}",
                r.mode, r.workers
            ));
            for (s, v) in &r.stages {
                out.push_str(&format!(", \"{s}\": {v:.6}"));
            }
            out.push_str(if ri + 1 < runs.len() { "},\n" } else { "}\n" });
        }
        out.push_str(if qi + 1 < by_query.len() {
            "      ]\n    },\n"
        } else {
            "      ]\n    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Ingest-gate extraction and comparison (BENCH_ingest.json)
// ---------------------------------------------------------------------------

/// One gateable cell of `BENCH_ingest.json`: a durability policy with its
/// ingest throughput and cold-start recovery time.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRun {
    /// Durability policy (`none` / `group_commit` / `always`).
    pub policy: String,
    /// Acked points per second during ingest.
    pub points_per_sec: f64,
    /// Seconds to replay the full WAL on reopen.
    pub recovery_seconds: f64,
}

/// Pull every policy row out of a parsed `BENCH_ingest.json`, rejecting
/// NaN/infinite/negative measurements like [`extract_runs`] does.
pub fn extract_ingest_runs(doc: &Json) -> Result<Vec<IngestRun>, GateError> {
    let policies = doc
        .get("policies")
        .and_then(Json::as_arr)
        .ok_or_else(|| GateError::Shape("document has no \"policies\" array".into()))?;
    let mut out = Vec::new();
    for p in policies {
        let policy = p
            .get("durability")
            .and_then(Json::as_str)
            .ok_or_else(|| GateError::Shape("policy entry has no \"durability\"".into()))?;
        let cell = format!("ingest/{policy}");
        let pps = p
            .get("points_per_sec")
            .and_then(Json::as_f64)
            .ok_or_else(|| {
                GateError::Shape(format!("policy {policy} has no \"points_per_sec\""))
            })?;
        let rec = p
            .get("recovery_seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| {
                GateError::Shape(format!("policy {policy} has no \"recovery_seconds\""))
            })?;
        out.push(IngestRun {
            policy: policy.to_string(),
            points_per_sec: check_measurement(&cell, "points_per_sec", pps)?,
            recovery_seconds: check_measurement(&cell, "recovery_seconds", rec)?,
        });
    }
    if out.is_empty() {
        return Err(GateError::Shape("document contains no policies".into()));
    }
    Ok(out)
}

/// Compare fresh ingest numbers against the baseline: every policy must
/// still be measured, throughput may not drop by more than `threshold`,
/// and recovery may not slow down by more than `threshold` (recovery
/// faster than [`TIME_FLOOR_SECONDS`] is noise, not signal).
pub fn compare_ingest(
    base: &[IngestRun],
    fresh: &[IngestRun],
    threshold: f64,
) -> Vec<Regression> {
    let fresh_by_policy: BTreeMap<&str, &IngestRun> =
        fresh.iter().map(|r| (r.policy.as_str(), r)).collect();
    let mut out = Vec::new();
    for f in fresh {
        if !base.iter().any(|b| b.policy == f.policy) {
            out.push(Regression {
                cell: format!("ingest/{}", f.policy),
                stage: "<unexpected>".into(),
                base: 0.0,
                fresh: 0.0,
            });
        }
    }
    for b in base {
        let cell = format!("ingest/{}", b.policy);
        let Some(f) = fresh_by_policy.get(b.policy.as_str()) else {
            out.push(Regression {
                cell,
                stage: "<missing>".into(),
                base: 0.0,
                fresh: 0.0,
            });
            continue;
        };
        if f.points_per_sec < b.points_per_sec * (1.0 - threshold) {
            out.push(Regression {
                cell: cell.clone(),
                stage: "points_per_sec".into(),
                base: b.points_per_sec,
                fresh: f.points_per_sec,
            });
        }
        if b.recovery_seconds >= TIME_FLOOR_SECONDS
            && f.recovery_seconds > b.recovery_seconds * (1.0 + threshold)
        {
            out.push(Regression {
                cell,
                stage: "recovery_seconds".into(),
                base: b.recovery_seconds,
                fresh: f.recovery_seconds,
            });
        }
    }
    out
}

/// Render ingest runs back into a gate-readable document — `--scale`'s
/// synthetically degraded copy for the negative CI test.
pub fn render_ingest_runs(runs: &[IngestRun]) -> String {
    let mut out =
        String::from("{\n  \"experiment\": \"ingest_gate_scaled\",\n  \"policies\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"durability\": \"{}\", \"points_per_sec\": {:.0}, \
             \"recovery_seconds\": {:.6}}}{}\n",
            r.policy,
            r.points_per_sec,
            r.recovery_seconds,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Degrade every policy by `factor`: throughput divided, recovery
/// multiplied (a uniform slowdown, same knob as [`scale_times`]).
pub fn scale_ingest(runs: &[IngestRun], factor: f64) -> Vec<IngestRun> {
    runs.iter()
        .map(|r| IngestRun {
            policy: r.policy.clone(),
            points_per_sec: r.points_per_sec / factor,
            recovery_seconds: r.recovery_seconds * factor,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Server-gate extraction and comparison (BENCH_server.json)
// ---------------------------------------------------------------------------

/// Latency cells below this (milliseconds) are not gated — the loopback
/// round-trip itself jitters by more than 25% at sub-millisecond scale.
pub const SERVER_LATENCY_FLOOR_MS: f64 = 1.0;

/// One burst configuration of `BENCH_server.json`: a named admission /
/// deadline setup with its latency percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerRun {
    /// Config name (`ungoverned` / `governed`).
    pub config: String,
    /// Median per-query wall milliseconds (connect-to-Done).
    pub p50_ms: f64,
    /// 99th-percentile per-query wall milliseconds.
    pub p99_ms: f64,
}

/// The gateable content of one `BENCH_server.json`: burst configs plus
/// the streamed-selection throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerDoc {
    /// One entry per burst config.
    pub configs: Vec<ServerRun>,
    /// Streamed-selection delivery rate (rows/second end to end).
    pub stream_rows_per_sec: f64,
}

/// Pull the gateable cells out of a parsed `BENCH_server.json`, rejecting
/// NaN/infinite/negative measurements like [`extract_runs`] does.
pub fn extract_server_doc(doc: &Json) -> Result<ServerDoc, GateError> {
    let configs = doc
        .get("configs")
        .and_then(Json::as_arr)
        .ok_or_else(|| GateError::Shape("document has no \"configs\" array".into()))?;
    let mut runs = Vec::new();
    for c in configs {
        let name = c
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| GateError::Shape("config entry has no \"name\"".into()))?;
        let cell = format!("server/{name}");
        let p50 = c
            .get("p50_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| GateError::Shape(format!("config {name} has no \"p50_ms\"")))?;
        let p99 = c
            .get("p99_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| GateError::Shape(format!("config {name} has no \"p99_ms\"")))?;
        runs.push(ServerRun {
            config: name.to_string(),
            p50_ms: check_measurement(&cell, "p50_ms", p50)?,
            p99_ms: check_measurement(&cell, "p99_ms", p99)?,
        });
    }
    if runs.is_empty() {
        return Err(GateError::Shape("document contains no configs".into()));
    }
    let rps = doc
        .get("stream")
        .and_then(|s| s.get("rows_per_sec"))
        .and_then(Json::as_f64)
        .ok_or_else(|| GateError::Shape("document has no \"stream\".\"rows_per_sec\"".into()))?;
    Ok(ServerDoc {
        configs: runs,
        stream_rows_per_sec: check_measurement("server/stream", "rows_per_sec", rps)?,
    })
}

/// Compare fresh server numbers against the baseline: every config must
/// still be measured, no gated percentile may slow down by more than
/// `threshold`, and streamed-delivery throughput may not drop by more
/// than `threshold`.
pub fn compare_server(base: &ServerDoc, fresh: &ServerDoc, threshold: f64) -> Vec<Regression> {
    let fresh_by_name: BTreeMap<&str, &ServerRun> = fresh
        .configs
        .iter()
        .map(|r| (r.config.as_str(), r))
        .collect();
    let mut out = Vec::new();
    for f in &fresh.configs {
        if !base.configs.iter().any(|b| b.config == f.config) {
            out.push(Regression {
                cell: format!("server/{}", f.config),
                stage: "<unexpected>".into(),
                base: 0.0,
                fresh: 0.0,
            });
        }
    }
    for b in &base.configs {
        let cell = format!("server/{}", b.config);
        let Some(f) = fresh_by_name.get(b.config.as_str()) else {
            out.push(Regression {
                cell,
                stage: "<missing>".into(),
                base: 0.0,
                fresh: 0.0,
            });
            continue;
        };
        for (stage, base_ms, fresh_ms) in
            [("p50_ms", b.p50_ms, f.p50_ms), ("p99_ms", b.p99_ms, f.p99_ms)]
        {
            if base_ms < SERVER_LATENCY_FLOOR_MS {
                continue;
            }
            if fresh_ms > base_ms * (1.0 + threshold) {
                out.push(Regression {
                    cell: cell.clone(),
                    stage: stage.into(),
                    base: base_ms,
                    fresh: fresh_ms,
                });
            }
        }
    }
    if fresh.stream_rows_per_sec < base.stream_rows_per_sec * (1.0 - threshold) {
        out.push(Regression {
            cell: "server/stream".into(),
            stage: "rows_per_sec".into(),
            base: base.stream_rows_per_sec,
            fresh: fresh.stream_rows_per_sec,
        });
    }
    out
}

/// Render a server doc back into a gate-readable document — `--scale`'s
/// synthetically degraded copy for the negative CI test.
pub fn render_server_doc(doc: &ServerDoc) -> String {
    let mut out =
        String::from("{\n  \"experiment\": \"server_gate_scaled\",\n  \"configs\": [\n");
    for (i, r) in doc.configs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
            r.config,
            r.p50_ms,
            r.p99_ms,
            if i + 1 < doc.configs.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"stream\": {{\"rows_per_sec\": {:.0}}}\n}}\n",
        doc.stream_rows_per_sec
    ));
    out
}

/// Degrade a server doc by `factor`: latencies multiplied, streamed
/// throughput divided (same knob as [`scale_times`]).
pub fn scale_server(doc: &ServerDoc, factor: f64) -> ServerDoc {
    ServerDoc {
        configs: doc
            .configs
            .iter()
            .map(|r| ServerRun {
                config: r.config.clone(),
                p50_ms: r.p50_ms * factor,
                p99_ms: r.p99_ms * factor,
            })
            .collect(),
        stream_rows_per_sec: doc.stream_rows_per_sec / factor,
    }
}

// ---------------------------------------------------------------------------
// Observability-gate extraction and comparison (BENCH_obs.json)
// ---------------------------------------------------------------------------

/// Ceiling on the flight recorder's p99 overhead, in percent: E14's
/// recorder-on governed burst must land within this of recorder-off.
/// This is the ISSUE's "observability is free" acceptance bound, checked
/// absolutely — not relative to a baseline that might itself have
/// regressed.
pub const OBS_MAX_OVERHEAD_PCT: f64 = 5.0;

/// The gateable content of one `BENCH_obs.json` (experiment E14): the
/// governed burst with the recorder off and on (same latency cells as a
/// [`ServerRun`]) plus the measured recorder overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsDoc {
    /// One entry per config (`recorder_off` / `recorder_on`).
    pub configs: Vec<ServerRun>,
    /// Recorder-on p99 over recorder-off p99, in percent (may be
    /// negative: the two bursts are independent samples).
    pub overhead_p99_pct: f64,
}

/// Pull the gateable cells out of a parsed `BENCH_obs.json`. The latency
/// cells get the usual NaN/negative screening; the overhead cell only
/// needs to be finite (negative is legitimate noise).
pub fn extract_obs_doc(doc: &Json) -> Result<ObsDoc, GateError> {
    let configs = doc
        .get("configs")
        .and_then(Json::as_arr)
        .ok_or_else(|| GateError::Shape("document has no \"configs\" array".into()))?;
    let mut runs = Vec::new();
    for c in configs {
        let name = c
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| GateError::Shape("config entry has no \"name\"".into()))?;
        let cell = format!("obs/{name}");
        let p50 = c
            .get("p50_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| GateError::Shape(format!("config {name} has no \"p50_ms\"")))?;
        let p99 = c
            .get("p99_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| GateError::Shape(format!("config {name} has no \"p99_ms\"")))?;
        runs.push(ServerRun {
            config: name.to_string(),
            p50_ms: check_measurement(&cell, "p50_ms", p50)?,
            p99_ms: check_measurement(&cell, "p99_ms", p99)?,
        });
    }
    if runs.is_empty() {
        return Err(GateError::Shape("document contains no configs".into()));
    }
    let overhead = doc
        .get("overhead_p99_pct")
        .and_then(Json::as_f64)
        .ok_or_else(|| GateError::Shape("document has no \"overhead_p99_pct\"".into()))?;
    if !overhead.is_finite() {
        return Err(GateError::InvalidMeasurement {
            cell: "obs/overhead".into(),
            field: "overhead_p99_pct".into(),
            value: overhead,
        });
    }
    Ok(ObsDoc {
        configs: runs,
        overhead_p99_pct: overhead,
    })
}

/// Compare fresh observability numbers against the baseline: both
/// configs must still be measured, gated percentiles may not slow down
/// past `threshold`, and the fresh recorder overhead must sit under the
/// absolute [`OBS_MAX_OVERHEAD_PCT`] ceiling regardless of what the
/// baseline measured.
pub fn compare_obs(base: &ObsDoc, fresh: &ObsDoc, threshold: f64) -> Vec<Regression> {
    let fresh_by_name: BTreeMap<&str, &ServerRun> = fresh
        .configs
        .iter()
        .map(|r| (r.config.as_str(), r))
        .collect();
    let mut out = Vec::new();
    for f in &fresh.configs {
        if !base.configs.iter().any(|b| b.config == f.config) {
            out.push(Regression {
                cell: format!("obs/{}", f.config),
                stage: "<unexpected>".into(),
                base: 0.0,
                fresh: 0.0,
            });
        }
    }
    for b in &base.configs {
        let cell = format!("obs/{}", b.config);
        let Some(f) = fresh_by_name.get(b.config.as_str()) else {
            out.push(Regression {
                cell,
                stage: "<missing>".into(),
                base: 0.0,
                fresh: 0.0,
            });
            continue;
        };
        for (stage, base_ms, fresh_ms) in
            [("p50_ms", b.p50_ms, f.p50_ms), ("p99_ms", b.p99_ms, f.p99_ms)]
        {
            if base_ms < SERVER_LATENCY_FLOOR_MS {
                continue;
            }
            if fresh_ms > base_ms * (1.0 + threshold) {
                out.push(Regression {
                    cell: cell.clone(),
                    stage: stage.into(),
                    base: base_ms,
                    fresh: fresh_ms,
                });
            }
        }
    }
    if fresh.overhead_p99_pct > OBS_MAX_OVERHEAD_PCT {
        out.push(Regression {
            cell: "obs/overhead".into(),
            stage: "overhead_p99_pct".into(),
            base: OBS_MAX_OVERHEAD_PCT,
            fresh: fresh.overhead_p99_pct,
        });
    }
    out
}

/// Render an obs doc back into a gate-readable document (`--scale`'s
/// synthetically degraded copy for the negative CI test).
pub fn render_obs_doc(doc: &ObsDoc) -> String {
    let mut out = String::from("{\n  \"experiment\": \"obs_gate_scaled\",\n  \"configs\": [\n");
    for (i, r) in doc.configs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
            r.config,
            r.p50_ms,
            r.p99_ms,
            if i + 1 < doc.configs.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"overhead_p99_pct\": {:.3}\n}}\n",
        doc.overhead_p99_pct
    ));
    out
}

/// Degrade an obs doc by `factor`: the recorder-on latencies are
/// multiplied (modelling a recorder that got expensive) and the overhead
/// recomputed from the scaled cells, so the negative test trips both the
/// relative latency gate and the absolute overhead ceiling.
pub fn scale_obs(doc: &ObsDoc, factor: f64) -> ObsDoc {
    let configs: Vec<ServerRun> = doc
        .configs
        .iter()
        .map(|r| {
            if r.config == "recorder_on" {
                ServerRun {
                    config: r.config.clone(),
                    p50_ms: r.p50_ms * factor,
                    p99_ms: r.p99_ms * factor,
                }
            } else {
                r.clone()
            }
        })
        .collect();
    let off = configs.iter().find(|r| r.config == "recorder_off");
    let on = configs.iter().find(|r| r.config == "recorder_on");
    let overhead = match (off, on) {
        (Some(off), Some(on)) if off.p99_ms > 0.0 => {
            (on.p99_ms - off.p99_ms) / off.p99_ms * 100.0
        }
        _ => doc.overhead_p99_pct * factor,
    };
    ObsDoc {
        configs,
        overhead_p99_pct: overhead,
    }
}

// ---------------------------------------------------------------------------
// Chaos-gate extraction and comparison (BENCH_chaos.json)
// ---------------------------------------------------------------------------

/// The gateable content of one `BENCH_chaos.json` (experiment E15, the
/// network-chaos soak): the exactly-once integrity counters plus the
/// end-to-end insert latency measured through the fault proxy.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosDoc {
    /// Insert batches the retrying clients saw acknowledged.
    pub acked: u64,
    /// Acked batches missing from the final table scan. Integrity cell:
    /// gated at absolute zero, never relative to a baseline.
    pub lost: u64,
    /// Batches applied more than once. Integrity cell: absolute zero.
    pub duplicates: u64,
    /// Drain/restart cycles the soak drove (coverage, not performance).
    pub drain_cycles: u64,
    /// End-to-end per-insert latency through the chaos proxy, in ms —
    /// includes reconnects, backoff sleeps, and idempotent replays.
    pub p50_ms: f64,
    /// p99 of the same distribution (the retry tail).
    pub p99_ms: f64,
}

/// Pull one non-negative integer cell out of a chaos document.
fn chaos_count(doc: &Json, field: &str) -> Result<u64, GateError> {
    let v = doc
        .get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| GateError::Shape(format!("document has no \"{field}\"")))?;
    Ok(check_measurement("chaos/soak", field, v)? as u64)
}

/// Pull the gateable cells out of a parsed `BENCH_chaos.json`. Counters
/// must be present and non-negative; latencies get the usual screening.
pub fn extract_chaos_doc(doc: &Json) -> Result<ChaosDoc, GateError> {
    let cell = "chaos/insert";
    let p50 = doc
        .get("p50_ms")
        .and_then(Json::as_f64)
        .ok_or_else(|| GateError::Shape("document has no \"p50_ms\"".into()))?;
    let p99 = doc
        .get("p99_ms")
        .and_then(Json::as_f64)
        .ok_or_else(|| GateError::Shape("document has no \"p99_ms\"".into()))?;
    Ok(ChaosDoc {
        acked: chaos_count(doc, "acked")?,
        lost: chaos_count(doc, "lost")?,
        duplicates: chaos_count(doc, "duplicates")?,
        drain_cycles: chaos_count(doc, "drain_cycles")?,
        p50_ms: check_measurement(cell, "p50_ms", p50)?,
        p99_ms: check_measurement(cell, "p99_ms", p99)?,
    })
}

/// Compare fresh chaos-soak numbers against the baseline. The integrity
/// cells (`lost`, `duplicates`) are gated at **absolute zero**: any loss
/// or duplication fails regardless of what the baseline measured — a
/// correctness bug in the baseline must not grandfather one in fresh
/// code. Coverage must not shrink (a soak that acked nothing or drained
/// fewer cycles proved nothing), and the insert latency percentiles get
/// the usual relative gate above the measurement floor.
pub fn compare_chaos(base: &ChaosDoc, fresh: &ChaosDoc, threshold: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    if fresh.lost > 0 {
        out.push(Regression {
            cell: "chaos/integrity".into(),
            stage: "lost_acked_inserts".into(),
            base: 0.0,
            fresh: fresh.lost as f64,
        });
    }
    if fresh.duplicates > 0 {
        out.push(Regression {
            cell: "chaos/integrity".into(),
            stage: "duplicate_inserts".into(),
            base: 0.0,
            fresh: fresh.duplicates as f64,
        });
    }
    if fresh.acked == 0 {
        out.push(Regression {
            cell: "chaos/coverage".into(),
            stage: "acked_inserts".into(),
            base: base.acked as f64,
            fresh: 0.0,
        });
    }
    if fresh.drain_cycles < base.drain_cycles {
        out.push(Regression {
            cell: "chaos/coverage".into(),
            stage: "drain_cycles".into(),
            base: base.drain_cycles as f64,
            fresh: fresh.drain_cycles as f64,
        });
    }
    for (stage, base_ms, fresh_ms) in [
        ("p50_ms", base.p50_ms, fresh.p50_ms),
        ("p99_ms", base.p99_ms, fresh.p99_ms),
    ] {
        if base_ms < SERVER_LATENCY_FLOOR_MS {
            continue;
        }
        if fresh_ms > base_ms * (1.0 + threshold) {
            out.push(Regression {
                cell: "chaos/insert".into(),
                stage: stage.into(),
                base: base_ms,
                fresh: fresh_ms,
            });
        }
    }
    out
}

/// Render a chaos doc back into a gate-readable document (`--scale`'s
/// synthetically degraded copy for the negative CI test).
pub fn render_chaos_doc(doc: &ChaosDoc) -> String {
    format!(
        "{{\n  \"experiment\": \"chaos_gate_scaled\",\n  \"acked\": {},\n  \
         \"lost\": {},\n  \"duplicates\": {},\n  \"drain_cycles\": {},\n  \
         \"p50_ms\": {:.3},\n  \"p99_ms\": {:.3}\n}}\n",
        doc.acked, doc.lost, doc.duplicates, doc.drain_cycles, doc.p50_ms, doc.p99_ms
    )
}

/// Degrade a chaos doc by `factor`: latencies are multiplied, and —
/// because the integrity cells are gated absolutely at zero — a
/// synthetic lost *and* duplicated insert are injected, so the negative
/// CI test proves both the relative latency gate and the absolute
/// integrity gate trip.
pub fn scale_chaos(doc: &ChaosDoc, factor: f64) -> ChaosDoc {
    ChaosDoc {
        lost: doc.lost.max(1),
        duplicates: doc.duplicates.max(1),
        p50_ms: doc.p50_ms * factor,
        p99_ms: doc.p99_ms * factor,
        ..*doc
    }
}

/// Multiply every stage timing by `factor` (the synthetic-slowdown knob).
pub fn scale_times(runs: &[BenchRun], factor: f64) -> Vec<BenchRun> {
    runs.iter()
        .map(|r| BenchRun {
            stages: r.stages.iter().map(|(s, v)| (s.clone(), v * factor)).collect(),
            ..r.clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "experiment": "e9_parallel_query",
      "points": 1000,
      "queries": [
        {"name": "q1", "rows": 10, "runs": [
          {"mode": "serial", "workers": 1, "t_imprints": 0.008, "t_bbox": 0.126, "t_refine": 0.0000021, "t_total": 0.134, "bbox_speedup_vs_serial": 1.0},
          {"mode": "threads", "workers": 4, "t_imprints": 0.008, "t_bbox": 0.132, "t_refine": 0.0000015, "t_total": 0.140, "bbox_speedup_vs_serial": 0.95}
        ]}
      ]
    }"#;

    #[test]
    fn parses_and_extracts_runs() {
        let doc = Json::parse(SAMPLE).unwrap();
        let runs = extract_runs(&doc).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].key(), ("q1".into(), "serial".into(), 1));
        assert_eq!(runs[1].key(), ("q1".into(), "threads".into(), 4));
        assert_eq!(runs[0].stages.len(), 4, "all four stages captured");
        assert!((runs[0].stages[1].1 - 0.126).abs() < 1e-12);
    }

    #[test]
    fn parses_the_committed_baseline() {
        // The gate must always be able to read the real artifact.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_query.json"
        ))
        .expect("committed baseline exists");
        let runs = extract_runs(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(runs.len(), 8, "2 queries x 4 worker counts");
    }

    #[test]
    fn identical_runs_pass() {
        let runs = extract_runs(&Json::parse(SAMPLE).unwrap()).unwrap();
        assert!(compare(&runs, &runs, REGRESSION_THRESHOLD).is_empty());
    }

    #[test]
    fn two_x_slowdown_fails() {
        let runs = extract_runs(&Json::parse(SAMPLE).unwrap()).unwrap();
        let slowed = scale_times(&runs, 2.0);
        let regs = compare(&runs, &slowed, REGRESSION_THRESHOLD);
        assert!(!regs.is_empty());
        // Sub-floor stages (t_refine at ~2µs) are not flagged even at 2x.
        assert!(regs.iter().all(|r| r.stage != "t_refine"), "{regs:?}");
        assert!(regs.iter().any(|r| r.stage == "t_bbox"));
        assert!(regs[0].describe().contains("+100%"), "{}", regs[0].describe());
    }

    #[test]
    fn small_jitter_passes_but_large_does_not() {
        let runs = extract_runs(&Json::parse(SAMPLE).unwrap()).unwrap();
        assert!(compare(&runs, &scale_times(&runs, 1.2), REGRESSION_THRESHOLD).is_empty());
        assert!(!compare(&runs, &scale_times(&runs, 1.3), REGRESSION_THRESHOLD).is_empty());
    }

    #[test]
    fn missing_cell_is_a_regression() {
        let runs = extract_runs(&Json::parse(SAMPLE).unwrap()).unwrap();
        let fresh = vec![runs[0].clone()];
        let regs = compare(&runs, &fresh, REGRESSION_THRESHOLD);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].stage, "<missing>");
        assert!(regs[0].describe().contains("missing"));
    }

    #[test]
    fn negative_p50_in_baseline_is_a_typed_error() {
        let doc = Json::parse(&SAMPLE.replace("0.126", "-0.126")).unwrap();
        let err = extract_runs(&doc).unwrap_err();
        assert_eq!(
            err,
            GateError::InvalidMeasurement {
                cell: "q1/serial/1".into(),
                field: "t_bbox".into(),
                value: -0.126,
            }
        );
        assert!(err.to_string().contains("not a valid measurement"));
    }

    #[test]
    fn nan_and_infinite_p50s_are_typed_errors() {
        // A harness bug writing `{:.6}` of NaN produces a bare `NaN`
        // token, which the JSON parser already rejects outright.
        assert!(Json::parse(&SAMPLE.replace("0.126", "NaN")).is_err());
        // Overflowed exponents *do* parse (to +inf) and must be caught.
        let doc = Json::parse(&SAMPLE.replace("0.126", "1e999")).unwrap();
        match extract_runs(&doc).unwrap_err() {
            GateError::InvalidMeasurement { cell, field, value } => {
                assert_eq!((cell.as_str(), field.as_str()), ("q1/serial/1", "t_bbox"));
                assert!(value.is_infinite());
            }
            other => panic!("expected InvalidMeasurement, got {other:?}"),
        }
        // A hand-built document carrying a literal NaN is also rejected.
        let doc = Json::Obj(vec![(
            "queries".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".into(), Json::Str("q1".into())),
                (
                    "runs".into(),
                    Json::Arr(vec![Json::Obj(vec![
                        ("mode".into(), Json::Str("serial".into())),
                        ("workers".into(), Json::Num(1.0)),
                        ("t_total".into(), Json::Num(f64::NAN)),
                    ])]),
                ),
            ])]),
        )]);
        assert!(matches!(
            extract_runs(&doc).unwrap_err(),
            GateError::InvalidMeasurement { .. }
        ));
    }

    #[test]
    fn fresh_extra_cell_is_a_regression() {
        let runs = extract_runs(&Json::parse(SAMPLE).unwrap()).unwrap();
        let base = vec![runs[0].clone()];
        let regs = compare(&base, &runs, REGRESSION_THRESHOLD);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].stage, "<unexpected>");
        assert_eq!(regs[0].cell, "q1/threads/4");
        assert!(regs[0].describe().contains("no baseline"));
    }

    #[test]
    fn ingest_invalid_measurements_are_typed_errors() {
        let doc = Json::parse(&INGEST_SAMPLE.replace("1500000", "-1")).unwrap();
        assert_eq!(
            extract_ingest_runs(&doc).unwrap_err(),
            GateError::InvalidMeasurement {
                cell: "ingest/none".into(),
                field: "points_per_sec".into(),
                value: -1.0,
            }
        );
        let doc = Json::parse(&INGEST_SAMPLE.replace("0.095", "1e999")).unwrap();
        assert!(matches!(
            extract_ingest_runs(&doc).unwrap_err(),
            GateError::InvalidMeasurement { field, .. } if field == "recovery_seconds"
        ));
    }

    #[test]
    fn ingest_fresh_extra_policy_is_a_regression() {
        let runs = extract_ingest_runs(&Json::parse(INGEST_SAMPLE).unwrap()).unwrap();
        let base = runs[..2].to_vec();
        let regs = compare_ingest(&base, &runs, REGRESSION_THRESHOLD);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].stage, "<unexpected>");
        assert_eq!(regs[0].cell, "ingest/always");
    }

    #[test]
    fn scaled_render_round_trips_through_the_gate() {
        let runs = extract_runs(&Json::parse(SAMPLE).unwrap()).unwrap();
        let rendered = render_runs(&scale_times(&runs, 2.0));
        let reparsed = extract_runs(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(reparsed.len(), runs.len());
        assert!(!compare(&runs, &reparsed, REGRESSION_THRESHOLD).is_empty());
        assert!(compare(&reparsed, &reparsed, REGRESSION_THRESHOLD).is_empty());
    }

    const INGEST_SAMPLE: &str = r#"{
      "experiment": "e12_streaming_ingest",
      "points": 120000,
      "policies": [
        {"durability": "none", "points_per_sec": 1500000, "recovery_seconds": 0.090},
        {"durability": "group_commit", "points_per_sec": 1200000, "recovery_seconds": 0.095},
        {"durability": "always", "points_per_sec": 400000, "recovery_seconds": 0.0004}
      ]
    }"#;

    #[test]
    fn ingest_runs_extract_and_identical_passes() {
        let runs = extract_ingest_runs(&Json::parse(INGEST_SAMPLE).unwrap()).unwrap();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].policy, "none");
        assert!((runs[1].points_per_sec - 1_200_000.0).abs() < 1e-6);
        assert!(compare_ingest(&runs, &runs, REGRESSION_THRESHOLD).is_empty());
    }

    #[test]
    fn ingest_throughput_drop_and_recovery_slowdown_fail() {
        let runs = extract_ingest_runs(&Json::parse(INGEST_SAMPLE).unwrap()).unwrap();
        let degraded = scale_ingest(&runs, 2.0);
        let regs = compare_ingest(&runs, &degraded, REGRESSION_THRESHOLD);
        // Every policy loses half its throughput; the two policies with
        // gateable recovery times also slow down. The sub-floor recovery
        // (0.4ms under "always") is not flagged.
        assert_eq!(
            regs.iter().filter(|r| r.stage == "points_per_sec").count(),
            3,
            "{regs:?}"
        );
        assert_eq!(
            regs.iter().filter(|r| r.stage == "recovery_seconds").count(),
            2,
            "{regs:?}"
        );
        assert!(regs
            .iter()
            .any(|r| r.describe().contains("-50%")), "{regs:?}");
        // Small jitter passes.
        assert!(compare_ingest(&runs, &scale_ingest(&runs, 1.2), REGRESSION_THRESHOLD).is_empty());
    }

    #[test]
    fn ingest_missing_policy_is_a_regression() {
        let runs = extract_ingest_runs(&Json::parse(INGEST_SAMPLE).unwrap()).unwrap();
        let fresh = runs[..2].to_vec();
        let regs = compare_ingest(&runs, &fresh, REGRESSION_THRESHOLD);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].stage, "<missing>");
        assert_eq!(regs[0].cell, "ingest/always");
    }

    #[test]
    fn ingest_render_round_trips_through_the_gate() {
        let runs = extract_ingest_runs(&Json::parse(INGEST_SAMPLE).unwrap()).unwrap();
        let rendered = render_ingest_runs(&scale_ingest(&runs, 2.0));
        let reparsed = extract_ingest_runs(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(reparsed.len(), runs.len());
        assert!(!compare_ingest(&runs, &reparsed, REGRESSION_THRESHOLD).is_empty());
        assert!(compare_ingest(&reparsed, &reparsed, REGRESSION_THRESHOLD).is_empty());
    }

    #[test]
    fn parses_the_committed_ingest_baseline() {
        // The gate must always be able to read the real artifact.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_ingest.json"
        ))
        .expect("committed ingest baseline exists");
        let runs = extract_ingest_runs(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(runs.len(), 3, "three durability policies");
        assert!(runs.iter().all(|r| r.points_per_sec > 0.0));
    }

    const SERVER_SAMPLE: &str = r#"{
      "experiment": "e11_server",
      "points": 4000000,
      "clients": 256,
      "configs": [
        {"name": "ungoverned", "ok": 512, "cancelled": 0, "overloaded": 0, "p50_ms": 120.0, "p99_ms": 400.0, "max_ms": 450.0},
        {"name": "governed", "ok": 40, "cancelled": 300, "overloaded": 172, "p50_ms": 30.0, "p99_ms": 110.0, "max_ms": 130.0}
      ],
      "stream": {"rows": 4000000, "batches": 977, "seconds": 2.5, "rows_per_sec": 1600000, "rss_delta_kb": 1024}
    }"#;

    #[test]
    fn server_doc_extracts_and_identical_passes() {
        let doc = extract_server_doc(&Json::parse(SERVER_SAMPLE).unwrap()).unwrap();
        assert_eq!(doc.configs.len(), 2);
        assert_eq!(doc.configs[0].config, "ungoverned");
        assert!((doc.configs[1].p99_ms - 110.0).abs() < 1e-9);
        assert!((doc.stream_rows_per_sec - 1_600_000.0).abs() < 1e-6);
        assert!(compare_server(&doc, &doc, REGRESSION_THRESHOLD).is_empty());
    }

    #[test]
    fn server_latency_and_throughput_degradations_fail() {
        let doc = extract_server_doc(&Json::parse(SERVER_SAMPLE).unwrap()).unwrap();
        let degraded = scale_server(&doc, 2.0);
        let regs = compare_server(&doc, &degraded, REGRESSION_THRESHOLD);
        // Both configs regress on both percentiles, and the stream slows.
        assert_eq!(
            regs.iter().filter(|r| r.stage == "p50_ms" || r.stage == "p99_ms").count(),
            4,
            "{regs:?}"
        );
        assert!(
            regs.iter().any(|r| r.cell == "server/stream" && r.stage == "rows_per_sec"),
            "{regs:?}"
        );
        // Small jitter passes.
        assert!(compare_server(&doc, &scale_server(&doc, 1.2), REGRESSION_THRESHOLD).is_empty());
    }

    #[test]
    fn server_missing_and_extra_configs_are_regressions() {
        let doc = extract_server_doc(&Json::parse(SERVER_SAMPLE).unwrap()).unwrap();
        let mut fresh = doc.clone();
        fresh.configs.remove(1);
        let regs = compare_server(&doc, &fresh, REGRESSION_THRESHOLD);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].stage, "<missing>");
        assert_eq!(regs[0].cell, "server/governed");
        let regs = compare_server(&fresh, &doc, REGRESSION_THRESHOLD);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].stage, "<unexpected>");
    }

    #[test]
    fn server_invalid_measurements_are_typed_errors() {
        let doc = Json::parse(&SERVER_SAMPLE.replace("110.0", "-110.0")).unwrap();
        assert_eq!(
            extract_server_doc(&doc).unwrap_err(),
            GateError::InvalidMeasurement {
                cell: "server/governed".into(),
                field: "p99_ms".into(),
                value: -110.0,
            }
        );
        let doc = Json::parse(&SERVER_SAMPLE.replace("1600000", "1e999")).unwrap();
        assert!(matches!(
            extract_server_doc(&doc).unwrap_err(),
            GateError::InvalidMeasurement { field, .. } if field == "rows_per_sec"
        ));
    }

    #[test]
    fn server_render_round_trips_through_the_gate() {
        let doc = extract_server_doc(&Json::parse(SERVER_SAMPLE).unwrap()).unwrap();
        let rendered = render_server_doc(&scale_server(&doc, 2.0));
        let reparsed = extract_server_doc(&Json::parse(&rendered).unwrap()).unwrap();
        assert!(!compare_server(&doc, &reparsed, REGRESSION_THRESHOLD).is_empty());
        assert!(compare_server(&reparsed, &reparsed, REGRESSION_THRESHOLD).is_empty());
    }

    #[test]
    fn parses_the_committed_server_baseline() {
        // The gate must always be able to read the real artifact.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_server.json"
        ))
        .expect("committed server baseline exists");
        let doc = extract_server_doc(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(doc.configs.len(), 2, "ungoverned + governed configs");
        assert!(doc.stream_rows_per_sec > 0.0);
    }

    const OBS_SAMPLE: &str = r#"{
      "experiment": "e14_observability",
      "points": 4000000,
      "clients": 256,
      "configs": [
        {"name": "recorder_off", "ok": 40, "cancelled": 300, "overloaded": 172, "p50_ms": 30.0, "p99_ms": 110.0, "max_ms": 130.0},
        {"name": "recorder_on", "ok": 41, "cancelled": 299, "overloaded": 172, "p50_ms": 30.5, "p99_ms": 112.0, "max_ms": 131.0}
      ],
      "scrapes": 40,
      "overhead_p99_pct": 1.82
    }"#;

    #[test]
    fn obs_doc_extracts_and_identical_passes() {
        let doc = extract_obs_doc(&Json::parse(OBS_SAMPLE).unwrap()).unwrap();
        assert_eq!(doc.configs.len(), 2);
        assert_eq!(doc.configs[0].config, "recorder_off");
        assert!((doc.configs[1].p99_ms - 112.0).abs() < 1e-9);
        assert!((doc.overhead_p99_pct - 1.82).abs() < 1e-9);
        assert!(compare_obs(&doc, &doc, REGRESSION_THRESHOLD).is_empty());
    }

    #[test]
    fn obs_recorder_slowdown_trips_latency_and_overhead() {
        let doc = extract_obs_doc(&Json::parse(OBS_SAMPLE).unwrap()).unwrap();
        let degraded = scale_obs(&doc, 2.0);
        // recorder_off untouched, recorder_on doubled → overhead ≈ 104%.
        assert!((degraded.configs[0].p99_ms - 110.0).abs() < 1e-9);
        assert!(degraded.overhead_p99_pct > OBS_MAX_OVERHEAD_PCT);
        let regs = compare_obs(&doc, &degraded, REGRESSION_THRESHOLD);
        assert_eq!(
            regs.iter()
                .filter(|r| r.cell == "obs/recorder_on")
                .count(),
            2,
            "{regs:?}"
        );
        assert!(
            regs.iter()
                .any(|r| r.cell == "obs/overhead" && r.stage == "overhead_p99_pct"),
            "{regs:?}"
        );
        // The overhead ceiling is absolute: even against a degraded
        // baseline, a >5% fresh overhead fails.
        let regs = compare_obs(&degraded, &degraded, REGRESSION_THRESHOLD);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].cell, "obs/overhead");
    }

    #[test]
    fn obs_missing_config_and_bad_measurements_are_caught() {
        let doc = extract_obs_doc(&Json::parse(OBS_SAMPLE).unwrap()).unwrap();
        let mut fresh = doc.clone();
        fresh.configs.remove(1);
        let regs = compare_obs(&doc, &fresh, REGRESSION_THRESHOLD);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].stage, "<missing>");
        assert_eq!(regs[0].cell, "obs/recorder_on");
        let bad = Json::parse(&OBS_SAMPLE.replace("112.0", "-112.0")).unwrap();
        assert_eq!(
            extract_obs_doc(&bad).unwrap_err(),
            GateError::InvalidMeasurement {
                cell: "obs/recorder_on".into(),
                field: "p99_ms".into(),
                value: -112.0,
            }
        );
        let bad = Json::parse(&OBS_SAMPLE.replace("\"overhead_p99_pct\": 1.82", "\"x\": 0")).unwrap();
        assert!(matches!(extract_obs_doc(&bad).unwrap_err(), GateError::Shape(_)));
    }

    #[test]
    fn obs_render_round_trips_through_the_gate() {
        let doc = extract_obs_doc(&Json::parse(OBS_SAMPLE).unwrap()).unwrap();
        let rendered = render_obs_doc(&scale_obs(&doc, 2.0));
        let reparsed = extract_obs_doc(&Json::parse(&rendered).unwrap()).unwrap();
        assert!(!compare_obs(&doc, &reparsed, REGRESSION_THRESHOLD).is_empty());
        assert!(compare_obs(&doc, &doc, REGRESSION_THRESHOLD).is_empty());
    }

    #[test]
    fn parses_the_committed_obs_baseline() {
        // The gate must always be able to read the real artifact.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_obs.json"
        ))
        .expect("committed obs baseline exists");
        let doc = extract_obs_doc(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(doc.configs.len(), 2, "recorder_off + recorder_on configs");
        assert!(
            doc.overhead_p99_pct <= OBS_MAX_OVERHEAD_PCT,
            "committed baseline violates the overhead ceiling: {}",
            doc.overhead_p99_pct
        );
    }

    const CHAOS_SAMPLE: &str = r#"{
      "experiment": "e15_chaos",
      "clients": 4,
      "acked": 96,
      "lost": 0,
      "duplicates": 0,
      "drain_cycles": 3,
      "retries": 17,
      "p50_ms": 4.0,
      "p99_ms": 180.0
    }"#;

    #[test]
    fn chaos_doc_extracts_and_identical_passes() {
        let doc = extract_chaos_doc(&Json::parse(CHAOS_SAMPLE).unwrap()).unwrap();
        assert_eq!(doc.acked, 96);
        assert_eq!((doc.lost, doc.duplicates), (0, 0));
        assert_eq!(doc.drain_cycles, 3);
        assert!((doc.p99_ms - 180.0).abs() < 1e-9);
        assert!(compare_chaos(&doc, &doc, REGRESSION_THRESHOLD).is_empty());
    }

    #[test]
    fn chaos_integrity_cells_are_absolute_zero() {
        let doc = extract_chaos_doc(&Json::parse(CHAOS_SAMPLE).unwrap()).unwrap();
        let degraded = scale_chaos(&doc, 2.0);
        assert_eq!((degraded.lost, degraded.duplicates), (1, 1));
        let regs = compare_chaos(&doc, &degraded, REGRESSION_THRESHOLD);
        for stage in ["lost_acked_inserts", "duplicate_inserts", "p50_ms", "p99_ms"] {
            assert!(regs.iter().any(|r| r.stage == stage), "{stage}: {regs:?}");
        }
        // Absolute: even against a baseline that itself lost inserts,
        // a fresh lost/duplicated insert fails.
        let regs = compare_chaos(&degraded, &degraded, REGRESSION_THRESHOLD);
        assert!(
            regs.iter().any(|r| r.cell == "chaos/integrity"),
            "a corrupt baseline must not grandfather data loss: {regs:?}"
        );
    }

    #[test]
    fn chaos_coverage_must_not_shrink() {
        let doc = extract_chaos_doc(&Json::parse(CHAOS_SAMPLE).unwrap()).unwrap();
        let mut fresh = doc.clone();
        fresh.drain_cycles = 2;
        fresh.acked = 0;
        let regs = compare_chaos(&doc, &fresh, REGRESSION_THRESHOLD);
        assert!(regs.iter().any(|r| r.stage == "acked_inserts"), "{regs:?}");
        assert!(regs.iter().any(|r| r.stage == "drain_cycles"), "{regs:?}");
    }

    #[test]
    fn chaos_bad_documents_are_typed_errors() {
        let bad = Json::parse(&CHAOS_SAMPLE.replace("\"lost\": 0", "\"lost\": -1")).unwrap();
        assert_eq!(
            extract_chaos_doc(&bad).unwrap_err(),
            GateError::InvalidMeasurement {
                cell: "chaos/soak".into(),
                field: "lost".into(),
                value: -1.0,
            }
        );
        let bad =
            Json::parse(&CHAOS_SAMPLE.replace("\"duplicates\": 0,", "")).unwrap();
        assert!(matches!(extract_chaos_doc(&bad).unwrap_err(), GateError::Shape(_)));
    }

    #[test]
    fn chaos_render_round_trips_through_the_gate() {
        let doc = extract_chaos_doc(&Json::parse(CHAOS_SAMPLE).unwrap()).unwrap();
        let rendered = render_chaos_doc(&scale_chaos(&doc, 2.0));
        let reparsed = extract_chaos_doc(&Json::parse(&rendered).unwrap()).unwrap();
        assert!(!compare_chaos(&doc, &reparsed, REGRESSION_THRESHOLD).is_empty());
        let identity = extract_chaos_doc(
            &Json::parse(&render_chaos_doc(&doc)).unwrap(),
        )
        .unwrap();
        assert!(compare_chaos(&doc, &identity, REGRESSION_THRESHOLD).is_empty());
    }

    #[test]
    fn parses_the_committed_chaos_baseline() {
        // The gate must always be able to read the real artifact, and the
        // committed soak must itself be loss-free.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_chaos.json"
        ))
        .expect("committed chaos baseline exists");
        let doc = extract_chaos_doc(&Json::parse(&text).unwrap()).unwrap();
        assert!(doc.acked > 0, "the soak acked work");
        assert_eq!(doc.lost, 0, "committed baseline lost acked inserts");
        assert_eq!(doc.duplicates, 0, "committed baseline duplicated inserts");
        assert!(doc.drain_cycles >= 3, "the soak survived >= 3 drain cycles");
    }

    #[test]
    fn json_parser_handles_shapes_and_rejects_garbage() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(
            Json::parse("[1, \"a\", {}]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Str("a".into()),
                Json::Obj(vec![])
            ])
        );
        let obj = Json::parse("{\"a\": {\"b\": [2]}}").unwrap();
        assert_eq!(
            obj.get("a").and_then(|a| a.get("b")),
            Some(&Json::Arr(vec![Json::Num(2.0)]))
        );
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
    }
}
