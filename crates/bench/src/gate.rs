//! The CI perf-regression gate: one document schema and one comparison
//! for every gated experiment.
//!
//! Every `BENCH_*.json` the harness writes is a [`Doc`]:
//!
//! ```text
//! {"experiment": "e9_parallel_query",
//!  "host": {"cpus": 2},
//!  "params": {"points": 12000000, ...},
//!  "cells": [{"key": "bbox_36pct/threads/1", "metric": "t_bbox", "value": 0.170221,
//!             "unit": "s", "better": "lower", "bound": {"rel": 0.25}}, ...]}
//! ```
//!
//! `params` is context the gate never reads (dataset sizes, client
//! counts, speedups). Each cell carries its own bound as data:
//!
//! * `{"rel": r}` — the fresh value may be worse than the baseline by at
//!   most the fraction `r`, in the cell's `better` direction. Time cells
//!   (`s`, `ms`) whose baseline is under [`TIME_FLOOR_SECONDS`] are not
//!   gated: at that scale a cold cache costs more than any bound.
//! * `{"abs_max": x}` / `{"abs_min": x}` — an invariant on the fresh value
//!   alone, whatever the baseline measured, so a broken baseline cannot
//!   grandfather a broken run (lost inserts, recorder overhead).
//!
//! [`compare`] reads every bound, direction and unit from the baseline; a
//! fresh cell that restates a different bound is a typed error, so a
//! fresh run cannot loosen its own gate. A baseline cell missing from the
//! fresh run, or a fresh cell with no baseline, is a regression. A pair
//! measured on different CPU counts is refused outright.
//!
//! Everything is hand-rolled (tiny JSON parser and serializer included):
//! the tree deliberately has no serde. `scripts/bench_gate.sh` runs the
//! gate through the `bench_gate` binary, whose `--scale` writes the
//! [`degrade`]d copy the negative CI check feeds back through the gate.

use std::collections::{BTreeMap, BTreeSet};

/// The relative bound of every gated timing and throughput cell (25%).
pub const REGRESSION_THRESHOLD: f64 = 0.25;

/// Time cells whose baseline is under this many seconds are not gated by
/// a relative bound.
pub const TIME_FLOOR_SECONDS: f64 = 1e-3;

/// A structural problem with a benchmark document or pair. The gate
/// treats these as "the gate itself is broken" (exit code 2), never as a
/// pass: a NaN baseline would otherwise defeat every comparison silently.
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// A document is missing required structure.
    Shape(String),
    /// A cell holds a non-finite value, or a negative one outside `%`.
    InvalidMeasurement {
        /// The cell's key.
        cell: String,
        /// The cell's metric.
        field: String,
        /// The value as parsed.
        value: f64,
    },
    /// Baseline and fresh run were measured on different CPU counts.
    HostMismatch {
        /// `host.cpus` of the baseline.
        base: u64,
        /// `host.cpus` of the fresh run.
        fresh: u64,
    },
    /// A fresh cell restates a bound different from its baseline's.
    BoundMismatch {
        /// `key metric` of the cell.
        cell: String,
        /// The baseline's bound (the one that governs).
        base: Bound,
        /// The bound the fresh cell claimed.
        fresh: Bound,
    },
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::Shape(msg) => write!(f, "{msg}"),
            GateError::InvalidMeasurement { cell, field, value } => write!(
                f,
                "{cell} {field}: {value} is not a valid measurement \
                 (finite, and non-negative unless the unit is %, required)"
            ),
            GateError::HostMismatch { base, fresh } => write!(
                f,
                "baseline ran on {base} cpus, fresh run on {fresh}: \
                 re-take the baseline on this host instead of comparing across hosts"
            ),
            GateError::BoundMismatch { cell, base, fresh } => write!(
                f,
                "{cell}: fresh cell claims bound {fresh}, baseline says {base}"
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

// ---------------------------------------------------------------------------
// Minimal JSON value: parser and serializer
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers are `f64`; object keys keep insertion
/// order via pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes: `\"`, `\\`, `\n`, `\t`).
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
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
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

    /// The value as an object's member list.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize as a document [`Json::parse`] reads back unchanged.
    /// Objects put one member per line; inside an array each element
    /// stays on one line (one cell per line in a bench document).
    /// Numbers print in their shortest round-trip form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// `indent` is the nesting depth for a multi-line layout, `None` for
    /// one line.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => write_seq(out, indent, ('[', ']'), items, |out, v, _| {
                v.write(out, None)
            }),
            Json::Obj(pairs) => write_seq(out, indent, ('{', '}'), pairs, |out, (k, v), inner| {
                Json::Str(k.clone()).write(out, None);
                out.push_str(": ");
                v.write(out, inner);
            }),
        }
    }
}

/// Write a bracketed, comma-separated sequence, one item per line when
/// `indent` is set.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    match indent {
        Some(depth) if !items.is_empty() => {
            for (i, it) in items.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&"  ".repeat(depth + 1));
                item(out, it, Some(depth + 1));
            }
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        _ => {
            for (i, it) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                item(out, it, None);
            }
        }
    }
    out.push(close);
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
                            other => return Err(format!("unsupported escape \\{}", other as char)),
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
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
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
// The bench document
// ---------------------------------------------------------------------------

/// Which direction of a cell's value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Latencies, durations, loss counts.
    Lower,
    /// Throughputs, coverage counts.
    Higher,
}

/// A cell's gate, carried in the document as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Worse than the baseline by at most this fraction.
    Rel(f64),
    /// The fresh value may not exceed this.
    AbsMax(f64),
    /// The fresh value may not fall below this.
    AbsMin(f64),
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Rel(r) => write!(f, "rel {r}"),
            Bound::AbsMax(x) => write!(f, "abs_max {x}"),
            Bound::AbsMin(x) => write!(f, "abs_min {x}"),
        }
    }
}

/// One gated measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// What was measured (`bbox_36pct/threads/2`, `governed`, ...).
    pub key: String,
    /// Which figure of it (`t_bbox`, `p99_ms`, ...); `(key, metric)` is
    /// the cell's identity within a document.
    pub metric: String,
    /// The measurement.
    pub value: f64,
    /// `s` / `ms` (time-floored), `%` (may be negative), or any other
    /// label (`1/s`, `count`).
    pub unit: String,
    /// The direction of improvement.
    pub better: Better,
    /// The gate this cell is held to.
    pub bound: Bound,
}

impl Cell {
    fn id(&self) -> (&str, &str) {
        (&self.key, &self.metric)
    }

    /// Whether `fresh` breaks this (baseline) cell's bound.
    fn violated_by(&self, fresh: f64) -> bool {
        match self.bound {
            Bound::Rel(r) => {
                let floor = match self.unit.as_str() {
                    "s" => TIME_FLOOR_SECONDS,
                    "ms" => TIME_FLOOR_SECONDS * 1e3,
                    _ => 0.0,
                };
                self.value >= floor
                    && match self.better {
                        Better::Lower => fresh > self.value * (1.0 + r),
                        Better::Higher => fresh < self.value * (1.0 - r),
                    }
            }
            Bound::AbsMax(x) => fresh > x,
            Bound::AbsMin(x) => fresh < x,
        }
    }
}

/// One `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    /// Experiment name (`e9_parallel_query`, ...).
    pub experiment: String,
    /// `host.cpus`: the CPU count the run saw.
    pub cpus: u64,
    /// Ungated context, kept verbatim.
    pub params: Vec<(String, Json)>,
    /// The gated cells, in report order.
    pub cells: Vec<Cell>,
}

impl Doc {
    /// An empty document for `experiment` measured on `cpus` CPUs.
    pub fn new(experiment: &str, cpus: u64) -> Doc {
        Doc {
            experiment: experiment.to_string(),
            cpus,
            params: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Record an ungated parameter.
    pub fn param(&mut self, name: impl Into<String>, value: f64) {
        self.params.push((name.into(), Json::Num(value)));
    }

    /// Record a gated cell.
    pub fn cell(
        &mut self,
        key: impl Into<String>,
        metric: &str,
        value: f64,
        unit: &str,
        better: Better,
        bound: Bound,
    ) {
        self.cells.push(Cell {
            key: key.into(),
            metric: metric.to_string(),
            value,
            unit: unit.to_string(),
            better,
            bound,
        });
    }

    /// Parse and validate a document.
    pub fn parse(text: &str) -> Result<Doc, GateError> {
        Doc::from_json(&Json::parse(text)?)
    }

    /// Read a parsed document: required members and well-formed cells,
    /// then [`Doc::validate`].
    fn from_json(doc: &Json) -> Result<Doc, GateError> {
        let shape = |msg: &str| GateError::Shape(msg.to_string());
        let experiment = doc
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or_else(|| shape("document has no \"experiment\""))?;
        let cpus = doc
            .get("host")
            .and_then(|h| h.get("cpus"))
            .and_then(Json::as_f64)
            .filter(|c| *c >= 1.0 && c.fract() == 0.0)
            .ok_or_else(|| shape("document has no positive integer \"host\".\"cpus\""))?;
        let params = doc
            .get("params")
            .and_then(Json::as_obj)
            .ok_or_else(|| shape("document has no \"params\" object"))?;
        let cells_json = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or_else(|| shape("document has no \"cells\" array"))?;
        let mut out = Doc {
            params: params.to_vec(),
            ..Doc::new(experiment, cpus as u64)
        };
        for c in cells_json {
            let text = |field: &str| {
                c.get(field)
                    .and_then(Json::as_str)
                    .ok_or_else(|| GateError::Shape(format!("cell has no string \"{field}\"")))
            };
            let (key, metric, unit) = (text("key")?, text("metric")?, text("unit")?);
            let cell = format!("{key} {metric}");
            let value = c
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| GateError::Shape(format!("{cell}: no numeric \"value\"")))?;
            let better = match text("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => {
                    return Err(GateError::Shape(format!(
                        "{cell}: \"better\" must be lower or higher, got {other:?}"
                    )))
                }
            };
            let bound = c.get("bound").and_then(parse_bound).ok_or_else(|| {
                GateError::Shape(format!(
                    "{cell}: \"bound\" must be one of {{\"rel\": r >= 0}}, \
                     {{\"abs_max\": x}}, {{\"abs_min\": x}}"
                ))
            })?;
            out.cell(key, metric, value, unit, better, bound);
        }
        out.validate()?;
        Ok(out)
    }

    /// Every value finite and, unless its unit is `%`, non-negative; every
    /// `(key, metric)` unique.
    fn validate(&self) -> Result<(), GateError> {
        let mut seen = BTreeSet::new();
        for c in &self.cells {
            if !c.value.is_finite() || (c.value < 0.0 && c.unit != "%") {
                return Err(GateError::InvalidMeasurement {
                    cell: c.key.clone(),
                    field: c.metric.clone(),
                    value: c.value,
                });
            }
            if !seen.insert(c.id()) {
                return Err(GateError::Shape(format!(
                    "{} {}: duplicate cell",
                    c.key, c.metric
                )));
            }
        }
        Ok(())
    }

    /// The document as a JSON value (see [`Json::render`]).
    fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let (kind, x) = match c.bound {
                    Bound::Rel(r) => ("rel", r),
                    Bound::AbsMax(x) => ("abs_max", x),
                    Bound::AbsMin(x) => ("abs_min", x),
                };
                let better = match c.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                Json::Obj(vec![
                    ("key".into(), Json::Str(c.key.clone())),
                    ("metric".into(), Json::Str(c.metric.clone())),
                    ("value".into(), Json::Num(c.value)),
                    ("unit".into(), Json::Str(c.unit.clone())),
                    ("better".into(), Json::Str(better.into())),
                    ("bound".into(), Json::Obj(vec![(kind.into(), Json::Num(x))])),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("experiment".into(), Json::Str(self.experiment.clone())),
            (
                "host".into(),
                Json::Obj(vec![("cpus".into(), Json::Num(self.cpus as f64))]),
            ),
            ("params".into(), Json::Obj(self.params.clone())),
            ("cells".into(), Json::Arr(cells)),
        ])
    }

    /// The document as `BENCH_*.json` text.
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

fn parse_bound(j: &Json) -> Option<Bound> {
    let [(kind, x)] = j.as_obj()? else {
        return None;
    };
    let x = x.as_f64().filter(|x| x.is_finite())?;
    match kind.as_str() {
        "rel" if x >= 0.0 => Some(Bound::Rel(x)),
        "abs_max" => Some(Bound::AbsMax(x)),
        "abs_min" => Some(Bound::AbsMin(x)),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Comparison and degradation
// ---------------------------------------------------------------------------

/// One gate violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Regression {
    /// A baseline cell the fresh run did not measure.
    Missing {
        /// The cell's key.
        key: String,
        /// The cell's metric.
        metric: String,
    },
    /// A fresh cell the baseline never measured: ungated coverage
    /// creeping in is how a gate rots.
    Unexpected {
        /// The cell's key.
        key: String,
        /// The cell's metric.
        metric: String,
    },
    /// The fresh value breaks the baseline cell's bound.
    Exceeded {
        /// The cell's key.
        key: String,
        /// The cell's metric.
        metric: String,
        /// Baseline value.
        base: f64,
        /// Fresh value.
        fresh: f64,
        /// The bound broken.
        bound: Bound,
    },
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Regression::Missing { key, metric } => {
                write!(f, "{key} {metric}: cell missing from fresh run")
            }
            Regression::Unexpected { key, metric } => write!(
                f,
                "{key} {metric}: fresh cell has no baseline (re-run the harness \
                 and commit an updated baseline to gate it)"
            ),
            Regression::Exceeded {
                key,
                metric,
                base,
                fresh,
                bound,
            } => {
                write!(f, "{key} {metric}: {base} -> {fresh}")?;
                if let Bound::Rel(_) = bound {
                    write!(f, " ({:+.0}%)", (fresh / base - 1.0) * 100.0)?;
                }
                write!(f, " breaks {bound}")
            }
        }
    }
}

/// Compare a fresh document against its baseline under the baseline's
/// bounds. `Err` when the pair cannot be compared: different hosts, a
/// non-finite value (or a negative one outside unit `%`) or a duplicate
/// cell in either document, a baseline with no cells, or a fresh cell
/// restating a different bound.
pub fn compare(base: &Doc, fresh: &Doc) -> Result<Vec<Regression>, GateError> {
    if base.cpus != fresh.cpus {
        return Err(GateError::HostMismatch {
            base: base.cpus,
            fresh: fresh.cpus,
        });
    }
    base.validate()?;
    fresh.validate()?;
    if base.cells.is_empty() {
        return Err(GateError::Shape(format!(
            "baseline {} has no cells to gate",
            base.experiment
        )));
    }
    let base_ids: BTreeSet<_> = base.cells.iter().map(Cell::id).collect();
    let fresh_by_id: BTreeMap<_, _> = fresh.cells.iter().map(|c| (c.id(), c)).collect();
    let mut out: Vec<Regression> = fresh
        .cells
        .iter()
        .filter(|f| !base_ids.contains(&f.id()))
        .map(|f| Regression::Unexpected {
            key: f.key.clone(),
            metric: f.metric.clone(),
        })
        .collect();
    for b in &base.cells {
        let Some(f) = fresh_by_id.get(&b.id()) else {
            out.push(Regression::Missing {
                key: b.key.clone(),
                metric: b.metric.clone(),
            });
            continue;
        };
        if f.bound != b.bound {
            return Err(GateError::BoundMismatch {
                cell: format!("{} {}", b.key, b.metric),
                base: b.bound,
                fresh: f.bound,
            });
        }
        if b.violated_by(f.value) {
            out.push(Regression::Exceeded {
                key: b.key.clone(),
                metric: b.metric.clone(),
                base: b.value,
                fresh: f.value,
                bound: b.bound,
            });
        }
    }
    Ok(out)
}

/// A copy of `doc` worsened for the negative CI check: every `rel` cell
/// moves by `factor` in its worse direction (multiplied when lower is
/// better, divided when higher is), and every absolute cell lands one
/// unit past its bound.
pub fn degrade(doc: &Doc, factor: f64) -> Doc {
    let mut out = doc.clone();
    for c in &mut out.cells {
        c.value = match (c.bound, c.better) {
            (Bound::Rel(_), Better::Lower) => c.value * factor,
            (Bound::Rel(_), Better::Higher) => c.value / factor,
            (Bound::AbsMax(x), _) => x + 1.0,
            (Bound::AbsMin(x), _) => x - 1.0,
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cell of every bound kind and direction, plus a sub-floor time.
    const SAMPLE: &str = r#"{
      "experiment": "sample",
      "host": {"cpus": 2},
      "params": {"points": 1000, "q1.rows": 10},
      "cells": [
        {"key": "q1/threads/1", "metric": "t_bbox", "value": 0.126, "unit": "s", "better": "lower", "bound": {"rel": 0.25}},
        {"key": "q1/threads/1", "metric": "t_refine", "value": 0.0000021, "unit": "s", "better": "lower", "bound": {"rel": 0.25}},
        {"key": "governed", "metric": "p99_ms", "value": 110.0, "unit": "ms", "better": "lower", "bound": {"rel": 0.25}},
        {"key": "governed", "metric": "p50_ms", "value": 0.5, "unit": "ms", "better": "lower", "bound": {"rel": 0.25}},
        {"key": "none", "metric": "points_per_sec", "value": 1500000, "unit": "1/s", "better": "higher", "bound": {"rel": 0.25}},
        {"key": "recorder_on", "metric": "overhead_p99_pct", "value": -2.7, "unit": "%", "better": "lower", "bound": {"abs_max": 5}},
        {"key": "integrity", "metric": "lost", "value": 0, "unit": "count", "better": "lower", "bound": {"abs_max": 0}},
        {"key": "coverage", "metric": "acked", "value": 96, "unit": "count", "better": "higher", "bound": {"abs_min": 1}},
        {"key": "coverage", "metric": "drain_cycles", "value": 3, "unit": "count", "better": "higher", "bound": {"rel": 0}}
      ]
    }"#;

    fn sample() -> Doc {
        Doc::parse(SAMPLE).unwrap()
    }

    fn with_value(doc: &Doc, key: &str, metric: &str, value: f64) -> Doc {
        let mut d = doc.clone();
        let c = d
            .cells
            .iter_mut()
            .find(|c| c.key == key && c.metric == metric)
            .unwrap();
        c.value = value;
        d
    }

    fn flagged(regs: &[Regression]) -> Vec<(String, String)> {
        regs.iter()
            .map(|r| match r {
                Regression::Missing { key, metric }
                | Regression::Unexpected { key, metric }
                | Regression::Exceeded { key, metric, .. } => (key.clone(), metric.clone()),
            })
            .collect()
    }

    #[test]
    fn parses_a_document() {
        let doc = sample();
        assert_eq!(doc.experiment, "sample");
        assert_eq!(doc.cpus, 2);
        assert_eq!(doc.params.len(), 2);
        assert_eq!(doc.cells.len(), 9);
        assert_eq!(doc.cells[0].id(), ("q1/threads/1", "t_bbox"));
        assert!((doc.cells[0].value - 0.126).abs() < 1e-12);
        assert_eq!(doc.cells[4].better, Better::Higher);
        assert_eq!(doc.cells[5].bound, Bound::AbsMax(5.0));
        assert_eq!(doc.cells[7].bound, Bound::AbsMin(1.0));
    }

    #[test]
    fn identical_documents_pass() {
        assert_eq!(compare(&sample(), &sample()), Ok(vec![]));
    }

    #[test]
    fn rel_bounds_hold_in_the_better_direction() {
        let doc = sample();
        // Lower-is-better: +20% passes, +30% fails, and a speedup passes.
        let ok = with_value(&doc, "q1/threads/1", "t_bbox", 0.126 * 1.2);
        assert_eq!(compare(&doc, &ok), Ok(vec![]));
        let fast = with_value(&doc, "q1/threads/1", "t_bbox", 0.01);
        assert_eq!(compare(&doc, &fast), Ok(vec![]));
        let slow = with_value(&doc, "q1/threads/1", "t_bbox", 0.126 * 1.3);
        let regs = compare(&doc, &slow).unwrap();
        assert_eq!(flagged(&regs), [("q1/threads/1".into(), "t_bbox".into())]);
        assert!(regs[0].to_string().contains("+30%"), "{}", regs[0]);
        // Higher-is-better: a 20% throughput drop passes, 30% fails, and
        // a throughput gain passes.
        let ok = with_value(&doc, "none", "points_per_sec", 1_200_000.0);
        assert_eq!(compare(&doc, &ok), Ok(vec![]));
        let up = with_value(&doc, "none", "points_per_sec", 9e6);
        assert_eq!(compare(&doc, &up), Ok(vec![]));
        let drop = with_value(&doc, "none", "points_per_sec", 1_000_000.0);
        let regs = compare(&doc, &drop).unwrap();
        assert_eq!(flagged(&regs), [("none".into(), "points_per_sec".into())]);
        assert!(regs[0].to_string().contains("-33%"), "{}", regs[0]);
        // rel 0, higher is better: any shrink fails.
        let fewer = with_value(&doc, "coverage", "drain_cycles", 2.0);
        assert_eq!(
            flagged(&compare(&doc, &fewer).unwrap()),
            [("coverage".into(), "drain_cycles".into())]
        );
    }

    #[test]
    fn time_cells_under_one_millisecond_are_not_gated() {
        let doc = sample();
        // 2 µs in seconds and 0.5 ms in milliseconds: both under the floor.
        let slow = with_value(&doc, "q1/threads/1", "t_refine", 1.0);
        let slow = with_value(&slow, "governed", "p50_ms", 900.0);
        assert_eq!(compare(&doc, &slow), Ok(vec![]));
        // Over the floor, the same slowdown is flagged.
        let base = with_value(&doc, "governed", "p50_ms", 1.0);
        assert_eq!(
            flagged(&compare(&base, &slow).unwrap()),
            [("governed".into(), "p50_ms".into())]
        );
    }

    #[test]
    fn absolute_bounds_ignore_the_baseline() {
        let doc = sample();
        let broken = with_value(&doc, "integrity", "lost", 1.0);
        let broken = with_value(&broken, "coverage", "acked", 0.0);
        let broken = with_value(&broken, "recorder_on", "overhead_p99_pct", 5.5);
        let expect = [
            ("recorder_on".to_string(), "overhead_p99_pct".to_string()),
            ("integrity".into(), "lost".into()),
            ("coverage".into(), "acked".into()),
        ];
        assert_eq!(flagged(&compare(&doc, &broken).unwrap()), expect);
        // A broken baseline does not grandfather a broken fresh run.
        assert_eq!(flagged(&compare(&broken, &broken).unwrap()), expect);
        // An overhead under the ceiling passes even if it doubled.
        let doubled = with_value(&doc, "recorder_on", "overhead_p99_pct", 4.9);
        let base = with_value(&doc, "recorder_on", "overhead_p99_pct", 2.0);
        assert_eq!(compare(&base, &doubled), Ok(vec![]));
    }

    #[test]
    fn missing_cell_is_a_regression() {
        let doc = sample();
        let mut fresh = doc.clone();
        fresh.cells.remove(2);
        let regs = compare(&doc, &fresh).unwrap();
        assert_eq!(
            regs,
            [Regression::Missing {
                key: "governed".into(),
                metric: "p99_ms".into()
            }]
        );
        assert!(regs[0].to_string().contains("missing"));
    }

    #[test]
    fn fresh_extra_cell_is_a_regression() {
        let fresh = sample();
        let mut base = fresh.clone();
        base.cells.remove(4);
        let regs = compare(&base, &fresh).unwrap();
        assert_eq!(
            regs,
            [Regression::Unexpected {
                key: "none".into(),
                metric: "points_per_sec".into()
            }]
        );
        assert!(regs[0].to_string().contains("no baseline"));
    }

    #[test]
    fn cross_host_pair_is_a_typed_error() {
        let base = sample();
        let mut fresh = degrade(&base, 2.0);
        fresh.cpus = 1;
        assert_eq!(
            compare(&base, &fresh),
            Err(GateError::HostMismatch { base: 2, fresh: 1 })
        );
    }

    #[test]
    fn fresh_bound_differing_from_baseline_is_a_typed_error() {
        let base = sample();
        let mut fresh = base.clone();
        fresh.cells[0].bound = Bound::Rel(10.0);
        let err = compare(&base, &fresh).unwrap_err();
        assert_eq!(
            err,
            GateError::BoundMismatch {
                cell: "q1/threads/1 t_bbox".into(),
                base: Bound::Rel(0.25),
                fresh: Bound::Rel(10.0),
            }
        );
        assert!(err.to_string().contains("claims bound rel 10"), "{err}");
        // The direction and unit are read from the baseline too: a fresh
        // cell flipping "better" cannot turn a slowdown into a pass.
        let mut flipped = degrade(&base, 2.0);
        flipped.cells[0].better = Better::Higher;
        let regs = compare(&base, &flipped).unwrap();
        assert!(
            flagged(&regs).contains(&("q1/threads/1".into(), "t_bbox".into())),
            "{regs:?}"
        );
    }

    #[test]
    fn baseline_without_cells_cannot_gate() {
        let mut empty = sample();
        empty.cells.clear();
        assert!(matches!(
            compare(&empty, &sample()),
            Err(GateError::Shape(m)) if m.contains("no cells")
        ));
    }

    #[test]
    fn negative_p50_in_baseline_is_a_typed_error() {
        let err = Doc::parse(&SAMPLE.replace("0.126", "-0.126")).unwrap_err();
        assert_eq!(
            err,
            GateError::InvalidMeasurement {
                cell: "q1/threads/1".into(),
                field: "t_bbox".into(),
                value: -0.126,
            }
        );
        assert!(err.to_string().contains("not a valid measurement"));
        // Only a percentage may be negative.
        assert_eq!(sample().cells[5].value, -2.7);
        assert!(matches!(
            Doc::parse(&SAMPLE.replace("\"value\": 0,", "\"value\": -1,")),
            Err(GateError::InvalidMeasurement { field, .. }) if field == "lost"
        ));
    }

    #[test]
    fn nan_and_infinite_p50s_are_typed_errors() {
        // A harness rendering NaN writes a bare `NaN` token, which the
        // JSON parser rejects outright.
        assert!(Doc::parse(&SAMPLE.replace("0.126", "NaN")).is_err());
        // Overflowed exponents do parse (to +inf) and must be caught.
        match Doc::parse(&SAMPLE.replace("0.126", "1e999")).unwrap_err() {
            GateError::InvalidMeasurement { cell, field, value } => {
                assert_eq!((cell.as_str(), field.as_str()), ("q1/threads/1", "t_bbox"));
                assert!(value.is_infinite());
            }
            other => panic!("expected InvalidMeasurement, got {other:?}"),
        }
        // A hand-built document carrying a literal NaN or infinity is
        // rejected by compare itself, in a percentage cell too.
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            let mut doc = sample();
            doc.cells[5].value = bad;
            assert!(matches!(
                compare(&sample(), &doc),
                Err(GateError::InvalidMeasurement { field, .. }) if field == "overhead_p99_pct"
            ));
            assert!(compare(&doc, &sample()).is_err(), "in the baseline too");
        }
        // Bounds must be finite too.
        assert!(matches!(
            Doc::parse(&SAMPLE.replace("{\"abs_max\": 5}", "{\"abs_max\": 1e999}")),
            Err(GateError::Shape(_))
        ));
    }

    #[test]
    fn malformed_documents_are_shape_errors() {
        for (from, to) in [
            ("\"host\": {\"cpus\": 2}", "\"host\": {}"),
            ("\"host\": {\"cpus\": 2}", "\"host\": {\"cpus\": 1.5}"),
            ("\"params\": {", "\"paramz\": {"),
            ("\"cells\"", "\"cellz\""),
            ("\"better\": \"higher\"", "\"better\": \"up\""),
            ("{\"rel\": 0}", "{\"rel\": -0.1}"),
            ("{\"abs_min\": 1}", "{\"abs_min\": 1, \"rel\": 0.25}"),
            ("{\"abs_min\": 1}", "{\"within\": 1}"),
            ("\"metric\": \"p50_ms\"", "\"metric\": \"p99_ms\""),
            ("\"unit\": \"1/s\", ", ""),
        ] {
            assert!(SAMPLE.contains(from), "{from}");
            let err = Doc::parse(&SAMPLE.replacen(from, to, 1)).unwrap_err();
            assert!(matches!(err, GateError::Shape(_)), "{to}: {err:?}");
        }
    }

    #[test]
    fn degrade_trips_every_bound_kind_and_round_trips() {
        let doc = sample();
        let slowed = degrade(&doc, 2.0);
        let rendered = Doc::parse(&slowed.render()).unwrap();
        assert_eq!(rendered, slowed, "render/parse round trip");
        let regs = compare(&doc, &rendered).unwrap();
        // Every cell but the two sub-floor times is flagged.
        let expect: Vec<(String, String)> = doc
            .cells
            .iter()
            .filter(|c| c.metric != "t_refine" && c.metric != "p50_ms")
            .map(|c| (c.key.clone(), c.metric.clone()))
            .collect();
        assert_eq!(flagged(&regs), expect);
        assert_eq!(slowed.cells[4].value, 750_000.0, "throughput halves");
        assert_eq!(slowed.cells[5].value, 6.0, "abs_max moves one unit past");
        assert_eq!(slowed.cells[7].value, 0.0, "abs_min moves one unit past");
        // The degraded copy passes against itself except for its
        // absolute cells, which it breaks by construction.
        assert_eq!(compare(&rendered, &rendered).unwrap().len(), 3);
    }

    #[test]
    fn committed_baselines_parse_pass_themselves_and_fail_degraded() {
        // (file, gated cells): BENCH_overload.json is written through the
        // same schema but deliberately carries no cells.
        let files = [
            ("BENCH_query.json", 32),
            ("BENCH_tiles.json", 32),
            ("BENCH_ingest.json", 6),
            ("BENCH_server.json", 5),
            ("BENCH_obs.json", 5),
            ("BENCH_chaos.json", 6),
            ("BENCH_overload.json", 0),
        ];
        for (file, cells) in files {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("committed baseline exists");
            let doc = Doc::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert_eq!(doc.cells.len(), cells, "{file}");
            assert_eq!(doc.render(), text, "{file} is in the serializer's layout");
            if cells == 0 {
                continue;
            }
            assert_eq!(
                compare(&doc, &doc),
                Ok(vec![]),
                "{file} passes against itself"
            );
            let regs = compare(&doc, &degrade(&doc, 2.0)).unwrap();
            for kind in ["rel", "abs_max", "abs_min"] {
                let of_kind = |b: &Bound| b.to_string().starts_with(kind);
                if doc.cells.iter().any(|c| of_kind(&c.bound)) {
                    assert!(
                        regs.iter().any(
                            |r| matches!(r, Regression::Exceeded { bound, .. } if of_kind(bound))
                        ),
                        "{file}: degraded copy trips no {kind} cell: {regs:?}"
                    );
                }
            }
        }
        // The committed soak drove every drain cycle it was asked for.
        let chaos = Doc::parse(
            &std::fs::read_to_string(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_chaos.json"
            ))
            .unwrap(),
        )
        .unwrap();
        let cycles = chaos
            .cells
            .iter()
            .find(|c| c.metric == "drain_cycles")
            .unwrap();
        assert!(cycles.value >= 3.0, "the soak survived >= 3 drain cycles");
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

    #[test]
    fn json_render_round_trips() {
        let v = Json::parse(
            r#"{"s": "a\"b\\c\nd\te", "n": [0, -0.5, 12000000, 0.000001, 1e300],
                "o": {"x": [{"y": null}, true, false], "e": {}, "a": []}}"#,
        )
        .unwrap();
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert!(
            text.contains("12000000,"),
            "integers print without a fraction: {text}"
        );
        assert!(
            text.contains("\n  \"o\": {\n    \"x\": [\n      {\"y\": null},\n"),
            "{text}"
        );
    }
}
