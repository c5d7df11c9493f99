//! The traced run's per-layer view.
//!
//! Three sources, all timed from outside at each layer's public
//! functions:
//!
//! * the traced wire phase: one span per client call, carrying the
//!   server's `Done` elapsed time and the registry stage deltas;
//! * the embedded pass: the same statements through `parser::parse`,
//!   `plan::plan_select` and `execute_streamed`, with every result batch
//!   framed by `protocol::write_frame` and read back by `read_frame`;
//! * kernel passes: `ColumnImprints::probe_f64` and `append_column`,
//!   `predicates::contains_point` and `dwithin_point` on the workload's own
//!   windows and geometries.
//!
//! Spans live in memory and are exported once, as Chrome trace events.

use std::collections::BTreeMap;
use std::time::Instant;

use lidardb::core::{PointCloud, RefineStrategy, Stage};
use lidardb::geom::{predicates, Envelope, Geometry, Point, Polygon};
use lidardb::imprints::ColumnImprints;
use lidardb::sql::ast::Statement;
use lidardb::sql::exec::{execute, execute_streamed, RowSink};
use lidardb::sql::plan::{plan_select, Plan};
use lidardb::sql::{parser, SqlError, SqlValue, STREAM_BATCH_ROWS};
use lidardb::storage::Column;
use lidardb_server::protocol::{self, Message};

use crate::session::{Record, Snap};
use crate::setup::{Table, SURVEY};
use crate::stream::{JoinLayer, Rect, Shape, Stmt, INSERT_ROWS, TRANSIT_CODE};
use lidardb::sql::Catalog;

/// Stages whose time is core work inside a statement's execution.
const CORE_STAGES: [Stage; 6] = [
    Stage::ImprintProbe,
    Stage::BboxScan,
    Stage::GridRefine,
    Stage::Aggregate,
    Stage::ImprintBuild,
    Stage::PersistLoad,
];

/// Stages drawn as children of the server span, in drawing order.
const SERVER_STAGES: [(Stage, &str); 9] = [
    (Stage::Governor, "core.admit_wait"),
    (Stage::PersistLoad, "tiles.load"),
    (Stage::ImprintBuild, "imprints.build"),
    (Stage::ImprintProbe, "core.imprint_probe"),
    (Stage::BboxScan, "core.bbox_scan"),
    (Stage::GridRefine, "core.grid_refine"),
    (Stage::Aggregate, "core.aggregate"),
    (Stage::WalAppend, "wal.append"),
    (Stage::ServerSend, "server.send"),
];

/// One span: statement-scoped id and parent (0 = root).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub stmt: u64,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Which pass recorded it, each on its own clock: 1 the traced wire
    /// quarters, 2 the embedded pass.
    pub track: u8,
}

#[derive(Debug, Default)]
pub struct Spans {
    pub spans: Vec<Span>,
    next: u64,
}

impl Spans {
    fn push(
        &mut self,
        parent: u64,
        stmt: u64,
        name: &str,
        start_ns: u64,
        dur_ns: u64,
        track: u8,
    ) -> u64 {
        self.next += 1;
        self.spans.push(Span {
            id: self.next,
            parent,
            stmt,
            name: name.to_string(),
            start_ns,
            dur_ns,
            track,
        });
        self.next
    }

    /// Per span name: (count, total self time in ns), where self time is
    /// the span's duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<String, (u64, i64)> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns;
            }
        }
        let mut out: BTreeMap<String, (u64, i64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.dur_ns as i64 - child_ns.get(&s.id).copied().unwrap_or(0) as i64;
        }
        out
    }

    /// Chrome trace-event JSON (load in Perfetto or chrome://tracing).
    pub fn to_chrome_json(&self, meta: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"stmt\":{}}}}}",
                s.name,
                s.track,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent,
                s.stmt
            ));
        }
        out.push_str(&format!("],\"metadata\":{meta}}}"));
        out
    }
}

/// Per-class accumulators of the embedded pass.
#[derive(Debug, Default, Clone)]
pub struct ClassCost {
    pub stmts: u64,
    pub parse_ns: u64,
    pub plan_ns: u64,
    pub planned: u64,
    pub exec_ns: u64,
    pub executed: u64,
    pub core_ns: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub rows: u64,
    pub frame_bytes: u64,
    pub insert_rows: u64,
    pub join_ns: u64,
    pub joins: u64,
}

/// Everything the embedded pass measured.
#[derive(Debug, Default)]
pub struct Embedded {
    pub by_class: BTreeMap<&'static str, ClassCost>,
    pub candidates: u64,
    pub result_rows: u64,
    pub exact_tests: u64,
}

impl Embedded {
    pub fn total(&self) -> ClassCost {
        let mut t = ClassCost::default();
        for c in self.by_class.values() {
            t.stmts += c.stmts;
            t.parse_ns += c.parse_ns;
            t.plan_ns += c.plan_ns;
            t.planned += c.planned;
            t.exec_ns += c.exec_ns;
            t.executed += c.executed;
            t.core_ns += c.core_ns;
            t.encode_ns += c.encode_ns;
            t.decode_ns += c.decode_ns;
            t.rows += c.rows;
            t.frame_bytes += c.frame_bytes;
            t.insert_rows += c.insert_rows;
            t.join_ns += c.join_ns;
            t.joins += c.joins;
        }
        t
    }

    /// Mean parse, plan and executor self time of a class, ns: what the
    /// wire spans borrow for the server-side SQL work they cannot see.
    fn sql_ns(&self, class: &str) -> [(&'static str, u64); 3] {
        let c = self.by_class.get(class).cloned().unwrap_or_default();
        let exec_self = c
            .exec_ns
            .saturating_sub(c.core_ns + c.encode_ns + c.decode_ns);
        [
            ("sql.parse", c.parse_ns / c.stmts.max(1)),
            ("sql.plan", c.plan_ns / c.stmts.max(1)),
            ("sql.exec_self", exec_self / c.executed.max(1)),
        ]
    }
}

/// A sink that frames each batch as the server would, then reads it back
/// as the client would, timing both.
#[derive(Default)]
struct FrameSink {
    encode_ns: u64,
    decode_ns: u64,
    rows: u64,
    bytes: u64,
}

impl RowSink for FrameSink {
    fn start(
        &mut self,
        _columns: &[String],
        _token: &lidardb::core::CancelToken,
    ) -> Result<(), SqlError> {
        Ok(())
    }

    fn batch(&mut self, rows: Vec<Vec<SqlValue>>) -> Result<(), SqlError> {
        self.rows += rows.len() as u64;
        let msg = Message::Batch { rows };
        let mut buf = Vec::new();
        let t0 = Instant::now();
        let n = protocol::write_frame(&mut buf, &msg).map_err(|e| SqlError::Exec(e.to_string()))?;
        self.encode_ns += t0.elapsed().as_nanos() as u64;
        self.bytes += n as u64;
        let t0 = Instant::now();
        let frame =
            protocol::read_frame(&mut buf.as_slice()).map_err(|e| SqlError::Exec(e.to_string()))?;
        self.decode_ns += t0.elapsed().as_nanos() as u64;
        std::hint::black_box(frame);
        Ok(())
    }
}

fn core_ns(d: &Snap) -> u64 {
    CORE_STAGES
        .iter()
        .map(|s| (d.stage_ms(*s) * 1e6) as u64)
        .sum()
}

/// The embedded pass: every kept statement through parse, plan and the
/// streamed executor against the fixture's catalog. INSERTs are parsed
/// only (re-applying them would double the rows the exactly-once check
/// counts).
pub fn embedded(
    catalog: &Catalog,
    table: &Table,
    stmts: &[Stmt],
    spans: &mut Spans,
) -> Result<Embedded, String> {
    let mut out = Embedded::default();
    let t_pass = Instant::now();
    for (i, s) in stmts.iter().enumerate() {
        let stmt_id = i as u64 + 1;
        let root_start = t_pass.elapsed().as_nanos() as u64;
        let c = out.by_class.entry(s.class()).or_default();
        c.stmts += 1;
        let t0 = Instant::now();
        let ast = parser::parse(&s.sql).map_err(|e| format!("parse {}: {e}", s.sql))?;
        let parse_ns = t0.elapsed().as_nanos() as u64;
        c.parse_ns += parse_ns;
        let mut kids: Vec<(&str, u64)> = vec![("sql.parse", parse_ns)];
        if let Shape::Insert { rows, .. } = s.shape {
            c.insert_rows += rows;
            let root = spans.push(0, stmt_id, "embedded.insert", root_start, parse_ns, 2);
            spans.push(root, stmt_id, "sql.parse", root_start, parse_ns, 2);
            continue;
        }
        let Statement::Select(sel) = &ast else {
            return Err(format!("not a select: {}", s.sql));
        };
        let t0 = Instant::now();
        let plan = plan_select(catalog, sel).map_err(|e| format!("plan {}: {e}", s.sql))?;
        let plan_ns = t0.elapsed().as_nanos() as u64;
        c.plan_ns += plan_ns;
        c.planned += 1;
        kids.push(("sql.plan", plan_ns));

        let mut sink = FrameSink::default();
        let before = Snap::take();
        let t0 = Instant::now();
        execute_streamed(catalog, &ast, STREAM_BATCH_ROWS, &mut sink)
            .map_err(|e| format!("execute {}: {e}", s.sql))?;
        let exec_ns = t0.elapsed().as_nanos() as u64;
        let delta = Snap::take().since(&before);
        let core = core_ns(&delta);
        c.exec_ns += exec_ns;
        c.executed += 1;
        c.core_ns += core;
        c.encode_ns += sink.encode_ns;
        c.decode_ns += sink.decode_ns;
        c.rows += sink.rows;
        c.frame_bytes += sink.bytes;

        // Spans: root → parse, plan, execute → core stages, encode, decode.
        let total = parse_ns + plan_ns + exec_ns;
        let root = spans.push(
            0,
            stmt_id,
            &format!("embedded.{}", s.class()),
            root_start,
            total,
            2,
        );
        let mut at = root_start;
        for (name, ns) in kids {
            spans.push(root, stmt_id, name, at, ns, 2);
            at += ns;
        }
        let exec = spans.push(root, stmt_id, "sql.execute", at, exec_ns, 2);
        for (stage, name) in SERVER_STAGES {
            if CORE_STAGES.contains(&stage) && delta.stage_ms(stage) > 0.0 {
                let ns = (delta.stage_ms(stage) * 1e6) as u64;
                spans.push(exec, stmt_id, name, at, ns, 2);
                at += ns;
            }
        }
        spans.push(exec, stmt_id, "server.encode", at, sink.encode_ns, 2);
        spans.push(
            exec,
            stmt_id,
            "server.decode",
            at + sink.encode_ns,
            sink.decode_ns,
            2,
        );

        if matches!(s.shape, Shape::Join { .. }) {
            let rs = execute(catalog, &ast).map_err(|e| format!("execute {}: {e}", s.sql))?;
            let join_s: f64 = rs
                .trace
                .iter()
                .filter(|t| t.operator.starts_with("spatial join"))
                .map(|t| t.seconds)
                .sum();
            c.join_ns += (join_s * 1e9) as u64;
            c.joins += 1;
        }
        if let Plan::PcScan(scan) = &plan {
            if scan.spatial.is_some() {
                let sel = match table {
                    Table::Flat(pc) => pc.select_query(
                        scan.spatial.as_ref(),
                        &scan.attr_ranges,
                        RefineStrategy::default(),
                    ),
                    Table::Tiled(tc) => tc.select_query(
                        scan.spatial.as_ref(),
                        &scan.attr_ranges,
                        RefineStrategy::default(),
                    ),
                    Table::Stream(_) => {
                        let pc = catalog.read_points(SURVEY).map_err(|e| e.to_string())?;
                        pc.select_query(
                            scan.spatial.as_ref(),
                            &scan.attr_ranges,
                            RefineStrategy::default(),
                        )
                    }
                }
                .map_err(|e| format!("core select {}: {e}", s.sql))?;
                out.candidates += sel.explain.after_imprints as u64;
                out.result_rows += sel.explain.result_rows as u64;
                out.exact_tests += sel.explain.exact_tests as u64;
            }
        }
    }
    Ok(out)
}

/// Spans of the traced wire phase: the client call, the server's share of
/// it (its `Done` elapsed time, centred in the call), and under that the
/// class's mean parse / plan / executor self time from the embedded pass
/// and the statement's own registry stages. What the server span has left
/// over is `core.unattributed`.
pub fn wire_spans(records: &[Record], emb: &Embedded, spans: &mut Spans) {
    for (i, r) in records.iter().enumerate() {
        let stmt = 1_000_000 + i as u64;
        let root = spans.push(
            0,
            stmt,
            &format!("wire.{}", r.class),
            r.start_ns,
            r.client_ns,
            1,
        );
        let server_ns = (r.server_us * 1000).min(r.client_ns);
        let s_start = r.start_ns + (r.client_ns - server_ns) / 2;
        let server = spans.push(root, stmt, "server.statement", s_start, server_ns, 1);
        let mut at = s_start;
        for (name, ns) in emb.sql_ns(r.class) {
            if ns > 0 {
                spans.push(server, stmt, name, at, ns, 1);
                at += ns;
            }
        }
        if let Some(d) = &r.delta {
            for (stage, name) in SERVER_STAGES {
                let ns = (d.stage_ms(stage) * 1e6) as u64;
                if ns > 0 {
                    spans.push(server, stmt, name, at, ns, 1);
                    at += ns;
                }
            }
        }
    }
}

/// Kernel costs timed on the workload's own windows and geometries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Kernels {
    pub probe_ns_per_cacheline: f64,
    pub pip_ns_per_test: f64,
    pub dwithin_ns_per_test: f64,
    pub refresh_ms: f64,
}

/// Repeats of each kernel timing loop.
const KERNEL_REPEATS: usize = 3;

fn rect_geometry(r: &Rect) -> Option<Geometry> {
    Envelope::new(r.x0, r.y0, r.x1, r.y1)
        .ok()
        .map(|e| Geometry::Polygon(Polygon::rectangle(&e)))
}

/// `ColumnImprints::probe_f64` over x and y for each window's bounds.
fn probe_cost(pc: &PointCloud, windows: &[(f64, f64, f64, f64)]) -> Result<f64, String> {
    if windows.is_empty() {
        return Ok(0.0);
    }
    let ix = pc.imprints_for("x").map_err(|e| e.to_string())?;
    let iy = pc.imprints_for("y").map_err(|e| e.to_string())?;
    let cachelines = (pc.num_points() * 8).div_ceil(64) as f64;
    let t0 = Instant::now();
    let mut probes = 0usize;
    for _ in 0..KERNEL_REPEATS {
        for &(x0, y0, x1, y1) in windows {
            std::hint::black_box(ix.probe_f64(x0, x1));
            std::hint::black_box(iy.probe_f64(y0, y1));
            probes += 2;
        }
    }
    Ok(t0.elapsed().as_nanos() as f64 / (probes as f64 * cachelines).max(1.0))
}

/// Time one predicate over `points` for each geometry, ns per test.
fn per_test(
    geoms: &[(Geometry, f64)],
    points: &[Point],
    f: fn(&Geometry, &Point, f64) -> bool,
) -> f64 {
    if geoms.is_empty() || points.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut tests = 0usize;
    for _ in 0..KERNEL_REPEATS {
        for (g, d) in geoms {
            for p in points {
                std::hint::black_box(f(g, p, *d));
            }
            tests += points.len();
        }
    }
    t0.elapsed().as_nanos() as f64 / tests as f64
}

/// Kernel pass for one workload. `points` is a sample of the scene's
/// points; `scene` supplies the join layers.
pub fn kernels(
    catalog: &Catalog,
    table: &Table,
    stmts: &[Stmt],
    points: &[Point],
    scene: &lidardb::datagen::Scene,
) -> Result<Kernels, String> {
    let mut k = Kernels::default();
    let mut windows = Vec::new();
    let mut pip: Vec<(Geometry, f64)> = Vec::new();
    let mut dwithin: Vec<(Geometry, f64)> = Vec::new();
    for s in stmts {
        match &s.shape {
            Shape::Viewport(r) | Shape::GroupBy(r) | Shape::Read(r) => {
                windows.push((r.x0, r.y0, r.x1, r.y1));
                pip.extend(rect_geometry(r).map(|g| (g, 0.0)));
            }
            Shape::Polygon(v) => {
                let (mut x0, mut y0, mut x1, mut y1) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
                for &(x, y) in v {
                    (x0, y0, x1, y1) = (x0.min(x), y0.min(y), x1.max(x), y1.max(y));
                }
                windows.push((x0, y0, x1, y1));
                let ring: Vec<Point> = v.iter().map(|&(x, y)| Point::new(x, y)).collect();
                if let Ok(p) = Polygon::from_exterior(ring) {
                    pip.push((Geometry::Polygon(p), 0.0));
                }
            }
            Shape::Join { layer, dist, .. } => match layer {
                JoinLayer::Transit => dwithin.extend(
                    scene
                        .zones()
                        .iter()
                        .filter(|z| z.class.code() == TRANSIT_CODE)
                        .map(|z| (Geometry::Polygon(z.polygon.clone()), *dist)),
                ),
                JoinLayer::River => dwithin.extend(
                    scene
                        .rivers()
                        .iter()
                        .map(|r| (Geometry::LineString(r.geometry.clone()), *dist)),
                ),
            },
            Shape::Insert { .. } => {}
        }
    }
    k.pip_ns_per_test = per_test(&pip, points, |g, p, _| predicates::contains_point(g, p));
    k.dwithin_ns_per_test = per_test(&dwithin, points, predicates::dwithin_point);
    match table {
        Table::Flat(pc) => k.probe_ns_per_cacheline = probe_cost(pc, &windows)?,
        Table::Stream(_) => {
            let pc = catalog.read_points(SURVEY).map_err(|e| e.to_string())?;
            k.probe_ns_per_cacheline = probe_cost(&pc, &windows)?;
        }
        // Tiles index themselves lazily on load; their probes are timed
        // inside `tiles.load_ms_per_tile` and the core stages.
        Table::Tiled(_) => {}
    }
    Ok(k)
}

/// `ColumnImprints::append_column` over the ingested suffix, one
/// `INSERT` batch at a time, for the indexed columns x and y: the
/// incremental refresh every acknowledged batch pays. `base` rows are
/// indexed up front; at most `max_batches` batches are timed.
pub fn refresh_ms_per_batch(
    pc: &PointCloud,
    base: usize,
    max_batches: usize,
) -> Result<f64, String> {
    let mut total_ns = 0u128;
    let mut batches = 0usize;
    for name in ["x", "y"] {
        let all = pc.f64_column(name).map_err(|e| e.to_string())?;
        let mut col = Column::F64(all[..base].to_vec());
        let mut imp = ColumnImprints::build(&col).map_err(|e| e.to_string())?;
        let step = INSERT_ROWS as usize;
        let mut at = base;
        let mut n = 0;
        while at + step <= all.len() && n < max_batches {
            col.extend_typed(&all[at..at + step])
                .map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            imp.append_column(&col).map_err(|e| e.to_string())?;
            total_ns += t0.elapsed().as_nanos();
            at += step;
            n += 1;
        }
        batches = batches.max(n);
    }
    Ok(if batches == 0 {
        0.0
    } else {
        total_ns as f64 / 1e6 / batches as f64
    })
}
