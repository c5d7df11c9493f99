//! perfbench — the end-to-end benchmark of lidardb.
//!
//! Three workloads run over the real TCP protocol against an in-process
//! `lidardb_server::Server`, fed by one seeded, spatially clustered scene
//! bulk-loaded from its LAS tiles in file order:
//!
//! * `navigate` — a map viewer's pan/zoom walk over a Hilbert-tiled copy
//!   whose columns are four times the tile cache;
//! * `analyze` — polygon, group-by and join statements over the in-memory
//!   table and the scene's vector layers;
//! * `ingest` — `INSERT` batches into a WAL-backed table, each followed by
//!   a read at the scan head, then shutdown and recovery.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload navigate --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` runs untraced, traced, traced and untraced quarters of the
//! time, then an embedded pass, and prints the per-layer metrics. The last
//! line of standard output is the result object; the line before it is a
//! report with the host, the data sizes and every sample count. Scratch
//! data lives under `.bench_work/` and is removed on exit; traces are
//! written to `.bench_out/`. See `README.md` for the metric definitions.

mod layers;
mod reference;
mod report;
mod session;
mod setup;
mod stats;
mod stream;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use lidardb::core::{Durability, PointCloud, Stage};
use lidardb::geom::Point;
use lidardb::sql::Catalog;

use crate::reference::{Expected, Reference};
use crate::report::{num, object, string};
use crate::session::{rss_bytes, IngestState, Phase, Record, Snap};
use crate::setup::{Fixture, Table, Workload, SURVEY};
use crate::stats::Samples;
use crate::stream::{HeadReader, NavWalk, Rng, Stmt, Strip, GPS0, INSERT_ROWS};

/// Set-up runs this many times, each in a fresh child process;
/// `setup_s` is the median.
const SETUP_CHILDREN: usize = 3;
/// Scene points sampled for the geometry kernel timings.
const KERNEL_POINTS: usize = 20_000;
/// INSERT batches timed for the imprint refresh.
const REFRESH_BATCHES: usize = 200;
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Bench(Args),
    /// Internal: one set-up in a fresh process, printing its times; with
    /// `keep` its product stays on disk for the measuring process.
    SetupChild {
        workload: Workload,
        seed: u64,
        las: PathBuf,
        work: PathBuf,
        keep: bool,
    },
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            return Err(format!("unexpected argument {k}"));
        };
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| "--workload must be navigate, analyze or ingest".to_string())?;
    let seed: u64 = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    if let Some(las) = kv.get("setup-child") {
        return Ok(Mode::SetupChild {
            workload,
            seed,
            las: PathBuf::from(las),
            work: PathBuf::from(get("work")?),
            keep: kv.get("keep").is_some_and(|k| k == "1"),
        });
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Mode::Bench(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// A scratch directory removed when dropped, unless kept.
struct WorkDir(PathBuf, bool);

impl WorkDir {
    fn new(path: PathBuf) -> Result<WorkDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path, false))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        if self.1 {
            return;
        }
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the shared parent too once no run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|mode| match mode {
        Mode::Bench(a) => bench(&a),
        Mode::SetupChild {
            workload,
            seed,
            las,
            work,
            keep,
        } => setup_child(workload, seed, &las, &work, keep),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn setup_child(w: Workload, seed: u64, las: &Path, work: &Path, keep: bool) -> Result<(), String> {
    let mut dir = WorkDir::new(work.to_path_buf())?;
    dir.1 = keep;
    let scene = setup::scene(seed);
    let files = setup::las_files(las)?;
    let fx = setup::setup(w, &scene, &files, &dir.0)?;
    let t = fx.times;
    fx.server.shutdown();
    println!(
        "setup {} {} {} {} {} {} {} {} {}",
        t.total_s,
        t.load_s,
        t.imprints_s,
        t.seal_s,
        t.open_s,
        t.bind_s,
        t.points,
        t.column_bytes,
        t.index_bytes
    );
    Ok(())
}

/// One set-up in a fresh child process (so each starts from the same
/// empty heap), returning its times.
fn child_setup(a: &Args, las: &Path, work: &Path, keep: bool) -> Result<setup::SetupTimes, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            a.workload.name(),
            "--seed",
            &a.seed.to_string(),
        ])
        .arg("--setup-child")
        .arg(las)
        .arg("--work")
        .arg(work)
        .args(["--keep", if keep { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let v: Vec<f64> = stdout
        .lines()
        .find_map(|l| l.strip_prefix("setup "))
        .map(|l| l.split(' ').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_default();
    if v.len() != 9 {
        return Err(format!("set-up child printed no times: {stdout}"));
    }
    Ok(setup::SetupTimes {
        total_s: v[0],
        load_s: v[1],
        imprints_s: v[2],
        seal_s: v[3],
        open_s: v[4],
        bind_s: v[5],
        points: v[6] as usize,
        column_bytes: v[7] as usize,
        index_bytes: v[8] as usize,
    })
}

/// The workload's statement source, persisting across phases.
enum Source {
    Navigate { walk: NavWalk, check: Rng },
    Analyze { list: Vec<(Stmt, Expected)> },
    Ingest { state: IngestState },
}

impl Source {
    fn phase(
        &mut self,
        addr: SocketAddr,
        r: &Reference,
        seconds: f64,
        traced: bool,
    ) -> Result<Phase, String> {
        match self {
            Source::Navigate { walk, check } => {
                session::navigate(addr, walk, check, r, seconds, traced)
            }
            Source::Analyze { list } => session::analyze(addr, list, seconds, traced),
            Source::Ingest { state } => session::ingest(addr, state, SURVEY, r, seconds, traced),
        }
    }
}

/// Append a phase that ran after `into`'s: its records move later by the
/// time `into` already covers.
fn fold(into: &mut Phase, mut p: Phase) {
    let shift = (into.elapsed_s * 1e9) as u64;
    for r in &mut p.records {
        r.start_ns += shift;
    }
    into.elapsed_s += p.elapsed_s;
    into.rss_peak = into.rss_peak.max(p.rss_peak);
    into.merge(p);
}

/// Client latencies, in milliseconds, of one statement class.
fn class_samples(p: &Phase, class: &str) -> Samples {
    let mut s = Samples::default();
    for r in p.records.iter().filter(|r| r.class == class) {
        s.push(r.client_ms());
    }
    s
}

fn rate(p: &Phase) -> f64 {
    p.records.len() as f64 / p.elapsed_s.max(1e-9)
}

/// What ingest's shutdown and recovery found.
#[derive(Debug, Default)]
struct Recovery {
    seconds: f64,
    wal_recover_s: f64,
    wal_bytes: u64,
    disk_bytes: u64,
    total_rows: usize,
}

/// Shut ingest's server down, reopen the table (timing WAL replay), and
/// check that every acknowledged row is present exactly once.
fn recover(
    fx: Fixture,
    acked: u64,
    phase: &mut Phase,
) -> Result<(Recovery, Catalog, Table), String> {
    let base = fx.times.points;
    let Fixture {
        server,
        catalog,
        table,
        dir,
        ..
    } = fx;
    server.shutdown();
    drop(catalog);
    drop(table);
    let wal = lidardb::core::wal::wal_path_for(&dir);
    let mut rec = Recovery {
        wal_bytes: setup::disk_bytes(&wal),
        ..Default::default()
    };
    rec.disk_bytes = rec.wal_bytes + setup::disk_bytes(&dir);
    let t0 = Instant::now();
    let pc =
        PointCloud::open_ingest(&dir, Durability::default()).map_err(|e| format!("reopen: {e}"))?;
    rec.seconds = t0.elapsed().as_secs_f64();
    rec.wal_recover_s = pc.recovery_report().map_or(0.0, |r| r.seconds);
    rec.total_rows = pc.num_points();
    phase.checked += 1;
    let gps = pc.f64_column("gps_time").map_err(|e| e.to_string())?;
    let exact = gps.len() as u64 == base as u64 + acked
        && gps[base..]
            .iter()
            .enumerate()
            .all(|(j, &g)| g == (GPS0 + j as u64) as f64);
    if !exact {
        phase.failed += 1;
        phase.failures.push(format!(
            "recovery: {} rows after reopen, expected {} base + {acked} acked, each once",
            gps.len(),
            base
        ));
    }
    // The served table had its imprints built at set-up; so does the
    // reopened one, before the embedded pass replays reads on it.
    for col in setup::INGEST_INDEXED {
        pc.imprints_for(col)
            .map_err(|e| format!("imprints {col}: {e}"))?;
    }
    let pc = Arc::new(RwLock::new(pc));
    let mut c = Catalog::new();
    c.register_stream(SURVEY, Arc::clone(&pc));
    Ok((rec, c, Table::Stream(pc)))
}

fn bench(a: &Args) -> Result<(), String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let work = WorkDir::new(cwd.join(".bench_work").join(format!(
        "{}-{}-{}",
        a.workload.name(),
        a.seed,
        std::process::id()
    )))?;
    let las_dir = work.0.join("las");
    let inputs = setup::generate(a.seed, &las_dir)?;
    let reference = Reference::load(&inputs.las, &inputs.scene)?;
    let extent = setup::extent(&inputs.scene);

    let mut source = match a.workload {
        Workload::Navigate => Source::Navigate {
            walk: NavWalk::new(a.seed, extent, setup::POINTS),
            check: Rng::new(a.seed ^ 0x4348_4543),
        },
        Workload::Analyze => Source::Analyze {
            list: stream::analyze_list(a.seed, extent)
                .into_iter()
                .map(|s| {
                    let want = reference
                        .expected(&s)
                        .expect("analyze statements have answers");
                    (s, want)
                })
                .collect(),
        },
        Workload::Ingest => Source::Ingest {
            state: IngestState {
                strip: Strip::new(extent),
                reader: HeadReader::new(a.seed, Strip::new(extent), SURVEY),
                next_row: 0,
                durable_row: 0,
                writer_failed: false,
            },
        },
    };

    // Set-up, each time in a fresh process; the last keeps its product,
    // which this process then serves.
    let mut children = Vec::new();
    let product = work.0.join(format!("child{}", SETUP_CHILDREN - 1));
    for i in 0..SETUP_CHILDREN {
        let dir = work.0.join(format!("child{i}"));
        children.push(child_setup(a, &las_dir, &dir, i + 1 == SETUP_CHILDREN)?);
    }
    let setup_samples: Vec<f64> = children.iter().map(|t| t.total_s).collect();
    children.sort_by(|x, y| x.total_s.total_cmp(&y.total_s));
    let median_setup = children[children.len() / 2];
    let setup_s = median_setup.total_s;
    let rss0 = rss_bytes();
    let fx = setup::serve(
        a.workload,
        &inputs.scene,
        &inputs.las,
        &product,
        median_setup.column_bytes,
    )?;
    let addr = fx.server.addr();

    let (untraced, traced) = if a.trace {
        // Quarters in the order untraced, traced, traced, untraced, so a
        // drift over the run (a growing ingest table, a warming cache)
        // weighs on both sides alike.
        let (mut u, mut t) = (Phase::default(), Phase::default());
        for traced in [false, true, true, false] {
            let p = source.phase(addr, &reference, a.seconds / 4.0, traced)?;
            fold(if traced { &mut t } else { &mut u }, p);
        }
        (u, Some(t))
    } else {
        (source.phase(addr, &reference, a.seconds, false)?, None)
    };
    let mut checks = Phase::default();
    let acked = match &source {
        Source::Ingest { state } => state.next_row,
        _ => 0,
    };

    let serve = fx.times;
    let times = setup::SetupTimes {
        index_bytes: serve.index_bytes,
        ..median_setup
    };
    let tiled_peak = match &fx.table {
        Table::Tiled(tc) => tc.peak_resident_bytes(),
        _ => 0,
    };
    let tiled_disk = match &fx.table {
        Table::Tiled(_) => setup::disk_bytes(&fx.dir),
        _ => 0,
    };
    let (recovery, catalog, table) = if a.workload == Workload::Ingest {
        let (r, c, t) = recover(fx, acked, &mut checks)?;
        (Some(r), c, t)
    } else {
        let Fixture {
            server,
            catalog,
            table,
            ..
        } = fx;
        server.shutdown();
        (None, catalog, table)
    };

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut spans = layers::Spans::default();
    let mut extra_report: Vec<(&str, String)> = Vec::new();
    if let Some(t) = &traced {
        let kept = &t.kept;
        let emb = layers::embedded(&catalog, &table, kept, &mut spans)?;
        layers::wire_spans(&t.records, &emb, &mut spans);
        let sample: Vec<Point> = (0..KERNEL_POINTS)
            .filter_map(|i| reference.point(i * reference.len() / KERNEL_POINTS))
            .collect();
        let mut k = layers::kernels(&catalog, &table, kept, &sample, &inputs.scene)?;
        if let Table::Stream(pc) = &table {
            let pc = pc.read().map_err(|_| "stream table lock poisoned")?;
            k.refresh_ms = layers::refresh_ms_per_batch(&pc, times.points, REFRESH_BATCHES)?;
        }
        per_layer(
            &mut values,
            &LayerInputs {
                workload: a.workload,
                untraced: &untraced,
                traced: t,
                emb: &emb,
                kernels: &k,
                spans: &spans,
                times: &times,
                recovery: recovery.as_ref(),
                acked,
                tiled_peak,
                tiled_disk,
            },
        );
        let selfs: Vec<(String, String)> = spans
            .self_times()
            .into_iter()
            .map(|(name, (n, ns))| (name, num(ns as f64 / n.max(1) as f64 / 1e6)))
            .collect();
        let selfs: Vec<(&str, String)> =
            selfs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        extra_report.push(("layer_self_ms", object(&selfs)));
    } else {
        end_to_end(&mut values, a.workload, &untraced, setup_s, rss0);
    }

    let phases: Vec<&Phase> = [Some(&untraced), traced.as_ref(), Some(&checks)]
        .into_iter()
        .flatten()
        .collect();
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let checked: u64 = phases.iter().map(|p| p.checked).sum();
    let failures: Vec<&String> = phases.iter().flat_map(|p| &p.failures).collect();
    if a.trace {
        values.insert("failed_frac", failed as f64 / attempted.max(1) as f64);
    }

    // Report line, then the result line.
    let out_dir = cwd.join(".bench_out");
    let host = object(&[
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("rustc", string(env!("PERFBENCH_RUSTC"))),
        ("os", string(std::env::consts::OS)),
        ("arch", string(std::env::consts::ARCH)),
    ]);
    let data = object(&[
        ("scene_extent_m", num(setup::SCENE_EXTENT)),
        ("density_per_m2", num(setup::DENSITY)),
        ("las_files", inputs.las.len().to_string()),
        ("las_bytes", inputs.las_bytes.to_string()),
        ("points", times.points.to_string()),
        ("column_bytes", times.column_bytes.to_string()),
        ("index_bytes", times.index_bytes.to_string()),
        ("tiled_bytes", tiled_disk.to_string()),
        (
            "resident_budget_bytes",
            (times.column_bytes / 4).to_string(),
        ),
        ("ingest_acked_rows", acked.to_string()),
    ]);
    let mut classes: Vec<(String, String)> = Vec::new();
    for (label, p) in [("untraced", Some(&untraced)), ("traced", traced.as_ref())] {
        let Some(p) = p else { continue };
        for class in ["viewport", "polygon", "groupby", "join", "insert", "read"] {
            if let Some(s) = class_samples(p, class).summary() {
                classes.push((
                    format!("{label}.{class}"),
                    object(&[
                        ("n", s.n.to_string()),
                        ("p50_ms", num(s.p50)),
                        ("tail_pct", num(s.tail_pct)),
                        ("tail_ms", num(s.tail)),
                    ]),
                ));
            }
        }
    }
    let classes: Vec<(&str, String)> = classes
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    let setup_json = object(&[
        (
            "samples_s",
            format!(
                "[{}]",
                setup_samples
                    .iter()
                    .map(|v| num(*v))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("load_s", num(times.load_s)),
        ("imprints_s", num(times.imprints_s)),
        ("seal_s", num(times.seal_s)),
        ("open_s", num(times.open_s)),
        ("bind_s", num(times.bind_s)),
        ("serve_s", num(serve.total_s)),
    ]);
    let mut report = vec![
        ("workload", string(a.workload.name())),
        ("seed", a.seed.to_string()),
        ("seconds", num(a.seconds)),
        ("trace", a.trace.to_string()),
        ("host", host),
        ("data", data),
        (
            "durability",
            string(&format!("{:?}", Durability::default())),
        ),
        ("setup", setup_json),
        ("classes", object(&classes)),
        ("checked", checked.to_string()),
        (
            "failures",
            format!(
                "[{}]",
                failures
                    .iter()
                    .map(|f| string(f))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    report.extend(extra_report);
    if a.trace {
        let path = out_dir.join(format!("{}-seed{}-trace.json", a.workload.name(), a.seed));
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        std::fs::write(&path, spans.to_chrome_json(&object(&report)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.push(("trace_file", string(&path.display().to_string())));
    }
    println!("{}", object(&report));
    let table = if a.trace {
        &report::PER_LAYER[..]
    } else {
        &report::END_TO_END[..]
    };
    println!(
        "{}",
        report::result_line(failed == 0, attempted, failed, table, &values)
    );
    drop(work);
    Ok(())
}

/// The statements `stmt_p50_ms` / `stmt_p99_ms` describe: navigate's
/// viewport fetches, ingest's INSERTs, every analyze statement.
fn stmt_samples(w: Workload, p: &Phase) -> Samples {
    match w {
        Workload::Navigate => class_samples(p, "viewport"),
        Workload::Ingest => class_samples(p, "insert"),
        Workload::Analyze => {
            let mut s = Samples::default();
            for c in ["polygon", "groupby", "join"] {
                s.extend(&class_samples(p, c));
            }
            s
        }
    }
}

fn end_to_end(v: &mut BTreeMap<&str, f64>, w: Workload, p: &Phase, setup_s: f64, rss0: u64) {
    v.insert("setup_s", setup_s);
    v.insert("stmts_per_s", rate(p));
    v.insert(
        "stmt_p50_ms",
        stmt_samples(w, p).summary().map_or(0.0, |s| s.p50),
    );
    v.insert(
        "result_rows_per_s",
        p.records.iter().map(|r| r.rows).sum::<u64>() as f64 / p.elapsed_s.max(1e-9),
    );
    v.insert("mem_peak_mb", p.rss_peak.saturating_sub(rss0) as f64 / MIB);
}

struct LayerInputs<'a> {
    workload: Workload,
    untraced: &'a Phase,
    traced: &'a Phase,
    emb: &'a layers::Embedded,
    kernels: &'a layers::Kernels,
    spans: &'a layers::Spans,
    times: &'a setup::SetupTimes,
    recovery: Option<&'a Recovery>,
    acked: u64,
    tiled_peak: u64,
    tiled_disk: u64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_layer(v: &mut BTreeMap<&str, f64>, x: &LayerInputs) {
    let (u, t, emb, k) = (x.untraced, x.traced, x.emb, x.kernels);
    let p50 = |p: &Phase, c: &str| class_samples(p, c).summary().map_or(0.0, |s| s.p50);
    v.insert(
        "stmt_p99_ms",
        stmt_samples(x.workload, u)
            .summary()
            .map_or(0.0, |s| s.tail),
    );
    v.insert("polygon_p50_ms", p50(u, "polygon"));
    v.insert("groupby_p50_ms", p50(u, "groupby"));
    v.insert("join_p50_ms", p50(u, "join"));
    // Acknowledged rows per second of INSERT time: what the write path
    // sustains, apart from the reads the session interleaves.
    let inserts: Vec<&Record> = u.records.iter().filter(|r| r.class == "insert").collect();
    let insert_s: f64 = inserts.iter().map(|r| r.client_ms() / 1e3).sum();
    v.insert(
        "ingest_points_per_s",
        ratio(inserts.len() as f64 * INSERT_ROWS as f64, insert_s),
    );
    let reads = class_samples(u, "read").summary();
    v.insert("read_p50_ms", reads.map_or(0.0, |s| s.p50));
    v.insert("read_p99_ms", reads.map_or(0.0, |s| s.tail));
    v.insert("recovery_s", x.recovery.map_or(0.0, |r| r.seconds));
    let disk_per_point = match x.recovery {
        Some(r) => ratio(r.disk_bytes as f64, r.total_rows as f64),
        None => ratio(x.tiled_disk as f64, x.times.points as f64),
    };
    v.insert("disk_bytes_per_point", disk_per_point);
    v.insert(
        "trace.overhead_pct",
        (ratio(rate(u), rate(t)) - 1.0) * 100.0,
    );
    v.insert("trace.stmts_per_s", rate(t));

    let tot = emb.total();
    v.insert(
        "server.encode_ns_per_row",
        ratio(tot.encode_ns as f64, tot.rows as f64),
    );
    v.insert(
        "server.decode_ns_per_row",
        ratio(tot.decode_ns as f64, tot.rows as f64),
    );
    v.insert(
        "server.frame_bytes_per_row",
        ratio(tot.frame_bytes as f64, tot.rows as f64),
    );
    let n = t.records.len() as f64;
    let overhead: f64 = t
        .records
        .iter()
        .map(|r| r.client_ms() - r.server_us as f64 / 1e3)
        .sum();
    v.insert("server.overhead_ms", ratio(overhead, n));

    v.insert(
        "sql.parse_us",
        ratio(tot.parse_ns as f64 / 1e3, tot.stmts as f64),
    );
    v.insert(
        "sql.plan_us",
        ratio(tot.plan_ns as f64 / 1e3, tot.planned as f64),
    );
    let ins = emb.by_class.get("insert").cloned().unwrap_or_default();
    v.insert(
        "sql.parse_ns_per_insert_row",
        ratio(ins.parse_ns as f64, ins.insert_rows as f64),
    );
    let exec_self =
        tot.exec_ns as f64 - tot.core_ns as f64 - tot.encode_ns as f64 - tot.decode_ns as f64;
    v.insert(
        "sql.exec_self_ms",
        ratio(exec_self / 1e6, tot.executed as f64),
    );
    v.insert(
        "sql.join_ms",
        ratio(tot.join_ns as f64 / 1e6, tot.joins as f64),
    );

    let mut d = Snap::default();
    for r in &t.records {
        if let Some(delta) = &r.delta {
            d.add(delta);
        }
    }
    let per_stmt = |stage: Stage| ratio(d.stage_ms(stage), n);
    v.insert("core.imprint_probe_ms", per_stmt(Stage::ImprintProbe));
    v.insert("core.bbox_scan_ms", per_stmt(Stage::BboxScan));
    v.insert(
        "core.bbox_scan_ns_per_row",
        ratio(
            d.stage_ms(Stage::BboxScan) * 1e6,
            d.stage_rows(Stage::BboxScan) as f64,
        ),
    );
    v.insert("core.grid_refine_ms", per_stmt(Stage::GridRefine));
    v.insert(
        "core.grid_refine_ns_per_row",
        ratio(
            d.stage_ms(Stage::GridRefine) * 1e6,
            d.stage_rows(Stage::GridRefine) as f64,
        ),
    );
    v.insert("core.aggregate_ms", per_stmt(Stage::Aggregate));
    v.insert("core.morsels", ratio(d.counter("morsels") as f64, n));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let server_ms: f64 = t.records.iter().map(|r| r.server_us as f64 / 1e3).sum();
    v.insert(
        "core.worker_utilisation",
        ratio(d.stage_ms(Stage::Morsel), workers * server_ms),
    );
    v.insert(
        "core.candidate_hit_ratio",
        ratio(emb.result_rows as f64, emb.candidates as f64),
    );
    v.insert(
        "core.exact_tests_per_row",
        ratio(emb.exact_tests as f64, emb.result_rows as f64),
    );
    let selfs = x.spans.self_times();
    let unattributed = selfs
        .get("server.statement")
        .map_or(0.0, |(c, ns)| ratio(*ns as f64 / 1e6, *c as f64));
    v.insert("core.unattributed_ms", unattributed);

    v.insert("imprints.probe_ns_per_cacheline", k.probe_ns_per_cacheline);
    v.insert("imprints.build_s", x.times.imprints_s);
    v.insert(
        "imprints.bytes_per_point",
        ratio(x.times.index_bytes as f64, x.times.points as f64),
    );
    v.insert("imprints.refresh_ms", k.refresh_ms);
    let examined = d.counter("scan_rows_examined") as f64;
    v.insert("storage.scan_rows_examined", ratio(examined, n));
    v.insert(
        "storage.scan_ns_per_row",
        ratio(d.stage_ms(Stage::BboxScan) * 1e6, examined),
    );
    v.insert("geom.pip_ns_per_test", k.pip_ns_per_test);
    v.insert("geom.dwithin_ns_per_test", k.dwithin_ns_per_test);

    let loaded = d.counter("tiles_loaded") as f64;
    let probed = d.counter("tiles_probed") as f64;
    let pruned = d.counter("tiles_pruned") as f64;
    v.insert("tiles.loaded", ratio(loaded * 1000.0, n));
    v.insert(
        "tiles.evicted",
        ratio(d.counter("tiles_evicted") as f64 * 1000.0, n),
    );
    v.insert(
        "tiles.hit_ratio",
        if probed > 0.0 {
            1.0 - loaded / probed
        } else {
            0.0
        },
    );
    v.insert(
        "tiles.load_ms_per_tile",
        ratio(d.stage_ms(Stage::PersistLoad), loaded),
    );
    v.insert("tiles.pruned_frac", ratio(pruned, pruned + probed));
    v.insert("tiles.resident_peak_mb", x.tiled_peak as f64 / MIB);

    v.insert(
        "wal.append_ms_per_batch",
        ratio(
            d.stage_ms(Stage::WalAppend),
            d.stage_calls(Stage::WalAppend) as f64,
        ),
    );
    v.insert(
        "wal.syncs_per_batch",
        ratio(
            d.counter("wal_syncs") as f64,
            d.counter("wal_batches") as f64,
        ),
    );
    v.insert(
        "wal.bytes_per_point",
        x.recovery
            .map_or(0.0, |r| ratio(r.wal_bytes as f64, x.acked as f64)),
    );
    v.insert("wal.recover_s", x.recovery.map_or(0.0, |r| r.wal_recover_s));
    let parse_ms = ratio(ins.parse_ns as f64 / 1e6, ins.stmts as f64);
    let applies: Vec<f64> = t
        .records
        .iter()
        .filter(|r| r.class == "insert")
        .map(|r: &Record| {
            let wal = r
                .delta
                .as_ref()
                .map_or(0.0, |d| d.stage_ms(Stage::WalAppend));
            r.server_us as f64 / 1e3 - parse_ms - wal
        })
        .collect();
    v.insert(
        "ingest.apply_ms",
        ratio(applies.iter().sum(), applies.len() as f64),
    );
    v.insert(
        "loader.points_per_s",
        ratio(x.times.points as f64, x.times.load_s),
    );
    v.insert("setup.seal_s", x.times.seal_s);
}
