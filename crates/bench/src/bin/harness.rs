//! The experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p lidardb-bench --bin harness            # all
//! cargo run --release -p lidardb-bench --bin harness -- e1 e7  # subset
//! ```

use std::sync::Arc;

use lidardb_baselines::{BlockStore, FileStore};
use lidardb_bench::gate::{Better, Bound, Doc, REGRESSION_THRESHOLD};
use lidardb_bench::{median_seconds, timed, Fixture};
use lidardb_core::{
    Aggregate, LoadMethod, LoadPolicy, Loader, Parallelism, PointCloud, RefineStrategy,
    SpatialPredicate,
};
use lidardb_geom::{Geometry, Point, Polygon, Ring};
use lidardb_imprints::Imprints;
use lidardb_sfc::{curve_locality, Curve, Quantizer};
use lidardb_storage::zonemap::ZoneMap;

const AHN2_POINTS: u64 = 640_000_000_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);
    println!("lidardb experiment harness — reproduction of VLDB'15 demo claims");
    println!("(shapes, not absolute numbers: substrate is synthetic AHN2-like data)\n");
    if want("e1") {
        e1_loading();
    }
    if want("e2") {
        e2_storage();
    }
    if want("e3") {
        e3_selection();
    }
    if want("e4") {
        e4_refinement();
    }
    if want("e5") {
        e5_scenario1();
    }
    if want("e6") {
        e6_scenario2();
    }
    if want("e7") {
        e7_robustness();
    }
    if want("e8") {
        e8_sfc();
    }
    if want("e9") {
        e9_parallel();
    }
    if want("e10") {
        e10_overload();
    }
    if want("e11") {
        e11_server();
    }
    if want("e12") {
        e12_ingest();
    }
    if want("e13") {
        e13_tiles();
    }
    if want("e14") {
        e14_obs();
    }
    if want("e15") {
        e15_chaos();
    }
}

fn header(id: &str, claim: &str) {
    println!("==============================================================");
    println!("{id}: {claim}");
    println!("==============================================================");
}

/// The relative bound of every gated timing and throughput cell.
const REL: Bound = Bound::Rel(REGRESSION_THRESHOLD);

/// An empty bench document for `experiment`, stamped with this host's
/// CPU count (the gate refuses to compare across hosts).
fn bench_doc(experiment: &str) -> Doc {
    Doc::new(
        experiment,
        std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
    )
}

/// Write a bench document through the gate's serializer.
fn write_bench(path: &str, doc: &Doc) {
    std::fs::write(path, doc.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}\n");
}

/// `x` to `decimals` places: documents record what the tables resolve,
/// not float noise.
fn round(x: f64, decimals: i32) -> f64 {
    let p = 10f64.powi(decimals);
    (x * p).round() / p
}

// ---------------------------------------------------------------------------
// E1 — loading
// ---------------------------------------------------------------------------

fn e1_loading() {
    header(
        "E1 (loading, §3.2)",
        "binary loader loads AHN2 in <1 day; the CSV/text route needs ~a week",
    );
    let fx = Fixture::build("e1", 11, 1000.0, 4, 2.0);
    let n_threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    // Warm the page cache so the first measured row is not penalised.
    {
        let mut pc = PointCloud::new();
        Loader::new(LoadMethod::Binary)
            .load_files(&mut pc, &fx.las_paths)
            .expect("warmup load");
    }
    println!(
        "dataset: {} points in {} tiles\n",
        fx.pc.num_points(),
        fx.las_paths.len()
    );
    println!(
        "{:<34} {:>10} {:>9} {:>10} {:>12}",
        "method", "points", "wall s", "Mpts/s", "640B days"
    );

    let row = |name: &str, points: usize, secs: f64| {
        let mpts = points as f64 / secs / 1e6;
        let days = AHN2_POINTS as f64 / (points as f64 / secs) / 86_400.0;
        println!(
            "{name:<34} {points:>10} {secs:>9.2} {mpts:>10.2} {days:>12.2}"
        );
    };

    let (stats, _) = timed(|| {
        let mut pc = PointCloud::new();
        Loader::new(LoadMethod::Binary)
            .with_threads(n_threads)
            .load_files(&mut pc, &fx.las_paths)
            .expect("binary load")
    });
    row(
        &format!("binary loader ({n_threads} threads)"),
        stats.points,
        stats.wall_seconds,
    );

    let (stats, _) = timed(|| {
        let mut pc = PointCloud::new();
        Loader::new(LoadMethod::Binary)
            .with_threads(1)
            .load_files(&mut pc, &fx.las_paths)
            .expect("binary load 1t")
    });
    row("binary loader (1 thread)", stats.points, stats.wall_seconds);

    let (stats, _) = timed(|| {
        let mut pc = PointCloud::new();
        Loader::new(LoadMethod::Csv)
            .load_files(&mut pc, &fx.las_paths)
            .expect("csv load")
    });
    row(
        "CSV route (decode+format+parse)",
        stats.points,
        stats.wall_seconds,
    );

    // Block-store ingest: decode + curve sort + block compression — the
    // pgpointcloud-style physical reorganisation.
    let ((), secs) = timed(|| {
        let mut records = Vec::new();
        for p in &fx.las_paths {
            records.extend(lidardb_las::read_las_file(p).expect("read").1);
        }
        let bs = BlockStore::build(&records, 512, Curve::Hilbert).expect("blockstore");
        std::hint::black_box(bs.num_blocks());
    });
    row("blockstore ingest (sort+blocks)", fx.pc.num_points(), secs);

    // File-based ETL: lassort + lasindex over the laz-lite tiles.
    let ((), secs) = timed(|| {
        let mut fs = FileStore::open(fx.lazl_paths[0].parent().unwrap()).expect("open");
        fs.sort_files(Curve::Morton).expect("lassort");
        fs.build_indexes().expect("lasindex");
    });
    row("file-based ETL (lassort+lasindex)", fx.pc.num_points(), secs);
    println!();
}

// ---------------------------------------------------------------------------
// E2 — storage
// ---------------------------------------------------------------------------

fn e2_storage() {
    header(
        "E2 (storage, §3.2)",
        "imprints cost 5-12% of the column; flat table + imprints needs the least total storage",
    );
    let fx = Fixture::build("e2", 22, 800.0, 2, 2.0);
    let pc = &fx.pc;
    println!("dataset: {} points\n", pc.num_points());
    println!(
        "{:<16} {:>12} {:>12} {:>10} {:>12}",
        "column", "data bytes", "index bytes", "overhead", "vec compress"
    );
    for col in ["x", "y", "z", "gps_time", "intensity", "classification"] {
        let imp = pc.imprints_for(col).expect("imprints");
        let s = imp.stats();
        println!(
            "{col:<16} {:>12} {:>12} {:>9.1}% {:>11.1}x",
            s.column_bytes,
            s.index_bytes,
            s.overhead() * 100.0,
            s.vector_compression()
        );
    }
    let total_overhead = pc.index_bytes() as f64 / pc.data_bytes() as f64 * 100.0;
    println!(
        "\nflat table: {} bytes; imprints on 6 columns: {} bytes ({total_overhead:.1}% of table)",
        pc.data_bytes(),
        pc.index_bytes()
    );

    // Total storage comparison.
    let dir_size = |paths: &[std::path::PathBuf]| -> u64 {
        paths
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum()
    };
    let mut records = Vec::new();
    for p in &fx.las_paths {
        records.extend(lidardb_las::read_las_file(p).expect("read").1);
    }
    let bs = BlockStore::build(&records, 512, Curve::Hilbert).expect("blockstore");
    println!("\n{:<38} {:>14}", "layout", "total bytes");
    println!(
        "{:<38} {:>14}",
        "flat table + imprints (this paper)",
        pc.data_bytes() + pc.index_bytes()
    );
    println!("{:<38} {:>14}", "blockstore (pgpointcloud-like)", bs.storage_bytes());
    println!("{:<38} {:>14}", "LAS files", dir_size(&fx.las_paths));
    println!("{:<38} {:>14}", "laz-lite files", dir_size(&fx.lazl_paths));

    // E2b: the flat table with cold-column compression — x/y/z stay raw
    // (hot query path), every other column takes the better of RLE and
    // frame-of-reference packing, as §3.1 suggests ("more flexible to
    // exploit compression techniques ... such as run length encoding").
    let schema = lidardb_las::point_schema();
    let mut compressed_total = 0usize;
    for field in schema.fields() {
        let col = pc.column(&field.name).expect("column");
        if matches!(field.name.as_str(), "x" | "y" | "z") {
            compressed_total += col.byte_len();
            continue;
        }
        let as_i64: Vec<i64> = col.iter_f64().map(|v| v as i64).collect();
        let forpack = lidardb_storage::compress::forpack::ForPacked::encode(&as_i64)
            .stats()
            .encoded_bytes;
        // RLE on the native representation.
        let rle = match col {
            lidardb_storage::Column::U8(v) => {
                lidardb_storage::compress::rle::Rle::encode(v).stats().encoded_bytes
            }
            lidardb_storage::Column::U16(v) => {
                lidardb_storage::compress::rle::Rle::encode(v).stats().encoded_bytes
            }
            _ => usize::MAX,
        };
        compressed_total += forpack.min(rle).min(col.byte_len());
    }
    println!(
        "{:<38} {:>14}",
        "flat table, cold columns compressed",
        compressed_total + pc.index_bytes()
    );
    println!();
}

// ---------------------------------------------------------------------------
// E3 — selection performance
// ---------------------------------------------------------------------------

fn e3_selection() {
    header(
        "E3 (selection, §1/§3.3)",
        "flat table + imprints query speed is comparable to file-based solutions",
    );
    let fx = Fixture::build("e3", 33, 1000.0, 4, 2.0);
    let pc = &fx.pc;
    let xs = pc.f64_column("x").expect("x");
    let ys = pc.f64_column("y").expect("y");

    let fs_plain = FileStore::open(fx.las_paths[0].parent().unwrap()).expect("open");
    let mut fs_indexed = FileStore::open(fx.lazl_paths[0].parent().unwrap()).expect("open");
    fs_indexed.sort_files(Curve::Hilbert).expect("lassort");
    fs_indexed.build_indexes().expect("lasindex");
    let mut records = Vec::new();
    for p in &fx.las_paths {
        records.extend(lidardb_las::read_las_file(p).expect("read").1);
    }
    let bs = BlockStore::build(&records, 512, Curve::Hilbert).expect("blockstore");

    println!("dataset: {} points; times are median-of-5 in ms\n", pc.num_points());
    println!(
        "{:>11} {:>9} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "selectivity", "results", "imprints", "full scan", "blockstore", "files(idx)", "files(raw)"
    );
    for sel_frac in [1e-5, 1e-4, 1e-3, 1e-2, 1e-1] {
        let w = fx.window(sel_frac);
        let pred = SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(&w)));
        let results = pc.select(&pred).expect("select").rows.len();

        let t_imp = median_seconds(5, || {
            std::hint::black_box(pc.select(&pred).expect("select").rows.len());
        });
        let t_scan = median_seconds(5, || {
            let mut hits = 0usize;
            for i in 0..xs.len() {
                if xs[i] >= w.min_x && xs[i] <= w.max_x && ys[i] >= w.min_y && ys[i] <= w.max_y {
                    hits += 1;
                }
            }
            std::hint::black_box(hits);
        });
        let t_bs = median_seconds(5, || {
            std::hint::black_box(bs.query_bbox(&w).expect("bs").0.len());
        });
        let t_fsi = median_seconds(3, || {
            std::hint::black_box(fs_indexed.query_bbox(&w).expect("fsi").0.len());
        });
        let t_fsp = median_seconds(3, || {
            std::hint::black_box(fs_plain.query_bbox(&w).expect("fsp").0.len());
        });
        println!(
            "{sel_frac:>11.0e} {results:>9} {:>10.3} {:>10.3} {:>12.3} {:>12.3} {:>12.3}",
            t_imp * 1e3,
            t_scan * 1e3,
            t_bs * 1e3,
            t_fsi * 1e3,
            t_fsp * 1e3
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E4 — grid refinement ablation
// ---------------------------------------------------------------------------

fn e4_refinement() {
    header(
        "E4 (refinement, §3.3)",
        "the regular grid decides most cells in one step; only boundary cells need per-point tests",
    );
    let fx = Fixture::build("e4", 44, 800.0, 2, 2.0);
    let pc = &fx.pc;
    let env = fx.scene.envelope();
    let (cx, cy) = (env.center().x, env.center().y);
    // A concave pentagon with a square hole, ~25% of the scene.
    let poly = Polygon::new(
        Ring::new(vec![
            Point::new(cx - 250.0, cy - 200.0),
            Point::new(cx + 280.0, cy - 170.0),
            Point::new(cx + 90.0, cy + 40.0),
            Point::new(cx + 260.0, cy + 250.0),
            Point::new(cx - 220.0, cy + 230.0),
        ])
        .expect("ring"),
        vec![Ring::new(vec![
            Point::new(cx - 60.0, cy - 60.0),
            Point::new(cx + 60.0, cy - 60.0),
            Point::new(cx + 60.0, cy + 60.0),
            Point::new(cx - 60.0, cy + 60.0),
        ])
        .expect("hole")],
    );
    let pred = SpatialPredicate::Within(Geometry::Polygon(poly));
    println!("dataset: {} points; polygon: concave pentagon with hole\n", pc.num_points());
    println!(
        "{:<18} {:>9} {:>12} {:>18} {:>10}",
        "strategy", "results", "exact tests", "cells in/out/bnd", "median ms"
    );
    let run = |name: &str, strat: RefineStrategy| {
        let sel = pc.select_with(&pred, strat).expect("select");
        let t = median_seconds(5, || {
            std::hint::black_box(pc.select_with(&pred, strat).expect("select").rows.len());
        });
        let e = &sel.explain;
        println!(
            "{name:<18} {:>9} {:>12} {:>18} {:>10.3}",
            e.result_rows,
            e.exact_tests,
            format!("{}/{}/{}", e.cells_inside, e.cells_outside, e.cells_boundary),
            t * 1e3
        );
    };
    run("bbox only", RefineStrategy::BboxOnly);
    run("exhaustive", RefineStrategy::Exhaustive);
    run("adaptive grid", RefineStrategy::AdaptiveGrid);
    for cells in [8usize, 16, 32, 64, 128, 256] {
        run(&format!("grid {cells}x{cells}"), RefineStrategy::Grid { cells });
    }
    println!();
}

// ---------------------------------------------------------------------------
// E5 — scenario 1
// ---------------------------------------------------------------------------

fn e5_scenario1() {
    header(
        "E5 (scenario 1, §4.1)",
        "predefined queries, file-based vs DBMS; single-source limit of file tools",
    );
    let fx = Fixture::build("e5", 55, 1000.0, 4, 2.0);
    let mut fs = FileStore::open(fx.lazl_paths[0].parent().unwrap()).expect("open");
    fs.sort_files(Curve::Morton).expect("lassort");
    fs.build_indexes().expect("lasindex");
    let pc = &fx.pc;

    println!("\nQ1: select all LIDAR points within a given region");
    println!(
        "{:>11} {:>9} {:>14} {:>14}",
        "selectivity", "results", "file-based ms", "DBMS ms"
    );
    for frac in [1e-4, 1e-3, 1e-2] {
        let w = fx.window(frac);
        let pred = SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(&w)));
        let results = pc.select(&pred).expect("select").rows.len();
        let t_fs = median_seconds(3, || {
            std::hint::black_box(fs.query_bbox(&w).expect("fs").0.len());
        });
        let t_db = median_seconds(5, || {
            std::hint::black_box(pc.select(&pred).expect("select").rows.len());
        });
        println!(
            "{frac:>11.0e} {results:>9} {:>14.3} {:>14.3}",
            t_fs * 1e3,
            t_db * 1e3
        );
    }

    println!("\nQ2: select all roads that intersect a given region");
    println!("  file-based: not expressible (single point-cloud source, no vector data, no SQL)");
    let catalog = build_catalog(fx);
    let w_sql = "SELECT id, name, class FROM roads WHERE \
                 ST_Intersects(geom, ST_MakeEnvelope(100310, 450290, 100600, 450580))";
    let (rs, secs) = timed(|| lidardb_sql::query(&catalog, w_sql).expect("sql"));
    println!("  DBMS: {} roads in {:.3} ms", rs.rows.len(), secs * 1e3);
    println!();
}

fn build_catalog(fx: Fixture) -> lidardb_sql::Catalog {
    let Fixture { scene, pc, .. } = fx;
    lidardb::scene_catalog(Arc::new(pc), &scene)
}

// ---------------------------------------------------------------------------
// E6 — scenario 2
// ---------------------------------------------------------------------------

fn e6_scenario2() {
    header(
        "E6 (scenario 2, §4.2)",
        "ad-hoc multi-dataset queries with per-operator plans and timings",
    );
    let fx = Fixture::build("e6", 66, 1000.0, 3, 1.5);
    let catalog = build_catalog(fx);
    for sql in [
        "SELECT COUNT(*) AS points_near_fast_transit FROM points p, ua z \
         WHERE ST_DWithin(ST_Point(p.x, p.y), z.geom, 25) AND z.code = 12210",
        "SELECT AVG(p.z) AS avg_elevation FROM points p, ua z \
         WHERE ST_DWithin(ST_Point(p.x, p.y), z.geom, 25) AND z.code = 12210",
        "SELECT COUNT(*) AS water_returns FROM points p, rivers r \
         WHERE ST_DWithin(ST_Point(p.x, p.y), r.geom, 12) AND p.classification = 9",
    ] {
        println!("\n> {sql}");
        let (rs, secs) = timed(|| lidardb_sql::query(&catalog, sql).expect("sql"));
        print!("{}", rs.render());
        print!("{}", rs.render_trace());
        println!("end-to-end: {:.3} ms", secs * 1e3);
    }
    println!();
}

// ---------------------------------------------------------------------------
// E7 — robustness on unclustered data
// ---------------------------------------------------------------------------

fn e7_robustness() {
    header(
        "E7 (robustness, §2.1.1)",
        "imprints stay effective on unclustered data where zonemaps fail",
    );
    let fx = Fixture::build("e7", 77, 800.0, 2, 2.0);
    let pc = &fx.pc;
    let acquisition: Vec<f64> = pc.f64_column("x").expect("x").to_vec();
    let n = acquisition.len();

    // Deterministic shuffle (Fisher-Yates with splitmix-style stream).
    let mut shuffled = acquisition.clone();
    let mut state = 0x9E3779B97F4A7C15u64;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 24) as usize % (i + 1);
        shuffled.swap(i, j);
    }
    let mut sorted = acquisition.clone();
    sorted.sort_by(f64::total_cmp);

    let env = fx.scene.envelope();
    let lo = env.min_x + env.width() * 0.40;
    let hi = env.min_x + env.width() * 0.41; // ~1% of the x domain

    println!("dataset: {n} x-values; probe range covers ~1% of the domain\n");
    println!(
        "{:<14} {:<10} {:>12} {:>10} {:>12} {:>11}",
        "ordering", "index", "index bytes", "overhead", "cand. rate", "probe ms"
    );
    for (name, data) in [
        ("acquisition", &acquisition),
        ("shuffled", &shuffled),
        ("sorted", &sorted),
    ] {
        // Column imprints.
        let imp = Imprints::build(data);
        let cand = imp.probe(lo, hi);
        let rate = cand.num_rows() as f64 / n as f64;
        let t = median_seconds(5, || {
            std::hint::black_box(imp.probe(lo, hi).num_rows());
        });
        println!(
            "{name:<14} {:<10} {:>12} {:>9.1}% {:>11.2}% {:>11.4}",
            "imprints",
            imp.byte_size(),
            imp.byte_size() as f64 / (n * 8) as f64 * 100.0,
            rate * 100.0,
            t * 1e3
        );
        // Zonemaps at two zone sizes.
        for zone in [64usize, 1024] {
            let zm = ZoneMap::build(data, zone);
            let rate = zm.candidate_rate(lo, hi);
            let t = median_seconds(5, || {
                std::hint::black_box(zm.candidate_ranges(lo, hi).len());
            });
            println!(
                "{name:<14} {:<10} {:>12} {:>9.1}% {:>11.2}% {:>11.4}",
                format!("zonemap/{zone}"),
                zm.byte_len(),
                zm.byte_len() as f64 / (n * 8) as f64 * 100.0,
                rate * 100.0,
                t * 1e3
            );
        }
    }

    // Bin-count ablation.
    println!("\nbin-count ablation (shuffled data, same probe):");
    println!("{:>6} {:>12} {:>12}", "bins", "index bytes", "cand. rate");
    for bins in [8usize, 16, 32, 64] {
        let binmap = lidardb_imprints::BinMap::from_data_with(&shuffled, bins, 2048);
        let imp = Imprints::build_with_bins(&shuffled, binmap);
        let rate = imp.probe(lo, hi).num_rows() as f64 / n as f64;
        println!(
            "{bins:>6} {:>12} {:>11.2}%",
            imp.byte_size(),
            rate * 100.0
        );
    }

    // E7b: fault injection — robustness against the *environment*, not
    // just the data distribution. Three demonstrations of the durability
    // contract: checksummed persistence, quarantining ingestion, and
    // query-time degradation.
    println!("\nfault injection (deterministic seeded faults, lidardb_core::fault):");

    // 1. Corruption detection: save, flip one seeded byte, reopen.
    let save_dir = std::env::temp_dir().join("lidardb_e7_fault_save");
    let trials = 64u64;
    let mut detected = 0usize;
    let mut state = 0xA076_1D64_78BD_642Fu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for _ in 0..trials {
        let _ = std::fs::remove_dir_all(&save_dir);
        pc.save_dir(&save_dir).expect("save");
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&save_dir)
            .expect("read_dir")
            .map(|e| e.expect("entry").path())
            .collect();
        files.sort();
        let victim = &files[(next() % files.len() as u64) as usize];
        let mut bytes = std::fs::read(victim).expect("read file");
        let pos = (next() % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << (next() % 8);
        std::fs::write(victim, &bytes).expect("write corruption");
        if PointCloud::open_dir(&save_dir).is_err() {
            detected += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&save_dir);
    println!(
        "  single-byte corruption of a saved dir: detected {detected}/{trials} ({:.1}%)",
        detected as f64 / trials as f64 * 100.0
    );

    // 2. Quarantining ingestion: 16 tiles, 3 corrupted three ways.
    let tile_dir = std::env::temp_dir().join("lidardb_e7_fault_tiles");
    let _ = std::fs::remove_dir_all(&tile_dir);
    std::fs::create_dir_all(&tile_dir).expect("mkdir");
    let mut paths = Vec::new();
    for i in 0..16usize {
        let src = &fx.las_paths[i % fx.las_paths.len()];
        let dst = tile_dir.join(format!("tile{i:02}.las"));
        std::fs::copy(src, &dst).expect("copy tile");
        paths.push(dst);
    }
    std::fs::write(&paths[2], b"not a point cloud").expect("garbage");
    let bytes = std::fs::read(&paths[7]).expect("read");
    std::fs::write(&paths[7], &bytes[..bytes.len() / 2]).expect("truncate");
    let mut bytes = std::fs::read(&paths[11]).expect("read");
    bytes[0] ^= 0xFF;
    std::fs::write(&paths[11], &bytes).expect("bad magic");
    let mut loaded = PointCloud::new();
    let (report, secs) = timed(|| {
        Loader::new(LoadMethod::Binary)
            .with_policy(LoadPolicy::SkipCorrupt { max_retries: 2 })
            .load_files_report(&mut loaded, &paths)
            .expect("skip-corrupt load")
    });
    let quarantined: Vec<String> = report
        .quarantined()
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    println!(
        "  SkipCorrupt ingest of 16 tiles (3 corrupt): {} files / {} points in {:.1} ms",
        report.stats.files,
        report.stats.points,
        secs * 1e3
    );
    println!("  quarantined: {}", quarantined.join(", "));
    let _ = std::fs::remove_dir_all(&tile_dir);

    // 3. Query-time degradation: a failed imprint build falls back to a
    // full scan instead of failing the query.
    let w = fx.window(1e-2);
    let pred = SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(&w)));
    let healthy = pc.select(&pred).expect("select");
    let t_healthy = median_seconds(5, || {
        std::hint::black_box(pc.select(&pred).expect("select").rows.len());
    });
    let mut degraded_pc = PointCloud::new();
    Loader::new(LoadMethod::Binary)
        .load_files(&mut degraded_pc, &fx.las_paths)
        .expect("load");
    let fi = Arc::new(lidardb_core::FaultInjector::new());
    fi.inject_n(
        lidardb_core::FaultStage::ImprintBuild,
        Some("x"),
        lidardb_core::FaultKind::IoError,
        0,
        u32::MAX,
    );
    degraded_pc.set_fault_injector(fi);
    let degraded = degraded_pc.select(&pred).expect("degraded select");
    let t_degraded = median_seconds(5, || {
        std::hint::black_box(degraded_pc.select(&pred).expect("select").rows.len());
    });
    println!(
        "  degraded x-imprint query: rows {} vs healthy {} (identical: {}), \
         {:.3} ms vs {:.3} ms, degraded probes: {}",
        degraded.rows.len(),
        healthy.rows.len(),
        degraded.rows == healthy.rows,
        t_degraded * 1e3,
        t_healthy * 1e3,
        degraded.explain.degraded_probes
    );
    println!();
}

// ---------------------------------------------------------------------------
// E9 — morsel-parallel query execution
// ---------------------------------------------------------------------------

/// One measured execution: per-step timings from the Explain.
struct E9Run {
    mode: &'static str,
    workers: usize,
    t_imprints: f64,
    t_bbox: f64,
    t_refine: f64,
    t_total: f64,
}

impl E9Run {
    /// The run's stage p50s as gated cells under `key`.
    fn push_cells(&self, doc: &mut Doc, key: &str) {
        for (metric, secs) in [
            ("t_imprints", self.t_imprints),
            ("t_bbox", self.t_bbox),
            ("t_refine", self.t_refine),
            ("t_total", self.t_total),
        ] {
            doc.cell(key, metric, round(secs, 6), "s", Better::Lower, REL);
        }
    }
}

fn e9_parallel() {
    header(
        "E9 (parallel execution)",
        "morsel-driven filter/refine: identical rows, per-step speedup over one worker",
    );
    // Fresh registry so BENCH_metrics.json reflects this experiment only.
    lidardb_core::MetricsRegistry::global().reset();
    const N: usize = 12_000_000;
    const CHUNK: usize = 1_000_000;
    println!("building {N} synthetic points in {CHUNK}-record chunks ...");
    let mut pc = PointCloud::new();
    let mut state = 0x1234_5678_9ABC_DEF1u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut unit = move || (next() % (1u64 << 53)) as f64 / (1u64 << 53) as f64;
    let ((), secs) = timed(|| {
        let mut chunk = Vec::with_capacity(CHUNK);
        for i in 0..N {
            chunk.push(lidardb_las::PointRecord {
                x: unit() * 10_000.0,
                y: unit() * 10_000.0,
                z: unit() * 120.0,
                classification: (i % 12) as u8,
                intensity: (i % 5000) as u16,
                gps_time: i as f64 * 1e-4,
                ..Default::default()
            });
            if chunk.len() == CHUNK {
                pc.append_records(&chunk).expect("append");
                chunk.clear();
            }
        }
        if !chunk.is_empty() {
            pc.append_records(&chunk).expect("append");
        }
    });
    println!("dataset: {} points in {:.1} s\n", pc.num_points(), secs);

    let bbox = SpatialPredicate::Within(Geometry::Polygon(
        Polygon::rectangle(
            &lidardb_geom::Envelope::new(1500.0, 1500.0, 7500.0, 7500.0).expect("env"),
        ),
    ));
    let diamond = SpatialPredicate::Within(Geometry::Polygon(
        Polygon::from_exterior(vec![
            Point::new(5000.0, 1000.0),
            Point::new(9000.0, 5000.0),
            Point::new(5000.0, 9000.0),
            Point::new(1000.0, 5000.0),
        ])
        .expect("diamond"),
    ));
    let queries: [(&str, &SpatialPredicate); 2] =
        [("bbox_36pct", &bbox), ("diamond_32pct", &diamond)];

    // Warm the lazy imprints once so every measured run is probe-only.
    for (_, pred) in &queries {
        pc.select_with(pred, RefineStrategy::default()).expect("warmup");
    }

    let modes: [(&'static str, Parallelism); 4] = [
        ("threads", Parallelism::Threads(1)),
        ("threads", Parallelism::Threads(2)),
        ("threads", Parallelism::Threads(4)),
        ("threads", Parallelism::Threads(8)),
    ];

    let mut json_queries = Vec::new();
    for (name, pred) in &queries {
        let one_rows = pc
            .select_query_with(Some(pred), &[], RefineStrategy::default(), Parallelism::Threads(1))
            .expect("one worker")
            .rows;
        println!("query {name}: {} rows", one_rows.len());
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>10} {:>14}",
            "mode", "filter ms", "bbox ms", "refine ms", "total ms", "bbox speedup"
        );
        let mut runs = Vec::new();
        let mut one_bbox = 0.0f64;
        for (mode, par) in &modes {
            // Median-of-3 by exact-scan time; rows re-checked every run.
            let mut tries: Vec<E9Run> = (0..3)
                .map(|_| {
                    let sel = pc
                        .select_query_with(Some(pred), &[], RefineStrategy::default(), *par)
                        .expect("select");
                    assert_eq!(sel.rows, one_rows, "rows must be identical at every worker count");
                    let e = &sel.explain;
                    E9Run {
                        mode,
                        workers: par.workers(),
                        t_imprints: e.t_imprints,
                        t_bbox: e.t_bbox,
                        t_refine: e.t_refine,
                        t_total: e.total_seconds(),
                    }
                })
                .collect();
            tries.sort_by(|a, b| a.t_bbox.total_cmp(&b.t_bbox));
            let run = tries.remove(1);
            if run.workers == 1 {
                one_bbox = run.t_bbox;
            }
            let label = format!("threads({})", run.workers);
            println!(
                "{label:<16} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>13.2}x",
                run.t_imprints * 1e3,
                run.t_bbox * 1e3,
                run.t_refine * 1e3,
                run.t_total * 1e3,
                one_bbox / run.t_bbox.max(1e-12)
            );
            runs.push(run);
        }
        json_queries.push((name.to_string(), one_rows.len(), one_bbox, runs));
    }

    let mut doc = bench_doc("e9_parallel_query");
    doc.param("points", pc.num_points() as f64);
    for (name, rows, one_bbox, runs) in &json_queries {
        doc.param(format!("{name}.rows"), *rows as f64);
        for r in runs {
            let key = format!("{name}/{}/{}", r.mode, r.workers);
            let speedup = round(one_bbox / r.t_bbox.max(1e-12), 3);
            doc.param(format!("{key}.bbox_speedup_vs_1_worker"), speedup);
            r.push_cells(&mut doc, &key);
        }
    }
    write_bench("BENCH_query.json", &doc);

    // The accumulated engine metrics for the whole experiment — every
    // probe/scan/refine/morsel above is in here (the registry was reset at
    // the top of E9).
    let snapshot = lidardb_core::MetricsRegistry::global().snapshot_json();
    std::fs::write("BENCH_metrics.json", &snapshot).expect("write BENCH_metrics.json");
    println!("wrote BENCH_metrics.json\n");

    e9_tracing(&pc, &queries);
}

/// E9 tracing addendum: measure the span-tracer's overhead on the hot
/// query path, then record one fully-traced workload that exercises the
/// whole stage taxonomy and export it as Chrome trace-event JSON
/// (loadable in Perfetto / chrome://tracing).
fn e9_tracing(pc: &PointCloud, queries: &[(&str, &SpatialPredicate)]) {
    println!("--- tracing overhead (one-worker bbox query, median of 3) ---");
    let (name, pred) = (queries[0].0, queries[0].1);
    let run_once = |pc: &PointCloud| {
        let sel = pc
            .select_query_with(Some(pred), &[], RefineStrategy::default(), Parallelism::Threads(1))
            .expect("overhead run");
        std::hint::black_box(sel.rows.len());
    };
    let untraced = median_seconds(3, || run_once(pc));
    lidardb_core::trace::set_enabled(true);
    let traced = median_seconds(3, || run_once(pc));
    lidardb_core::trace::set_enabled(false);
    let overhead_pct = (traced - untraced) / untraced.max(1e-12) * 100.0;
    println!(
        "{name}: untraced {:.1} ms, traced {:.1} ms ({overhead_pct:+.2}% overhead)\n",
        untraced * 1e3,
        traced * 1e3,
    );

    // One traced workload covering the full stage taxonomy: both queries
    // threads(1) and threads(4) (imprint_probe / bbox_scan / grid_refine /
    // morsel), an aggregate, and a persist round-trip of a small cloud
    // (imprint_build / persist_save / persist_load).
    lidardb_core::Tracer::global().clear();
    lidardb_core::SlowQueryLog::global().clear();
    lidardb_core::trace::set_enabled(true);
    let mut agg = 0.0f64;
    for (_, pred) in queries {
        for par in [Parallelism::Threads(1), Parallelism::Threads(4)] {
            let sel = pc
                .select_query_with(Some(pred), &[], RefineStrategy::default(), par)
                .expect("traced select");
            agg = pc
                .aggregate_with(&sel.rows, "z", Aggregate::Sum, par)
                .expect("traced aggregate")
                .unwrap_or(0.0);
        }
    }
    std::hint::black_box(agg);

    // Small cloud so the persist spans stay readable next to the queries.
    let mut small = PointCloud::new();
    let recs: Vec<lidardb_las::PointRecord> = (0..100_000)
        .map(|i| lidardb_las::PointRecord {
            x: (i % 1000) as f64,
            y: (i / 1000) as f64,
            z: (i % 120) as f64,
            classification: (i % 12) as u8,
            ..Default::default()
        })
        .collect();
    small.append_records(&recs).expect("small append");
    // First probe builds the lazy imprints -> imprint_build span.
    small
        .select_with(
            &SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(
                &lidardb_geom::Envelope::new(100.0, 10.0, 600.0, 80.0).expect("env"),
            ))),
            RefineStrategy::default(),
        )
        .expect("small select");
    let dir = std::path::Path::new("out/e9_persist");
    small.save_dir(dir).expect("save_dir");
    let reopened = PointCloud::open_dir(dir).expect("open_dir");
    assert_eq!(reopened.num_points(), small.num_points());
    lidardb_core::trace::set_enabled(false);

    let sink = lidardb_core::Tracer::global().snapshot();
    let mut stages: Vec<&str> = sink.spans.iter().map(|s| s.kind.name()).collect();
    stages.sort_unstable();
    stages.dedup();
    std::fs::write("BENCH_trace.json", sink.to_chrome_json()).expect("write BENCH_trace.json");
    println!(
        "wrote BENCH_trace.json ({} spans; stages: {})",
        sink.len(),
        stages.join(", ")
    );

    println!("\nslow-query log (worst first):");
    for q in lidardb_core::SlowQueryLog::global().worst() {
        println!(
            "  trace {:016x}  {:>8.1} ms  {:>8} rows  {}",
            q.trace_id,
            q.seconds * 1e3,
            q.result_rows,
            lidardb_core::TraceSink { spans: q.spans }.render_tree()
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E8 — space-filling-curve ordering
// ---------------------------------------------------------------------------

fn e8_sfc() {
    header(
        "E8 (SFC ordering, §2.3)",
        "Hilbert/Morton block sorting: locality and blocks touched per query",
    );
    let fx = Fixture::build("e8", 88, 800.0, 2, 1.5);
    let mut records = Vec::new();
    for p in &fx.las_paths {
        records.extend(lidardb_las::read_las_file(p).expect("read").1);
    }
    let env = fx.scene.envelope();

    // Curve locality on the quantised points.
    let q = Quantizer::new(env.min_x, env.min_y, env.max_x, env.max_y, 16);
    let cells: Vec<(u32, u32)> = records
        .iter()
        .step_by(7)
        .map(|r| q.cell(r.x, r.y))
        .collect();
    println!("curve locality over {} sampled points:", cells.len());
    println!("{:<10} {:>12} {:>12}", "curve", "mean step", "max step");
    for curve in [Curve::Morton, Curve::Hilbert] {
        let s = curve_locality(curve, &cells);
        println!("{curve:<10?} {:>12.2} {:>12.2}", s.mean_step, s.max_step);
    }

    // Blockstore pruning by layout.
    let unsorted = BlockStore::build_unsorted(&records, 512).expect("unsorted");
    let morton = BlockStore::build(&records, 512, Curve::Morton).expect("morton");
    let hilbert = BlockStore::build(&records, 512, Curve::Hilbert).expect("hilbert");
    println!(
        "\nblocks touched per query ({} blocks total):",
        morton.num_blocks()
    );
    println!(
        "{:>11} {:>10} {:>10} {:>10}",
        "selectivity", "unsorted", "morton", "hilbert"
    );
    for frac in [1e-4, 1e-3, 1e-2, 1e-1] {
        let w = fx.window(frac);
        let row: Vec<usize> = [&unsorted, &morton, &hilbert]
            .iter()
            .map(|bs| bs.query_bbox(&w).expect("bbox").1.blocks_matched)
            .collect();
        println!(
            "{frac:>11.0e} {:>10} {:>10} {:>10}",
            row[0], row[1], row[2]
        );
    }

    // Imprint quality on SFC-sorted coordinates (lassort interaction).
    let xs: Vec<f64> = records.iter().map(|r| r.x).collect();
    let mut sfc_sorted = records.clone();
    let qz = Quantizer::new(env.min_x, env.min_y, env.max_x, env.max_y, 16);
    sfc_sorted.sort_by_cached_key(|r| {
        let (cx, cy) = qz.cell(r.x, r.y);
        Curve::Hilbert.encode(cx, cy)
    });
    let xs_sfc: Vec<f64> = sfc_sorted.iter().map(|r| r.x).collect();
    let imp_a = Imprints::build(&xs);
    let imp_h = Imprints::build(&xs_sfc);
    println!("\nimprint compression on x (acquisition vs hilbert-sorted):");
    println!(
        "acquisition: {} bytes ({:.1}x vector compression)",
        imp_a.byte_size(),
        imp_a.num_lines() as f64 / imp_a.num_vectors() as f64
    );
    println!(
        "hilbert:     {} bytes ({:.1}x vector compression)",
        imp_h.byte_size(),
        imp_h.num_lines() as f64 / imp_h.num_vectors() as f64
    );
    println!();
}

// ---------------------------------------------------------------------------
// E10 — overload governance
// ---------------------------------------------------------------------------

/// One timed statement of a burst.
struct Sample {
    outcome: &'static str, // "ok" | "cancelled" | "overloaded"
    secs: f64,
}

/// Closed-loop burst: `clients` threads each issue `per_client`
/// statements back to back. `issue(client)` runs on the client's own
/// thread and returns that client's issuer, which runs statement `q` and
/// resolves it to "ok" / "cancelled" / "overloaded" (anything else must
/// abort the experiment); the burst times every statement.
fn burst<F: FnMut(usize) -> &'static str>(
    clients: usize,
    per_client: usize,
    issue: impl Fn(usize) -> F + Sync,
) -> Vec<Sample> {
    std::thread::scope(|s| {
        let issue = &issue;
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                s.spawn(move || {
                    let mut next = issue(t);
                    (0..per_client)
                        .map(|q| {
                            let start = std::time::Instant::now();
                            let outcome = next(q);
                            Sample {
                                outcome,
                                secs: start.elapsed().as_secs_f64(),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("burst client thread must not panic"))
            .collect()
    })
}

/// The nearest-rank `p` percentile of ascending `sorted` (0 when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).min(sorted.len()) - 1;
    sorted[idx]
}

/// Outcome counts and latency percentiles (ms) of one burst.
struct BurstStats {
    ok: usize,
    cancelled: usize,
    overloaded: usize,
    p50: f64,
    p99: f64,
    max: f64,
}

impl BurstStats {
    fn of(samples: &[Sample]) -> BurstStats {
        let count = |outcome| samples.iter().filter(|s| s.outcome == outcome).count();
        let mut ms: Vec<f64> = samples.iter().map(|s| s.secs * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        BurstStats {
            ok: count("ok"),
            cancelled: count("cancelled"),
            overloaded: count("overloaded"),
            p50: percentile(&ms, 0.50),
            p99: percentile(&ms, 0.99),
            max: ms.last().copied().unwrap_or(0.0),
        }
    }

    /// The burst table's header, config column `width` wide.
    fn print_header(width: usize) {
        println!(
            "{:<width$} {:>5} {:>10} {:>11} {:>9} {:>9} {:>9}",
            "config", "ok", "cancelled", "overloaded", "p50 ms", "p99 ms", "max ms"
        );
    }

    /// Print this burst's table row and record it in `doc` under `name`:
    /// outcome counts as params, the p50/p99 as gated cells when `gated`
    /// (as params otherwise).
    fn report(&self, doc: &mut Doc, name: &str, width: usize, gated: bool) {
        println!(
            "{name:<width$} {:>5} {:>10} {:>11} {:>9.1} {:>9.1} {:>9.1}",
            self.ok, self.cancelled, self.overloaded, self.p50, self.p99, self.max
        );
        doc.param(format!("{name}.ok"), self.ok as f64);
        doc.param(format!("{name}.cancelled"), self.cancelled as f64);
        doc.param(format!("{name}.overloaded"), self.overloaded as f64);
        for (metric, ms) in [("p50_ms", self.p50), ("p99_ms", self.p99)] {
            if gated {
                doc.cell(name, metric, round(ms, 2), "ms", Better::Lower, REL);
            } else {
                doc.param(format!("{name}.{metric}"), round(ms, 2));
            }
        }
        doc.param(format!("{name}.max_ms"), round(self.max, 2));
    }
}

/// Report one E10/E11 burst config run under admission `(max_in_flight,
/// max_queue, deadline_ms)` (0 = unlimited / none), which lands in `doc`'s
/// params ahead of the burst's own figures.
fn report_config(
    doc: &mut Doc,
    name: &str,
    (max_in_flight, max_queue, deadline_ms): (usize, usize, u64),
    samples: &[Sample],
    gated: bool,
) -> BurstStats {
    doc.param(format!("{name}.max_in_flight"), max_in_flight as f64);
    doc.param(format!("{name}.max_queue"), max_queue as f64);
    doc.param(format!("{name}.deadline_ms"), deadline_ms as f64);
    let stats = BurstStats::of(samples);
    stats.report(doc, name, 12, gated);
    stats
}

fn e10_overload() {
    header(
        "E10 (overload governance)",
        "admission control + deadlines under 64-client burst: bounded tail, typed shedding, no hangs",
    );
    lidardb_core::MetricsRegistry::global().reset();

    const N: usize = 2_000_000;
    const CHUNK: usize = 500_000;
    const THREADS: usize = 64;
    const PER_THREAD: usize = 3;
    const DEADLINE_MS: u64 = 50;

    println!("building {N} synthetic points ...");
    let mut pc = PointCloud::new();
    let mut state = 0xE10_0DDu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut unit = move || (next() % (1u64 << 53)) as f64 / (1u64 << 53) as f64;
    let mut chunk = Vec::with_capacity(CHUNK);
    for i in 0..N {
        chunk.push(lidardb_las::PointRecord {
            x: unit() * 10_000.0,
            y: unit() * 10_000.0,
            z: unit() * 120.0,
            classification: (i % 12) as u8,
            intensity: (i % 5000) as u16,
            gps_time: i as f64 * 1e-4,
            ..Default::default()
        });
        if chunk.len() == CHUNK {
            pc.append_records(&chunk).expect("append");
            chunk.clear();
        }
    }

    let preds = vec![
        SpatialPredicate::Within(Geometry::Polygon(
            Polygon::rectangle(
                &lidardb_geom::Envelope::new(1000.0, 1000.0, 9000.0, 9000.0).expect("env"),
            ),
        )),
        SpatialPredicate::Within(Geometry::Polygon(
            Polygon::from_exterior(vec![
                Point::new(5000.0, 500.0),
                Point::new(9500.0, 5000.0),
                Point::new(5000.0, 9500.0),
                Point::new(500.0, 5000.0),
            ])
            .expect("diamond"),
        )),
        SpatialPredicate::Within(Geometry::Polygon(
            Polygon::rectangle(
                &lidardb_geom::Envelope::new(4000.0, 4000.0, 5000.0, 5000.0).expect("env"),
            ),
        )),
    ];
    // Warm lazy imprints so the burst measures query latency, not builds.
    for p in &preds {
        pc.select_with(p, RefineStrategy::default()).expect("warmup");
    }

    println!(
        "\nburst: {THREADS} clients x {PER_THREAD} queries, one worker per query\n"
    );
    BurstStats::print_header(12);
    // Every statement is one governed one-worker selection, rotating
    // through the predicates.
    let preds = &preds;
    let embedded = |pc: &PointCloud, deadline| {
        burst(THREADS, PER_THREAD, |t| {
            move |q| match pc.select_query_governed(
                Some(&preds[(t + q) % preds.len()]),
                &[],
                RefineStrategy::default(),
                Parallelism::Threads(1),
                deadline,
                None,
            ) {
                Ok(_) => "ok",
                Err(lidardb_core::CoreError::Cancelled { .. }) => "cancelled",
                Err(lidardb_core::CoreError::Overloaded) => "overloaded",
                Err(e) => panic!("E10: untyped failure under load: {e}"),
            }
        })
    };
    let mut doc = bench_doc("e10_overload");
    doc.param("points", pc.num_points() as f64);
    doc.param("clients", THREADS as f64);
    doc.param("queries_per_client", PER_THREAD as f64);
    // Config A: ungoverned — unlimited admission, no deadline. E10's
    // percentiles stay ungated params: the governed p50 is a random shed
    // mix.
    let open = report_config(&mut doc, "ungoverned", (0, 0, 0), &embedded(&pc, None), false);
    assert_eq!(open.ok, THREADS * PER_THREAD, "ungoverned queries all succeed");

    // Config B: governed — 4 in flight, queue of 8, 50 ms deadline that
    // also bounds queue wait. The queue WILL fill at 64 clients: excess
    // is shed as Overloaded, queued-but-stale work dies as Cancelled.
    pc.set_admission(Arc::new(lidardb_core::AdmissionController::new(4, 8)));
    let deadline = Some(std::time::Duration::from_millis(DEADLINE_MS));
    let governed = embedded(&pc, deadline);
    let gov = report_config(&mut doc, "governed", (4, 8, DEADLINE_MS), &governed, false);
    assert_eq!(
        gov.ok + gov.cancelled + gov.overloaded,
        THREADS * PER_THREAD,
        "every governed query resolves"
    );

    let m = lidardb_core::MetricsRegistry::global();
    println!(
        "\ngovernor counters: shed={} timed_out={} killed={} budget_trips={}",
        m.queries_shed.get(),
        m.queries_timed_out.get(),
        m.queries_killed.get(),
        m.budget_trips.get()
    );
    for (name, counter) in [
        ("queries_shed", &m.queries_shed),
        ("queries_timed_out", &m.queries_timed_out),
        ("queries_killed", &m.queries_killed),
        ("budget_trips", &m.budget_trips),
    ] {
        doc.param(format!("governor_counters.{name}"), counter.get() as f64);
    }
    write_bench("BENCH_overload.json", &doc);
}

// ---------------------------------------------------------------------------
// E11 — streamed wire protocol over the governor
// ---------------------------------------------------------------------------

/// Resident-set size of this process in kB (Linux `/proc/self/status`).
fn e11_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Take the cloud back out of its `Arc` once every server session has
/// released it (sessions drain moments after their clients disconnect).
fn e11_reclaim(mut arc: Arc<PointCloud>) -> PointCloud {
    let t0 = std::time::Instant::now();
    loop {
        match Arc::try_unwrap(arc) {
            Ok(pc) => return pc,
            Err(a) => {
                assert!(
                    t0.elapsed() < std::time::Duration::from_secs(10),
                    "E11: server sessions still hold the cloud after shutdown"
                );
                std::thread::sleep(std::time::Duration::from_millis(20));
                arc = a;
            }
        }
    }
}

/// A real TCP burst against `lidardb-server`: `clients` concurrent
/// loopback connections, `per_client` governed statements each, outcomes
/// classified from the typed error frames.
fn wire_burst(
    addr: std::net::SocketAddr,
    sqls: &[String],
    clients: usize,
    per_client: usize,
) -> Vec<Sample> {
    use lidardb_server::{Client, ClientError};
    burst(clients, per_client, |t| {
        let mut c = Client::connect(addr).expect("burst client connect");
        move |q| match c.query_collect(&sqls[(t + q) % sqls.len()]) {
            Ok(_) => "ok",
            Err(ClientError::Server(m)) if m.contains("cancelled") => "cancelled",
            Err(ClientError::Server(m)) if m.contains("overloaded") => "overloaded",
            Err(e) => panic!("untyped failure under load over the wire: {e}"),
        }
    })
}

/// The demo's server claim end to end: hundreds of concurrent TCP
/// sessions resolve every statement to Ok / Cancelled / Overloaded
/// (typed error frames, bounded governed tail), and a multi-million-row
/// selection streams in bounded batches with flat server memory. Emits
/// `BENCH_server.json` for the CI server gate.
fn e11_server() {
    use lidardb_server::{Client, Server};
    use lidardb_sql::Catalog;
    use std::time::Duration;

    header(
        "E11 (wire protocol)",
        "streamed results over TCP: governed burst with typed outcomes, flat-memory streaming",
    );
    lidardb_core::MetricsRegistry::global().reset();

    let n: usize = std::env::var("LIDARDB_E11_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000_000);
    let clients: usize = std::env::var("LIDARDB_E11_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    const PER_CLIENT: usize = 2;
    const DEADLINE_MS: u64 = 100;
    const BATCH_ROWS: usize = 4096;
    const CHUNK: usize = 500_000;

    println!("building {n} synthetic points ...");
    let mut pc = PointCloud::new();
    let mut state = 0xE11_5EEDu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut unit = move || (next() % (1u64 << 53)) as f64 / (1u64 << 53) as f64;
    let mut chunk = Vec::with_capacity(CHUNK.min(n));
    for i in 0..n {
        chunk.push(lidardb_las::PointRecord {
            x: unit() * 10_000.0,
            y: unit() * 10_000.0,
            z: unit() * 120.0,
            classification: (i % 12) as u8,
            intensity: (i % 5000) as u16,
            gps_time: i as f64 * 1e-4,
            ..Default::default()
        });
        if chunk.len() == chunk.capacity() {
            pc.append_records(&chunk).expect("append");
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        pc.append_records(&chunk).expect("append");
    }

    // Small envelopes (~1.5-2% selectivity each) so 256 concurrent row-id
    // materialisations stay modest; COUNT keeps the burst's result frames
    // tiny, isolating governance + protocol latency.
    let sqls: Vec<String> = [
        (4000.0, 4000.0, 5400.0, 5400.0),
        (1000.0, 1000.0, 2000.0, 2500.0),
        (7000.0, 2000.0, 8000.0, 4000.0),
    ]
    .iter()
    .map(|(x0, y0, x1, y1)| {
        format!(
            "SELECT COUNT(*) FROM points WHERE \
             ST_Contains(ST_MakeEnvelope({x0}, {y0}, {x1}, {y1}), ST_Point(x, y))"
        )
    })
    .collect();

    let serve = |pc: &Arc<PointCloud>| {
        let mut catalog = Catalog::new();
        catalog.register_pointcloud("points", Arc::clone(pc));
        Server::bind("127.0.0.1:0", catalog)
            .expect("bind")
            .with_batch_rows(BATCH_ROWS)
            .spawn()
            .expect("spawn server")
    };

    println!(
        "\nburst: {clients} concurrent connections x {PER_CLIENT} statements\n"
    );
    BurstStats::print_header(12);

    let mut doc = bench_doc("e11_server");
    doc.param("points", n as f64);
    doc.param("clients", clients as f64);
    doc.param("queries_per_client", PER_CLIENT as f64);

    // Config A: ungoverned — unlimited admission, no deadline.
    let pc_open = Arc::new(pc);
    let server = serve(&pc_open);
    // Warm lazy imprints through the wire so the burst measures protocol
    // + governance latency, not index builds.
    {
        let mut warm = Client::connect(server.addr()).expect("warmup connect");
        for sql in &sqls {
            warm.query_collect(sql).expect("warmup query");
        }
    }
    let open = wire_burst(server.addr(), &sqls, clients, PER_CLIENT);
    server.shutdown();
    let open = report_config(&mut doc, "ungoverned", (0, 0, 0), &open, true);
    assert_eq!(
        open.ok,
        clients * PER_CLIENT,
        "ungoverned statements all succeed"
    );

    // Config B: governed — 4 in flight, queue of 16, 100 ms deadline that
    // also bounds queue wait. At 256 connections the queue WILL fill:
    // excess sheds as Overloaded, queued-but-stale work dies as Cancelled.
    let mut pc_gov = e11_reclaim(pc_open);
    pc_gov.set_admission(Arc::new(lidardb_core::AdmissionController::new(4, 16)));
    pc_gov.set_default_deadline(Some(Duration::from_millis(DEADLINE_MS)));
    let pc_gov = Arc::new(pc_gov);
    let server = serve(&pc_gov);
    let governed = wire_burst(server.addr(), &sqls, clients, PER_CLIENT);
    server.shutdown();
    let gov = report_config(&mut doc, "governed", (4, 16, DEADLINE_MS), &governed, true);
    assert_eq!(
        gov.ok + gov.cancelled + gov.overloaded,
        clients * PER_CLIENT,
        "every governed statement resolves to a typed outcome"
    );
    // Queue wait counts against the deadline (the E11 bugfix), so no
    // statement can linger much past it: checkpoint granularity plus
    // scheduler noise, not unbounded queueing.
    assert!(
        gov.p99 <= (DEADLINE_MS * 50) as f64,
        "governed p99 is bounded by the deadline, got {:.1} ms",
        gov.p99
    );

    // Streamed selection: every row of the table over one connection in
    // bounded batches. Deadline off (a multi-second stream is the point),
    // admission still governed — the stream holds its permit end to end.
    let pc_stream = e11_reclaim(pc_gov);
    pc_stream.set_default_deadline(None);
    let pc_stream = Arc::new(pc_stream);
    let server = serve(&pc_stream);
    let rss_before = e11_rss_kb().unwrap_or(0);
    let mut rss_peak = rss_before;
    let mut batches = 0usize;
    let mut rows = 0usize;
    let t0 = std::time::Instant::now();
    let mut client = Client::connect(server.addr()).expect("stream connect");
    let stats = client
        .query_streamed(
            "SELECT x, y, z FROM points",
            |_| {},
            |batch| {
                rows += batch.len();
                batches += 1;
                if batches.is_multiple_of(64) {
                    rss_peak = rss_peak.max(e11_rss_kb().unwrap_or(0));
                }
            },
        )
        .expect("streamed selection");
    let stream_secs = t0.elapsed().as_secs_f64();
    rss_peak = rss_peak.max(e11_rss_kb().unwrap_or(0));
    drop(client);
    server.shutdown();

    assert_eq!(rows, n, "every row arrives exactly once");
    assert_eq!(stats.rows as usize, rows, "server accounting matches");
    assert!(
        batches >= n / BATCH_ROWS,
        "stream arrives in bounded batches ({batches} batches)"
    );
    // Flat memory: if either side materialised the selection the process
    // would grow by hundreds of bytes per row; allow generous noise.
    let rss_delta = rss_peak.saturating_sub(rss_before);
    let rss_bound_kb = (n as u64 * 100 / 1024 / 4).max(32 * 1024);
    assert!(
        rss_delta < rss_bound_kb,
        "streaming stays flat: RSS grew {rss_delta} kB (bound {rss_bound_kb} kB)"
    );
    let rows_per_sec = rows as f64 / stream_secs;
    println!(
        "\nstream: {rows} rows in {batches} batches, {stream_secs:.2} s \
         ({:.2} Mrows/s), RSS +{rss_delta} kB",
        rows_per_sec / 1e6
    );

    let m = lidardb_core::MetricsRegistry::global();
    let recv = m.stage(lidardb_core::Stage::ServerRecv);
    let send = m.stage(lidardb_core::Stage::ServerSend);
    println!(
        "server stages: recv {} frames / {} bytes in {:.3} s, \
         send {} frames / {} rows in {:.3} s",
        recv.calls.get(),
        recv.rows.get(),
        recv.seconds(),
        send.calls.get(),
        send.rows.get(),
        send.seconds()
    );

    doc.param("stream.rows", rows as f64);
    doc.param("stream.batches", batches as f64);
    doc.param("stream.seconds", round(stream_secs, 3));
    doc.param("stream.rss_delta_kb", rss_delta as f64);
    let rows_per_sec = round(rows_per_sec, 0);
    doc.cell("stream", "rows_per_sec", rows_per_sec, "1/s", Better::Higher, REL);
    write_bench("BENCH_server.json", &doc);
}

// ---------------------------------------------------------------------------
// E14 — observability overhead (flight recorder + /metrics scrapes)
// ---------------------------------------------------------------------------

/// Minimal HTTP/1.0 GET against the metrics listener; returns the body
/// if the status is 200.
fn e14_scrape(addr: std::net::SocketAddr) -> Option<String> {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).ok()?;
    write!(s, "GET /metrics HTTP/1.0\r\n\r\n").ok()?;
    let mut buf = String::new();
    s.read_to_string(&mut buf).ok()?;
    let (head, body) = buf.split_once("\r\n\r\n")?;
    head.lines().next()?.contains("200").then(|| body.to_string())
}

/// The introspection plane's "observability is free" claim: the E11
/// governed burst repeated with the flight recorder sampling and a
/// Prometheus scraper hammering `/metrics` must land within a few
/// percent of the same burst with the recorder dark. Emits
/// `BENCH_obs.json`, whose overhead cell carries the 5% absolute
/// p99-overhead ceiling.
fn e14_obs() {
    use lidardb_server::{Client, Server};
    use lidardb_sql::Catalog;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    header(
        "E14 (observability)",
        "flight recorder + /metrics scrapes under governed burst: overhead vs dark",
    );
    lidardb_core::MetricsRegistry::global().reset();

    let n: usize = std::env::var("LIDARDB_E14_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000_000);
    let clients: usize = std::env::var("LIDARDB_E14_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    // Unlike E11's shed-heavy burst (whose p99 is set by the random
    // cancelled/overloaded mix and jitters by tens of percent), E14 needs
    // a *stable* p99 to resolve a 5% overhead: the queue is deep enough
    // for every statement, so each sample is queue-wait + scan and the
    // p99 is the near-deterministic drain time of ~512 governed scans.
    const PER_CLIENT: usize = 2;
    const DEADLINE_MS: u64 = 30_000;
    const MAX_IN_FLIGHT: usize = 4;
    const BATCH_ROWS: usize = 4096;
    const CHUNK: usize = 500_000;
    const SAMPLE_MS: u64 = 50;
    const SCRAPE_EVERY_MS: u64 = 100;
    // "Observability is free": the recorder-on p99 must land within this
    // many percent of recorder-off, checked absolutely, not against a
    // baseline that might itself have regressed.
    const MAX_OVERHEAD_PCT: f64 = 5.0;
    let queue_depth = clients * PER_CLIENT;

    println!("building {n} synthetic points ...");
    let mut pc = PointCloud::new();
    let mut state = 0xE14_5EEDu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut unit = move || (next() % (1u64 << 53)) as f64 / (1u64 << 53) as f64;
    let mut chunk = Vec::with_capacity(CHUNK.min(n));
    for i in 0..n {
        chunk.push(lidardb_las::PointRecord {
            x: unit() * 10_000.0,
            y: unit() * 10_000.0,
            z: unit() * 120.0,
            classification: (i % 12) as u8,
            intensity: (i % 5000) as u16,
            gps_time: i as f64 * 1e-4,
            ..Default::default()
        });
        if chunk.len() == chunk.capacity() {
            pc.append_records(&chunk).expect("append");
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        pc.append_records(&chunk).expect("append");
    }

    let sqls: Vec<String> = [
        (4000.0, 4000.0, 5400.0, 5400.0),
        (1000.0, 1000.0, 2000.0, 2500.0),
        (7000.0, 2000.0, 8000.0, 4000.0),
    ]
    .iter()
    .map(|(x0, y0, x1, y1)| {
        format!(
            "SELECT COUNT(*) FROM points WHERE \
             ST_Contains(ST_MakeEnvelope({x0}, {y0}, {x1}, {y1}), ST_Point(x, y))"
        )
    })
    .collect();

    let serve = |pc: &Arc<PointCloud>, with_metrics: bool| {
        let mut catalog = Catalog::new();
        catalog.register_pointcloud("points", Arc::clone(pc));
        let mut server = Server::bind("127.0.0.1:0", catalog)
            .expect("bind")
            .with_batch_rows(BATCH_ROWS);
        if with_metrics {
            server = server.with_metrics_addr("127.0.0.1:0").expect("bind metrics");
        }
        server.spawn().expect("spawn server")
    };

    // Warm lazy imprints through the wire, ungoverned (the builds would
    // blow any deadline), so neither measured burst pays for them.
    let pc_warm = Arc::new(pc);
    let server = serve(&pc_warm, false);
    {
        let mut warm = Client::connect(server.addr()).expect("warmup connect");
        for sql in &sqls {
            warm.query_collect(sql).expect("warmup query");
        }
    }
    server.shutdown();

    // One governed cloud for both bursts — identical admission and
    // deadline, so the only variable is the observability plane.
    let mut pc = e11_reclaim(pc_warm);
    pc.set_admission(Arc::new(lidardb_core::AdmissionController::new(
        MAX_IN_FLIGHT,
        queue_depth,
    )));
    pc.set_default_deadline(Some(Duration::from_millis(DEADLINE_MS)));
    let pc = Arc::new(pc);

    println!(
        "\nburst: {clients} connections x {PER_CLIENT} statements, admission \
         {MAX_IN_FLIGHT}/{queue_depth} (shed-free); recorder dark vs sampling every \
         {SAMPLE_MS} ms + scrape every {SCRAPE_EVERY_MS} ms\n"
    );
    BurstStats::print_header(14);

    let mut doc = bench_doc("e14_observability");
    doc.param("points", n as f64);
    doc.param("clients", clients as f64);
    doc.param("queries_per_client", PER_CLIENT as f64);
    doc.param("sample_ms", SAMPLE_MS as f64);
    let mut report = |name: &str, samples: &[Sample]| {
        let stats = BurstStats::of(samples);
        stats.report(&mut doc, name, 14, true);
        // The queue admits every statement and the deadline never fires,
        // so the burst is all-Ok — the percentiles measure governed
        // drain time, not a random shed mix.
        assert_eq!(
            stats.ok,
            clients * PER_CLIENT,
            "E14 burst must be shed-free ({} cancelled, {} overloaded)",
            stats.cancelled,
            stats.overloaded
        );
        stats.p99
    };

    // Burst A: recorder dark. Must run first — the sampler is always-on
    // by design and cannot be stopped once started.
    assert!(
        !lidardb_core::Recorder::global().sampler_running(),
        "E14's dark burst needs the sampler not yet started"
    );
    let server = serve(&pc, false);
    // One unmeasured governed pre-burst: the first burst otherwise pays
    // one-time costs (thread spawns, TCP accept path, allocator growth)
    // that would masquerade as recorder overhead — or its absence.
    wire_burst(server.addr(), &sqls, clients, PER_CLIENT);
    let dark = wire_burst(server.addr(), &sqls, clients, PER_CLIENT);
    server.shutdown();
    let off_p99 = report("recorder_off", &dark);

    // Burst B: recorder sampling + a scraper thread playing Prometheus.
    lidardb_core::Recorder::global().start_sampler(Duration::from_millis(SAMPLE_MS));
    let server = serve(&pc, true);
    let metrics_addr = server.metrics_addr().expect("metrics listener");
    let stop = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicU64::new(0));
    let scraper = {
        let (stop, scrapes) = (Arc::clone(&stop), Arc::clone(&scrapes));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let body = e14_scrape(metrics_addr).expect("scrape failed mid-burst");
                assert!(
                    body.contains("lidardb_queries_total"),
                    "scrape body missing counters"
                );
                scrapes.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(SCRAPE_EVERY_MS));
            }
        })
    };
    let lit = wire_burst(server.addr(), &sqls, clients, PER_CLIENT);
    stop.store(true, Ordering::Release);
    scraper.join().expect("scraper thread");
    server.shutdown();
    let on_p99 = report("recorder_on", &lit);
    let scrapes = scrapes.load(Ordering::Relaxed);
    assert!(scrapes > 0, "the scraper never completed a scrape");

    let overhead_pct = if off_p99 > 0.0 {
        (on_p99 - off_p99) / off_p99 * 100.0
    } else {
        0.0
    };
    let recorded = lidardb_core::Recorder::global().snapshot().len();
    println!(
        "\nrecorder on: {scrapes} scrapes served, {recorded} samples in the ring, \
         p99 overhead {overhead_pct:+.2}% (ceiling {MAX_OVERHEAD_PCT}%)"
    );

    doc.param("scrapes", scrapes as f64);
    doc.cell(
        "recorder_on",
        "overhead_p99_pct",
        round(overhead_pct, 3),
        "%",
        Better::Lower,
        Bound::AbsMax(MAX_OVERHEAD_PCT),
    );
    write_bench("BENCH_obs.json", &doc);
}

// ---------------------------------------------------------------------------
// E15 — network-chaos soak
// ---------------------------------------------------------------------------

/// End-to-end fault-domain soak: retrying clients push idempotent
/// `INSERT` batches through a seeded [`ChaosProxy`] (delays, severed
/// legs, black holes) at a streaming server that is drained and
/// restarted mid-traffic several times, with a disk-full window injected
/// into the WAL along the way. The invariant under all of it is
/// exactly-once ingestion: every *acked* batch is present exactly once
/// in the final table, and no batch — acked or not — appears twice.
/// Emits `BENCH_chaos.json`, whose integrity cells are gated at absolute
/// zero.
fn e15_chaos() {
    use lidardb_core::{Durability, FaultInjector, FaultKind, FaultStage};
    use lidardb_server::{ChaosProxy, Client, RetryPolicy, RetryingClient, Server};
    use lidardb_sql::{Catalog, SqlValue};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::RwLock;
    use std::time::{Duration, Instant};

    header(
        "E15 (chaos soak)",
        "retrying clients vs chaos proxy + drain/restart cycles + disk-full: exactly-once",
    );
    lidardb_core::MetricsRegistry::global().reset();

    let clients: usize = std::env::var("LIDARDB_E15_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let batches: usize = std::env::var("LIDARDB_E15_BATCHES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    let cycles: usize = std::env::var("LIDARDB_E15_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    const ROWS_PER_BATCH: i64 = 2;
    const DRAIN_MS: u64 = 1000;

    let dir = std::env::temp_dir().join(format!("lidardb_e15_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fi = Arc::new(FaultInjector::new());

    // One server incarnation: reopen the same ingest directory (WAL
    // replay restores both the rows and the idempotency ledger, so
    // replays of pre-restart acks still deduplicate) behind a fresh
    // ephemeral port.
    let serve = || {
        let mut pc = PointCloud::open_ingest(
            &dir,
            Durability::GroupCommit {
                max_batches: 8,
                max_delay: Duration::from_millis(20),
            },
        )
        .expect("open ingest dir");
        pc.set_fault_injector(Arc::clone(&fi));
        let mut catalog = Catalog::new();
        catalog.register_stream("stream", Arc::new(RwLock::new(pc)));
        Server::bind("127.0.0.1:0", catalog)
            .expect("bind")
            .with_drain_deadline(Duration::from_millis(DRAIN_MS))
            .spawn()
            .expect("spawn server")
    };

    // Behind an Option so the orchestrator (inside the thread scope, by
    // mutable capture) can consume one incarnation and slot in the next.
    let mut server = Some(serve());
    let proxy = ChaosProxy::spawn(server.as_ref().unwrap().addr(), 0xE15_5EED)
        .expect("spawn chaos proxy");
    let total = clients * batches;
    println!(
        "{clients} retrying clients x {batches} batches through a seeded chaos proxy; \
         {cycles} drain/restart cycles (drain {DRAIN_MS}ms) + one disk-full window\n"
    );

    // Attempts completed (acked or given up) — paces the drain cycles so
    // traffic brackets every restart.
    let progress = Arc::new(AtomicUsize::new(0));
    let mut drains = 0usize;
    let mut per_client: Vec<(Vec<usize>, usize, Vec<f64>, u64)> = Vec::new();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = proxy.addr();
                let progress = Arc::clone(&progress);
                s.spawn(move || {
                    let mut rc = RetryingClient::new(
                        addr,
                        RetryPolicy {
                            io_timeout: Duration::from_millis(800),
                            deadline: Duration::from_secs(30),
                            seed: 0xE15 + c as u64,
                            ..RetryPolicy::default()
                        },
                    );
                    let mut acked = Vec::new();
                    let mut failed = 0usize;
                    let mut lat_ms = Vec::new();
                    for seq in 0..batches {
                        // Batch identity rides in x; y distinguishes the
                        // rows, so a double-applied batch is visible as
                        // count > ROWS_PER_BATCH at verification.
                        let id = c * 100_000 + seq;
                        let sql = format!(
                            "INSERT INTO stream (x, y, z) VALUES ({id}, 0, 1), ({id}, 1, 2)"
                        );
                        let t0 = Instant::now();
                        match rc.insert(&sql) {
                            Ok(_) => {
                                lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                                acked.push(id);
                            }
                            // Refused batches (disk-full window, drain
                            // cancellations past the client deadline) are
                            // simply not acked — the invariant owes them
                            // nothing.
                            Err(_) => failed += 1,
                        }
                        progress.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    (acked, failed, lat_ms, rc.retries())
                })
            })
            .collect();

        // The orchestrator: wait for a slice of the traffic, then yank
        // the server out from under it. Cycle 2 additionally poisons the
        // WAL with ENOSPC just before the drain, so the restart also
        // exercises recovery out of degraded read-only mode.
        for cycle in 1..=cycles {
            let target = total * cycle / (cycles + 1);
            let t0 = Instant::now();
            while progress.load(Ordering::Relaxed) < target
                && t0.elapsed() < Duration::from_secs(120)
            {
                std::thread::sleep(Duration::from_millis(20));
            }
            if cycle == 2.min(cycles) {
                fi.inject_n(FaultStage::WalAppend, None, FaultKind::DiskFull, 0, 1_000_000);
                std::thread::sleep(Duration::from_millis(150));
                fi.clear();
            }
            let t0 = Instant::now();
            server.take().unwrap().shutdown();
            let fresh = serve();
            proxy.retarget(fresh.addr());
            server = Some(fresh);
            drains += 1;
            println!(
                "cycle {cycle}: drained + restarted in {:.0} ms at {} / {total} attempts",
                t0.elapsed().as_secs_f64() * 1e3,
                progress.load(Ordering::Relaxed),
            );
        }
        for h in handles {
            per_client.push(h.join().expect("client thread panicked"));
        }
    });
    proxy.shutdown();

    // Verification goes straight at the surviving server — no proxy, no
    // retries — one batch at a time.
    let acked_ids: Vec<usize> = per_client.iter().flat_map(|r| r.0.iter().copied()).collect();
    let failed: usize = per_client.iter().map(|r| r.1).sum();
    let retries: u64 = per_client.iter().map(|r| r.3).sum();
    let mut lat_ms: Vec<f64> = per_client.iter().flat_map(|r| r.2.iter().copied()).collect();
    lat_ms.sort_by(|a, b| a.total_cmp(b));
    let (p50, p99) = (percentile(&lat_ms, 0.50), percentile(&lat_ms, 0.99));

    let server = server.take().unwrap();
    let mut check = Client::connect(server.addr()).expect("verification connect");
    let mut lost = 0usize;
    let mut duplicates = 0usize;
    for c in 0..clients {
        for seq in 0..batches {
            let id = c * 100_000 + seq;
            let (_, rows, _) = check
                .query_collect(&format!("SELECT COUNT(*) FROM stream WHERE x = {id}"))
                .expect("verification query");
            let n = match &rows[0][0] {
                SqlValue::Int(n) => *n,
                other => panic!("COUNT(*) did not return an Int: {other:?}"),
            };
            // An acked batch must be present *whole* — a torn apply
            // (1 of 2 rows) is as lost as an absent one.
            if acked_ids.contains(&id) && n < ROWS_PER_BATCH {
                lost += 1;
            }
            if n > ROWS_PER_BATCH {
                duplicates += 1;
            }
        }
    }
    drop(check);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let acked = acked_ids.len();
    println!(
        "\n{:<10} {:>7} {:>7} {:>6} {:>11} {:>8} {:>9} {:>9}",
        "batches", "acked", "failed", "lost", "duplicates", "retries", "p50 ms", "p99 ms"
    );
    println!(
        "{total:<10} {acked:>7} {failed:>7} {lost:>6} {duplicates:>11} {retries:>8} \
         {p50:>9.1} {p99:>9.1}"
    );
    assert!(acked > 0, "the soak never landed an insert");
    assert_eq!(lost, 0, "{lost} acked batch(es) missing from the final table");
    assert_eq!(duplicates, 0, "{duplicates} batch(es) applied more than once");
    assert_eq!(drains, cycles, "every drain/restart cycle must run");
    assert!(
        p99 < 30_000.0,
        "p99 insert latency {p99:.0} ms breached the client deadline"
    );

    let mut doc = bench_doc("e15_chaos");
    doc.param("clients", clients as f64);
    doc.param("batches_per_client", batches as f64);
    doc.param("rows_per_batch", ROWS_PER_BATCH as f64);
    doc.param("failed", failed as f64);
    doc.param("retries", retries as f64);
    // Integrity and coverage are invariants of the fresh run, never
    // relative to a baseline: a baseline that lost inserts must not
    // grandfather a run that does, and a soak that acked nothing or
    // drained fewer cycles proved nothing.
    for (key, metric, count, better, bound) in [
        ("integrity", "lost", lost, Better::Lower, Bound::AbsMax(0.0)),
        ("integrity", "duplicates", duplicates, Better::Lower, Bound::AbsMax(0.0)),
        ("coverage", "acked", acked, Better::Higher, Bound::AbsMin(1.0)),
        ("coverage", "drain_cycles", drains, Better::Higher, Bound::Rel(0.0)),
    ] {
        doc.cell(key, metric, count as f64, "count", better, bound);
    }
    doc.cell("insert", "p50_ms", round(p50, 2), "ms", Better::Lower, REL);
    doc.cell("insert", "p99_ms", round(p99, 2), "ms", Better::Lower, REL);
    write_bench("BENCH_chaos.json", &doc);
}

// ---------------------------------------------------------------------------
// E12 — crash-safe streaming ingest
// ---------------------------------------------------------------------------

/// Streaming-ingest throughput under the three fsync policies, with
/// governed queries running against the committed snapshot while batches
/// land, followed by a cold-start recovery replaying the whole WAL.
/// Emits `BENCH_ingest.json` for the CI ingest gate.
fn e12_ingest() {
    use lidardb_core::Durability;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::RwLock;
    use std::time::Duration;

    header(
        "E12 (streaming ingest)",
        "WAL-logged appends: fsync-policy throughput, snapshot queries, recovery",
    );

    let total: usize = std::env::var("LIDARDB_E12_POINTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(120_000);
    const BATCH: usize = 2_000;
    let query_cut = (total / 2) as f64;

    let policies: [(&str, Durability); 3] = [
        ("none", Durability::None),
        (
            "group_commit",
            Durability::GroupCommit {
                max_batches: 16,
                max_delay: Duration::from_millis(20),
            },
        ),
        ("always", Durability::Always),
    ];

    println!("workload: {total} points in {BATCH}-row batches; queries probe x < {query_cut}\n");
    println!(
        "{:<14} {:>10} {:>12} {:>10} {:>12} {:>9} {:>11}",
        "durability", "ingest s", "points/s", "wal MiB", "recovery s", "queries", "violations"
    );

    let mut doc = bench_doc("e12_streaming_ingest");
    doc.param("points", total as f64);
    doc.param("batch_rows", BATCH as f64);
    for (label, durability) in policies {
        let dir = std::env::temp_dir().join(format!("lidardb_e12_{label}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = lidardb_core::wal::wal_path_for(&dir);
        let _ = std::fs::remove_file(&wal);

        let pc = PointCloud::open_ingest(&dir, durability).expect("open ingest dir");
        let lock = RwLock::new(pc);
        let done = AtomicBool::new(false);
        let queries = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        let mut ingest_seconds = 0.0f64;

        std::thread::scope(|s| {
            // Reader: governed snapshot queries racing the writer. Each
            // holds the read lock, so `visible_rows` is pinned per query;
            // the workload's x IS the row index, so the expected count is
            // exactly min(visible, cut).
            let reader = s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    {
                        let pc = lock.read().unwrap();
                        let visible = pc.visible_rows();
                        let sel = pc
                            .select_query_governed(
                                None,
                                &[lidardb_core::AttrRange::new("x", 0.0, query_cut - 0.5)],
                                RefineStrategy::default(),
                                Parallelism::Auto,
                                Some(Duration::from_secs(10)),
                                None,
                            )
                            .expect("governed query");
                        let expect = visible.min(query_cut as usize);
                        if sel.rows.len() != expect
                            || sel.rows.iter().any(|&r| r >= visible)
                        {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                        queries.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            });

            // Writer: batches straight through the WAL, final flush so the
            // tail group commit is acknowledged before "shutdown".
            let t0 = std::time::Instant::now();
            for base in (0..total).step_by(BATCH) {
                let recs: Vec<lidardb_las::PointRecord> = (base..(base + BATCH).min(total))
                    .map(|row| lidardb_las::PointRecord {
                        x: row as f64,
                        y: (row % 1000) as f64,
                        z: (row % 97) as f64,
                        intensity: (row % 5000) as u16,
                        classification: (row % 13) as u8,
                        gps_time: row as f64 * 1e-3,
                        ..Default::default()
                    })
                    .collect();
                lock.write().unwrap().ingest_records(&recs).expect("ingest batch");
            }
            lock.write().unwrap().flush_wal().expect("final flush");
            ingest_seconds = t0.elapsed().as_secs_f64();
            done.store(true, Ordering::Release);
            reader.join().expect("reader thread");
        });

        let pc = lock.into_inner().unwrap();
        assert_eq!(pc.visible_rows(), total, "all batches acknowledged");
        drop(pc);
        let wal_bytes = std::fs::metadata(&wal).map_or(0, |m| m.len());

        // Cold start: replay the whole WAL on top of the (empty) dump.
        let recovered = PointCloud::open_ingest(&dir, durability).expect("recover");
        let rep = recovered.recovery_report().expect("recovery report").clone();
        assert_eq!(rep.total_rows, total, "recovery restores every acked row");
        drop(recovered);

        let pps = total as f64 / ingest_seconds.max(1e-9);
        let (q, v) = (queries.load(Ordering::Relaxed), violations.load(Ordering::Relaxed));
        println!(
            "{label:<14} {ingest_seconds:>10.3} {pps:>12.0} {:>10.2} {:>12.4} {q:>9} {v:>11}",
            wal_bytes as f64 / (1024.0 * 1024.0),
            rep.seconds,
        );
        assert_eq!(v, 0, "snapshot violations under {label}");
        doc.param(format!("{label}.ingest_seconds"), round(ingest_seconds, 6));
        doc.param(format!("{label}.wal_bytes"), wal_bytes as f64);
        doc.param(format!("{label}.recovered_rows"), rep.replayed_rows as f64);
        doc.param(format!("{label}.queries"), q as f64);
        doc.param(format!("{label}.snapshot_violations"), v as f64);
        let pps = round(pps, 0);
        doc.cell(label, "points_per_sec", pps, "1/s", Better::Higher, REL);
        let recovery = round(rep.seconds, 6);
        doc.cell(label, "recovery_seconds", recovery, "s", Better::Lower, REL);

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&wal);
    }

    println!();
    write_bench("BENCH_ingest.json", &doc);
}

// ---------------------------------------------------------------------------
// E13 — tiled out-of-core storage
// ---------------------------------------------------------------------------

/// Flat-vs-tiled comparison over an SFC-tiled directory whose resident
/// budget is a quarter of the dataset: zone-map prune ratios, LRU
/// residency (peak must stay under the budget), and identical rows at
/// every worker count. Emits `BENCH_tiles.json`, whose cells are the
/// same per-stage p50s as E9's.
fn e13_tiles() {
    use lidardb_core::{TileOptions, TiledCloud};

    header(
        "E13 (tiled out-of-core storage)",
        "SFC-tiled segments: zone-map pruning + LRU residency, identical rows to the flat scan",
    );
    let total: usize = std::env::var("LIDARDB_E13_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000);
    const CHUNK: usize = 500_000;
    println!("building {total} synthetic points in {CHUNK}-record chunks ...");
    let mut pc = PointCloud::new();
    let mut state = 0xD1CE_BA5E_0FC0_FFEEu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut unit = move || (next() % (1u64 << 53)) as f64 / (1u64 << 53) as f64;
    let mut chunk = Vec::with_capacity(CHUNK);
    for i in 0..total {
        chunk.push(lidardb_las::PointRecord {
            x: unit() * 10_000.0,
            y: unit() * 10_000.0,
            z: unit() * 120.0,
            classification: (i % 12) as u8,
            intensity: (i % 5000) as u16,
            gps_time: i as f64 * 1e-4,
            ..Default::default()
        });
        if chunk.len() == CHUNK {
            pc.append_records(&chunk).expect("append");
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        pc.append_records(&chunk).expect("append");
    }

    let dir = std::env::temp_dir().join(format!("lidardb_e13_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (n_tiles, secs) = timed(|| {
        pc.save_tiled(&dir, &TileOptions::default()).expect("save_tiled")
    });
    let flat_bytes = pc.data_bytes() as u64;
    let budget = flat_bytes / 4;
    let tc = TiledCloud::open(&dir).expect("open tiled");
    tc.set_resident_budget(budget);
    assert!(
        flat_bytes > budget,
        "the dataset must exceed the resident budget for an out-of-core run"
    );
    println!(
        "dataset: {} points, {n_tiles} tiles, {:.1} MB columns (sealed in {secs:.1} s)",
        pc.num_points(),
        flat_bytes as f64 / 1e6
    );
    println!(
        "resident budget: {:.1} MB ({:.0}% of the dataset)\n",
        budget as f64 / 1e6,
        100.0 * budget as f64 / flat_bytes as f64
    );

    // `save_tiled` SFC-sorts the flat cloud in place, so flat row ids and
    // tiled global row ids agree — equality below is byte-for-byte.
    let bbox = SpatialPredicate::Within(Geometry::Polygon(
        Polygon::rectangle(
            &lidardb_geom::Envelope::new(1500.0, 1500.0, 7500.0, 7500.0).expect("env"),
        ),
    ));
    let diamond = SpatialPredicate::Within(Geometry::Polygon(
        Polygon::from_exterior(vec![
            Point::new(5000.0, 1000.0),
            Point::new(9000.0, 5000.0),
            Point::new(5000.0, 9000.0),
            Point::new(1000.0, 5000.0),
        ])
        .expect("diamond"),
    ));
    let queries: [(&str, &SpatialPredicate); 2] =
        [("bbox_36pct", &bbox), ("diamond_32pct", &diamond)];

    // Warm the flat imprints so flat runs are probe-only; the tiled side
    // pays its per-tile lazy builds in the first run, which median-of-3
    // with warmups below smooths out.
    for (_, pred) in &queries {
        pc.select_with(pred, RefineStrategy::default()).expect("warmup");
    }

    let modes: [(&'static str, usize); 4] =
        [("flat", 1), ("flat", 4), ("tiled", 1), ("tiled", 4)];

    let mut json_queries = Vec::new();
    for (name, pred) in &queries {
        let flat_rows = pc
            .select_query_with(
                Some(pred),
                &[],
                RefineStrategy::default(),
                Parallelism::Threads(1),
            )
            .expect("flat baseline")
            .rows;
        // One instrumented tiled pass for the prune-ratio evidence.
        let probe = tc
            .select_query_with(
                Some(pred),
                &[],
                RefineStrategy::default(),
                Parallelism::Threads(1),
            )
            .expect("tiled probe");
        assert_eq!(probe.rows, flat_rows, "tiled rows must match flat rows");
        let e = &probe.explain;
        println!(
            "query {name}: {} rows; zone maps pruned {}/{} tiles (probed {})",
            flat_rows.len(),
            e.tiles_pruned,
            e.tiles_total,
            e.tiles_probed
        );
        let prune_ratio = e.tiles_pruned as f64 / e.tiles_total.max(1) as f64;
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>14}",
            "mode", "filter ms", "bbox ms", "refine ms", "total ms", "bbox speedup"
        );
        let mut runs = Vec::new();
        let mut flat1_bbox = 0.0f64;
        for (mode, workers) in &modes {
            let mut tries: Vec<E9Run> = (0..3)
                .map(|_| {
                    let sel = if *mode == "flat" {
                        pc.select_query_with(
                            Some(pred),
                            &[],
                            RefineStrategy::default(),
                            Parallelism::Threads(*workers),
                        )
                        .expect("flat select")
                    } else {
                        tc.select_query_with(
                            Some(pred),
                            &[],
                            RefineStrategy::default(),
                            Parallelism::Threads(*workers),
                        )
                        .expect("tiled select")
                    };
                    assert_eq!(sel.rows, flat_rows, "{mode} rows diverged");
                    let e = &sel.explain;
                    E9Run {
                        mode,
                        workers: *workers,
                        t_imprints: e.t_imprints,
                        t_bbox: e.t_bbox,
                        t_refine: e.t_refine,
                        t_total: e.total_seconds(),
                    }
                })
                .collect();
            tries.sort_by(|a, b| a.t_bbox.total_cmp(&b.t_bbox));
            let run = tries.remove(1);
            if *mode == "flat" && *workers == 1 {
                flat1_bbox = run.t_bbox;
            }
            println!(
                "{:<14} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>13.2}x",
                format!("{mode}({workers})"),
                run.t_imprints * 1e3,
                run.t_bbox * 1e3,
                run.t_refine * 1e3,
                run.t_total * 1e3,
                flat1_bbox / run.t_bbox.max(1e-12)
            );
            runs.push(run);
        }
        json_queries.push((name.to_string(), flat_rows.len(), prune_ratio, flat1_bbox, runs));
    }

    assert!(
        tc.peak_resident_bytes() <= budget,
        "peak resident {} exceeded the budget {}",
        tc.peak_resident_bytes(),
        budget
    );
    println!(
        "\nresidency: peak {:.1} MB of {:.1} MB budget; {} tile loads, {} evictions",
        tc.peak_resident_bytes() as f64 / 1e6,
        budget as f64 / 1e6,
        tc.tile_loads(),
        tc.tile_evictions()
    );

    let mut doc = bench_doc("e13_tiled_query");
    doc.param("points", pc.num_points() as f64);
    doc.param("tiles", n_tiles as f64);
    doc.param("dataset_bytes", flat_bytes as f64);
    doc.param("resident_budget_bytes", budget as f64);
    doc.param("peak_resident_bytes", tc.peak_resident_bytes() as f64);
    for (name, rows, prune_ratio, flat1_bbox, runs) in &json_queries {
        doc.param(format!("{name}.rows"), *rows as f64);
        doc.param(format!("{name}.tile_prune_ratio"), round(*prune_ratio, 3));
        for r in runs {
            let key = format!("{name}/{}/{}", r.mode, r.workers);
            let speedup = round(flat1_bbox / r.t_bbox.max(1e-12), 3);
            doc.param(format!("{key}.bbox_speedup_vs_serial"), speedup);
            r.push_cells(&mut doc, &key);
        }
    }
    write_bench("BENCH_tiles.json", &doc);

    let _ = std::fs::remove_dir_all(&dir);
}
