//! Inputs and program set-up for each workload.
//!
//! Inputs (scene, LAS tiles, reference answers) are generated once per
//! run and are not part of set-up. Set-up is everything the program pays
//! before it can answer the first statement: bulk load, imprint build,
//! tile sealing or base sealing and reopening, and server bind. It runs
//! in fresh child processes; the measuring process then serves what the
//! last of them left on disk, as a restarted server would.

use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use lidardb::core::{Durability, LoadMethod, Loader, PointCloud, TileOptions, TiledCloud};
use lidardb::datagen::{Scene, SceneConfig};
use lidardb::las::Compression;
use lidardb::sql::Catalog;
use lidardb_server::{Server, ServerHandle};

use crate::stream::Extent;

/// Scene side in metres.
pub const SCENE_EXTENT: f64 = 800.0;
/// Nominal pulses per square metre.
pub const DENSITY: f64 = 2.0;
/// LAS tiles per scene side (25 files).
pub const TILES_PER_SIDE: usize = 5;
/// Point-cloud table name of navigate and analyze.
pub const POINTS: &str = "points";
/// Streaming table name of ingest.
pub const SURVEY: &str = "survey";
/// Columns analyze and ingest index at set-up (the statements probe them).
const ANALYZE_INDEXED: [&str; 3] = ["x", "y", "classification"];
pub const INGEST_INDEXED: [&str; 2] = ["x", "y"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Navigate,
    Analyze,
    Ingest,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "navigate" => Some(Workload::Navigate),
            "analyze" => Some(Workload::Analyze),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Navigate => "navigate",
            Workload::Analyze => "analyze",
            Workload::Ingest => "ingest",
        }
    }
}

/// The seeded scene and the LAS tiles written from it.
pub struct Inputs {
    pub scene: Scene,
    pub las: Vec<PathBuf>,
    pub las_bytes: u64,
}

pub fn scene(seed: u64) -> Scene {
    Scene::generate(SceneConfig {
        seed,
        extent_m: SCENE_EXTENT,
        ..SceneConfig::default()
    })
}

pub fn extent(scene: &Scene) -> Extent {
    let e = scene.envelope();
    Extent {
        min_x: e.min_x,
        min_y: e.min_y,
        size: e.width(),
    }
}

/// Generate the scene and write its LAS tiles under `dir`.
pub fn generate(seed: u64, dir: &Path) -> Result<Inputs, String> {
    let scene = scene(seed);
    let las = lidardb::write_scene_tiles(&scene, dir, TILES_PER_SIDE, DENSITY, Compression::None)
        .map_err(|e| format!("write tiles: {e}"))?;
    let las_bytes = las
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    Ok(Inputs {
        scene,
        las,
        las_bytes,
    })
}

/// The LAS tiles of an input directory, in file (= tile) order.
pub fn las_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "las"))
        .collect();
    v.sort();
    Ok(v)
}

/// Wall time of each set-up phase, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub points: usize,
    pub load_s: f64,
    pub imprints_s: f64,
    /// `save_tiled` (navigate) or the base dump (ingest).
    pub seal_s: f64,
    /// Opening the tiled directory or the ingest base.
    pub open_s: f64,
    pub bind_s: f64,
    pub total_s: f64,
    pub column_bytes: usize,
    pub index_bytes: usize,
}

/// The table a workload's server serves.
pub enum Table {
    Tiled(Arc<TiledCloud>),
    Flat(Arc<PointCloud>),
    Stream(Arc<RwLock<PointCloud>>),
}

/// A served workload: the running server and the embedded catalog over
/// the same table.
pub struct Fixture {
    pub server: ServerHandle,
    pub catalog: Catalog,
    pub table: Table,
    /// Ingest base directory (its WAL sits beside it), or the tiled dir.
    pub dir: PathBuf,
    pub times: SetupTimes,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The full set-up a server pays when it starts from the LAS tiles: bulk
/// load, then per workload: seal the Hilbert-tiled copy and open it
/// (navigate), build the imprints (analyze), or seal the base survey and
/// open it for ingest (ingest); then bind the server. Writes under `dir`.
pub fn setup(w: Workload, scene: &Scene, las: &[PathBuf], dir: &Path) -> Result<Fixture, String> {
    let mut t = SetupTimes::default();
    let t_all = Instant::now();
    let t0 = Instant::now();
    let mut pc = PointCloud::new();
    Loader::new(LoadMethod::Binary)
        .load_files(&mut pc, las)
        .map_err(|e| format!("bulk load: {e}"))?;
    t.load_s = secs(t0);
    t.points = pc.num_points();
    t.column_bytes = pc.data_bytes();
    let (catalog, table) = match w {
        Workload::Navigate => {
            let t0 = Instant::now();
            pc.save_tiled(tiled_dir(dir), &TileOptions::default())
                .map_err(|e| format!("save_tiled: {e}"))?;
            drop(pc);
            t.seal_s = secs(t0);
            open_tiled(dir, &mut t)?
        }
        Workload::Analyze => {
            let t0 = Instant::now();
            for col in ANALYZE_INDEXED {
                pc.imprints_for(col)
                    .map_err(|e| format!("imprints {col}: {e}"))?;
            }
            t.imprints_s = secs(t0);
            t.index_bytes = pc.index_bytes();
            let pc = Arc::new(pc);
            (
                lidardb::scene_catalog(Arc::clone(&pc), scene),
                Table::Flat(pc),
            )
        }
        Workload::Ingest => {
            let t0 = Instant::now();
            pc.save_dir(base_dir(dir))
                .map_err(|e| format!("save base: {e}"))?;
            drop(pc);
            t.seal_s = secs(t0);
            open_base(dir, &mut t)?
        }
    };
    bind(catalog, table, dir, t, t_all)
}

/// Start serving from what [`setup`] left in `dir`, as a restarted server
/// does: open the tiled copy (navigate) or the sealed base (ingest).
/// Analyze keeps nothing on disk, so serving it is the full set-up.
pub fn serve(
    w: Workload,
    scene: &Scene,
    las: &[PathBuf],
    dir: &Path,
    column_bytes: usize,
) -> Result<Fixture, String> {
    let mut t = SetupTimes {
        column_bytes,
        ..SetupTimes::default()
    };
    let t_all = Instant::now();
    let (catalog, table) = match w {
        Workload::Navigate => open_tiled(dir, &mut t)?,
        Workload::Analyze => return setup(w, scene, las, dir),
        Workload::Ingest => open_base(dir, &mut t)?,
    };
    bind(catalog, table, dir, t, t_all)
}

fn tiled_dir(dir: &Path) -> PathBuf {
    dir.join("tiled")
}

fn base_dir(dir: &Path) -> PathBuf {
    dir.join("base")
}

/// Open the tiled copy lazily, with a tile cache of a quarter of the
/// column bytes.
fn open_tiled(dir: &Path, t: &mut SetupTimes) -> Result<(Catalog, Table), String> {
    let t0 = Instant::now();
    let tc = TiledCloud::open(tiled_dir(dir)).map_err(|e| format!("open tiled: {e}"))?;
    tc.set_resident_budget(t.column_bytes as u64 / 4);
    t.points = tc.num_points();
    t.open_s = secs(t0);
    let tc = Arc::new(tc);
    let mut c = Catalog::new();
    c.register_tiled(POINTS, Arc::clone(&tc));
    Ok((c, Table::Tiled(tc)))
}

/// Open the sealed base survey for ingest and index it.
fn open_base(dir: &Path, t: &mut SetupTimes) -> Result<(Catalog, Table), String> {
    let t0 = Instant::now();
    let pc = PointCloud::open_ingest(base_dir(dir), Durability::default())
        .map_err(|e| format!("open ingest: {e}"))?;
    t.open_s = secs(t0);
    t.points = pc.num_points();
    t.column_bytes = pc.data_bytes();
    let t0 = Instant::now();
    for col in INGEST_INDEXED {
        pc.imprints_for(col)
            .map_err(|e| format!("imprints {col}: {e}"))?;
    }
    t.imprints_s = secs(t0);
    t.index_bytes = pc.index_bytes();
    let pc = Arc::new(RwLock::new(pc));
    let mut c = Catalog::new();
    c.register_stream(SURVEY, Arc::clone(&pc));
    Ok((c, Table::Stream(pc)))
}

fn bind(
    catalog: Catalog,
    table: Table,
    dir: &Path,
    mut t: SetupTimes,
    t_all: Instant,
) -> Result<Fixture, String> {
    let t0 = Instant::now();
    let server = Server::bind("127.0.0.1:0", catalog.clone())
        .and_then(Server::spawn)
        .map_err(|e| format!("server bind: {e}"))?;
    t.bind_s = secs(t0);
    t.total_s = secs(t_all);
    let dir = match &table {
        Table::Tiled(_) => tiled_dir(dir),
        Table::Stream(_) => base_dir(dir),
        Table::Flat(_) => dir.to_path_buf(),
    };
    Ok(Fixture {
        server,
        catalog,
        table,
        dir,
        times: t,
    })
}

/// Bytes under `path` (a file or a directory tree).
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| disk_bytes(&e.path()))
                .sum()
        })
        .unwrap_or(0)
}
