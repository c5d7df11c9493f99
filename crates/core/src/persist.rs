//! On-disk persistence of the flat table as per-column binary dumps.
//!
//! §3.2 of the paper: the loader "generates a new file that is the binary
//! dump of a C-array containing the values of the property for all
//! points" — MonetDB's BAT storage is exactly one memory-mappable file per
//! column. This module round-trips a [`PointCloud`] through that layout:
//! a directory with one `<column>.bin` little-endian dump per column plus
//! a manifest for validation.
//!
//! # Durability model
//!
//! Saves are **atomic**: all dumps and the manifest are written to a
//! staging directory next to the target, then committed with a single
//! `rename`. A crash at any point leaves either the old state or the new
//! state at the target path — never a hybrid, and never a directory that
//! [`PointCloud::open_dir`] accepts by accident (the staging name is not
//! the target name).
//!
//! Integrity is **checksummed** (manifest v2): each column dump gets a
//! CRC-32 recorded in the manifest, and the manifest itself carries a
//! trailing CRC-32 over its own preceding bytes. `open_dir` and
//! [`validate_dir`] verify every checksum, so any single-byte (in fact,
//! any ≤32-bit burst) corruption of any file is detected. Version-1
//! directories (no checksums) written by earlier builds still open; they
//! get size validation only.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use lidardb_las::{point_schema, COLUMN_NAMES};
use lidardb_storage::{TileMeta, TileSet, ZoneEntry};

use crate::crc::crc32;
use crate::error::CoreError;
use crate::fault::{FaultInjector, FaultKind, FaultStage};
use crate::pointcloud::PointCloud;
use crate::wal::Durability;

/// Manifest file name.
const MANIFEST: &str = "MANIFEST.lidardb";

/// Current manifest format version (v2 = per-column checksums).
const VERSION: u32 = 2;

/// Header line of a tiled (v3) root manifest. A tiled directory holds this
/// root manifest plus one `tile_NNNNN/` subdirectory per tile, each of
/// which is a complete, self-validating v2 flat-table dump.
pub(crate) const TILED_HEADER: &str = "lidardb tiled table";

/// Tiled root-manifest format version.
const TILED_VERSION: u32 = 3;

/// Directory name of tile `id` inside a tiled dump.
pub(crate) fn tile_dir_name(id: usize) -> String {
    format!("tile_{id:05}")
}

fn io_err(e: std::io::Error) -> CoreError {
    CoreError::Las(lidardb_las::LasError::Io(e))
}

/// Write-path I/O mapping: device exhaustion (`ENOSPC`/`EIO`) becomes the
/// typed [`CoreError::StorageExhausted`] so the owning table can enter
/// read-only degraded mode; anything else stays a plain I/O error.
fn wio_err(e: std::io::Error) -> CoreError {
    if crate::error::is_storage_exhausted_io(&e) {
        CoreError::StorageExhausted(format!("dump write: {e}"))
    } else {
        io_err(e)
    }
}

fn corrupt(msg: impl Into<String>) -> CoreError {
    CoreError::Corrupt(msg.into())
}

/// Parsed manifest, shared by `open_dir` and `validate_dir` so the two
/// enforce identical invariants.
#[derive(Debug, Clone, PartialEq)]
struct Manifest {
    version: u32,
    rows: usize,
    /// Per-column CRC-32 of the dump bytes; `None` for v1 manifests.
    checksums: Option<HashMap<String, u32>>,
}

impl Manifest {
    /// Render the v2 manifest text, including its trailing self-CRC.
    fn render_v2(rows: usize, checksums: &[(String, u32)]) -> String {
        let mut text = format!(
            "lidardb flat table\nversion {VERSION}\nrows {rows}\ncolumns {}\n",
            COLUMN_NAMES.join(",")
        );
        for (name, crc) in checksums {
            text.push_str(&format!("checksum {name} {crc}\n"));
        }
        text.push_str(&format!("manifest_crc {}\n", crc32(text.as_bytes())));
        text
    }

    /// Parse and validate manifest text (header, version, row count,
    /// column list; for v2 also the manifest self-CRC and checksum
    /// coverage of every column).
    fn parse(text: &str) -> Result<Manifest, CoreError> {
        let mut lines = text.lines();
        if lines.next() != Some("lidardb flat table") {
            return Err(corrupt("manifest: bad header line"));
        }
        let mut version: Option<u32> = None;
        let mut rows: Option<usize> = None;
        let mut columns: Option<String> = None;
        let mut checksums: HashMap<String, u32> = HashMap::new();
        let mut manifest_crc: Option<u32> = None;
        for line in lines {
            if let Some(v) = line.strip_prefix("version ") {
                version = v.trim().parse().ok();
            } else if let Some(v) = line.strip_prefix("rows ") {
                rows = v.trim().parse().ok();
            } else if let Some(v) = line.strip_prefix("columns ") {
                columns = Some(v.trim().to_string());
            } else if let Some(v) = line.strip_prefix("checksum ") {
                let mut it = v.split_whitespace();
                match (
                    it.next(),
                    it.next().and_then(|c| c.parse::<u32>().ok()),
                    it.next(),
                ) {
                    (Some(name), Some(crc), None) => {
                        checksums.insert(name.to_string(), crc);
                    }
                    _ => return Err(corrupt(format!("manifest: bad checksum line {line:?}"))),
                }
            } else if let Some(v) = line.strip_prefix("manifest_crc ") {
                manifest_crc = v.trim().parse().ok();
            }
        }
        let version = match version {
            Some(v @ (1 | 2)) => v,
            Some(v) => return Err(corrupt(format!("manifest: unsupported version {v}"))),
            None => return Err(corrupt("manifest: missing version")),
        };
        let rows = rows.ok_or_else(|| corrupt("manifest: missing row count"))?;
        if columns.as_deref() != Some(&COLUMN_NAMES.join(",")) {
            return Err(corrupt("manifest: column list mismatch"));
        }
        if version == 1 {
            return Ok(Manifest {
                version,
                rows,
                checksums: None,
            });
        }
        // v2: the manifest must checksum itself and every column.
        let declared = manifest_crc.ok_or_else(|| corrupt("manifest: missing manifest_crc"))?;
        // invariant: `manifest_crc` was Some above, which only happens after
        // the line-scan saw a "manifest_crc " line in `text` — find() cannot
        // miss it, so this expect is unreachable on any input, forged or not.
        let body_end = text
            .find("manifest_crc ")
            .expect("manifest_crc line parsed above");
        if crc32(&text.as_bytes()[..body_end]) != declared {
            return Err(corrupt("manifest: self-checksum mismatch"));
        }
        for name in COLUMN_NAMES {
            if !checksums.contains_key(name) {
                return Err(corrupt(format!("manifest: missing checksum for {name}")));
            }
        }
        Ok(Manifest {
            version,
            rows,
            checksums: Some(checksums),
        })
    }
}

/// Parsed tiled (v3) root manifest: the tile layout of a sealed segment.
/// The per-tile column data lives in `tile_NNNNN/` subdirectories, each a
/// self-validating v2 dump, so tiles load independently and lazily.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TiledManifest {
    /// Total rows across every tile.
    pub(crate) rows: usize,
    /// Space-filling curve the rows are clustered by (`hilbert`/`morton`).
    pub(crate) curve: String,
    /// Quantizer resolution (bits per axis) used for the SFC keys.
    pub(crate) bits: u32,
    /// Tile layout: row ranges, key ranges and zone maps, in row order.
    pub(crate) tiles: TileSet,
}

impl TiledManifest {
    /// Render the v3 root-manifest text, including its trailing self-CRC.
    /// Zone bounds are `f64` shortest-round-trip decimals (`Display`), so
    /// parsing restores bit-identical pruning behaviour.
    fn render(&self) -> String {
        let mut text = format!(
            "{TILED_HEADER}\nversion {TILED_VERSION}\nrows {}\ncolumns {}\ncurve {}\nbits {}\ntiles {}\n",
            self.rows,
            COLUMN_NAMES.join(","),
            self.curve,
            self.bits,
            self.tiles.len(),
        );
        for t in &self.tiles.tiles {
            text.push_str(&format!(
                "tile {} {} {} {} {}\n",
                t.id, t.row_start, t.row_end, t.key_lo, t.key_hi
            ));
        }
        for t in &self.tiles.tiles {
            for z in &t.zones {
                text.push_str(&format!("zone {} {} {} {}\n", t.id, z.column, z.min, z.max));
            }
        }
        text.push_str(&format!("manifest_crc {}\n", crc32(text.as_bytes())));
        text
    }

    /// Parse and validate v3 root-manifest text: header, version, self-CRC,
    /// column list, and the tile layout (contiguous row ranges starting at
    /// 0 and ending at `rows`, ids in order, ordered key ranges).
    pub(crate) fn parse(text: &str) -> Result<TiledManifest, CoreError> {
        let mut lines = text.lines();
        if lines.next() != Some(TILED_HEADER) {
            return Err(corrupt("tiled manifest: bad header line"));
        }
        let mut version: Option<u32> = None;
        let mut rows: Option<usize> = None;
        let mut columns: Option<String> = None;
        let mut curve: Option<String> = None;
        let mut bits: Option<u32> = None;
        let mut tile_count: Option<usize> = None;
        let mut tiles: Vec<TileMeta> = Vec::new();
        let mut manifest_crc: Option<u32> = None;
        for line in lines {
            if let Some(v) = line.strip_prefix("version ") {
                version = v.trim().parse().ok();
            } else if let Some(v) = line.strip_prefix("rows ") {
                rows = v.trim().parse().ok();
            } else if let Some(v) = line.strip_prefix("columns ") {
                columns = Some(v.trim().to_string());
            } else if let Some(v) = line.strip_prefix("curve ") {
                curve = Some(v.trim().to_string());
            } else if let Some(v) = line.strip_prefix("bits ") {
                bits = v.trim().parse().ok();
            } else if let Some(v) = line.strip_prefix("tiles ") {
                tile_count = v.trim().parse().ok();
            } else if let Some(v) = line.strip_prefix("tile ") {
                let f: Vec<&str> = v.split_whitespace().collect();
                let parsed = (|| {
                    let [id, rs, re, klo, khi] = f.as_slice() else {
                        return None;
                    };
                    Some(TileMeta {
                        id: id.parse().ok()?,
                        row_start: rs.parse().ok()?,
                        row_end: re.parse().ok()?,
                        key_lo: klo.parse().ok()?,
                        key_hi: khi.parse().ok()?,
                        zones: Vec::new(),
                    })
                })();
                match parsed {
                    Some(t) => tiles.push(t),
                    None => return Err(corrupt(format!("tiled manifest: bad tile line {line:?}"))),
                }
            } else if let Some(v) = line.strip_prefix("zone ") {
                let f: Vec<&str> = v.split_whitespace().collect();
                let parsed = (|| {
                    let [tid, col, lo, hi] = f.as_slice() else {
                        return None;
                    };
                    let tid: usize = tid.parse().ok()?;
                    let entry = ZoneEntry {
                        column: col.to_string(),
                        min: lo.parse().ok()?,
                        max: hi.parse().ok()?,
                    };
                    Some((tid, entry))
                })();
                match parsed {
                    Some((tid, entry)) if tid < tiles.len() => tiles[tid].zones.push(entry),
                    _ => return Err(corrupt(format!("tiled manifest: bad zone line {line:?}"))),
                }
            } else if let Some(v) = line.strip_prefix("manifest_crc ") {
                manifest_crc = v.trim().parse().ok();
            }
        }
        match version {
            Some(v) if v == TILED_VERSION => {}
            Some(v) => return Err(corrupt(format!("tiled manifest: unsupported version {v}"))),
            None => return Err(corrupt("tiled manifest: missing version")),
        }
        let rows = rows.ok_or_else(|| corrupt("tiled manifest: missing row count"))?;
        if columns.as_deref() != Some(&COLUMN_NAMES.join(",")) {
            return Err(corrupt("tiled manifest: column list mismatch"));
        }
        let curve = curve.ok_or_else(|| corrupt("tiled manifest: missing curve"))?;
        let bits = bits.ok_or_else(|| corrupt("tiled manifest: missing bits"))?;
        let declared =
            manifest_crc.ok_or_else(|| corrupt("tiled manifest: missing manifest_crc"))?;
        let body_end = text
            .find("manifest_crc ")
            .expect("manifest_crc line parsed above");
        if crc32(&text.as_bytes()[..body_end]) != declared {
            return Err(corrupt("tiled manifest: self-checksum mismatch"));
        }
        if tile_count != Some(tiles.len()) {
            return Err(corrupt("tiled manifest: tile count mismatch"));
        }
        if tiles.is_empty() {
            return Err(corrupt("tiled manifest: no tiles"));
        }
        let mut next_row = 0usize;
        for (i, t) in tiles.iter().enumerate() {
            if t.id != i {
                return Err(corrupt(format!("tiled manifest: tile id {} out of order", t.id)));
            }
            if t.row_start != next_row || t.row_end < t.row_start {
                return Err(corrupt(format!("tiled manifest: tile {} rows not contiguous", i)));
            }
            if t.key_lo > t.key_hi {
                return Err(corrupt(format!("tiled manifest: tile {} key range inverted", i)));
            }
            next_row = t.row_end;
        }
        if next_row != rows {
            return Err(corrupt(format!(
                "tiled manifest: tiles cover {next_row} rows, manifest declares {rows}"
            )));
        }
        Ok(TiledManifest {
            rows,
            curve,
            bits,
            tiles: TileSet { tiles },
        })
    }
}

/// Read the raw manifest text of a saved-table directory (flat or tiled),
/// applying any armed read faults.
fn read_manifest_text(dir: &Path, fi: Option<&FaultInjector>) -> Result<String, CoreError> {
    let mut bytes = std::fs::read(dir.join(MANIFEST)).map_err(io_err)?;
    if let Some(kind) = fi.and_then(|fi| fi.fire(FaultStage::ReadManifest, MANIFEST)) {
        if kind == FaultKind::IoError {
            return Err(io_err(kind.to_io_error()));
        }
        kind.corrupt(&mut bytes);
    }
    String::from_utf8(bytes).map_err(|_| corrupt("manifest: not UTF-8"))
}

/// Read and parse the (flat v1/v2) manifest of a saved-table directory.
fn read_manifest(dir: &Path, fi: Option<&FaultInjector>) -> Result<Manifest, CoreError> {
    Manifest::parse(&read_manifest_text(dir, fi)?)
}

/// Whether `dir` holds *some* valid manifest — flat or tiled. Used by
/// stale-dir recovery to decide if a `.replaced` copy is worth rolling
/// back.
fn manifest_ok(dir: &Path) -> bool {
    match read_manifest_text(dir, None) {
        Ok(text) if text.starts_with(TILED_HEADER) => TiledManifest::parse(&text).is_ok(),
        Ok(text) => Manifest::parse(&text).is_ok(),
        Err(_) => false,
    }
}

/// Read one column dump and verify its size (and CRC, for v2 manifests).
fn read_column(
    dir: &Path,
    manifest: &Manifest,
    field: &lidardb_storage::Field,
    fi: Option<&FaultInjector>,
) -> Result<Vec<u8>, CoreError> {
    let path = dir.join(format!("{}.bin", field.name));
    let mut bytes = std::fs::read(&path).map_err(io_err)?;
    if let Some(kind) = fi.and_then(|fi| fi.fire(FaultStage::ReadColumn, &field.name)) {
        if kind == FaultKind::IoError {
            return Err(io_err(kind.to_io_error()));
        }
        kind.corrupt(&mut bytes);
    }
    // `rows` is an untrusted count parsed from the manifest text: multiply
    // checked so a forged row count (e.g. u64::MAX in a v1 manifest, which
    // carries no checksums) is rejected instead of overflowing.
    let expected = manifest
        .rows
        .checked_mul(field.ptype.size())
        .ok_or_else(|| corrupt("manifest: row count overflows byte size"))?;
    if bytes.len() != expected {
        return Err(corrupt(format!(
            "column file {} has {} bytes, manifest expects {expected}",
            path.display(),
            bytes.len()
        )));
    }
    if let Some(sums) = &manifest.checksums {
        let declared = sums[field.name.as_str()];
        let actual = crc32(&bytes);
        if actual != declared {
            return Err(corrupt(format!(
                "column file {} checksum mismatch: manifest {declared}, data {actual}",
                path.display()
            )));
        }
    }
    Ok(bytes)
}

/// A staging directory that removes itself on drop unless committed.
struct Staging {
    path: PathBuf,
    committed: bool,
}

impl Staging {
    fn for_target(target: &Path) -> Result<Staging, CoreError> {
        let name = target
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| corrupt(format!("bad save path {}", target.display())))?;
        // Unique per process+cloud so concurrent saves to different
        // targets never collide; the leading dot keeps it out of globs.
        let staging = target.with_file_name(format!(
            ".{name}.staging.{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&staging); // stale leftover from a crash
        std::fs::create_dir_all(&staging).map_err(io_err)?;
        Ok(Staging {
            path: staging,
            committed: false,
        })
    }

    /// Atomically move the staged state to `target`, replacing whatever
    /// is there. The new state appears at `target` in one rename.
    fn commit(mut self, target: &Path, fi: Option<&FaultInjector>) -> Result<(), CoreError> {
        // `rename` cannot replace a non-empty directory, so an existing
        // target is moved aside first and dropped after the swap. The
        // crash window between the two renames leaves *no* directory at
        // the target — never a partial one; [`recover_stale_dirs`] rolls
        // the `.replaced` copy back on the next open.
        let old = self.path.with_extension("replaced");
        let _ = std::fs::remove_dir_all(&old);
        let had_old = match std::fs::rename(target, &old) {
            Ok(()) => true,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(io_err(e)),
        };
        if fi
            .and_then(|fi| fi.fire(FaultStage::Commit, "swap"))
            .is_some()
        {
            // Simulated kill inside the two-rename window: the old state
            // sits at `.replaced`, the staged state never reached the
            // target. A real crash leaves both directories on disk, so
            // the abandoned staging dir must survive Drop too.
            self.committed = true;
            return Err(corrupt("injected crash between commit renames"));
        }
        if let Err(e) = std::fs::rename(&self.path, target) {
            // Roll the old state back so a failed commit is a no-op.
            if had_old {
                let _ = std::fs::rename(&old, target);
            }
            return Err(io_err(e));
        }
        self.committed = true;
        if had_old {
            let _ = std::fs::remove_dir_all(&old);
        }
        Ok(())
    }
}

impl Drop for Staging {
    fn drop(&mut self) {
        if !self.committed {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// fsync an already-open file, honouring the durability policy.
fn sync_file(f: &std::fs::File, durability: Durability) -> Result<(), CoreError> {
    if durability == Durability::None {
        return Ok(());
    }
    f.sync_all().map_err(wio_err)
}

/// fsync a *directory*, making the renames/creates inside it durable.
/// A `rename` only becomes crash-safe once its parent directory entry is
/// flushed — syncing the files alone is not enough.
fn sync_dir(dir: &Path, durability: Durability) -> Result<(), CoreError> {
    if durability == Durability::None {
        return Ok(());
    }
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(wio_err)
}

impl PointCloud {
    /// Write the table as one binary dump per column plus a checksummed
    /// manifest, atomically (staging directory + rename) and **durably**:
    /// every dump, the manifest and the parent directory entry are
    /// fsynced before the call returns.
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> Result<(), CoreError> {
        self.save_dir_inner(dir, None, Durability::Always)
    }

    /// [`PointCloud::save_dir`] with an explicit [`Durability`]:
    /// `Durability::None` skips every fsync (bulk loads that end with an
    /// explicit durable save); anything else syncs like `save_dir`.
    pub fn save_dir_durable(
        &self,
        dir: impl AsRef<Path>,
        durability: Durability,
    ) -> Result<(), CoreError> {
        self.save_dir_inner(dir, None, durability)
    }

    /// [`PointCloud::save_dir`] with fault-injection hooks (tests only).
    pub fn save_dir_with_faults(
        &self,
        dir: impl AsRef<Path>,
        fi: Option<&FaultInjector>,
    ) -> Result<(), CoreError> {
        self.save_dir_inner(dir, fi, Durability::Always)
    }

    pub(crate) fn save_dir_inner(
        &self,
        dir: impl AsRef<Path>,
        fi: Option<&FaultInjector>,
        durability: Durability,
    ) -> Result<(), CoreError> {
        let mut pspan = crate::trace::span(crate::trace::SpanKind::Stage(
            crate::metrics::Stage::PersistSave,
        ));
        pspan.set_rows(self.num_points() as u64, self.num_points() as u64);
        if fi.is_some() {
            pspan.add_flags(crate::trace::FLAG_FAULT);
        }
        let t0 = std::time::Instant::now();
        let dir = dir.as_ref();
        if let Some(parent) = dir.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(io_err)?;
            }
        }
        let staging = Staging::for_target(dir)?;
        let schema = point_schema();
        let mut checksums = Vec::with_capacity(schema.width());
        for field in schema.fields() {
            let col = self.column(&field.name)?;
            let mut bytes = col.to_le_bytes();
            // CRC first, fault second: an injected write fault models bits
            // rotting after the checksum was taken, so it stays detectable.
            checksums.push((field.name.clone(), crc32(&bytes)));
            if let Some(kind) = fi.and_then(|fi| fi.fire(FaultStage::WriteColumn, &field.name)) {
                match kind {
                    FaultKind::IoError => return Err(io_err(kind.to_io_error())),
                    FaultKind::Crash => return Err(corrupt("injected crash during column write")),
                    _ => kind.corrupt(&mut bytes),
                }
            }
            let path = staging.path.join(format!("{}.bin", field.name));
            let mut f =
                std::io::BufWriter::new(std::fs::File::create(&path).map_err(wio_err)?);
            f.write_all(&bytes)
                .and_then(|()| f.flush())
                .map_err(wio_err)?;
            // Regression: the dump used to leave the page cache unflushed,
            // so a power cut after a "successful" save could lose or tear
            // column bytes the checksums were computed over.
            sync_file(f.get_ref(), durability)?;
        }
        let mut manifest = Manifest::render_v2(self.num_points(), &checksums).into_bytes();
        if let Some(kind) = fi.and_then(|fi| fi.fire(FaultStage::WriteManifest, MANIFEST)) {
            match kind {
                FaultKind::IoError => return Err(io_err(kind.to_io_error())),
                FaultKind::Crash => return Err(corrupt("injected crash during manifest write")),
                _ => kind.corrupt(&mut manifest),
            }
        }
        {
            let mut f =
                std::fs::File::create(staging.path.join(MANIFEST)).map_err(wio_err)?;
            f.write_all(&manifest).map_err(wio_err)?;
            sync_file(&f, durability)?;
        }
        // The staged files themselves must be durable before the commit
        // rename: otherwise the rename can survive a crash while the
        // content it points at does not.
        sync_dir(&staging.path, durability)?;
        if fi
            .and_then(|fi| fi.fire(FaultStage::Commit, MANIFEST))
            .is_some()
        {
            // Simulated kill right before the commit rename: the staging
            // directory is abandoned (cleaned by Drop), the target keeps
            // its previous state.
            return Err(corrupt("injected crash before commit"));
        }
        staging.commit(dir, fi)?;
        if let Some(kind) = fi.and_then(|fi| fi.fire(FaultStage::Commit, "fsync")) {
            return Err(match kind {
                FaultKind::IoError => io_err(kind.to_io_error()),
                other => corrupt(format!("injected {other:?} before parent-dir fsync")),
            });
        }
        // And the commit rename itself must reach the disk: fsync the
        // parent directory that holds the renamed entry.
        if let Some(parent) = dir.parent() {
            if !parent.as_os_str().is_empty() {
                sync_dir(parent, durability)?;
            }
        }
        crate::metrics::MetricsRegistry::global().record_stage(
            crate::metrics::Stage::PersistSave,
            self.num_points(),
            t0.elapsed(),
        );
        Ok(())
    }

    /// Load a table previously written by [`PointCloud::save_dir`].
    /// Verifies every checksum the manifest declares.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, CoreError> {
        Self::open_dir_with_faults(dir, None)
    }

    /// [`PointCloud::open_dir`] with fault-injection hooks (tests only).
    pub fn open_dir_with_faults(
        dir: impl AsRef<Path>,
        fi: Option<&FaultInjector>,
    ) -> Result<Self, CoreError> {
        let mut pspan = crate::trace::span(crate::trace::SpanKind::Stage(
            crate::metrics::Stage::PersistLoad,
        ));
        if fi.is_some() {
            pspan.add_flags(crate::trace::FLAG_FAULT);
        }
        let t0 = std::time::Instant::now();
        let dir = dir.as_ref();
        recover_stale_dirs(dir)?;
        let text = read_manifest_text(dir, fi)?;
        if text.starts_with(TILED_HEADER) {
            // v3 tiled dump: eager-load every tile into one flat table, so
            // existing flat-table consumers (including `open_ingest`) keep
            // working on a sealed-tiled directory. The lazy out-of-core
            // path is [`crate::segment::TiledCloud::open`].
            let tm = TiledManifest::parse(&text)?;
            let pc = open_tiled_eager(dir, &tm, fi)?;
            crate::metrics::MetricsRegistry::global().record_stage(
                crate::metrics::Stage::PersistLoad,
                pc.num_points(),
                t0.elapsed(),
            );
            pspan.set_rows(pc.num_points() as u64, pc.num_points() as u64);
            return Ok(pc);
        }
        let manifest = Manifest::parse(&text)?;
        let mut pc = PointCloud::new();
        let schema = point_schema();
        let mut dumps = Vec::with_capacity(schema.width());
        for field in schema.fields() {
            dumps.push(read_column(dir, &manifest, field, fi)?);
        }
        pc.append_dumps(&dumps)?;
        if pc.num_points() != manifest.rows {
            return Err(corrupt(format!(
                "table reassembled to {} rows, manifest declares {}",
                pc.num_points(),
                manifest.rows
            )));
        }
        crate::metrics::MetricsRegistry::global().record_stage(
            crate::metrics::Stage::PersistLoad,
            pc.num_points(),
            t0.elapsed(),
        );
        pspan.set_rows(pc.num_points() as u64, pc.num_points() as u64);
        Ok(pc)
    }
}

/// Write a tiled (v3) dump of an **SFC-sorted** point cloud: one
/// `tile_NNNNN/` v2 flat dump per tile plus the v3 root manifest, staged
/// and committed atomically exactly like [`PointCloud::save_dir`]. The
/// cloud's rows must already be in tile order — each tile is a contiguous
/// byte slice of every column dump.
pub(crate) fn save_tiled_inner(
    pc: &PointCloud,
    dir: &Path,
    tm: &TiledManifest,
    durability: Durability,
) -> Result<(), CoreError> {
    let mut pspan = crate::trace::span(crate::trace::SpanKind::Stage(
        crate::metrics::Stage::PersistSave,
    ));
    pspan.set_rows(pc.num_points() as u64, pc.num_points() as u64);
    let t0 = std::time::Instant::now();
    if tm.rows != pc.num_points() || tm.tiles.total_rows() != pc.num_points() {
        return Err(corrupt("tiled save: tile layout does not cover the table"));
    }
    if let Some(parent) = dir.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(io_err)?;
        }
    }
    let staging = Staging::for_target(dir)?;
    let schema = point_schema();
    for t in &tm.tiles.tiles {
        std::fs::create_dir_all(staging.path.join(tile_dir_name(t.id))).map_err(io_err)?;
    }
    // Column-outer loop: one column's full dump is materialised at a time
    // (bounded transient memory), then sliced into per-tile files.
    let mut tile_sums: Vec<Vec<(String, u32)>> = vec![Vec::new(); tm.tiles.len()];
    for field in schema.fields() {
        let bytes = pc.column(&field.name)?.to_le_bytes();
        let sz = field.ptype.size();
        for t in &tm.tiles.tiles {
            let slice = &bytes[t.row_start * sz..t.row_end * sz];
            tile_sums[t.id].push((field.name.clone(), crc32(slice)));
            let path = staging
                .path
                .join(tile_dir_name(t.id))
                .join(format!("{}.bin", field.name));
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path).map_err(wio_err)?);
            f.write_all(slice).and_then(|()| f.flush()).map_err(wio_err)?;
            sync_file(f.get_ref(), durability)?;
        }
    }
    for t in &tm.tiles.tiles {
        let tdir = staging.path.join(tile_dir_name(t.id));
        let manifest = Manifest::render_v2(t.rows(), &tile_sums[t.id]);
        let mut f = std::fs::File::create(tdir.join(MANIFEST)).map_err(wio_err)?;
        f.write_all(manifest.as_bytes()).map_err(wio_err)?;
        sync_file(&f, durability)?;
        sync_dir(&tdir, durability)?;
    }
    {
        let mut f = std::fs::File::create(staging.path.join(MANIFEST)).map_err(wio_err)?;
        f.write_all(tm.render().as_bytes()).map_err(wio_err)?;
        sync_file(&f, durability)?;
    }
    sync_dir(&staging.path, durability)?;
    staging.commit(dir, None)?;
    if let Some(parent) = dir.parent() {
        if !parent.as_os_str().is_empty() {
            sync_dir(parent, durability)?;
        }
    }
    crate::metrics::MetricsRegistry::global().record_stage(
        crate::metrics::Stage::PersistSave,
        pc.num_points(),
        t0.elapsed(),
    );
    Ok(())
}

/// Load one tile of a tiled dump as its own flat-table cloud (standard v2
/// open of the tile subdirectory, full checksum verification).
pub(crate) fn open_tile(dir: &Path, tile: &TileMeta) -> Result<PointCloud, CoreError> {
    let pc = PointCloud::open_dir(dir.join(tile_dir_name(tile.id)))?;
    if pc.num_points() != tile.rows() {
        return Err(corrupt(format!(
            "tile {} loaded {} rows, root manifest declares {}",
            tile.id,
            pc.num_points(),
            tile.rows()
        )));
    }
    Ok(pc)
}

/// Eager-load every tile of a tiled dump into one flat table (row order =
/// tile order = SFC order). The backwards-compatibility path behind
/// [`PointCloud::open_dir`] on a v3 directory.
fn open_tiled_eager(
    dir: &Path,
    tm: &TiledManifest,
    fi: Option<&FaultInjector>,
) -> Result<PointCloud, CoreError> {
    let mut pc = PointCloud::new();
    let schema = point_schema();
    for t in &tm.tiles.tiles {
        let tdir = dir.join(tile_dir_name(t.id));
        let manifest = read_manifest(&tdir, fi)?;
        let mut dumps = Vec::with_capacity(schema.width());
        for field in schema.fields() {
            dumps.push(read_column(&tdir, &manifest, field, fi)?);
        }
        pc.append_dumps(&dumps)?;
    }
    if pc.num_points() != tm.rows {
        return Err(corrupt(format!(
            "tiled table reassembled to {} rows, root manifest declares {}",
            pc.num_points(),
            tm.rows
        )));
    }
    Ok(pc)
}

/// Read the tiled root manifest of `dir`, if it holds a v3 dump:
/// `Ok(None)` means the directory is a flat (v1/v2) dump.
pub(crate) fn read_tiled_manifest(dir: &Path) -> Result<Option<TiledManifest>, CoreError> {
    recover_stale_dirs(dir)?;
    let text = read_manifest_text(dir, None)?;
    if text.starts_with(TILED_HEADER) {
        Ok(Some(TiledManifest::parse(&text)?))
    } else {
        Ok(None)
    }
}

/// Row count declared by a flat (v1/v2) manifest, without loading columns.
pub(crate) fn flat_manifest_rows(dir: &Path) -> Result<usize, CoreError> {
    Ok(read_manifest(dir, None)?.rows)
}

/// Clean up the debris a crash inside [`Staging::commit`] can leave next
/// to `target`, returning a description of each action taken.
///
/// Two leftover shapes exist:
///
/// * `.{name}.staging.{pid}` — a save died before (or during) its commit
///   rename. The target still holds the previous state (or the `.replaced`
///   copy does); the staging dir is incomplete debris and is removed.
/// * `.{name}.staging.replaced` — the crash landed *between* the two
///   commit renames: the old state was moved aside but the new state never
///   reached the target. If the target is missing and the copy still has
///   a valid manifest, it is rolled back to the target; if the target
///   exists (the swap completed, only the cleanup was lost), the copy is
///   removed.
///
/// Called automatically by [`PointCloud::open_dir`]; idempotent.
pub fn recover_stale_dirs(target: impl AsRef<Path>) -> Result<Vec<String>, CoreError> {
    let target = target.as_ref();
    let Some(name) = target.file_name().and_then(|n| n.to_str()) else {
        return Ok(Vec::new());
    };
    let parent = match target.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let entries = match std::fs::read_dir(parent) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(e)),
    };
    let prefix = format!(".{name}.staging.");
    let mut actions = Vec::new();
    for entry in entries.filter_map(|e| e.ok()) {
        let fname = entry.file_name().to_string_lossy().into_owned();
        if !fname.starts_with(&prefix) {
            continue;
        }
        let path = entry.path();
        if fname.ends_with(".replaced") {
            if !target.exists() && manifest_ok(&path) {
                std::fs::rename(&path, target).map_err(io_err)?;
                sync_dir(parent, Durability::Always)?;
                actions.push(format!("rolled back {fname}"));
                continue;
            }
            std::fs::remove_dir_all(&path).map_err(io_err)?;
            actions.push(format!("removed {fname}"));
        } else {
            std::fs::remove_dir_all(&path).map_err(io_err)?;
            actions.push(format!("removed {fname}"));
        }
    }
    Ok(actions)
}

/// Validate a table directory without building the in-memory table
/// (catalog-style check). Enforces the same invariants as
/// [`PointCloud::open_dir`]: manifest well-formedness, version, column
/// list, per-column sizes, and (for v2) every checksum.
pub fn validate_dir(dir: impl AsRef<Path>) -> Result<usize, CoreError> {
    let dir = dir.as_ref();
    let text = read_manifest_text(dir, None)?;
    if text.starts_with(TILED_HEADER) {
        // Tiled dump: validate the root layout plus every tile's own v2
        // manifest, sizes and checksums.
        let tm = TiledManifest::parse(&text)?;
        for t in &tm.tiles.tiles {
            let tdir = dir.join(tile_dir_name(t.id));
            let manifest = read_manifest(&tdir, None)?;
            if manifest.rows != t.rows() {
                return Err(corrupt(format!(
                    "tile {} declares {} rows, root manifest expects {}",
                    t.id,
                    manifest.rows,
                    t.rows()
                )));
            }
            for field in point_schema().fields() {
                read_column(&tdir, &manifest, field, None)?;
            }
        }
        return Ok(tm.rows);
    }
    let manifest = Manifest::parse(&text)?;
    for field in point_schema().fields() {
        read_column(dir, &manifest, field, None)?;
    }
    Ok(manifest.rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_las::PointRecord;

    fn tdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("lidardb_persist_{name}"));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn cloud(n: usize) -> PointCloud {
        let mut pc = PointCloud::new();
        let recs: Vec<PointRecord> = (0..n)
            .map(|i| PointRecord {
                x: i as f64 * 0.5,
                y: 1000.0 - i as f64,
                z: (i % 40) as f64,
                classification: (i % 10) as u8,
                intensity: i as u16,
                gps_time: 1e5 + i as f64 * 1e-3,
                wave_offset: i as u64 * 7,
                ..Default::default()
            })
            .collect();
        pc.append_records(&recs).unwrap();
        pc
    }

    #[test]
    fn save_open_roundtrip_bit_exact() {
        let dir = tdir("roundtrip");
        let pc = cloud(5000);
        pc.save_dir(&dir).unwrap();
        assert_eq!(validate_dir(&dir).unwrap(), 5000);
        let back = PointCloud::open_dir(&dir).unwrap();
        assert_eq!(back.num_points(), 5000);
        for name in lidardb_las::COLUMN_NAMES {
            assert_eq!(
                pc.column(name).unwrap(),
                back.column(name).unwrap(),
                "column {name}"
            );
        }
        // Queries work immediately (imprints rebuild lazily).
        let sel = back
            .select_query(
                None,
                &[crate::query::AttrRange::new("classification", 3.0, 3.0)],
                Default::default(),
            )
            .unwrap();
        assert_eq!(sel.rows.len(), 500);
    }

    #[test]
    fn save_is_atomic_replace() {
        // A private parent, so the residue scan below sees only this
        // test's siblings, not other tests' in-flight saves.
        let parent = tdir("replace");
        let dir = parent.join("table");
        cloud(100).save_dir(&dir).unwrap();
        cloud(250).save_dir(&dir).unwrap();
        assert_eq!(PointCloud::open_dir(&dir).unwrap().num_points(), 250);
        // No staging or backup residue next to the target.
        let residue: Vec<_> = std::fs::read_dir(&parent)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("staging") || n.contains("replaced"))
            .collect();
        assert!(residue.is_empty(), "residue: {residue:?}");
    }

    #[test]
    fn truncated_column_file_rejected() {
        let dir = tdir("trunc");
        cloud(100).save_dir(&dir).unwrap();
        let victim = dir.join("z.bin");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() - 8]).unwrap();
        assert!(validate_dir(&dir).is_err());
        assert!(PointCloud::open_dir(&dir).is_err());
    }

    #[test]
    fn bit_flip_in_column_detected_by_checksum() {
        let dir = tdir("bitflip");
        cloud(200).save_dir(&dir).unwrap();
        let victim = dir.join("gps_time.bin");
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[777] ^= 0x10; // same length → only the CRC can catch it
        std::fs::write(&victim, &bytes).unwrap();
        let err = PointCloud::open_dir(&dir).unwrap_err();
        assert!(
            matches!(&err, CoreError::Corrupt(m) if m.contains("checksum")),
            "{err}"
        );
        assert!(validate_dir(&dir).is_err(), "validate_dir catches it too");
    }

    #[test]
    fn tampered_manifest_rejected() {
        let dir = tdir("manifest");
        cloud(10).save_dir(&dir).unwrap();
        let m = dir.join(MANIFEST);
        let good = std::fs::read_to_string(&m).unwrap();
        // Unsupported version.
        std::fs::write(&m, "lidardb flat table\nversion 99\nrows 10\ncolumns x\n").unwrap();
        assert!(PointCloud::open_dir(&dir).is_err());
        // Single-character edit to the row count: caught by the
        // manifest's own CRC even though the syntax stays valid.
        let evil = good.replacen("rows 10", "rows 11", 1);
        assert_ne!(evil, good);
        std::fs::write(&m, evil).unwrap();
        let err = PointCloud::open_dir(&dir).unwrap_err();
        assert!(matches!(err, CoreError::Corrupt(_)), "{err}");
        // Missing manifest entirely.
        std::fs::remove_file(&m).unwrap();
        assert!(PointCloud::open_dir(&dir).is_err());
    }

    #[test]
    fn v1_directories_still_open() {
        let dir = tdir("v1compat");
        let pc = cloud(50);
        pc.save_dir(&dir).unwrap();
        // Rewrite the manifest as a version-1 build would have written it.
        let v1 = format!(
            "lidardb flat table\nversion 1\nrows 50\ncolumns {}\n",
            COLUMN_NAMES.join(",")
        );
        std::fs::write(dir.join(MANIFEST), v1).unwrap();
        assert_eq!(validate_dir(&dir).unwrap(), 50);
        let back = PointCloud::open_dir(&dir).unwrap();
        assert_eq!(back.num_points(), 50);
        assert_eq!(
            back.column("x").unwrap(),
            pc.column("x").unwrap(),
            "payload intact via v1 manifest"
        );
    }

    /// Regression: `read_column` computed `manifest.rows * ptype.size()`
    /// with an unchecked multiply. A forged row count in a v1 manifest
    /// (which carries no checksums, so the text parses cleanly) overflowed
    /// — debug panic, release wraparound that could make a wrong-sized
    /// column file pass the size check. The multiply is now checked.
    #[test]
    fn forged_manifest_row_count_rejected_without_overflow() {
        let dir = tdir("forged_rows");
        cloud(50).save_dir(&dir).unwrap();
        let forged = format!(
            "lidardb flat table\nversion 1\nrows {}\ncolumns {}\n",
            usize::MAX,
            COLUMN_NAMES.join(",")
        );
        std::fs::write(dir.join(MANIFEST), forged).unwrap();
        assert!(matches!(
            PointCloud::open_dir(&dir).unwrap_err(),
            CoreError::Corrupt(_)
        ));
        assert!(validate_dir(&dir).is_err());
    }

    #[test]
    fn crash_during_save_leaves_no_accepted_directory() {
        let parent = tdir("crash");
        std::fs::create_dir_all(&parent).unwrap();
        let target = parent.join("table");
        let pc = cloud(40);
        for (stage, col) in [
            (FaultStage::WriteColumn, Some("x")),
            (FaultStage::WriteColumn, Some("gps_time")),
            (FaultStage::WriteManifest, None),
            (FaultStage::Commit, None),
        ] {
            let fi = FaultInjector::new();
            fi.inject(stage, col, FaultKind::Crash);
            let err = pc.save_dir_with_faults(&target, Some(&fi)).unwrap_err();
            assert!(matches!(err, CoreError::Corrupt(_)), "{stage:?}: {err}");
            assert!(
                PointCloud::open_dir(&target).is_err(),
                "{stage:?}: interrupted save must not yield an openable dir"
            );
        }
        // A good save over the crash debris succeeds and opens.
        pc.save_dir(&target).unwrap();
        assert_eq!(PointCloud::open_dir(&target).unwrap().num_points(), 40);
        // Crash during an overwrite keeps the previous state intact.
        let fi = FaultInjector::new();
        fi.inject(FaultStage::Commit, None, FaultKind::Crash);
        assert!(cloud(99).save_dir_with_faults(&target, Some(&fi)).is_err());
        assert_eq!(
            PointCloud::open_dir(&target).unwrap().num_points(),
            40,
            "old state survives an interrupted overwrite"
        );
    }

    #[test]
    fn injected_write_corruption_is_self_detected() {
        // Pristine directory on disk, fault injected on the read path:
        // the checksum must flag the damaged bytes.
        let dir = tdir("readfault");
        cloud(60).save_dir(&dir).unwrap();
        let fi = FaultInjector::new();
        fi.inject(FaultStage::ReadColumn, Some("y"), FaultKind::BitFlip(42));
        let err = PointCloud::open_dir_with_faults(&dir, Some(&fi)).unwrap_err();
        assert!(matches!(&err, CoreError::Corrupt(m) if m.contains("checksum")), "{err}");
        // Transient read error surfaces as a retryable I/O error.
        let fi = FaultInjector::new();
        fi.inject(FaultStage::ReadManifest, None, FaultKind::IoError);
        let err = PointCloud::open_dir_with_faults(&dir, Some(&fi)).unwrap_err();
        assert!(err.is_transient(), "{err}");
        // And with no faults armed the same directory opens fine.
        assert!(PointCloud::open_dir_with_faults(&dir, Some(&FaultInjector::new())).is_ok());
    }

    /// Regression for the crash window *between* the two commit renames:
    /// the old state sits at `.replaced`, nothing sits at the target, and
    /// the abandoned staging directory survives. The next `open_dir` must
    /// roll the old state back and sweep the debris.
    #[test]
    fn crash_between_commit_renames_rolls_back_on_open() {
        let parent = tdir("swapcrash");
        std::fs::create_dir_all(&parent).unwrap();
        let target = parent.join("table");
        cloud(40).save_dir(&target).unwrap();
        let fi = FaultInjector::new();
        fi.inject(FaultStage::Commit, Some("swap"), FaultKind::Crash);
        let err = cloud(99).save_dir_with_faults(&target, Some(&fi)).unwrap_err();
        assert!(matches!(err, CoreError::Corrupt(_)), "{err}");
        assert!(!target.exists(), "crash window leaves no target");
        let leftovers: Vec<String> = std::fs::read_dir(&parent)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            leftovers.iter().any(|n| n.ends_with(".replaced")),
            "old state parked at .replaced: {leftovers:?}"
        );
        assert!(
            leftovers
                .iter()
                .any(|n| n.contains(".staging.") && !n.ends_with(".replaced")),
            "abandoned staging dir left behind: {leftovers:?}"
        );
        // Reopen: stale-dir recovery rolls the previous state back.
        let back = PointCloud::open_dir(&target).unwrap();
        assert_eq!(back.num_points(), 40, "pre-crash state restored");
        let residue: Vec<String> = std::fs::read_dir(&parent)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".staging."))
            .collect();
        assert!(residue.is_empty(), "debris swept: {residue:?}");
    }

    /// Each leftover shape on its own: an orphaned staging dir is removed,
    /// and a `.replaced` dir next to a live target (swap completed, only
    /// the cleanup was lost) is removed rather than rolled back.
    #[test]
    fn stale_leftovers_are_swept_per_shape() {
        let parent = tdir("sweep");
        std::fs::create_dir_all(&parent).unwrap();
        let target = parent.join("table");
        cloud(30).save_dir(&target).unwrap();
        // Orphaned staging dir (crash before commit in another process).
        let orphan = parent.join(".table.staging.424242");
        std::fs::create_dir_all(&orphan).unwrap();
        std::fs::write(orphan.join("x.bin"), b"junk").unwrap();
        // Replaced dir while the target is alive.
        let replaced = parent.join(".table.staging.replaced");
        std::fs::create_dir_all(&replaced).unwrap();
        std::fs::write(replaced.join("debris"), b"junk").unwrap();
        let actions = recover_stale_dirs(&target).unwrap();
        assert_eq!(actions.len(), 2, "{actions:?}");
        assert!(!orphan.exists() && !replaced.exists());
        assert_eq!(PointCloud::open_dir(&target).unwrap().num_points(), 30);
        // A `.replaced` dir that does NOT hold a valid manifest is never
        // promoted to the target, even when the target is missing.
        std::fs::remove_dir_all(&target).unwrap();
        std::fs::create_dir_all(&replaced).unwrap();
        std::fs::write(replaced.join("MANIFEST.lidardb"), b"garbage").unwrap();
        let actions = recover_stale_dirs(&target).unwrap();
        assert_eq!(actions.len(), 1, "{actions:?}");
        assert!(!target.exists(), "garbage must not be resurrected");
        assert!(!replaced.exists());
    }

    /// The save path fsyncs dumps, manifest and parent dir; the fault hook
    /// at the parent-dir fsync site fires after the swap, so the new state
    /// is already at the target when the "crash" hits.
    #[test]
    fn fsync_fault_fires_after_commit_swap() {
        let parent = tdir("fsyncfault");
        std::fs::create_dir_all(&parent).unwrap();
        let target = parent.join("table");
        let fi = FaultInjector::new();
        fi.inject(FaultStage::Commit, Some("fsync"), FaultKind::Crash);
        let err = cloud(25).save_dir_with_faults(&target, Some(&fi)).unwrap_err();
        assert!(matches!(err, CoreError::Corrupt(_)), "{err}");
        assert_eq!(fi.fired().len(), 1);
        // The swap happened; only the directory-entry flush was lost. The
        // state is openable — the caller just must not treat the save as
        // acknowledged (it got an Err).
        assert_eq!(PointCloud::open_dir(&target).unwrap().num_points(), 25);
        // A transient fsync error surfaces as retryable I/O.
        let fi = FaultInjector::new();
        fi.inject(FaultStage::Commit, Some("fsync"), FaultKind::IoError);
        let err = cloud(25).save_dir_with_faults(&target, Some(&fi)).unwrap_err();
        assert!(err.is_transient(), "{err}");
        // `Durability::None` skips the fsyncs entirely but still saves.
        let none_target = parent.join("table_none");
        cloud(12).save_dir_durable(&none_target, Durability::None).unwrap();
        assert_eq!(PointCloud::open_dir(&none_target).unwrap().num_points(), 12);
    }

    #[test]
    fn empty_cloud_roundtrips() {
        let dir = tdir("empty");
        PointCloud::new().save_dir(&dir).unwrap();
        let back = PointCloud::open_dir(&dir).unwrap();
        assert_eq!(back.num_points(), 0);
    }
}
