//! Seeded statement streams, one per workload.
//!
//! Every stream is a pure function of the workload seed and the scene
//! extent, so two runs with one seed send byte-identical SQL. Sizes are
//! drawn by *jittered stratification* (each block of draws covers the
//! whole size range once, in shuffled order): the statements differ from
//! seed to seed, but the mix of small and large ones does not, which keeps
//! a run's medians steady across seeds.

/// SplitMix64: tiny, seedable, and good enough for workload shapes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `n` jittered-stratified draws from `[0, 1)`, shuffled.
    pub fn strata(&mut self, n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|i| (i as f64 + self.unit()) / n as f64)
            .collect();
        self.shuffle(&mut v);
        v
    }
}

/// An axis-aligned query window in world coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub x0: f64,
    pub y0: f64,
    pub x1: f64,
    pub y1: f64,
}

impl Rect {
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x > self.x0 && x < self.x1 && y > self.y0 && y < self.y1
    }

    fn envelope_sql(&self) -> String {
        format!(
            "ST_MakeEnvelope({:.3}, {:.3}, {:.3}, {:.3})",
            self.x0, self.y0, self.x1, self.y1
        )
    }
}

/// The square scene every workload runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extent {
    pub min_x: f64,
    pub min_y: f64,
    pub size: f64,
}

impl Extent {
    /// Snap a coordinate to the middle of a centimetre cell of the LAS
    /// quantisation grid (scale 0.01 from the scene origin), so no stored
    /// point can sit on a window edge and boundary semantics never decide
    /// a count.
    fn snap(origin: f64, v: f64) -> f64 {
        let cm = ((v - origin) * 100.0).floor();
        let s: f64 = format!("{:.3}", origin + (cm + 0.5) / 100.0)
            .parse()
            .expect("formatted float parses");
        s
    }

    fn rect(&self, x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect {
            x0: Self::snap(self.min_x, x0),
            y0: Self::snap(self.min_y, y0),
            x1: Self::snap(self.min_x, x1),
            y1: Self::snap(self.min_y, y1),
        }
    }
}

/// What a statement asks, kept beside its SQL so the benchmark can
/// compute the expected answer itself.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// Navigate: every point in the viewport (x, y, z, classification).
    Viewport(Rect),
    /// Analyze: `COUNT(*), AVG(z)` inside a convex polygon.
    Polygon(Vec<(f64, f64)>),
    /// Analyze: per-classification `COUNT(*), AVG(z)` inside a rectangle.
    GroupBy(Rect),
    /// Analyze: points of one class within `dist` of a vector layer.
    Join {
        layer: JoinLayer,
        dist: f64,
        class: u8,
    },
    /// Ingest: one batch of generated rows `first..first + rows`.
    Insert { first: u64, rows: u64 },
    /// Ingest: `COUNT(*)` inside a window at the scan head.
    Read(Rect),
}

/// The vector layer a join statement probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinLayer {
    /// Urban Atlas fast-transit zones (`ua`, code 12210).
    Transit,
    /// OSM rivers.
    River,
}

/// Urban Atlas code of the fast-transit zones.
pub const TRANSIT_CODE: u32 = 12210;

/// One statement of a workload stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub sql: String,
    pub shape: Shape,
}

impl Stmt {
    /// The statement class results are reported under.
    pub fn class(&self) -> &'static str {
        match self.shape {
            Shape::Viewport(_) => "viewport",
            Shape::Polygon(_) => "polygon",
            Shape::GroupBy(_) => "groupby",
            Shape::Join { .. } => "join",
            Shape::Insert { .. } => "insert",
            Shape::Read(_) => "read",
        }
    }
}

/// Viewport width range, as fractions of the scene width.
const VIEW_MIN: f64 = 0.02;
const VIEW_MAX: f64 = 0.20;
/// Zoom levels per stratified block of the navigate walk.
const ZOOM_BLOCK: usize = 10;
/// Lanes of the survey tour the navigate walk drifts along.
const TOUR_LANES: usize = 5;
/// Tour advance per frame, as a share of the scene width.
const TOUR_STEP: f64 = 0.01;

/// Navigate: a map viewer's pan/zoom random walk. The zoom is redrawn
/// every frame, log-uniformly over 2–20% of the scene width, one
/// stratified block of ten levels at a time. The centre is a random walk
/// — panning up to half a viewport per frame, kept within half a lane —
/// around a point that drifts along a serpentine tour of five lanes, so
/// every run covers the whole scene at the same pace and the tile cache
/// sees the same kind of traffic whatever the seed.
#[derive(Debug, Clone)]
pub struct NavWalk {
    rng: Rng,
    extent: Extent,
    table: String,
    /// Tour position, in scene widths.
    tour: f64,
    /// Pan offset from the tour point.
    dx: f64,
    dy: f64,
    zooms: Vec<f64>,
}

impl NavWalk {
    pub fn new(seed: u64, extent: Extent, table: &str) -> NavWalk {
        let mut rng = Rng::new(seed ^ 0x4E41_5649);
        let tour = rng.range(0.0, TOUR_LANES as f64);
        NavWalk {
            rng,
            extent,
            table: table.to_string(),
            tour,
            dx: 0.0,
            dy: 0.0,
            zooms: Vec::new(),
        }
    }

    /// The tour point at position `t` (in scene widths), relative to the
    /// scene's south-west corner.
    fn tour_point(&self, t: f64) -> (f64, f64) {
        let t = t.rem_euclid(TOUR_LANES as f64);
        let lane = t.floor() as usize;
        let along = t - lane as f64;
        let x = if lane.is_multiple_of(2) {
            along
        } else {
            1.0 - along
        };
        let y = (lane as f64 + 0.5) / TOUR_LANES as f64;
        (x * self.extent.size, y * self.extent.size)
    }
}

fn reflect(v: f64, lo: f64, hi: f64) -> f64 {
    if hi <= lo {
        return (lo + hi) / 2.0;
    }
    let span = hi - lo;
    let mut t = (v - lo).rem_euclid(2.0 * span);
    if t > span {
        t = 2.0 * span - t;
    }
    lo + t
}

impl Iterator for NavWalk {
    type Item = Stmt;

    fn next(&mut self) -> Option<Stmt> {
        if self.zooms.is_empty() {
            self.zooms = self.rng.strata(ZOOM_BLOCK);
        }
        let z = self.zooms.pop().expect("refilled above");
        let w = self.extent.size * VIEW_MIN * (VIEW_MAX / VIEW_MIN).powf(z);
        let h = w * self.rng.range(0.6, 0.8);
        self.tour += TOUR_STEP;
        let half_lane = self.extent.size / TOUR_LANES as f64 / 2.0;
        self.dx = (self.dx + self.rng.range(-0.5, 0.5) * w).clamp(-half_lane, half_lane);
        self.dy = (self.dy + self.rng.range(-0.5, 0.5) * w).clamp(-half_lane, half_lane);
        let (tx, ty) = self.tour_point(self.tour);
        let cx = reflect(tx + self.dx, w / 2.0, self.extent.size - w / 2.0);
        let cy = reflect(ty + self.dy, h / 2.0, self.extent.size - h / 2.0);
        let (ox, oy) = (self.extent.min_x, self.extent.min_y);
        let r = self.extent.rect(
            ox + cx - w / 2.0,
            oy + cy - h / 2.0,
            ox + cx + w / 2.0,
            oy + cy + h / 2.0,
        );
        Some(Stmt {
            sql: format!(
                "SELECT x, y, z, classification FROM {} WHERE ST_Contains({}, ST_Point(x, y))",
                self.table,
                r.envelope_sql()
            ),
            shape: Shape::Viewport(r),
        })
    }
}

/// Statements per class in the analyze list.
const ANALYZE_PER_CLASS: usize = 8;
/// Area range of analyze polygons and group-by rectangles, as a share of
/// the scene.
const AREA_MIN: f64 = 0.10;
const AREA_MAX: f64 = 0.40;

/// Analyze: `3 × ANALYZE_PER_CLASS` statements rotating polygon, group-by
/// and join. The session cycles through the list, so each statement's
/// expected answer is computed once per seed.
pub fn analyze_list(seed: u64, extent: Extent) -> Vec<Stmt> {
    let mut rng = Rng::new(seed ^ 0x414E_414C);
    let n = ANALYZE_PER_CLASS;
    let poly_areas = rng.strata(n);
    let rect_areas = rng.strata(n);
    let dists = rng.strata(n);
    let mut out = Vec::with_capacity(3 * n);
    for i in 0..n {
        out.push(polygon_stmt(&mut rng, extent, area_share(poly_areas[i])));
        out.push(groupby_stmt(&mut rng, extent, area_share(rect_areas[i])));
        out.push(join_stmt(i, 5.0 + 25.0 * dists[i]));
    }
    out
}

fn area_share(u: f64) -> f64 {
    AREA_MIN + (AREA_MAX - AREA_MIN) * u
}

/// A random convex polygon of 5–12 vertices covering `share` of the scene:
/// vertices on a circle at jittered angles, scaled to the target area and
/// placed uniformly where it fits.
fn polygon_stmt(rng: &mut Rng, extent: Extent, share: f64) -> Stmt {
    let k = 5 + rng.below(8);
    let phase = rng.range(0.0, std::f64::consts::TAU);
    let unit: Vec<(f64, f64)> = (0..k)
        .map(|i| {
            let a = phase + (i as f64 + 0.8 * rng.unit()) * std::f64::consts::TAU / k as f64;
            (a.cos(), a.sin())
        })
        .collect();
    let area1 = shoelace(&unit);
    let r = (share * extent.size * extent.size / area1).sqrt();
    let (mut lo_x, mut lo_y, mut hi_x, mut hi_y) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
    for &(x, y) in &unit {
        lo_x = lo_x.min(x * r);
        lo_y = lo_y.min(y * r);
        hi_x = hi_x.max(x * r);
        hi_y = hi_y.max(y * r);
    }
    let cx = extent.min_x + rng.range(-lo_x, (extent.size - hi_x).max(-lo_x));
    let cy = extent.min_y + rng.range(-lo_y, (extent.size - hi_y).max(-lo_y));
    let verts: Vec<(f64, f64)> = unit
        .iter()
        .map(|&(x, y)| (round3(cx + x * r), round3(cy + y * r)))
        .collect();
    let mut wkt: Vec<String> = verts.iter().map(|(x, y)| format!("{x} {y}")).collect();
    wkt.push(wkt[0].clone());
    Stmt {
        sql: format!(
            "SELECT COUNT(*), AVG(z) FROM points WHERE ST_Contains(ST_GeomFromText('POLYGON(({}))'), ST_Point(x, y))",
            wkt.join(", ")
        ),
        shape: Shape::Polygon(verts),
    }
}

fn groupby_stmt(rng: &mut Rng, extent: Extent, share: f64) -> Stmt {
    let area = share * extent.size * extent.size;
    let aspect = rng.range(0.5, 2.0);
    let w = (area * aspect).sqrt().min(extent.size);
    let h = (area / w).min(extent.size);
    let x0 = extent.min_x + rng.range(0.0, extent.size - w);
    let y0 = extent.min_y + rng.range(0.0, extent.size - h);
    let r = extent.rect(x0, y0, x0 + w, y0 + h);
    Stmt {
        sql: format!(
            "SELECT classification, COUNT(*), AVG(z) FROM points WHERE ST_Contains({}, ST_Point(x, y)) \
             GROUP BY classification ORDER BY classification",
            r.envelope_sql()
        ),
        shape: Shape::GroupBy(r),
    }
}

/// Join `i` of the list: alternately the fast-transit zones (ground or
/// vegetation returns) and the river (water or ground returns).
fn join_stmt(i: usize, dist: f64) -> Stmt {
    let dist = round3(dist);
    let (layer, class) = match i % 4 {
        0 => (JoinLayer::Transit, 2),
        1 => (JoinLayer::River, 9),
        2 => (JoinLayer::Transit, 5),
        _ => (JoinLayer::River, 2),
    };
    let sql = match layer {
        JoinLayer::Transit => format!(
            "SELECT COUNT(*) FROM points p, ua z WHERE ST_DWithin(ST_Point(p.x, p.y), z.geom, {dist}) \
             AND z.code = {TRANSIT_CODE} AND p.classification = {class}"
        ),
        JoinLayer::River => format!(
            "SELECT COUNT(*) FROM points p, rivers r WHERE ST_DWithin(ST_Point(p.x, p.y), r.geom, {dist}) \
             AND p.classification = {class}"
        ),
    };
    Stmt {
        sql,
        shape: Shape::Join { layer, dist, class },
    }
}

fn shoelace(v: &[(f64, f64)]) -> f64 {
    let mut s = 0.0;
    for i in 0..v.len() {
        let (x0, y0) = v[i];
        let (x1, y1) = v[(i + 1) % v.len()];
        s += x0 * y1 - x1 * y0;
    }
    s.abs() / 2.0
}

fn round3(v: f64) -> f64 {
    format!("{v:.3}").parse().expect("formatted float parses")
}

/// Rows per ingest `INSERT`. Small on purpose: the table grows by what a
/// run inserts, and at 500-row batches a run added about as many rows as
/// the base survey holds, so whether the columns' doubling reallocation
/// fell inside the run (peak RSS 261 or 399 MiB) depended on its speed.
pub const INSERT_ROWS: u64 = 100;
/// Points per scan line of the ingest flight strip (0.4 m spacing on the
/// 800 m scene).
const LINE_POINTS: u64 = 2000;
/// Scan lines per scene height (0.1 m apart on the 800 m scene).
const STRIP_LINES: u64 = 4 * LINE_POINTS;
/// First GPS time of the ingest strip; row `j` carries `GPS0 + j`, which
/// is how the exactly-once check finds it after recovery.
pub const GPS0: u64 = 10_000_000;

/// The generated ingest rows: a new flight strip sweeping the scene in
/// serpentine scan lines, `LINE_POINTS` per line and `STRIP_LINES` per
/// scene height, wrapping to the south edge after the north one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Strip {
    pub extent: Extent,
}

impl Strip {
    pub fn new(extent: Extent) -> Strip {
        Strip { extent }
    }

    fn x_step(&self) -> f64 {
        self.extent.size / LINE_POINTS as f64
    }

    fn y_step(&self) -> f64 {
        self.extent.size / STRIP_LINES as f64
    }

    /// Column index along the line of row `j` (serpentine) and its line.
    fn cell(&self, j: u64) -> (u64, u64) {
        let line = j / LINE_POINTS;
        let p = j % LINE_POINTS;
        let col = if line.is_multiple_of(2) {
            p
        } else {
            LINE_POINTS - 1 - p
        };
        (col, line % STRIP_LINES)
    }

    /// World position of row `j`: cell centres. On the benchmark's scene
    /// they fall on whole centimetres, half a centimetre from every
    /// snapped window edge.
    pub fn xy(&self, j: u64) -> (f64, f64) {
        let (col, line) = self.cell(j);
        (
            self.extent.min_x + (col as f64 + 0.5) * self.x_step(),
            self.extent.min_y + (line as f64 + 0.5) * self.y_step(),
        )
    }

    /// The y coordinate of the scan head after `rows` rows.
    pub fn head_y(&self, rows: u64) -> f64 {
        self.xy(rows.saturating_sub(1)).1
    }

    /// How many of rows `0..n` fall inside `r`, in O(lines).
    pub fn count_in(&self, r: &Rect, n: u64) -> u64 {
        let cols = self.index_range(
            r.x0 - self.extent.min_x,
            r.x1 - self.extent.min_x,
            self.x_step(),
        );
        let lines = self.index_range(
            r.y0 - self.extent.min_y,
            r.y1 - self.extent.min_y,
            self.y_step(),
        );
        let (Some((c0, c1)), Some((l0, l1))) = (cols, lines) else {
            return 0;
        };
        let mut total = 0;
        let full_lines = n / LINE_POINTS;
        for line in 0..=full_lines {
            let row_line = line % STRIP_LINES;
            if row_line < l0 || row_line > l1 {
                continue;
            }
            // Rows of this line present: all of them, or a prefix of the
            // last (partial) line, laid out serpentine.
            let present = if line < full_lines {
                LINE_POINTS
            } else {
                n % LINE_POINTS
            };
            if present == 0 {
                continue;
            }
            let (p0, p1) = if line.is_multiple_of(2) {
                (0, present - 1)
            } else {
                (LINE_POINTS - present, LINE_POINTS - 1)
            };
            let lo = c0.max(p0);
            let hi = c1.min(p1);
            if lo <= hi {
                total += hi - lo + 1;
            }
        }
        total
    }

    /// Inclusive range of cell indices whose centres lie strictly inside
    /// `(lo, hi)` on an axis of cells `step` wide.
    fn index_range(&self, lo: f64, hi: f64, step: f64) -> Option<(u64, u64)> {
        let first = ((lo / step) - 0.5).floor() + 1.0;
        let last = ((hi / step) - 0.5).ceil() - 1.0;
        let max = (self.extent.size / step).round() - 1.0;
        let (first, last) = (first.max(0.0), last.min(max));
        (first <= last).then_some((first as u64, last as u64))
    }

    /// Row `j` as an `INSERT` tuple: x, y, z, classification, gps_time.
    fn tuple(&self, j: u64) -> String {
        let (x, y) = self.xy(j);
        let z = 10.0 + (j % 700) as f64 / 100.0;
        let class = [2, 5, 6][(j % 3) as usize];
        format!("({x}, {y}, {z}, {class}, {})", GPS0 + j)
    }

    /// The `INSERT` carrying rows `first..first + INSERT_ROWS`.
    pub fn insert(&self, table: &str, first: u64) -> Stmt {
        let tuples: Vec<String> = (first..first + INSERT_ROWS)
            .map(|j| self.tuple(j))
            .collect();
        Stmt {
            sql: format!(
                "INSERT INTO {table} (x, y, z, classification, gps_time) VALUES {}",
                tuples.join(", ")
            ),
            shape: Shape::Insert {
                first,
                rows: INSERT_ROWS,
            },
        }
    }
}

/// Ingest reader: `COUNT(*)` windows that trail the scan head — a random
/// 5–30% slice of the line, from 2–20 m behind the head to just past it.
#[derive(Debug, Clone)]
pub struct HeadReader {
    rng: Rng,
    strip: Strip,
    table: String,
}

impl HeadReader {
    pub fn new(seed: u64, strip: Strip, table: &str) -> HeadReader {
        HeadReader {
            rng: Rng::new(seed ^ 0x5245_4144),
            strip,
            table: table.to_string(),
        }
    }

    /// The next window, given the rows sent so far.
    pub fn next(&mut self, rows_sent: u64) -> Stmt {
        let e = self.strip.extent;
        let head = self.strip.head_y(rows_sent.max(1));
        let w = e.size * self.rng.range(0.05, 0.30);
        let x0 = e.min_x + self.rng.range(0.0, e.size - w);
        let back = self.rng.range(2.0, 20.0);
        let r = e.rect(
            x0,
            (head - back).max(e.min_y),
            x0 + w,
            (head + 1.0).min(e.min_y + e.size),
        );
        Stmt {
            sql: format!(
                "SELECT COUNT(*) FROM {} WHERE ST_Contains({}, ST_Point(x, y))",
                self.table,
                r.envelope_sql()
            ),
            shape: Shape::Read(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const E: Extent = Extent {
        min_x: 120_000.0,
        min_y: 480_000.0,
        size: crate::setup::SCENE_EXTENT,
    };

    #[test]
    fn streams_are_identical_for_the_same_seed() {
        let a: Vec<Stmt> = NavWalk::new(7, E, "points").take(200).collect();
        let b: Vec<Stmt> = NavWalk::new(7, E, "points").take(200).collect();
        assert_eq!(a, b);
        assert_eq!(analyze_list(7, E), analyze_list(7, E));
        let (mut r1, mut r2) = (
            HeadReader::new(7, Strip::new(E), "survey"),
            HeadReader::new(7, Strip::new(E), "survey"),
        );
        for n in [500, 1000, 50_000] {
            assert_eq!(r1.next(n), r2.next(n));
        }
        let strip = Strip::new(E);
        assert_eq!(strip.insert("survey", 1500), strip.insert("survey", 1500));
    }

    #[test]
    fn streams_differ_between_seeds() {
        let a: Vec<Stmt> = NavWalk::new(7, E, "points").take(20).collect();
        let b: Vec<Stmt> = NavWalk::new(8, E, "points").take(20).collect();
        assert_ne!(a, b);
        assert_ne!(analyze_list(7, E), analyze_list(8, E));
    }

    #[test]
    fn viewports_stay_inside_the_scene_and_the_zoom_range() {
        for s in NavWalk::new(3, E, "points").take(2000) {
            let Shape::Viewport(r) = s.shape else {
                panic!()
            };
            let w = (r.x1 - r.x0) / E.size;
            assert!(w > VIEW_MIN * 0.99 && w < VIEW_MAX * 1.01, "width {w}");
            assert!(r.x0 >= E.min_x && r.x1 <= E.min_x + E.size);
            assert!(r.y0 >= E.min_y && r.y1 <= E.min_y + E.size);
        }
    }

    #[test]
    fn analyze_list_rotates_classes_with_stratified_sizes() {
        let list = analyze_list(11, E);
        assert_eq!(list.len(), 3 * ANALYZE_PER_CLASS);
        for (i, s) in list.iter().enumerate() {
            assert_eq!(s.class(), ["polygon", "groupby", "join"][i % 3]);
        }
        let mut areas: Vec<f64> = list
            .iter()
            .filter_map(|s| match &s.shape {
                Shape::Polygon(v) => Some(shoelace(v) / (E.size * E.size)),
                _ => None,
            })
            .collect();
        areas.sort_by(f64::total_cmp);
        for (i, a) in areas.iter().enumerate() {
            let lo = area_share(i as f64 / ANALYZE_PER_CLASS as f64);
            let hi = area_share((i + 1) as f64 / ANALYZE_PER_CLASS as f64);
            assert!(
                *a > lo - 0.01 && *a < hi + 0.01,
                "area {a} outside stratum {i}"
            );
        }
    }

    #[test]
    fn strip_rows_sit_on_whole_centimetres() {
        let strip = Strip::new(E);
        for j in (0..3 * LINE_POINTS).step_by(7) {
            let (x, y) = strip.xy(j);
            for (v, o) in [(x, E.min_x), (y, E.min_y)] {
                let cm = (v - o) * 100.0;
                assert!(
                    (cm - cm.round()).abs() < 1e-6,
                    "row {j}: {v} is off the centimetre grid"
                );
            }
        }
    }

    #[test]
    fn strip_count_matches_brute_force() {
        let strip = Strip::new(E);
        let mut reader = HeadReader::new(5, strip, "survey");
        for n in [1, 499, 2000, 2001, 7_777, 40_000] {
            let Shape::Read(r) = reader.next(n).shape else {
                panic!()
            };
            let brute = (0..n)
                .filter(|&j| {
                    let (x, y) = strip.xy(j);
                    r.contains(x, y)
                })
                .count() as u64;
            assert_eq!(strip.count_in(&r, n), brute, "n = {n}");
        }
    }
}
