//! Expected answers, computed by the benchmark itself.
//!
//! The reference reads the generated LAS tiles back (so it sees exactly
//! the quantised coordinates the loader stores) and answers every
//! statement shape by brute force with its own geometry code — crossing
//! numbers and segment distances, independent of `lidardb-geom`'s
//! predicates and of the imprint / grid engine under test.

use std::path::PathBuf;

use lidardb::datagen::Scene;
use lidardb::geom::{Point, Polygon};
use lidardb::sql::SqlValue;

use crate::stream::{JoinLayer, Rect, Shape, Stmt, TRANSIT_CODE};

type Ring = Vec<(f64, f64)>;

/// The generated points, sorted by y, plus the join layers.
pub struct Reference {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    class: Vec<u8>,
    /// Fast-transit zone polygons: exterior ring first, then holes.
    transit: Vec<Vec<Ring>>,
    rivers: Vec<Ring>,
}

/// What a statement must return.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// Only the number of result rows is checked.
    RowCount(u64),
    /// Every value of every row, numerically.
    Table(Vec<Vec<f64>>),
}

fn ring(pts: &[Point]) -> Ring {
    pts.iter().map(|p| (p.x, p.y)).collect()
}

fn polygon_rings(p: &Polygon) -> Vec<Ring> {
    std::iter::once(ring(p.exterior().vertices()))
        .chain(p.holes().iter().map(|h| ring(h.vertices())))
        .collect()
}

impl Reference {
    /// Read the tiles back and index the scene's join layers.
    pub fn load(paths: &[PathBuf], scene: &Scene) -> Result<Reference, String> {
        let mut pts: Vec<(f64, f64, f64, u8)> = Vec::new();
        for p in paths {
            let (_, recs) =
                lidardb::las::read_las_file(p).map_err(|e| format!("{}: {e}", p.display()))?;
            pts.extend(recs.iter().map(|r| (r.x, r.y, r.z, r.classification)));
        }
        pts.sort_by(|a, b| a.1.total_cmp(&b.1));
        let transit = scene
            .zones()
            .iter()
            .filter(|z| z.class.code() == TRANSIT_CODE)
            .map(|z| polygon_rings(&z.polygon))
            .collect();
        let rivers = scene
            .rivers()
            .iter()
            .map(|r| ring(r.geometry.vertices()))
            .collect();
        Ok(Reference {
            x: pts.iter().map(|p| p.0).collect(),
            y: pts.iter().map(|p| p.1).collect(),
            z: pts.iter().map(|p| p.2).collect(),
            class: pts.iter().map(|p| p.3).collect(),
            transit,
            rivers,
        })
    }

    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Point `i` (in y order).
    pub fn point(&self, i: usize) -> Option<Point> {
        (i < self.len()).then(|| Point::new(self.x[i], self.y[i]))
    }

    /// Indices of the points with `y0 <= y <= y1`.
    fn band(&self, y0: f64, y1: f64) -> std::ops::Range<usize> {
        self.y.partition_point(|&y| y < y0)..self.y.partition_point(|&y| y <= y1)
    }

    pub fn count_rect(&self, r: &Rect) -> u64 {
        self.band(r.y0, r.y1)
            .filter(|&i| r.contains(self.x[i], self.y[i]))
            .count() as u64
    }

    /// The answer `stmt` must produce. `None` for shapes whose answer
    /// depends on concurrent writes (ingest), which are checked with
    /// bounds instead.
    pub fn expected(&self, stmt: &Stmt) -> Option<Expected> {
        Some(match &stmt.shape {
            Shape::Viewport(r) => Expected::RowCount(self.count_rect(r)),
            Shape::Polygon(v) => {
                let (lo_y, hi_y) = v
                    .iter()
                    .fold((f64::MAX, f64::MIN), |a, p| (a.0.min(p.1), a.1.max(p.1)));
                let (mut n, mut sum) = (0u64, 0.0f64);
                for i in self.band(lo_y, hi_y) {
                    if crossing_inside(v, self.x[i], self.y[i]) {
                        n += 1;
                        sum += self.z[i];
                    }
                }
                Expected::Table(vec![vec![n as f64, sum / n as f64]])
            }
            Shape::GroupBy(r) => {
                let mut acc = [(0u64, 0.0f64); 256];
                for i in self.band(r.y0, r.y1) {
                    if r.contains(self.x[i], self.y[i]) {
                        let a = &mut acc[self.class[i] as usize];
                        a.0 += 1;
                        a.1 += self.z[i];
                    }
                }
                Expected::Table(
                    acc.iter()
                        .enumerate()
                        .filter(|(_, a)| a.0 > 0)
                        .map(|(c, a)| vec![c as f64, a.0 as f64, a.1 / a.0 as f64])
                        .collect(),
                )
            }
            Shape::Join { layer, dist, class } => {
                let mut pairs = 0u64;
                let features: Vec<&[Ring]> = match layer {
                    JoinLayer::Transit => self.transit.iter().map(Vec::as_slice).collect(),
                    JoinLayer::River => self.rivers.iter().map(std::slice::from_ref).collect(),
                };
                for rings in features {
                    let closed = *layer == JoinLayer::Transit;
                    let (lo_y, hi_y) = rings[0]
                        .iter()
                        .fold((f64::MAX, f64::MIN), |a, p| (a.0.min(p.1), a.1.max(p.1)));
                    let (lo_x, hi_x) = rings[0]
                        .iter()
                        .fold((f64::MAX, f64::MIN), |a, p| (a.0.min(p.0), a.1.max(p.0)));
                    for i in self.band(lo_y - dist, hi_y + dist) {
                        let (x, y) = (self.x[i], self.y[i]);
                        if self.class[i] != *class || x < lo_x - dist || x > hi_x + dist {
                            continue;
                        }
                        if feature_distance(rings, closed, x, y) <= *dist {
                            pairs += 1;
                        }
                    }
                }
                Expected::Table(vec![vec![pairs as f64]])
            }
            Shape::Insert { .. } | Shape::Read(_) => return None,
        })
    }
}

/// Crossing-number point-in-ring test (points on an edge are a measure-
/// zero case the statement generator keeps away from).
fn crossing_inside(ring: &[(f64, f64)], x: f64, y: f64) -> bool {
    let mut inside = false;
    let n = ring.len();
    for i in 0..n {
        let (xi, yi) = ring[i];
        let (xj, yj) = ring[(i + n - 1) % n];
        if (yi > y) != (yj > y) && x < (xj - xi) * (y - yi) / (yj - yi) + xi {
            inside = !inside;
        }
    }
    inside
}

fn segment_distance(a: (f64, f64), b: (f64, f64), x: f64, y: f64) -> f64 {
    let (dx, dy) = (b.0 - a.0, b.1 - a.1);
    let len2 = dx * dx + dy * dy;
    let t = if len2 == 0.0 {
        0.0
    } else {
        (((x - a.0) * dx + (y - a.1) * dy) / len2).clamp(0.0, 1.0)
    };
    let (px, py) = (a.0 + t * dx - x, a.1 + t * dy - y);
    (px * px + py * py).sqrt()
}

/// Distance from a point to a polygon (`closed`: 0 inside the exterior
/// and outside every hole) or to a polyline.
fn feature_distance(rings: &[Ring], closed: bool, x: f64, y: f64) -> f64 {
    if closed
        && crossing_inside(&rings[0], x, y)
        && !rings[1..].iter().any(|h| crossing_inside(h, x, y))
    {
        return 0.0;
    }
    let mut best = f64::INFINITY;
    for r in rings {
        let n = r.len();
        let edges = if closed { n } else { n - 1 };
        for i in 0..edges {
            best = best.min(segment_distance(r[i], r[(i + 1) % n], x, y));
        }
    }
    best
}

fn value_f64(v: &SqlValue) -> Option<f64> {
    match v {
        SqlValue::Int(i) => Some(*i as f64),
        SqlValue::Float(f) => Some(*f),
        _ => None,
    }
}

/// Compare what a statement returned with what it must return: counts
/// exactly, averages to a relative 1e-9.
pub fn check(expected: &Expected, rows: u64, values: &[Vec<SqlValue>]) -> Result<(), String> {
    match expected {
        Expected::RowCount(n) if *n == rows => Ok(()),
        Expected::RowCount(n) => Err(format!("expected {n} rows, got {rows}")),
        Expected::Table(t) => {
            if t.len() != values.len() {
                return Err(format!("expected {} rows, got {}", t.len(), values.len()));
            }
            for (want, got) in t.iter().zip(values) {
                let got: Vec<Option<f64>> = got.iter().map(value_f64).collect();
                let ok = want.len() == got.len()
                    && want.iter().zip(&got).all(|(w, g)| match g {
                        Some(g) => (w - g).abs() <= 1e-9 * w.abs().max(1.0),
                        None => false,
                    });
                if !ok {
                    return Err(format!("expected row {want:?}, got {got:?}"));
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_accepts_the_right_answer_and_rejects_a_wrong_count() {
        let want = Expected::Table(vec![vec![1234.0, 17.25]]);
        let right = vec![vec![SqlValue::Int(1234), SqlValue::Float(17.25)]];
        let wrong = vec![vec![SqlValue::Int(1233), SqlValue::Float(17.25)]];
        assert!(check(&want, 1, &right).is_ok());
        assert!(check(&want, 1, &wrong).is_err());
        assert!(check(&want, 1, &[]).is_err());
        assert!(check(&Expected::RowCount(10), 10, &[]).is_ok());
        assert!(check(&Expected::RowCount(10), 11, &[]).is_err());
    }

    #[test]
    fn crossing_number_and_distances() {
        let square = vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)];
        assert!(crossing_inside(&square, 5.0, 5.0));
        assert!(!crossing_inside(&square, 15.0, 5.0));
        let rings = vec![square.clone()];
        assert_eq!(feature_distance(&rings, true, 5.0, 5.0), 0.0);
        assert!((feature_distance(&rings, true, 13.0, 14.0) - 5.0).abs() < 1e-12);
        let line = vec![vec![(0.0, 0.0), (10.0, 0.0)]];
        assert!((feature_distance(&line, false, 5.0, 3.0) - 3.0).abs() < 1e-12);
        assert!((feature_distance(&line, false, 13.0, 4.0) - 5.0).abs() < 1e-12);
    }
}
