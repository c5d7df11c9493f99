//! The morsel executor: the only query executor of the two-step engine.
//!
//! The imprint candidate list is partitioned into balanced row-range
//! *morsels* ([`lidardb_imprints::CandidateList::split_rows`]); workers pull
//! morsels off a shared counter and run the exact bbox scan, attribute
//! refines, and grid-refinement point tests independently; the per-morsel
//! selection vectors are then concatenated in morsel order.
//!
//! **One worker is not a special case.** The worker count comes from the
//! input ([`workers_for`]): the caller's [`Parallelism`] once there are at
//! least two morsels' worth of rows, one worker below that. At one worker
//! the same morsels run inline on the calling thread — no thread is
//! spawned — so every worker count executes the same kernels.
//!
//! **Ordering guarantee.** Morsels partition the candidate rows in ascending
//! row order and every per-morsel kernel preserves the order of its input,
//! so the merged selection is identical — byte for byte — at every worker
//! count. The differential test suite (`crates/core/tests/differential.rs`)
//! checks 1 against N workers, and both against a brute-force oracle.
//!
//! Worker panics are contained with the same `catch_unwind` pattern as the
//! parallel loader and surface as [`CoreError::WorkerPanic`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use lidardb_geom::{Envelope, Point, RectClass};
use lidardb_imprints::CandidateList;
use lidardb_storage::scan::{self, AggState};
use lidardb_storage::Native;

use crate::error::CoreError;
use crate::governor::{GovernCtx, CHECKPOINT_STRIDE};
use crate::pointcloud::PointCloud;
use crate::query::{AttrRange, Explain, SpatialPredicate};

/// Worker-count policy for query execution, set per [`PointCloud`] (or per
/// call via `select_query_with`) and plumbed through the SQL catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Exactly this many workers (clamped to at least 1; one worker runs
    /// inline on the calling thread).
    Threads(usize),
    /// One worker per available core.
    #[default]
    Auto,
}

impl Parallelism {
    /// The number of workers this policy resolves to on this machine.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Minimum rows per morsel. Inputs with fewer than two morsels' worth of
/// rows run on one worker — thread startup would dominate.
pub const MORSEL_MIN_ROWS: usize = 4096;

/// The worker count for `rows` input rows under `parallelism`: the policy's
/// workers from `2 * MORSEL_MIN_ROWS` rows up, one worker below that.
pub(crate) fn workers_for(parallelism: Parallelism, rows: usize) -> usize {
    if rows >= 2 * MORSEL_MIN_ROWS {
        parallelism.workers()
    } else {
        1
    }
}

/// Cardinalities and wall-clock of one morsel of the filter step, folded
/// into [`Explain`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MorselTiming {
    /// Candidate rows handed to the morsel.
    pub rows_in: usize,
    /// Rows surviving the morsel's exact checks.
    pub rows_out: usize,
    /// Wall-clock the morsel spent on a worker, in seconds.
    pub seconds: f64,
}

/// Run `f(0..n)` on `workers` workers pulling indexes off a shared
/// counter, containing panics as [`CoreError::WorkerPanic`]. One worker
/// runs inline on the calling thread; more run on scoped threads. Results
/// come back in index order. Error precedence: a [`CoreError::Cancelled`]
/// wins (cancellation is the root cause — remaining morsels all observe the
/// tripped token), then worker panics — aggregated so *every* panicked
/// morsel is reported, not just the first — then the first other error in
/// index order.
fn run_indexed<T: Send>(
    workers: usize,
    n: usize,
    f: impl Fn(usize) -> Result<T, CoreError> + Sync,
) -> Result<Vec<T>, CoreError> {
    let mut slots: Vec<Option<Result<T, CoreError>>> = Vec::new();
    slots.resize_with(n, || None);
    let next = AtomicUsize::new(0);
    let slots_mutex = parking_lot::Mutex::new(&mut slots);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let outcome = match catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(r) => r,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                Err(CoreError::WorkerPanic(format!("query morsel {i}: {msg}")))
            }
        };
        slots_mutex.lock()[i] = Some(outcome);
    };
    let threads = workers.min(n);
    if threads <= 1 {
        work();
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(work);
            }
        });
    }
    let mut results = Vec::with_capacity(n);
    let mut panics: Vec<String> = Vec::new();
    let mut cancelled: Option<CoreError> = None;
    let mut other: Option<CoreError> = None;
    for s in slots {
        match s.expect("every slot filled once the workers finish") {
            Ok(t) => results.push(t),
            Err(e @ CoreError::Cancelled { .. }) => {
                if cancelled.is_none() {
                    cancelled = Some(e);
                }
            }
            Err(CoreError::WorkerPanic(m)) => panics.push(m),
            Err(e) => {
                if other.is_none() {
                    other = Some(e);
                }
            }
        }
    }
    if let Some(e) = cancelled {
        return Err(e);
    }
    if !panics.is_empty() {
        return Err(CoreError::WorkerPanic(panics.join("; ")));
    }
    if let Some(e) = other {
        return Err(e);
    }
    Ok(results)
}

/// Split `total` work items into portions of at least [`MORSEL_MIN_ROWS`]:
/// ~4 morsels per worker so stragglers can be stolen, and one morsel at one
/// worker, where there is nothing to steal and merging would only copy.
/// The bbox scan checkpoints every [`CHECKPOINT_STRIDE`] rows within a
/// morsel whatever its size; the refine passes after it checkpoint once per
/// pass, so at one worker a refine over the whole candidate list runs
/// between two checkpoints.
fn morsel_size(total: usize, workers: usize) -> usize {
    let per_morsel = if workers <= 1 { total } else { total / (workers * 4) };
    per_morsel.max(MORSEL_MIN_ROWS)
}

/// Concatenate per-morsel row vectors in morsel order. A single morsel's
/// vector is moved, not copied.
fn concat(mut parts: Vec<Vec<usize>>) -> Vec<usize> {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        out.extend(p);
    }
    out
}

/// The read-only context shared by every filter morsel (step 1b).
pub(crate) struct FilterJob<'a> {
    pub pc: &'a PointCloud,
    pub env: Option<&'a Envelope>,
    /// Whether the x imprint participated in the candidate intersection
    /// (sure runs may skip the exact x check only if it did).
    pub x_probed: bool,
    pub attrs: &'a [AttrRange],
    pub xs: &'a [f64],
    pub ys: &'a [f64],
    /// The spawning query's bbox-scan span `(trace_id, span_id)` when it
    /// runs traced: workers adopt it so their morsel spans parent there.
    pub trace_ctx: Option<(u64, u64)>,
    /// The query's governance context; morsels checkpoint against it at
    /// their start, at [`CHECKPOINT_STRIDE`]-row boundaries and after each
    /// refine pass.
    pub govern: &'a GovernCtx,
}

/// Step 1b: exact bbox scan + attribute refines over the candidate list,
/// one morsel at a time, merged in morsel order.
pub(crate) fn morsel_filter(
    job: &FilterJob<'_>,
    cand: &CandidateList,
    workers: usize,
) -> Result<(Vec<usize>, Vec<MorselTiming>), CoreError> {
    let morsels = cand.split_rows(morsel_size(cand.num_rows(), workers));
    let results = run_indexed(workers, morsels.len(), |i| {
        let m = &morsels[i];
        // `_parent` is declared before the span so the span closes (and
        // records) while the adopted context is still in place.
        let _parent = job.trace_ctx.map(|(t, s)| crate::trace::adopt_parent(t, s));
        let mut mspan = crate::trace::span(crate::trace::SpanKind::Stage(
            crate::metrics::Stage::Morsel,
        ));
        let t0 = Instant::now();
        // Cancellation checkpoints at the start of every morsel (morsels
        // are often shorter than the stride, so a stride count alone could
        // scan a whole query without one) and every CHECKPOINT_STRIDE
        // candidate rows within it. Runs longer than the stride (a
        // degraded probe can hand one run spanning the whole morsel) are
        // split so cancellation latency stays bounded by the stride, not
        // the morsel size. The split is invisible to results: sub-ranges
        // scan the same rows in order.
        let checkpoint = |mspan: &mut crate::trace::SpanGuard| {
            job.govern.checkpoint("bbox_scan").inspect_err(|_| {
                mspan.add_flags(crate::trace::FLAG_CANCELLED);
            })
        };
        checkpoint(&mut mspan)?;
        let mut rows: Vec<usize> = Vec::new();
        let mut since = 0usize;
        for r in m.ranges() {
            let mut s = r.start;
            while s < r.end {
                let e = r.end.min(s + (CHECKPOINT_STRIDE - since));
                if r.all_qualify {
                    rows.extend(s..e);
                } else if let Some(env) = job.env {
                    scan::range_scan_ranges(job.xs, &[(s, e)], env.min_x, env.max_x, &mut rows);
                } else {
                    rows.extend(s..e);
                }
                since += e - s;
                s = e;
                if since >= CHECKPOINT_STRIDE {
                    since = 0;
                    checkpoint(&mut mspan)?;
                }
            }
        }
        // Kernel work is tallied outside the scan loop (accumulators inside
        // it perturb its codegen; per-call atomics would also contend across
        // workers) and flushed once per morsel via `scan::note_scans`.
        let (mut scan_calls, mut scan_rows) = (0u64, 0u64);
        if job.env.is_some() {
            for r in m.ranges() {
                if !r.all_qualify {
                    scan_calls += 1;
                    scan_rows += (r.end - r.start) as u64;
                }
            }
        }
        // Each refine pass over the morsel's rows ends at a checkpoint.
        if let Some(env) = job.env {
            if !job.x_probed {
                scan_calls += 1;
                scan_rows += rows.len() as u64;
                scan::refine_range(job.xs, &mut rows, env.min_x, env.max_x);
                checkpoint(&mut mspan)?;
            }
            scan_calls += 1;
            scan_rows += rows.len() as u64;
            scan::refine_range(job.ys, &mut rows, env.min_y, env.max_y);
            checkpoint(&mut mspan)?;
        }
        for a in job.attrs {
            scan_calls += 1;
            scan_rows += rows.len() as u64;
            job.pc.refine_attr_range(&mut rows, &a.column, a.lo, a.hi)?;
            checkpoint(&mut mspan)?;
        }
        // Selection materialisation is the morsel's memory footprint:
        // charge it (budget trips cancel the query) and record the rows
        // toward `partial_rows` before handing the morsel back.
        if let Err(err) = job
            .govern
            .charge((rows.len() * std::mem::size_of::<usize>()) as u64)
        {
            mspan.add_flags(crate::trace::FLAG_CANCELLED);
            return Err(err);
        }
        job.govern.add_rows(rows.len());
        scan::note_scans(scan_calls, scan_rows);
        let took = t0.elapsed();
        let metrics = crate::metrics::MetricsRegistry::global();
        metrics.record_stage(crate::metrics::Stage::Morsel, rows.len(), took);
        metrics.morsels.inc();
        mspan.set_rows(m.num_rows() as u64, rows.len() as u64);
        mspan.set_aux(scan_rows);
        drop(mspan);
        let timing = MorselTiming {
            rows_in: m.num_rows(),
            rows_out: rows.len(),
            seconds: took.as_secs_f64(),
        };
        Ok((rows, timing))
    })?;
    let (parts, timings): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    Ok((concat(parts), timings))
}

/// Exhaustive refinement: exact predicate on every candidate, chunk-wise,
/// merged in order.
pub(crate) fn morsel_exhaustive(
    pred: &SpatialPredicate,
    xs: &[f64],
    ys: &[f64],
    rows: &mut Vec<usize>,
    workers: usize,
    govern: &GovernCtx,
) -> Result<(), CoreError> {
    let kept = {
        let chunks: Vec<&[usize]> = rows.chunks(morsel_size(rows.len(), workers)).collect();
        run_indexed(workers, chunks.len(), |i| {
            let mut out = Vec::new();
            for sub in chunks[i].chunks(CHECKPOINT_STRIDE) {
                for &row in sub {
                    if pred.matches(&Point::new(xs[row], ys[row])) {
                        out.push(row);
                    }
                }
                govern.checkpoint("grid_refine")?;
            }
            Ok(out)
        })?
    };
    *rows = concat(kept);
    Ok(())
}

/// Regular-grid refinement, identical in rows *and* Explain cell counts at
/// every worker count.
///
/// Two passes over row chunks: (1) compute each candidate's cell id; then
/// classify every non-empty cell once, on the calling thread; (2) dispatch
/// each candidate by its cell class — Inside keeps, Outside drops, Boundary
/// runs the exact point test — and merge kept rows in chunk order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn morsel_grid_refine(
    pred: &SpatialPredicate,
    env: &Envelope,
    cells: usize,
    xs: &[f64],
    ys: &[f64],
    rows: &mut Vec<usize>,
    explain: &mut Explain,
    workers: usize,
    govern: &GovernCtx,
) -> Result<(), CoreError> {
    let w = env.width().max(f64::MIN_POSITIVE);
    let h = env.height().max(f64::MIN_POSITIVE);
    // The refinement's memory footprint — one u32 cell id per candidate
    // plus the one-byte-per-cell class table — is charged before either
    // is built, so an oversized grid cancels instead of allocating.
    govern.charge((rows.len() * std::mem::size_of::<u32>() + cells * cells) as u64)?;
    let (kept, tests) = {
        let chunks: Vec<&[usize]> = rows.chunks(morsel_size(rows.len(), workers)).collect();
        // Pass 1: bin candidates to cells (cell ids fit u32: cells <= 2048).
        let cell_ids = run_indexed(workers, chunks.len(), |i| {
            let mut ids = Vec::with_capacity(chunks[i].len());
            for sub in chunks[i].chunks(CHECKPOINT_STRIDE) {
                ids.extend(
                    sub.iter()
                        .map(|&row| grid_cell(env, w, h, cells, xs[row], ys[row]) as u32),
                );
                govern.checkpoint("grid_refine")?;
            }
            Ok(ids)
        })?;
        // Classify each non-empty cell exactly once, on the calling thread
        // (the table scan is cheap next to the geometry tests).
        const EMPTY: u8 = 0;
        const PRESENT: u8 = 1;
        const INSIDE: u8 = 2;
        const OUTSIDE: u8 = 3;
        const BOUNDARY: u8 = 4;
        let mut class = vec![EMPTY; cells * cells];
        for ids in &cell_ids {
            for &c in ids {
                class[c as usize] = PRESENT;
            }
        }
        for (cell, slot) in class.iter_mut().enumerate() {
            if *slot != PRESENT {
                continue;
            }
            *slot = match pred.classify_cell(&grid_cell_env(env, w, h, cells, cell)) {
                RectClass::Inside => {
                    explain.cells_inside += 1;
                    INSIDE
                }
                RectClass::Outside => {
                    explain.cells_outside += 1;
                    OUTSIDE
                }
                RectClass::Boundary => {
                    explain.cells_boundary += 1;
                    BOUNDARY
                }
            };
        }
        // Pass 2: dispatch candidates by cell class.
        let results = run_indexed(workers, chunks.len(), |i| {
            let mut out = Vec::new();
            let mut tests = 0usize;
            let mut since = 0usize;
            for (&row, &c) in chunks[i].iter().zip(&cell_ids[i]) {
                match class[c as usize] {
                    INSIDE => out.push(row),
                    OUTSIDE => {}
                    BOUNDARY => {
                        tests += 1;
                        if pred.matches(&Point::new(xs[row], ys[row])) {
                            out.push(row);
                        }
                    }
                    _ => unreachable!("present cells were classified"),
                }
                since += 1;
                if since >= CHECKPOINT_STRIDE {
                    since = 0;
                    govern.checkpoint("grid_refine")?;
                }
            }
            Ok((out, tests))
        })?;
        let (kept, tests): (Vec<_>, Vec<usize>) = results.into_iter().unzip();
        (concat(kept), tests.into_iter().sum::<usize>())
    };
    explain.exact_tests += tests;
    *rows = kept;
    Ok(())
}

/// Aggregation over a typed slice: per-chunk compensated-sum states,
/// merged in chunk order.
pub(crate) fn morsel_aggregate<T: Native>(
    data: &[T],
    rows: &[usize],
    workers: usize,
    govern: &GovernCtx,
) -> Result<AggState, CoreError> {
    let chunks: Vec<&[usize]> = rows.chunks(morsel_size(rows.len(), workers)).collect();
    let states = run_indexed(workers, chunks.len(), |i| {
        // Sub-chunks accumulate into one state sequentially, which pushes
        // the same values in the same order as one whole-chunk pass — the
        // compensated sum is bit-identical, checkpoints or not.
        let mut st = AggState::default();
        for sub in chunks[i].chunks(CHECKPOINT_STRIDE) {
            for &r in sub {
                st.push(data[r].to_f64());
            }
            govern.checkpoint("aggregate")?;
        }
        Ok(st)
    })?;
    let mut acc = AggState::default();
    for s in states {
        acc.merge(&s);
    }
    Ok(acc)
}

/// Cell id of a point on the refinement grid laid over `env`.
#[inline]
fn grid_cell(env: &Envelope, w: f64, h: f64, cells: usize, x: f64, y: f64) -> usize {
    let cx = (((x - env.min_x) / w) * cells as f64) as usize;
    let cy = (((y - env.min_y) / h) * cells as f64) as usize;
    cy.min(cells - 1) * cells + cx.min(cells - 1)
}

/// The envelope of one grid cell (inverse of [`grid_cell`]'s binning).
fn grid_cell_env(env: &Envelope, w: f64, h: f64, cells: usize, cell: usize) -> Envelope {
    let cx = cell % cells;
    let cy = cell / cells;
    Envelope {
        min_x: env.min_x + w * cx as f64 / cells as f64,
        min_y: env.min_y + h * cy as f64 / cells as f64,
        max_x: env.min_x + w * (cx + 1) as f64 / cells as f64,
        max_y: env.min_y + h * (cy + 1) as f64 / cells as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_resolves_workers() {
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(6).workers(), 6);
        assert!(Parallelism::Auto.workers() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn run_indexed_preserves_order_and_first_error() {
        let out = run_indexed(4, 100, |i| Ok::<usize, CoreError>(i * 2)).unwrap();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());

        let err = run_indexed(4, 10, |i| {
            if i >= 3 {
                Err(CoreError::InvalidQuery(format!("boom {i}")))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        // First failing index in order, regardless of completion order.
        assert!(matches!(err, CoreError::InvalidQuery(ref m) if m == "boom 3"), "{err}");
    }

    #[test]
    fn run_indexed_contains_worker_panics() {
        let err = run_indexed(3, 8, |i| {
            if i == 5 {
                panic!("injected panic in morsel {i}");
            }
            Ok::<usize, CoreError>(i)
        })
        .unwrap_err();
        match err {
            CoreError::WorkerPanic(msg) => {
                assert!(msg.contains("morsel 5"), "{msg}");
                assert!(msg.contains("injected panic"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
    }

    /// Regression: multiple panicked morsels must *all* be reported, not
    /// just the first in index order.
    #[test]
    fn run_indexed_aggregates_all_panics() {
        let err = run_indexed(4, 10, |i| {
            if i == 2 || i == 7 {
                panic!("boom morsel {i}");
            }
            Ok::<usize, CoreError>(i)
        })
        .unwrap_err();
        match err {
            CoreError::WorkerPanic(msg) => {
                assert!(msg.contains("morsel 2"), "{msg}");
                assert!(msg.contains("morsel 7"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
    }

    #[test]
    fn run_indexed_prefers_cancelled_over_panics() {
        use crate::error::CancelReason;
        let err = run_indexed(2, 6, |i| {
            if i == 0 {
                panic!("worker panicked");
            }
            Err::<usize, _>(CoreError::Cancelled {
                reason: CancelReason::Killed,
                elapsed: std::time::Duration::ZERO,
                partial_rows: 0,
            })
        })
        .unwrap_err();
        assert!(
            matches!(err, CoreError::Cancelled { .. }),
            "cancellation is the root cause, got {err}"
        );
    }

    #[test]
    fn one_worker_runs_inline_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = run_indexed(1, 5, |_| Ok::<_, CoreError>(std::thread::current().id())).unwrap();
        assert!(ids.iter().all(|&id| id == caller), "no thread spawned at one worker");
    }

    #[test]
    fn morsel_size_floor() {
        assert_eq!(morsel_size(100, 8), MORSEL_MIN_ROWS);
        assert_eq!(morsel_size(1_000_000, 4), 62_500);
        assert_eq!(morsel_size(1_000_000, 1), 1_000_000);
    }
}
