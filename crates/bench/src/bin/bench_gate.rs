//! CLI for the perf-regression gate (see `lidardb_bench::gate`).
//!
//! ```text
//! bench_gate --base BENCH_query.json --fresh out/BENCH_query.json
//! bench_gate --base BENCH_query.json --scale 2.0 --out degraded.json
//! ```
//!
//! Compare mode exits 0 when every cell holds its bound, 1 on any
//! regression, and 2 when the gate cannot judge (usage or parse errors, a
//! cross-host pair, a fresh cell restating its bound), so CI can tell
//! "code got slower" from "gate is broken". `--scale` writes a copy of
//! the baseline degraded by the factor (the negative CI check feeds it
//! back through compare and expects the gate to trip).

use lidardb_bench::gate::{compare, degrade, Doc};

fn usage() -> ! {
    eprintln!(
        "usage: bench_gate --base <baseline.json> --fresh <fresh.json>\n       \
         bench_gate --base <baseline.json> --scale <factor> --out <path>"
    );
    std::process::exit(2);
}

fn fail(msg: String) -> ! {
    eprintln!("bench_gate: {msg}");
    std::process::exit(2);
}

fn load(path: &str) -> Doc {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    Doc::parse(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut base, mut fresh, mut out, mut scale) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--base" => base = Some(val()),
            "--fresh" => fresh = Some(val()),
            "--out" => out = Some(val()),
            "--scale" => {
                let f = val()
                    .parse::<f64>()
                    .ok()
                    .filter(|f| f.is_finite() && *f > 0.0);
                scale = Some(f.unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
    }
    let Some(base) = base else { usage() };
    match (fresh, scale, out) {
        (None, Some(factor), Some(out)) => {
            if let Err(e) = std::fs::write(&out, degrade(&load(&base), factor).render()) {
                fail(format!("cannot write {out}: {e}"));
            }
            println!("bench_gate: wrote {out} ({factor}x degraded copy of {base})");
        }
        (Some(fresh), None, None) => {
            let base_doc = load(&base);
            let regressions = compare(&base_doc, &load(&fresh))
                .unwrap_or_else(|e| fail(format!("{fresh} vs {base}: {e}")));
            if regressions.is_empty() {
                println!(
                    "bench_gate: PASS — {} {} cells within their bounds of {base}",
                    base_doc.cells.len(),
                    base_doc.experiment
                );
            } else {
                eprintln!(
                    "bench_gate: FAIL — {} {} regression(s) vs {base}:",
                    regressions.len(),
                    base_doc.experiment
                );
                for r in &regressions {
                    eprintln!("  {r}");
                }
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}
