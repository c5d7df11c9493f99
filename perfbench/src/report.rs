//! Metric names, units and directions, and the JSON the benchmark prints.
//!
//! The names here are the benchmark's contract with `BENCHMARK.json`
//! (checked by a test) and with every later performance claim.

/// End-to-end metrics, reported by every workload's untraced run:
/// (name, unit, better).
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("stmts_per_s", "1/s", "higher"),
    ("stmt_p50_ms", "ms", "lower"),
    ("result_rows_per_s", "1/s", "higher"),
    ("mem_peak_mb", "MiB", "lower"),
];

/// Per-layer metrics of the traced run, plus the end-to-end figures that
/// are workload-specific or too noisy to bound on a shared host (measured
/// on the traced run's untraced quarters) and the tracing overhead. A
/// metric a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 53] = [
    // End-to-end figures without a bound.
    ("stmt_p99_ms", "ms", "lower"),
    ("polygon_p50_ms", "ms", "lower"),
    ("groupby_p50_ms", "ms", "lower"),
    ("join_p50_ms", "ms", "lower"),
    ("ingest_points_per_s", "1/s", "higher"),
    ("read_p50_ms", "ms", "lower"),
    ("read_p99_ms", "ms", "lower"),
    ("recovery_s", "s", "lower"),
    ("disk_bytes_per_point", "B", "lower"),
    ("failed_frac", "ratio", "lower"),
    // Tracing.
    ("trace.overhead_pct", "%", "lower"),
    ("trace.stmts_per_s", "1/s", "higher"),
    // server: protocol and session.
    ("server.encode_ns_per_row", "ns", "lower"),
    ("server.decode_ns_per_row", "ns", "lower"),
    ("server.frame_bytes_per_row", "B", "lower"),
    ("server.overhead_ms", "ms", "lower"),
    // sql.
    ("sql.parse_us", "us", "lower"),
    ("sql.plan_us", "us", "lower"),
    ("sql.parse_ns_per_insert_row", "ns", "lower"),
    ("sql.exec_self_ms", "ms", "lower"),
    ("sql.join_ms", "ms", "lower"),
    // core.query / core.exec.
    ("core.imprint_probe_ms", "ms", "lower"),
    ("core.bbox_scan_ms", "ms", "lower"),
    ("core.bbox_scan_ns_per_row", "ns", "lower"),
    ("core.grid_refine_ms", "ms", "lower"),
    ("core.grid_refine_ns_per_row", "ns", "lower"),
    ("core.aggregate_ms", "ms", "lower"),
    ("core.morsels", "count", "lower"),
    ("core.worker_utilisation", "ratio", "higher"),
    ("core.candidate_hit_ratio", "ratio", "higher"),
    ("core.exact_tests_per_row", "count", "lower"),
    ("core.unattributed_ms", "ms", "lower"),
    // imprints.
    ("imprints.probe_ns_per_cacheline", "ns", "lower"),
    ("imprints.build_s", "s", "lower"),
    ("imprints.bytes_per_point", "B", "lower"),
    ("imprints.refresh_ms", "ms", "lower"),
    // storage.
    ("storage.scan_rows_examined", "count", "lower"),
    ("storage.scan_ns_per_row", "ns", "lower"),
    // geom.
    ("geom.pip_ns_per_test", "ns", "lower"),
    ("geom.dwithin_ns_per_test", "ns", "lower"),
    // core.segment (tiles).
    ("tiles.loaded", "1/kstmt", "lower"),
    ("tiles.evicted", "1/kstmt", "lower"),
    ("tiles.hit_ratio", "ratio", "higher"),
    ("tiles.load_ms_per_tile", "ms", "lower"),
    ("tiles.pruned_frac", "ratio", "higher"),
    ("tiles.resident_peak_mb", "MiB", "lower"),
    // core.wal and the ingest apply path.
    ("wal.append_ms_per_batch", "ms", "lower"),
    ("wal.syncs_per_batch", "count", "lower"),
    ("wal.bytes_per_point", "B", "lower"),
    ("wal.recover_s", "s", "lower"),
    ("ingest.apply_ms", "ms", "lower"),
    // core.loader and set-up.
    ("loader.points_per_s", "1/s", "higher"),
    ("setup.seal_s", "s", "lower"),
];

/// A metric name the result line may carry: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A JSON number: finite values with all their digits, anything else 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-rendered values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `table`, in table order. Panics if a metric was not measured — a
/// result line never silently drops one.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str, &str)],
    values: &std::collections::BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<(&str, String)> = table
        .iter()
        .map(|(name, unit, _)| {
            assert!(valid_name(name), "invalid metric name {name}");
            let v = values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (*name, object(&[("value", num(*v)), ("unit", string(unit))]))
        })
        .collect();
    object(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", object(&metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> impl Iterator<Item = &'static (&'static str, &'static str, &'static str)> {
        END_TO_END.iter().chain(PER_LAYER.iter())
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in all() {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
            assert!(
                matches!(*better, "lower" | "higher"),
                "bad direction {better}"
            );
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(doc) = std::fs::read_to_string(path) else {
            return; // packaged without the repository root
        };
        let section = |key: &str, next: &str| -> String {
            let from = doc.find(&format!("\"{key}\"")).expect("section present");
            let to = doc[from..]
                .find(&format!("\"{next}\""))
                .map_or(doc.len(), |i| from + i);
            doc[from..to].to_string()
        };
        let e2e = section("end_to_end", "per_layer");
        let layer = section("per_layer", "run_seconds");
        for (name, unit, better) in END_TO_END {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(
                e2e.contains(&entry),
                "BENCHMARK.json end_to_end lacks {entry}"
            );
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(
                layer.contains(&entry),
                "BENCHMARK.json per_layer lacks {entry}"
            );
        }
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
        assert_eq!(layer.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn result_line_carries_every_metric() {
        let values = END_TO_END.iter().map(|(n, _, _)| (*n, 1.5)).collect();
        let line = result_line(true, 10, 0, &END_TO_END, &values);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        for (name, unit, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":1.5,\"unit\":\"{unit}\"}}")));
        }
    }
}
