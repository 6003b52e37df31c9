//! Structural schema validation for the evaluation artifacts.
//!
//! One validator shared by the bench bins, the eval-matrix, and CI: the
//! `BENCH_*.json` family (`overload`, `jit`), the
//! `MATRIX.json` produced by `eval-matrix`, and the `--json` report of
//! `simseed sweep`. CI's python heredocs additionally assert the *policy*
//! claims (goodput floors, speedups); this module pins the *shape* — the
//! identifying header, the schema version, required fields, field types,
//! and internal count consistency — so a drifting writer fails in `cargo
//! test` before it fails in a workflow log.
//!
//! Validation is accumulating: all errors for a document are reported,
//! not just the first.

use serde_json::Value;

/// The artifact families this crate knows how to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// `BENCH_overload.json` from the `overload` bin.
    Overload,
    /// `BENCH_jit*.json` from the `jit_bench` bin.
    Jit,
    /// `MATRIX.json` from the `eval-matrix` bin.
    Matrix,
    /// `simseed sweep --json` output.
    Simseed,
}

impl ArtifactKind {
    /// Human-readable artifact name.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Overload => "overload",
            ArtifactKind::Jit => "jit",
            ArtifactKind::Matrix => "eval-matrix",
            ArtifactKind::Simseed => "simseed",
        }
    }

    /// Identifies a document by its `tool` / `bench` header field.
    pub fn detect(doc: &Value) -> Result<Self, String> {
        if let Some(tool) = doc.get("tool").and_then(Value::as_str) {
            return match tool {
                "eval-matrix" => Ok(ArtifactKind::Matrix),
                "simseed" => Ok(ArtifactKind::Simseed),
                other => Err(format!("unknown tool {other:?}")),
            };
        }
        if let Some(bench) = doc.get("bench").and_then(Value::as_str) {
            return match bench {
                "overload" => Ok(ArtifactKind::Overload),
                "jit" => Ok(ArtifactKind::Jit),
                other => Err(format!("unknown bench {other:?}")),
            };
        }
        Err("document has neither a \"tool\" nor a \"bench\" header field".to_string())
    }
}

/// Detects the artifact kind and validates its structure. Returns the
/// detected kind on success, the full list of violations otherwise.
pub fn validate(doc: &Value) -> Result<ArtifactKind, Vec<String>> {
    let kind = ArtifactKind::detect(doc).map_err(|e| vec![e])?;
    let errors = match kind {
        ArtifactKind::Matrix => validate_matrix(doc),
        ArtifactKind::Simseed => validate_simseed(doc),
        _ => validate_bench(doc, kind),
    };
    if errors.is_empty() {
        Ok(kind)
    } else {
        Err(errors)
    }
}

fn check_version(doc: &Value, errors: &mut Vec<String>) {
    match doc.get("schema_version").and_then(Value::as_u64) {
        Some(1) => {}
        Some(v) => errors.push(format!("schema_version is {v}, expected 1")),
        None => errors.push("schema_version missing or not a number".to_string()),
    }
}

fn check_keys(obj: &Value, keys: &[&str], at: &str, errors: &mut Vec<String>) {
    for key in keys {
        if obj.get(key).is_none() {
            errors.push(format!("{at}: missing field {key:?}"));
        }
    }
}

fn str_field<'a>(obj: &'a Value, key: &str, at: &str, errors: &mut Vec<String>) -> Option<&'a str> {
    match obj.get(key) {
        Some(v) => match v.as_str() {
            Some(s) => Some(s),
            None => {
                errors.push(format!("{at}: field {key:?} is not a string"));
                None
            }
        },
        None => {
            errors.push(format!("{at}: missing field {key:?}"));
            None
        }
    }
}

fn u64_field(obj: &Value, key: &str, at: &str, errors: &mut Vec<String>) -> Option<u64> {
    match obj.get(key).and_then(Value::as_u64) {
        Some(n) => Some(n),
        None => {
            errors.push(format!(
                "{at}: field {key:?} missing or not an unsigned integer"
            ));
            None
        }
    }
}

fn f64_field(obj: &Value, key: &str, at: &str, errors: &mut Vec<String>) -> Option<f64> {
    match obj.get(key).and_then(Value::as_f64) {
        Some(n) => Some(n),
        None => {
            errors.push(format!("{at}: field {key:?} missing or not a number"));
            None
        }
    }
}

fn bool_field(obj: &Value, key: &str, at: &str, errors: &mut Vec<String>) -> Option<bool> {
    match obj.get(key).and_then(Value::as_bool) {
        Some(b) => Some(b),
        None => {
            errors.push(format!("{at}: field {key:?} missing or not a boolean"));
            None
        }
    }
}

/// Validates a `MATRIX.json` document (`eval-matrix` output).
/// Returns every violation found; empty means the shape is valid.
pub fn validate_matrix(doc: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    let e = &mut errors;
    check_version(doc, e);
    str_field(doc, "grid", "top-level", e);
    u64_field(doc, "seed", "top-level", e);
    let seeds_per_cell = u64_field(doc, "seeds_per_cell", "top-level", e);

    let cells = match doc.get("cells").and_then(Value::as_array) {
        Some(cells) if !cells.is_empty() => cells.as_slice(),
        Some(_) => {
            e.push("cells array is empty".to_string());
            &[]
        }
        None => {
            e.push("cells missing or not an array".to_string());
            &[]
        }
    };

    let mut passed = 0u64;
    let mut failed = 0u64;
    for (i, cell) in cells.iter().enumerate() {
        let name = cell
            .get("name")
            .and_then(Value::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| format!("cells[{i}]"));
        let at = &name;
        for key in [
            "name",
            "topology",
            "chain",
            "chaos",
            "placement",
            "fingerprint",
        ] {
            str_field(cell, key, at, e);
        }
        if let Some(tier) = str_field(cell, "tier", at, e) {
            if !["auto", "interp", "threaded", "native"].contains(&tier) {
                e.push(format!("{at}: unknown tier {tier:?}"));
            }
        }
        if let Some(tier_used) = str_field(cell, "tier_used", at, e) {
            if !["interp", "threaded", "native"].contains(&tier_used) {
                e.push(format!(
                    "{at}: tier_used {tier_used:?} is not a resolved tier"
                ));
            }
        }
        bool_field(cell, "whole_chain_offload", at, e);
        let seeds_run = u64_field(cell, "seeds_run", at, e);
        f64_field(cell, "msgs_per_sec", at, e);
        f64_field(cell, "shed_rate", at, e);
        match cell.get("verdict_streams").and_then(Value::as_array) {
            Some(streams) => {
                if let Some(n) = seeds_run {
                    if streams.len() as u64 != n {
                        e.push(format!(
                            "{at}: {} verdict streams for {n} seeds",
                            streams.len()
                        ));
                    }
                }
                for s in streams {
                    if s.as_str().is_none() {
                        e.push(format!("{at}: verdict_streams entry is not a string"));
                    }
                }
            }
            None => e.push(format!("{at}: verdict_streams missing or not an array")),
        }
        check_keys(
            cell,
            &["invariant", "detail", "failed_seed", "min_events", "replay"],
            at,
            e,
        );
        match bool_field(cell, "pass", at, e) {
            Some(true) => {
                passed += 1;
                if cell.get("invariant").map(Value::is_null) == Some(false) {
                    e.push(format!("{at}: passing cell names a violated invariant"));
                }
            }
            Some(false) => {
                failed += 1;
                // A failing cell must carry enough to reproduce it.
                if cell.get("invariant").and_then(Value::as_str).is_none() {
                    e.push(format!("{at}: failing cell without an invariant name"));
                }
                if cell.get("replay").and_then(Value::as_str).is_none() {
                    e.push(format!("{at}: failing cell without a replay command"));
                }
            }
            None => {}
        }
    }

    match doc.get("summary") {
        Some(summary) => {
            let sc = u64_field(summary, "cells", "summary", e);
            let sp = u64_field(summary, "passed", "summary", e);
            let sf = u64_field(summary, "failed", "summary", e);
            if sc.is_some() && sc != Some(cells.len() as u64) {
                e.push(format!(
                    "summary.cells = {:?} but {} cells present",
                    sc,
                    cells.len()
                ));
            }
            if sp.is_some() && sp != Some(passed) {
                e.push(format!("summary.passed = {sp:?} but {passed} cells pass"));
            }
            if sf.is_some() && sf != Some(failed) {
                e.push(format!("summary.failed = {sf:?} but {failed} cells fail"));
            }
        }
        None => e.push("summary missing".to_string()),
    }
    // Every cell runs the configured seed count unless it failed early.
    if let Some(k) = seeds_per_cell {
        for cell in cells {
            if cell.get("pass").and_then(Value::as_bool) == Some(true)
                && cell.get("seeds_run").and_then(Value::as_u64) != Some(k)
            {
                let name = cell.get("name").and_then(Value::as_str).unwrap_or("?");
                e.push(format!("{name}: passing cell did not run all {k} seeds"));
            }
        }
    }
    errors
}

/// Validates a `simseed sweep --json` report.
pub fn validate_simseed(doc: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    let e = &mut errors;
    check_version(doc, e);
    str_field(doc, "scenario", "top-level", e);
    u64_field(doc, "seeds_run", "top-level", e);
    let pass = bool_field(doc, "pass", "top-level", e);
    match doc.get("failures").and_then(Value::as_array) {
        Some(failures) => {
            if pass == Some(failures.is_empty()) || pass.is_none() {
                // consistent (or already reported)
            } else {
                e.push(format!(
                    "pass = {:?} but {} failures listed",
                    pass,
                    failures.len()
                ));
            }
            for (i, f) in failures.iter().enumerate() {
                let at = format!("failures[{i}]");
                u64_field(f, "seed", &at, e);
                u64_field(f, "events", &at, e);
                u64_field(f, "min_events", &at, e);
                str_field(f, "invariant", &at, e);
                str_field(f, "detail", &at, e);
                str_field(f, "replay", &at, e);
                check_keys(f, &["at_event", "at_ns"], &at, e);
            }
        }
        None => e.push("failures missing or not an array".to_string()),
    }
    errors
}

/// Validates a `BENCH_*.json` document of the given kind: header, rows,
/// and summary presence plus the per-bench required row fields.
pub fn validate_bench(doc: &Value, kind: ArtifactKind) -> Vec<String> {
    let mut errors = Vec::new();
    let e = &mut errors;
    check_version(doc, e);
    let (top, row_keys): (&[&str], &[&str]) = match kind {
        ArtifactKind::Overload => (
            &[
                "seed",
                "calls",
                "service_us",
                "budget_ms",
                "smoke",
                "rows",
                "summary",
            ],
            &[
                "multiplier",
                "shedding",
                "calls_issued",
                "calls_ok",
                "calls_shed",
                "calls_timed_out",
                "calls_aborted",
                "expired_drops",
                "expired_executions",
                "queue_peak",
                "servable",
                "goodput_ratio",
            ],
        ),
        ArtifactKind::Jit => (
            &["seed", "smoke", "chain", "best_tier", "rows", "summary"],
            &[
                "tier",
                "mode",
                "iters",
                "elapsed_ms",
                "ns_per_msg",
                "msgs_per_sec",
                "forwarded",
                "dropped",
                "aborted",
            ],
        ),
        ArtifactKind::Matrix | ArtifactKind::Simseed => {
            e.push(format!("{} is not a BENCH_* artifact", kind.name()));
            return errors;
        }
    };
    check_keys(doc, top, "top-level", e);
    match doc.get("rows").and_then(Value::as_array) {
        Some(rows) if !rows.is_empty() => {
            for (i, row) in rows.iter().enumerate() {
                check_keys(row, row_keys, &format!("rows[{i}]"), e);
            }
            // The shape invariant the claims rest on, independent of the
            // policy thresholds CI asserts separately.
            if kind == ArtifactKind::Jit {
                for (i, row) in rows.iter().enumerate() {
                    if let Some(mode) = row.get("mode").and_then(Value::as_str) {
                        if !["chain", "fused"].contains(&mode) {
                            e.push(format!("rows[{i}]: unknown mode {mode:?}"));
                        }
                    }
                }
            }
        }
        Some(_) => e.push("rows array is empty".to_string()),
        None => e.push("rows missing or not an array".to_string()),
    }
    if doc.get("summary").and_then(Value::as_object).is_none() {
        e.push("summary missing or not an object".to_string());
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed_matrix() -> Value {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/matrix/canonical.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        serde_json::from_str(&text).expect("canonical.json parses")
    }

    #[test]
    fn committed_matrix_golden_is_schema_valid() {
        let doc = committed_matrix();
        assert_eq!(validate(&doc), Ok(ArtifactKind::Matrix));
    }

    #[test]
    fn matrix_validator_catches_shape_drift() {
        // Inconsistent summary counts.
        let mut doc = committed_matrix();
        if let Value::Object(map) = &mut doc {
            let summary = serde_json::json!({"cells": 1, "passed": 0, "failed": 1});
            map.insert("summary".to_string(), summary);
        }
        let errors = validate(&doc).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("summary.cells")),
            "{errors:?}"
        );

        // A failing cell must name its invariant and carry a replay.
        let mut doc = committed_matrix();
        if let Value::Object(map) = &mut doc {
            if let Some(Value::Array(cells)) = map.get_mut("cells") {
                if let Value::Object(cell) = &mut cells[0] {
                    cell.insert("pass".to_string(), Value::Bool(false));
                }
            }
        }
        let errors = validate(&doc).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("without an invariant")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("without a replay")),
            "{errors:?}"
        );
    }

    #[test]
    fn detect_rejects_headerless_documents() {
        let doc = serde_json::json!({"rows": []});
        assert!(ArtifactKind::detect(&doc).is_err());
        let doc = serde_json::json!({"tool": "mystery"});
        assert!(ArtifactKind::detect(&doc).is_err());
    }

    #[test]
    fn bench_documents_validate_by_shape() {
        let overload = serde_json::json!({
            "bench": "overload",
            "schema_version": 1,
            "seed": 7, "calls": 600, "service_us": 1000, "budget_ms": 50, "smoke": true,
            "rows": (vec![serde_json::json!({
                "multiplier": 2.0,
                "shedding": true,
                "calls_issued": 600,
                "calls_ok": 400,
                "calls_shed": 200,
                "calls_timed_out": 0,
                "calls_aborted": 0,
                "expired_drops": 0,
                "expired_executions": 0,
                "queue_peak": 12,
                "servable": 300,
                "goodput_ratio": 1.0
            })]),
            "summary": {}
        });
        assert_eq!(validate(&overload), Ok(ArtifactKind::Overload));

        // A row missing a required field.
        let mut bad = overload.clone();
        if let Value::Object(map) = &mut bad {
            if let Some(Value::Array(rows)) = map.get_mut("rows") {
                if let Value::Object(row) = &mut rows[0] {
                    row.remove("goodput_ratio");
                }
            }
        }
        let errors = validate(&bad).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("goodput_ratio")),
            "{errors:?}"
        );

        let jit = serde_json::json!({
            "bench": "jit",
            "schema_version": 1,
            "seed": 7, "smoke": true, "chain": "x", "best_tier": "native",
            "rows": (vec![serde_json::json!({
                "tier": "native",
                "mode": "fused",
                "iters": 1000,
                "elapsed_ms": 1.0,
                "ns_per_msg": 100.0,
                "msgs_per_sec": 1.0e7,
                "forwarded": 1000,
                "dropped": 0,
                "aborted": 0
            })]),
            "summary": {}
        });
        assert_eq!(validate(&jit), Ok(ArtifactKind::Jit));

        // An unknown execution mode violates the jit shape invariant.
        let mut bad = jit.clone();
        if let Value::Object(map) = &mut bad {
            if let Some(Value::Array(rows)) = map.get_mut("rows") {
                if let Value::Object(row) = &mut rows[0] {
                    row.insert("mode".to_string(), Value::from("batch"));
                }
            }
        }
        let errors = validate(&bad).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("unknown mode")),
            "{errors:?}"
        );

        // Missing rows entirely.
        let mut empty = jit;
        if let Value::Object(map) = &mut empty {
            map.insert("rows".to_string(), Value::Array(Vec::new()));
        }
        let errors = validate(&empty).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("rows")), "{errors:?}");
    }

    #[test]
    fn simseed_reports_validate() {
        let good = serde_json::json!({
            "tool": "simseed",
            "schema_version": 1,
            "scenario": "overload",
            "seeds_run": 32,
            "pass": true,
            "failures": []
        });
        assert_eq!(validate(&good), Ok(ArtifactKind::Simseed));

        let inconsistent = serde_json::json!({
            "tool": "simseed",
            "schema_version": 1,
            "scenario": "overload",
            "seeds_run": 32,
            "pass": true,
            "failures": (vec![serde_json::json!({
                "seed": 3, "events": 100, "min_events": 12,
                "invariant": "ZeroLoss", "at_event": 12, "at_ns": 5,
                "detail": "lost call", "replay": "cargo run ..."
            })])
        });
        let errors = validate(&inconsistent).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("failures listed")),
            "{errors:?}"
        );
    }
}
