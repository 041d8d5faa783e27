//! The persistent benchmark harness behind `repro bench`.
//!
//! Times every requested (model x [`SystemPreset`]) sweep cell in wall
//! clock and serializes the results as a `BENCH_*.json` trajectory file —
//! the regression record ROADMAP tracks across PRs. The schema is
//! deliberately small, hand-written, and validated by [`validate_bench_json`]
//! so CI can smoke-test the emitted file without external JSON crates.
//!
//! `BENCH_*.json` schema (`hetero-pim-bench-v1`):
//!
//! ```json
//! {
//!   "schema": "hetero-pim-bench-v1",
//!   "commit": "<git short hash or \"unknown\">",
//!   "machine": {"os": "linux", "arch": "x86_64", "cores": 1},
//!   "steps": 3,
//!   "iterations": 3,
//!   "cells": [
//!     {"model": "AlexNet", "preset": "CPU", "ops": 80,
//!      "median_ms": 1.234, "min_ms": 1.101, "ops_per_sec": 194489.4}
//!   ],
//!   "repro_all": {
//!     "pre_change_ms":  {"median": 2429.0, "min": 2204.0},
//!     "post_change_ms": {"median": 900.0,  "min": 850.0},
//!     "speedup": 2.70
//!   }
//! }
//! ```
//!
//! `cells[*].ops_per_sec` is simulated op instances retired per wall-clock
//! second (`ops * steps / median`). The optional `repro_all` block records
//! a before/after measurement of the full `repro all` sweep; `speedup` is
//! `pre.median / post.median`.

use crate::configs::{simulate, SystemConfig};
use pim_common::trace::json_string;
use pim_common::{PimError, Result};
use pim_models::{Model, ModelKind};
use pim_runtime::engine::{EngineConfig, SystemPreset};
use std::fmt::Write as _;
use std::time::Instant;

/// Schema identifier written into (and required from) every bench file.
pub const BENCH_SCHEMA: &str = "hetero-pim-bench-v1";

/// Wall-clock timing of one (model x preset) sweep cell.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// Model display name.
    pub model: &'static str,
    /// Preset display name.
    pub preset: &'static str,
    /// Op count of one training step.
    pub ops: usize,
    /// Median wall-clock per simulation, milliseconds.
    pub median_ms: f64,
    /// Fastest observed simulation, milliseconds.
    pub min_ms: f64,
    /// Simulated op instances per wall-clock second (`ops * steps /
    /// median`).
    pub ops_per_sec: f64,
}

/// Before/after timing of the full `repro all` sweep.
#[derive(Debug, Clone, Copy)]
pub struct ReproAllTiming {
    /// Pre-change median / min, milliseconds (recorded externally, before
    /// the optimization landed).
    pub pre_median_ms: f64,
    /// Pre-change fastest run, milliseconds.
    pub pre_min_ms: f64,
    /// Post-change median, milliseconds.
    pub post_median_ms: f64,
    /// Post-change fastest run, milliseconds.
    pub post_min_ms: f64,
}

impl ReproAllTiming {
    /// Median-over-median speedup of the change.
    pub fn speedup(&self) -> f64 {
        self.pre_median_ms / self.post_median_ms
    }
}

/// One complete bench run, ready to serialize.
#[derive(Debug, Clone)]
pub struct BenchFile {
    /// Build the cells were measured at (git short hash, or "unknown").
    pub commit: String,
    /// Training steps per simulated cell.
    pub steps: usize,
    /// Timed iterations per cell (after one untimed warmup).
    pub iterations: usize,
    /// Every measured cell, in (model, preset) sweep order.
    pub cells: Vec<CellTiming>,
    /// The before/after `repro all` record, when measured.
    pub repro_all: Option<ReproAllTiming>,
}

/// The git short hash of `HEAD`, or "unknown" outside a git checkout.
pub fn current_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn median_of(sorted_ms: &[f64]) -> f64 {
    let n = sorted_ms.len();
    if n % 2 == 1 {
        sorted_ms[n / 2]
    } else {
        f64::midpoint(sorted_ms[n / 2 - 1], sorted_ms[n / 2])
    }
}

/// Times every (model x preset) cell: one untimed warmup (which also
/// warms the profiler's step memo, matching sweep steady state), then
/// `iterations` timed simulations, reduced to median/min.
///
/// # Errors
///
/// Propagates model-construction and simulation failures.
pub fn bench_cells(
    kinds: &[ModelKind],
    presets: &[SystemPreset],
    steps: usize,
    iterations: usize,
) -> Result<Vec<CellTiming>> {
    if iterations == 0 {
        return Err(PimError::invalid("bench_cells", "iterations must be > 0"));
    }
    let mut cells = Vec::with_capacity(kinds.len() * presets.len());
    for &kind in kinds {
        let model = Model::build(kind)?;
        let ops = model.graph().op_count();
        for &preset in presets {
            let config = SystemConfig::HeteroPim(EngineConfig::preset(preset));
            simulate(&model, &config, steps)?; // warmup
            let mut samples_ms = Vec::with_capacity(iterations);
            for _ in 0..iterations {
                let start = Instant::now();
                simulate(&model, &config, steps)?;
                samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            samples_ms.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
            let median_ms = median_of(&samples_ms);
            cells.push(CellTiming {
                model: kind.name(),
                preset: preset.name(),
                ops,
                median_ms,
                min_ms: samples_ms[0],
                ops_per_sec: (ops * steps) as f64 / (median_ms / 1e3),
            });
        }
    }
    Ok(cells)
}

/// Times `runs` cold invocations of `repro all` by spawning the current
/// executable as a subprocess (stdout discarded), returning sorted
/// millisecond samples. Cold processes measure the real user-facing sweep
/// — in-process repeats would hit warm caches and flatter the number.
///
/// # Errors
///
/// Fails when the executable cannot be located or a run exits nonzero.
pub fn time_repro_all(runs: usize) -> Result<Vec<f64>> {
    let exe = std::env::current_exe()
        .map_err(|e| PimError::invalid("time_repro_all", format!("no current exe: {e}")))?;
    let mut samples_ms = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        let status = std::process::Command::new(&exe)
            .arg("all")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .map_err(|e| PimError::invalid("time_repro_all", format!("spawn failed: {e}")))?;
        if !status.success() {
            return Err(PimError::invalid(
                "time_repro_all",
                "repro all exited nonzero",
            ));
        }
        samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples_ms.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    Ok(samples_ms)
}

/// Builds a [`ReproAllTiming`] from a pre-change record and fresh sorted
/// post-change samples (from [`time_repro_all`]).
pub fn repro_all_timing(pre_median_ms: f64, pre_min_ms: f64, post_ms: &[f64]) -> ReproAllTiming {
    ReproAllTiming {
        pre_median_ms,
        pre_min_ms,
        post_median_ms: median_of(post_ms),
        post_min_ms: post_ms.first().copied().unwrap_or(f64::NAN),
    }
}

/// Serializes a bench run to the `hetero-pim-bench-v1` document, with a
/// fixed key order so diffs between trajectory files stay readable.
pub fn to_json(file: &BenchFile) -> String {
    let mut out = String::new();
    writeln!(out, "{{").ok();
    writeln!(out, "  \"schema\": \"{BENCH_SCHEMA}\",").ok();
    writeln!(out, "  \"commit\": {},", json_string(&file.commit)).ok();
    writeln!(
        out,
        "  \"machine\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cores\": {}}},",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    )
    .ok();
    writeln!(out, "  \"steps\": {},", file.steps).ok();
    writeln!(out, "  \"iterations\": {},", file.iterations).ok();
    writeln!(out, "  \"cells\": [").ok();
    for (i, c) in file.cells.iter().enumerate() {
        let comma = if i + 1 < file.cells.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"model\": {}, \"preset\": {}, \"ops\": {}, \
             \"median_ms\": {:.3}, \"min_ms\": {:.3}, \"ops_per_sec\": {:.1}}}{comma}",
            json_string(c.model),
            json_string(c.preset),
            c.ops,
            c.median_ms,
            c.min_ms,
            c.ops_per_sec,
        )
        .ok();
    }
    write!(out, "  ]").ok();
    if let Some(r) = &file.repro_all {
        writeln!(out, ",").ok();
        writeln!(out, "  \"repro_all\": {{").ok();
        writeln!(
            out,
            "    \"pre_change_ms\": {{\"median\": {:.1}, \"min\": {:.1}}},",
            r.pre_median_ms, r.pre_min_ms
        )
        .ok();
        writeln!(
            out,
            "    \"post_change_ms\": {{\"median\": {:.1}, \"min\": {:.1}}},",
            r.post_median_ms, r.post_min_ms
        )
        .ok();
        writeln!(out, "    \"speedup\": {:.2}", r.speedup()).ok();
        write!(out, "  }}").ok();
    }
    writeln!(out).ok();
    writeln!(out, "}}").ok();
    out
}

/// Validates a `BENCH_*.json` document against the `hetero-pim-bench-v1`
/// schema: identifier, machine block, and per-cell fields with positive
/// timings.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_bench_json(text: &str) -> std::result::Result<(), String> {
    let doc = pim_common::trace::parse_json(text)?;
    if doc.field("schema").and_then(|s| s.as_str()) != Some(BENCH_SCHEMA) {
        return Err(format!("schema identifier is not \"{BENCH_SCHEMA}\""));
    }
    if doc.field("commit").and_then(|c| c.as_str()).is_none() {
        return Err("missing string `commit`".to_string());
    }
    let machine = doc.field("machine").ok_or("missing `machine` object")?;
    for key in ["os", "arch"] {
        if machine.field(key).and_then(|v| v.as_str()).is_none() {
            return Err(format!("machine.{key} missing or not a string"));
        }
    }
    if machine
        .field("cores")
        .and_then(pim_common::trace::Json::as_num)
        .is_none()
    {
        return Err("machine.cores missing or not a number".to_string());
    }
    for key in ["steps", "iterations"] {
        if doc
            .field(key)
            .and_then(pim_common::trace::Json::as_num)
            .is_none()
        {
            return Err(format!("`{key}` missing or not a number"));
        }
    }
    let cells = doc
        .field("cells")
        .and_then(|c| c.as_arr())
        .ok_or("missing `cells` array")?;
    if cells.is_empty() {
        return Err("`cells` is empty".to_string());
    }
    for (i, cell) in cells.iter().enumerate() {
        for key in ["model", "preset"] {
            if cell.field(key).and_then(|v| v.as_str()).is_none() {
                return Err(format!("cells[{i}].{key} missing or not a string"));
            }
        }
        for key in ["ops", "median_ms", "min_ms", "ops_per_sec"] {
            match cell.field(key).and_then(pim_common::trace::Json::as_num) {
                Some(v) if v > 0.0 => {}
                _ => return Err(format!("cells[{i}].{key} missing or not positive")),
            }
        }
    }
    if let Some(r) = doc.field("repro_all") {
        for block in ["pre_change_ms", "post_change_ms"] {
            let b = r
                .field(block)
                .ok_or_else(|| format!("repro_all.{block} missing"))?;
            for key in ["median", "min"] {
                match b.field(key).and_then(pim_common::trace::Json::as_num) {
                    Some(v) if v > 0.0 => {}
                    _ => return Err(format!("repro_all.{block}.{key} missing or not positive")),
                }
            }
        }
        match r.field("speedup").and_then(pim_common::trace::Json::as_num) {
            Some(v) if v > 0.0 => {}
            _ => return Err("repro_all.speedup missing or not positive".to_string()),
        }
    }
    Ok(())
}

/// Renders the `repro bench --compare <a> <b>` table: per-cell median
/// deltas between two `hetero-pim-bench-v1` documents, matched by
/// `(model, preset)`, plus the geometric-mean speedup over the matched
/// cells. Cells present in only one file are listed but excluded from the
/// geomean. `speedup` per cell is `a.median / b.median`, so values above
/// 1.0 mean `b` is faster.
///
/// # Errors
///
/// Returns a description of the first schema violation in either file.
pub fn compare_bench_json(a_text: &str, b_text: &str) -> std::result::Result<String, String> {
    validate_bench_json(a_text).map_err(|e| format!("first file: {e}"))?;
    validate_bench_json(b_text).map_err(|e| format!("second file: {e}"))?;

    fn cells_of(text: &str) -> Vec<(String, String, f64)> {
        let doc = pim_common::trace::parse_json(text).expect("validated above");
        doc.field("cells")
            .and_then(|c| c.as_arr())
            .expect("validated above")
            .iter()
            .map(|cell| {
                (
                    cell.field("model")
                        .and_then(|v| v.as_str())
                        .unwrap()
                        .to_string(),
                    cell.field("preset")
                        .and_then(|v| v.as_str())
                        .unwrap()
                        .to_string(),
                    cell.field("median_ms")
                        .and_then(pim_common::trace::Json::as_num)
                        .unwrap(),
                )
            })
            .collect()
    }
    fn commit_of(text: &str) -> String {
        pim_common::trace::parse_json(text)
            .ok()
            .and_then(|d| d.field("commit").and_then(|c| c.as_str()).map(String::from))
            .unwrap_or_else(|| "unknown".to_string())
    }

    let a_cells = cells_of(a_text);
    let b_cells = cells_of(b_text);
    let mut out = String::new();
    writeln!(
        out,
        "bench compare: a = commit {}, b = commit {}",
        commit_of(a_text),
        commit_of(b_text)
    )
    .ok();
    writeln!(
        out,
        "{:<14} {:<14} {:>12} {:>12} {:>9} {:>9}",
        "model", "preset", "a median/ms", "b median/ms", "delta", "speedup"
    )
    .ok();

    let mut log_sum = 0.0f64;
    let mut matched = 0usize;
    for (model, preset, a_ms) in &a_cells {
        let Some((_, _, b_ms)) = b_cells.iter().find(|(m, p, _)| m == model && p == preset) else {
            writeln!(
                out,
                "{model:<14} {preset:<14} {a_ms:>12.3} {:>12} {:>9} {:>9}",
                "-", "-", "-"
            )
            .ok();
            continue;
        };
        let delta_pct = (b_ms - a_ms) / a_ms * 100.0;
        let speedup = a_ms / b_ms;
        log_sum += speedup.ln();
        matched += 1;
        writeln!(
            out,
            "{model:<14} {preset:<14} {a_ms:>12.3} {b_ms:>12.3} {delta_pct:>+8.1}% {speedup:>8.2}x"
        )
        .ok();
    }
    for (model, preset, b_ms) in &b_cells {
        if !a_cells.iter().any(|(m, p, _)| m == model && p == preset) {
            writeln!(
                out,
                "{model:<14} {preset:<14} {:>12} {b_ms:>12.3} {:>9} {:>9}",
                "-", "-", "-"
            )
            .ok();
        }
    }
    if matched == 0 {
        return Err("no (model, preset) cells in common".to_string());
    }
    let geomean = (log_sum / matched as f64).exp();
    writeln!(
        out,
        "geomean speedup over {matched} matched cells: {geomean:.2}x"
    )
    .ok();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_file() -> BenchFile {
        BenchFile {
            commit: "abc1234".to_string(),
            steps: 1,
            iterations: 1,
            cells: vec![CellTiming {
                model: "AlexNet",
                preset: "CPU",
                ops: 80,
                median_ms: 1.5,
                min_ms: 1.2,
                ops_per_sec: 53333.3,
            }],
            repro_all: Some(ReproAllTiming {
                pre_median_ms: 2429.0,
                pre_min_ms: 2204.0,
                post_median_ms: 1000.0,
                post_min_ms: 950.0,
            }),
        }
    }

    #[test]
    fn emitted_json_validates() {
        let json = to_json(&tiny_file());
        validate_bench_json(&json).unwrap();
    }

    #[test]
    fn emitted_json_without_repro_all_validates() {
        let mut f = tiny_file();
        f.repro_all = None;
        validate_bench_json(&to_json(&f)).unwrap();
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(validate_bench_json("not json").is_err());
        assert!(validate_bench_json("{}").is_err());
        let wrong_schema = to_json(&tiny_file()).replace(BENCH_SCHEMA, "other-schema");
        assert!(validate_bench_json(&wrong_schema).is_err());
        let no_cells = to_json(&BenchFile {
            cells: Vec::new(),
            ..tiny_file()
        });
        assert!(validate_bench_json(&no_cells).is_err());
    }

    #[test]
    fn bench_cells_measures_requested_grid() {
        let cells = bench_cells(
            &[ModelKind::AlexNet],
            &[SystemPreset::CpuOnly, SystemPreset::Hetero],
            1,
            1,
        )
        .unwrap();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.median_ms > 0.0 && c.ops > 0));
        assert_eq!(cells[0].preset, "CPU");
        assert_eq!(cells[1].preset, "Hetero PIM");
    }

    #[test]
    fn compare_reports_per_cell_deltas_and_geomean() {
        let a = to_json(&tiny_file());
        let mut faster = tiny_file();
        faster.cells[0].median_ms = 0.75; // 2x faster than the 1.5ms baseline
        let b = to_json(&faster);
        let table = compare_bench_json(&a, &b).unwrap();
        assert!(table.contains("AlexNet"), "{table}");
        assert!(table.contains("2.00x"), "{table}");
        assert!(
            table.contains("geomean speedup over 1 matched cells: 2.00x"),
            "{table}"
        );
    }

    #[test]
    fn compare_rejects_invalid_and_disjoint_inputs() {
        let a = to_json(&tiny_file());
        assert!(compare_bench_json(&a, "not json").is_err());
        assert!(compare_bench_json("not json", &a).is_err());
        let mut other = tiny_file();
        other.cells[0].preset = "Hetero PIM";
        let err = compare_bench_json(&a, &to_json(&other)).unwrap_err();
        assert!(err.contains("no (model, preset) cells in common"), "{err}");
    }

    #[test]
    fn compare_lists_unmatched_cells_but_excludes_them_from_the_geomean() {
        // a: {AlexNet@CPU, VGG@CPU}; b: {AlexNet@CPU (2x faster), LSTM@CPU}.
        // Only AlexNet@CPU matches; the extra cell on each side must be
        // listed with `-` placeholders and left out of the geomean.
        let mut a_file = tiny_file();
        a_file.cells.push(CellTiming {
            model: "VGG",
            preset: "CPU",
            ops: 100,
            median_ms: 3.0,
            min_ms: 2.8,
            ops_per_sec: 33333.3,
        });
        let mut b_file = tiny_file();
        b_file.cells[0].median_ms = 0.75;
        b_file.cells.push(CellTiming {
            model: "LSTM",
            preset: "CPU",
            ops: 60,
            median_ms: 4.0,
            min_ms: 3.9,
            ops_per_sec: 15000.0,
        });
        let table = compare_bench_json(&to_json(&a_file), &to_json(&b_file)).unwrap();
        assert!(table.contains("VGG"), "{table}");
        assert!(table.contains("LSTM"), "{table}");
        assert!(
            table.contains("geomean speedup over 1 matched cells: 2.00x"),
            "unmatched cells must not dilute the geomean: {table}"
        );
        let vgg_row = table.lines().find(|l| l.starts_with("VGG")).unwrap();
        assert!(
            vgg_row.contains('-'),
            "a-only cell renders placeholders: {vgg_row}"
        );
        let lstm_row = table.lines().find(|l| l.starts_with("LSTM")).unwrap();
        assert!(
            lstm_row.contains('-'),
            "b-only cell renders placeholders: {lstm_row}"
        );
    }

    #[test]
    fn speedup_is_median_ratio() {
        let r = repro_all_timing(2000.0, 1900.0, &[400.0, 500.0, 600.0]);
        assert_eq!(r.post_median_ms, 500.0);
        assert_eq!(r.post_min_ms, 400.0);
        assert!((r.speedup() - 4.0).abs() < 1e-12);
    }
}
