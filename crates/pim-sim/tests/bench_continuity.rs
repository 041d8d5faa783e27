//! Bench continuity across PRs: each checked-in `BENCH_pr*.json` must be
//! a valid, full-grid successor to its predecessor, and the fault
//! subsystem must keep its bookkeeping off the zero-fault hot path.
//!
//! Absolute milliseconds in the checked-in files were recorded under
//! different machine load, so the <5% regression budget is asserted
//! like-for-like instead: the faulted entry point with `FaultPlan::none`
//! is timed against the plain entry point in the same process, same
//! moment, interleaved. An interleaved A/B of the pre-/post-change
//! release binaries over the full grid measured a 0.99x sum-of-medians
//! ratio at the time pr5 was recorded; the pr6 component-core refactor
//! recorded a 7.76x `repro all` speedup (its `repro_all` block), driven
//! by the linear-time dependency expansion in `pim_graph`.

use pim_hw::faults::FaultPlan;
use pim_models::{Model, ModelKind};
use pim_runtime::engine::{
    Engine, EngineConfig, RunOptions, RunRequest, SystemPreset, WorkloadSpec,
};
use pim_sim::bench::validate_bench_json;
use std::time::Instant;

fn repo_file(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string() + "/" + name;
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The (model, preset) key set of a bench document.
fn cell_keys(text: &str) -> Vec<(String, String)> {
    let doc = pim_common::trace::parse_json(text).expect("bench json parses");
    doc.field("cells")
        .and_then(|c| c.as_arr())
        .expect("cells array")
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
            )
        })
        .collect()
}

#[test]
fn checked_in_bench_files_are_valid_and_cover_the_same_grid() {
    let pr4 = repo_file("BENCH_pr4.json");
    let pr5 = repo_file("BENCH_pr5.json");
    let pr6 = repo_file("BENCH_pr6.json");
    let pr14 = repo_file("BENCH_pr14.json");
    validate_bench_json(&pr4).expect("BENCH_pr4.json validates");
    validate_bench_json(&pr5).expect("BENCH_pr5.json validates");
    validate_bench_json(&pr6).expect("BENCH_pr6.json validates");
    validate_bench_json(&pr14).expect("BENCH_pr14.json validates");
    let (k4, k5, k6) = (cell_keys(&pr4), cell_keys(&pr5), cell_keys(&pr6));
    assert_eq!(k4.len(), 42, "pr4 grid is not 7 models x 6 presets");
    assert_eq!(
        k4, k5,
        "pr5 must cover exactly the pr4 (model, preset) grid"
    );
    assert_eq!(
        k5, k6,
        "pr6 must cover exactly the pr5 (model, preset) grid"
    );
    assert_eq!(
        k6,
        cell_keys(&pr14),
        "pr14 must cover exactly the pr6 (model, preset) grid"
    );
    // The graph-identity memo change records an interleaved `repro all`
    // A/B against the commit before it.
    let speedup = pim_common::trace::parse_json(&pr14)
        .expect("bench json parses")
        .field("repro_all")
        .and_then(|r| r.field("speedup"))
        .and_then(pim_common::trace::Json::as_num)
        .expect("pr14 must carry the repro_all A/B record");
    assert!(
        speedup >= 1.3,
        "pr14 repro-all speedup gate (>=1.3x) not met: {speedup}"
    );
}

#[test]
fn pr6_records_the_component_core_speedup() {
    let pr6 = repo_file("BENCH_pr6.json");
    let doc = pim_common::trace::parse_json(&pr6).expect("bench json parses");
    let repro_all = doc
        .field("repro_all")
        .expect("pr6 must carry the repro_all A/B record");
    let speedup = repro_all
        .field("speedup")
        .and_then(pim_common::trace::Json::as_num)
        .expect("repro_all.speedup");
    assert!(
        speedup >= 1.5,
        "pr6 repro-all speedup gate (>=1.5x) not met: {speedup}"
    );
    // The two checked-in bench files must also diff cleanly through the
    // comparison path `repro bench --compare` uses.
    let pr5 = repo_file("BENCH_pr5.json");
    let table = pim_sim::bench::compare_bench_json(&pr5, &pr6).expect("pr5 vs pr6 compares");
    assert!(
        table.contains("geomean speedup over 42 matched cells"),
        "{table}"
    );
}

#[test]
fn none_plan_entry_point_stays_within_the_hot_path_budget() {
    // Interleave the two entry points so load drift hits both equally,
    // then compare medians. The none-plan entry resolves to the very
    // same run path after one `is_none` check, so the 5% budget is
    // generous — it exists to catch fault bookkeeping leaking into the
    // zero-fault engine, not scheduling noise.
    let model = Model::build(ModelKind::AlexNet).unwrap();
    let spec = [WorkloadSpec {
        graph: model.graph(),
        steps: 3,
        cpu_progr_only: false,
    }];
    let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
    let none = FaultPlan::none();
    let opts = RunOptions::default();
    // Warm both paths (profile memo, allocator).
    engine.execute(&RunRequest::new(&spec)).unwrap();
    engine
        .execute(
            &RunRequest::new(&spec)
                .with_options(opts)
                .with_faults(none.clone()),
        )
        .unwrap();
    let mut plain_ms = Vec::new();
    let mut faulted_ms = Vec::new();
    for _ in 0..15 {
        let t = Instant::now();
        engine.execute(&RunRequest::new(&spec)).unwrap();
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        engine
            .execute(
                &RunRequest::new(&spec)
                    .with_options(opts)
                    .with_faults(none.clone()),
            )
            .unwrap();
        faulted_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (plain, faulted) = (median(plain_ms), median(faulted_ms));
    assert!(
        faulted <= plain * 1.05,
        "none-plan entry regressed the hot path: {faulted:.3} ms vs {plain:.3} ms"
    );
}
