//! Differential guard for the fault-injection subsystem: running every
//! golden sweep cell through the faulted entry point with
//! [`FaultPlan::none`] must reproduce the checked-in golden table
//! byte-for-byte. The golden file predates the fault subsystem, so this
//! pins "no plan means the untouched zero-fault hot path" at the
//! strongest possible granularity — the shortest-round-trip `f64`
//! rendering of all 42 (model x preset) cells.

use pim_hw::faults::FaultPlan;
use pim_models::{Model, ModelKind};
use pim_runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
use std::fmt::Write as _;

const STEPS: usize = 2;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sweep_reports.txt"
);

#[test]
fn none_plan_sweep_matches_the_golden_table() {
    let mut out = String::new();
    writeln!(
        out,
        "# model | preset | makespan_s | op_s | dm_s | sync_s | energy_j | ff_util"
    )
    .unwrap();
    for kind in ModelKind::ALL {
        let model = Model::build(kind).unwrap();
        for preset in SystemPreset::ALL {
            let engine = Engine::new(EngineConfig::preset(preset));
            let run = engine
                .execute(
                    &RunRequest::new(&[WorkloadSpec {
                        graph: model.graph(),
                        steps: STEPS,
                        cpu_progr_only: false,
                    }])
                    .with_faults(FaultPlan::none()),
                )
                .unwrap();
            assert!(run.degraded.is_none(), "{kind} @ {preset:?}");
            let r = run.report();
            writeln!(
                out,
                "{} | {} | {:?} | {:?} | {:?} | {:?} | {:?} | {:?}",
                kind.name(),
                preset.name(),
                r.makespan.seconds(),
                r.op_time.seconds(),
                r.data_movement_time.seconds(),
                r.sync_time.seconds(),
                r.dynamic_energy.joules(),
                r.ff_utilization,
            )
            .unwrap();
        }
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden table missing — regenerate with UPDATE_GOLDEN=1");
    for (n, (e, a)) in expected.lines().zip(out.lines()).enumerate() {
        assert_eq!(e, a, "none-plan cell drifted from golden at line {}", n + 1);
    }
    assert_eq!(expected.lines().count(), out.lines().count());
}
