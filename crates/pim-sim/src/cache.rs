//! Sweep-cell memoization: models and per-(model x config x steps)
//! reports.
//!
//! `repro all` evaluates the same cells repeatedly — Fig. 8/9 runs the
//! Hetero PIM once for its energy baseline and again inside the
//! evaluation set, Figs. 10–13 re-run it per model, and every section
//! rebuilds its models from scratch. Both the model builder and the
//! simulator are pure functions of their inputs (the engine is
//! deterministic by construction, a property the differential suite and
//! the CI byte-diff pin down), so caching is behavior-invisible: a hit
//! returns exactly the report a fresh run would produce.
//!
//! Keys are structural fingerprints (the graph's kept
//! [`Graph::structural_hash`] and the configuration's
//! [`Fingerprint`](pim_common::fingerprint::Fingerprint), which hashes its
//! fields directly), not addresses, so independently built but identical
//! models share cells.

use crate::configs::{simulate, SystemConfig};
use pim_common::Result;
use pim_graph::Graph;
use pim_models::{Model, ModelKind};
use pim_runtime::stats::ExecutionReport;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

type ModelMap = HashMap<(ModelKind, usize), Arc<Model>>;

static MODELS: OnceLock<Mutex<ModelMap>> = OnceLock::new();

/// [`Model::build`] behind the process-wide model cache: the
/// paper-batch entry of [`model_with_batch`].
///
/// # Errors
///
/// Propagates model-construction failures (never cached).
pub fn model(kind: ModelKind) -> Result<Arc<Model>> {
    model_with_batch(kind, kind.paper_batch_size())
}

/// [`Model::build_with_batch`] behind a process-wide cache keyed by
/// `(kind, batch)`; serve requests carrying a `batch` override and the
/// paper-batch sweeps share it.
///
/// # Errors
///
/// Propagates model-construction failures (never cached).
pub fn model_with_batch(kind: ModelKind, batch: usize) -> Result<Arc<Model>> {
    let cache = MODELS.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache
        .lock()
        .expect("model cache poisoned")
        .get(&(kind, batch))
    {
        return Ok(Arc::clone(hit));
    }
    let built = Arc::new(Model::build_with_batch(kind, batch)?);
    cache
        .lock()
        .expect("model cache poisoned")
        .insert((kind, batch), Arc::clone(&built));
    Ok(built)
}

/// Cell key: graph fingerprint + op count (collision discriminant),
/// configuration fingerprint, steps.
type CellKey = (u64, usize, u64, usize);

static CELLS: OnceLock<Mutex<HashMap<CellKey, ExecutionReport>>> = OnceLock::new();

fn cell_key(graph: &Graph, config: &SystemConfig, steps: usize) -> CellKey {
    (
        graph.structural_hash(),
        graph.op_count(),
        pim_common::fingerprint::of(config),
        steps,
    )
}

/// [`simulate`] behind the process-wide sweep-cell cache.
///
/// # Errors
///
/// Propagates simulation failures (never cached).
pub fn cell_report(model: &Model, config: &SystemConfig, steps: usize) -> Result<ExecutionReport> {
    let key = cell_key(model.graph(), config, steps);
    let cache = CELLS.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().expect("cell cache poisoned").get(&key) {
        return Ok(hit.clone());
    }
    // Simulate outside the lock: concurrent misses on the same cell both
    // compute the (identical) result and the last insert wins.
    let report = simulate(model, config, steps)?;
    cache
        .lock()
        .expect("cell cache poisoned")
        .insert(key, report.clone());
    Ok(report)
}

static REQUESTS: OnceLock<Mutex<HashMap<u64, Arc<pim_serve::StoredResult>>>> = OnceLock::new();

/// The process-wide shared result store of the serve daemon: request
/// fingerprints ([`pim_runtime::RunRequest::fingerprint`] plus the
/// fault-spec suffix, see [`crate::serve`]) to completed results. Every
/// connection and every tenant shares this one map, which is what makes
/// identical cells simulate exactly once across tenants.
#[derive(Debug, Default, Clone, Copy)]
pub struct SharedStore;

impl pim_serve::ResultStore for SharedStore {
    fn get(&self, key: u64) -> Option<Arc<pim_serve::StoredResult>> {
        REQUESTS
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("request store poisoned")
            .get(&key)
            .cloned()
    }

    fn put(&self, key: u64, result: Arc<pim_serve::StoredResult>) {
        REQUESTS
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("request store poisoned")
            .insert(key, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_cell_equals_fresh_simulation() {
        let m = Model::build_with_batch(ModelKind::AlexNet, 4).unwrap();
        let cfg = SystemConfig::hetero_pim();
        let first = cell_report(&m, &cfg, 2).unwrap();
        let hit = cell_report(&m, &cfg, 2).unwrap();
        let fresh = simulate(&m, &cfg, 2).unwrap();
        assert_eq!(first, hit);
        assert_eq!(first, fresh);
    }

    #[test]
    fn distinct_steps_are_distinct_cells() {
        let m = Model::build_with_batch(ModelKind::Dcgan, 4).unwrap();
        let cfg = SystemConfig::Cpu;
        let one = cell_report(&m, &cfg, 1).unwrap();
        let two = cell_report(&m, &cfg, 2).unwrap();
        assert!(two.makespan > one.makespan);
    }

    #[test]
    fn model_cache_returns_shared_instances() {
        let a = model(ModelKind::AlexNet).unwrap();
        let b = model(ModelKind::AlexNet).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let batch = ModelKind::AlexNet.paper_batch_size();
        let c = model_with_batch(ModelKind::AlexNet, batch).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!(
            a.graph().structural_hash(),
            Model::build(ModelKind::AlexNet)
                .unwrap()
                .graph()
                .structural_hash()
        );
    }
}
