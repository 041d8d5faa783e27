//! The four workloads. Each runs once per process (the caches it
//! exercises are process-global, and users pay them cold once per
//! process) and reports one [`Rep`].
//!
//! A traced repetition runs the same pass with spans around every call
//! the benchmark makes into a layer, then probes the layers the pass
//! reaches only from inside the program (graph analysis, the engine
//! under a sweep or the daemon) by calling their public functions on
//! the workload's own graphs. The probes run after the pass, so the
//! traced pass time differs from the untraced one only by the cost of
//! recording.

use crate::spans::{self, span, Span};
use crate::stats::{geomean, Tally};
use pim_common::trace::Counters;
use pim_graph::Graph;
use pim_hw::faults::FaultPlan;
use pim_models::{Model, ModelKind};
use pim_runtime::engine::SystemPreset;
use pim_runtime::{Engine, EngineConfig, RunOptions, RunRequest, WorkloadSpec};
use pim_serve::{JobError, JobRunner, MemStore, Request, ResultStore, ServeConfig, StoredResult};
use pim_sim::experiments;
use pim_sim::serve::SimRunner;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper_sweep", "serve_trace", "long_train", "faulted_train"];

/// `repro all`'s sections, fanned out in this order as `repro all` does.
/// Each is (span name, per-layer metric, section).
type Section = (
    &'static str,
    &'static str,
    fn() -> pim_common::Result<String>,
);
const SECTIONS: [Section; 9] = [
    ("sweep.table1", "sweep.table1_ms", experiments::table1),
    ("sweep.fig2", "sweep.fig2_ms", experiments::fig2),
    ("sweep.fig8", "sweep.fig8_ms", experiments::fig8_fig9),
    ("sweep.fig10", "sweep.fig10_ms", experiments::fig10),
    ("sweep.fig11", "sweep.fig11_ms", experiments::fig11_fig17),
    ("sweep.fig12", "sweep.fig12_ms", experiments::fig12),
    (
        "sweep.fig13",
        "sweep.fig13_ms",
        experiments::fig13_fig14_fig15,
    ),
    ("sweep.fig16", "sweep.fig16_ms", experiments::fig16),
    (
        "sweep.ablations",
        "sweep.ablations_ms",
        experiments::ablations,
    ),
];

/// Steps per cell of the Fig. 8/9 grid, which the sweep probe replays.
const SWEEP_STEPS: usize = 3;

/// Run requests in the serve trace: under a second of daemon time on a
/// 2-core host, so one benchmark run holds tens of passes. Which cells a
/// trace computes varies with the seed; twice `repro serve --load`'s
/// 1000 jobs evens that out.
const SERVE_JOBS: usize = 2000;
const SERVE_TENANTS: usize = 4;
/// Every `SAMPLE_EVERY`-th trace line is re-run directly and compared.
const SAMPLE_EVERY: usize = 25;

/// The training graphs: two deep CNNs and the recurrent model.
const TRAIN_MODELS: [ModelKind; 3] = [ModelKind::InceptionV3, ModelKind::Lstm, ModelKind::ResNet50];
/// Enough steps that per-run graph analysis is a few percent of host time.
const TRAIN_STEPS: usize = 40;
/// Aggregate fault rate of `faulted_train`.
const FAULT_RATE: f64 = 0.5;
/// Fault plans per graph in `faulted_train`, the k-th seeded
/// `seed * FAULT_PLANS + k`: one plan decides whether a whole PIM dies,
/// so a single plan per graph would make host time swing with the seed.
const FAULT_PLANS: u64 = 4;

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds to build models, generate the trace and derive fault
    /// horizons, before the pass.
    pub setup_s: f64,
    /// Host wall time of the pass.
    pub host_ms: f64,
    /// Host wall time of each stage of the pass, in pass order: each
    /// training run, or the whole pass where its jobs run concurrently.
    pub stage_ms: Vec<f64>,
    /// Jobs answered in the pass.
    pub jobs: u64,
    /// Checked operations.
    pub tally: Tally,
    /// One digest per job of its simulated output; repetitions of the
    /// same seed must agree.
    pub digests: Vec<u64>,
    /// Deterministic simulated or counted values (hit ratio, simulated
    /// step time and energy, op instances).
    pub values: Vec<(&'static str, f64)>,
    /// Counts a traced repetition's workload took beside its spans.
    counts: Vec<(&'static str, f64)>,
    /// Per-layer metrics of a traced repetition.
    pub layers: Vec<(&'static str, f64)>,
    /// The traced repetition's spans.
    pub spans: Vec<Span>,
}

/// Runs one repetition of `workload`.
///
/// # Panics
///
/// Panics on an unknown workload name (the caller validates it).
pub fn run(workload: &str, seed: u64, traced: bool, threads: usize) -> Rep {
    if traced {
        spans::enable();
    }
    let mut rep = match workload {
        "paper_sweep" => paper_sweep(traced),
        "serve_trace" => serve_trace(seed, traced, threads),
        "long_train" => train(seed, false, traced),
        "faulted_train" => train(seed, true, traced),
        other => panic!("unknown workload `{other}`"),
    };
    if traced {
        rep.spans = spans::recorded();
        rep.layers = layer_metrics(&rep.spans, &rep.counts);
    }
    rep
}

fn digest(value: &impl Hash) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn build_models(kinds: &[ModelKind]) -> Vec<Arc<Model>> {
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            span("models.build", None, i as u64, |_| {
                pim_sim::cache::model(kind)
            })
            .expect("the paper's models build")
        })
        .collect()
}

fn paper_sweep(traced: bool) -> Rep {
    let started = Instant::now();
    let models = build_models(&ModelKind::ALL);
    let mut rep = Rep {
        setup_s: started.elapsed().as_secs_f64(),
        ..Rep::default()
    };

    let started = Instant::now();
    let outputs = span("sweep", None, 0, |sweep| {
        pim_runtime::par::par_map(&SECTIONS, |(name, _, section)| {
            span(name, Some(sweep), 0, |_| section())
        })
    });
    rep.host_ms = started.elapsed().as_secs_f64() * 1e3;
    rep.stage_ms.push(rep.host_ms);

    for ((name, _, _), out) in SECTIONS.iter().zip(&outputs) {
        rep.tally.record(out.is_ok());
        match out {
            Ok(text) => {
                rep.jobs += 1;
                rep.digests.push(digest(text));
            }
            Err(e) => {
                eprintln!("perfbench: {name} failed: {e}");
                rep.digests.push(0);
            }
        }
    }

    if traced {
        let graphs: Vec<&Graph> = models.iter().map(|m| m.graph()).collect();
        let cells: Vec<(usize, SystemPreset, usize)> = (0..graphs.len())
            .flat_map(|g| SystemPreset::ALL.map(|p| (g, p, SWEEP_STEPS)))
            .collect();
        rep.counts = probe_engine(&graphs, &cells, &mut rep.tally);
    }
    rep
}

/// The request id's job number (`j17` → 17), the span request id.
fn req_id(req: &Request) -> u64 {
    req.id.trim_start_matches('j').parse().unwrap_or(u64::MAX)
}

/// [`SimRunner`] with a span around each call.
struct TimedRunner {
    session: u64,
}

impl JobRunner for TimedRunner {
    fn cache_key(&self, req: &Request) -> Result<u64, JobError> {
        span("serve.cache_key", Some(self.session), req_id(req), |_| {
            SimRunner.cache_key(req)
        })
    }

    fn execute(&self, req: &Request) -> Result<StoredResult, JobError> {
        span("serve.execute", Some(self.session), req_id(req), |_| {
            SimRunner.execute(req)
        })
    }
}

/// [`MemStore`] with a span around each lookup and a hit count.
struct TimedStore {
    inner: MemStore,
    session: u64,
    hits: AtomicU64,
}

impl ResultStore for TimedStore {
    fn get(&self, key: u64) -> Option<Arc<StoredResult>> {
        let hit = span("store.get", Some(self.session), key, |_| {
            self.inner.get(key)
        });
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn put(&self, key: u64, result: Arc<StoredResult>) {
        span("store.put", Some(self.session), key, |_| {
            self.inner.put(key, result);
        });
    }
}

fn serve_trace(seed: u64, traced: bool, threads: usize) -> Rep {
    let started = Instant::now();
    let kinds: Vec<ModelKind> = pim_serve::loadgen::MODELS
        .iter()
        .map(|name| pim_sim::serve::model_kind(name).expect("loadgen draws known models"))
        .collect();
    let models = build_models(&kinds);
    let trace = pim_serve::loadgen::generate(SERVE_JOBS, seed, SERVE_TENANTS);
    let input = trace.join("\n") + "\n";
    let mut rep = Rep {
        setup_s: started.elapsed().as_secs_f64(),
        ..Rep::default()
    };

    let cfg = ServeConfig {
        workers: threads,
        ..ServeConfig::default()
    };
    let mut out = Vec::new();
    let mut store_hits = 0;
    let started = Instant::now();
    let stats = span("daemon.session", None, 0, |session| {
        if traced {
            let store = TimedStore {
                inner: MemStore::default(),
                session,
                hits: AtomicU64::new(0),
            };
            let stats = pim_serve::serve_lines(
                &cfg,
                &TimedRunner { session },
                &store,
                input.as_bytes(),
                &mut out,
            );
            store_hits = store.hits.load(Ordering::Relaxed);
            stats
        } else {
            pim_serve::serve_lines(
                &cfg,
                &SimRunner,
                &MemStore::default(),
                input.as_bytes(),
                &mut out,
            )
        }
    })
    .expect("in-memory daemon I/O cannot fail");
    rep.host_ms = started.elapsed().as_secs_f64() * 1e3;
    rep.stage_ms.push(rep.host_ms);

    let responses: Vec<String> = String::from_utf8(out)
        .expect("daemon responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect();
    let mut run_jobs = 0u64;
    for (line, response) in trace.iter().zip(&responses) {
        if !line.starts_with("{\"id\":\"j") {
            continue;
        }
        run_jobs += 1;
        let ok = response.contains("\"status\":\"ok\"");
        rep.tally.record(ok);
        if ok {
            rep.jobs += 1;
        } else {
            eprintln!("perfbench: serve job failed: {response}");
        }
    }
    if responses.len() != trace.len() {
        eprintln!(
            "perfbench: {} trace lines but {} responses",
            trace.len(),
            responses.len()
        );
        rep.tally.record(false);
    }
    if let Err(e) = pim_sim::serve::verify_samples(&trace, &responses, SAMPLE_EVERY) {
        eprintln!("perfbench: serve sample verification failed: {e}");
        rep.tally.fail_attempted();
    }
    rep.digests.push(digest(&responses));
    let hit_ratio = stats.counters.cache_hits as f64 / run_jobs.max(1) as f64;
    rep.values.push(("daemon.hit_ratio", hit_ratio));

    if traced {
        span("protocol.parse", None, 0, |_| {
            for line in &trace {
                let _ = black_box(pim_serve::parse_request(line));
            }
        });
        let wait_ms = |p| stats.latency_percentile_us(p) as f64 / 1e3;
        rep.counts = vec![
            ("protocol.lines", trace.len() as f64),
            ("store.hits", store_hits as f64),
            ("daemon.queue_wait_p50_ms", wait_ms(50.0)),
            ("daemon.queue_wait_p95_ms", wait_ms(95.0)),
        ];
        let requests: Vec<Request> = trace
            .iter()
            .filter_map(|line| pim_serve::parse_request(line).ok())
            .filter(|r| r.op == pim_serve::Op::Run)
            .collect();
        // Per-request identity as `SimRunner::cache_key` derives it, and
        // the fault-free single-model engine cells the trace computes.
        let mut cells = BTreeSet::new();
        for req in &requests {
            let graphs: Vec<usize> = req
                .models
                .iter()
                .map(|name| {
                    let at = pim_serve::loadgen::MODELS.iter().position(|m| m == name);
                    at.expect("loadgen draws known models")
                })
                .collect();
            let specs: Vec<WorkloadSpec> = graphs
                .iter()
                .map(|&g| WorkloadSpec {
                    graph: models[g].graph(),
                    steps: req.steps,
                    cpu_progr_only: req.cpu_progr_only,
                })
                .collect();
            let preset = pim_sim::orders::parse_preset(&req.preset).expect("loadgen presets parse");
            let cfg = EngineConfig::preset(preset);
            span("fingerprint.request", None, req_id(req), |_| {
                black_box(RunRequest::new(&specs).fingerprint(&cfg))
            });
            if let ([g], None) = (graphs.as_slice(), req.faults) {
                let p = SystemPreset::ALL.iter().position(|&x| x == preset);
                cells.insert((*g, p.expect("every preset is in ALL"), req.steps));
            }
        }
        let cells: Vec<(usize, SystemPreset, usize)> = cells
            .into_iter()
            .map(|(g, p, steps)| (g, SystemPreset::ALL[p], steps))
            .collect();
        let graphs: Vec<&Graph> = models.iter().map(|m| m.graph()).collect();
        let probed = probe_engine(&graphs, &cells, &mut rep.tally);
        rep.counts.extend(probed);
    }
    rep
}

/// What the engine and verification layers did over a set of runs.
#[derive(Default)]
struct EngineWork {
    counters: Counters,
    timeline_entries: u64,
    /// Graph index of every execute call, in call order.
    runs: Vec<usize>,
}

impl EngineWork {
    fn counts(&self) -> Vec<(&'static str, f64)> {
        let dispatched = self.counters.get("events/dispatched");
        vec![
            ("engine.events", dispatched),
            (
                "engine.useful_ratio",
                if dispatched > 0.0 {
                    self.counters.get("events/completed") / dispatched
                } else {
                    0.0
                },
            ),
            ("faults.retries", self.counters.get("faults/retries")),
            (
                "faults.redispatches",
                self.counters.get("faults/redispatches"),
            ),
            ("verify.entries", self.timeline_entries as f64),
        ]
    }
}

fn train(seed: u64, faulted: bool, traced: bool) -> Rep {
    let started = Instant::now();
    let models = build_models(&TRAIN_MODELS);
    let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
    let specs: Vec<WorkloadSpec> = models
        .iter()
        .map(|m| WorkloadSpec {
            graph: m.graph(),
            steps: TRAIN_STEPS,
            cpu_progr_only: false,
        })
        .collect();
    let opts = RunOptions {
        timeline: true,
        ..RunOptions::default()
    };
    // One fault-free run per graph, or `FAULT_PLANS` faulted runs per
    // graph whose horizon is the graph's zero-fault makespan.
    let mut runs: Vec<(usize, FaultPlan)> = Vec::new();
    for (g, spec) in specs.iter().enumerate() {
        if !faulted {
            runs.push((g, FaultPlan::none()));
            continue;
        }
        let horizon = span("setup.horizon", None, g as u64, |_| {
            engine.execute(&RunRequest::new(&[*spec]))
        })
        .expect("fault-free training runs succeed")
        .report()
        .makespan;
        for k in 0..FAULT_PLANS {
            let plan_seed = seed.wrapping_mul(FAULT_PLANS).wrapping_add(k);
            let plan = FaultPlan::seeded(plan_seed, FAULT_RATE, horizon, engine.config().ff_units);
            runs.push((g, plan));
        }
    }
    let mut rep = Rep {
        setup_s: started.elapsed().as_secs_f64(),
        ..Rep::default()
    };

    let mut work = EngineWork::default();
    let mut step_ms = Vec::new();
    let mut energy_j = Vec::new();
    let mut op_instances = 0.0;
    let started = Instant::now();
    for (i, (g, plan)) in runs.iter().enumerate() {
        let spec = &specs[*g];
        let req = i as u64;
        let run_started = Instant::now();
        span("train.run", None, req, |run| {
            let request = RunRequest::new(&[*spec])
                .with_options(opts)
                .with_faults(plan.clone());
            let out = match span("engine.execute", Some(run), req, |_| {
                engine.execute(&request)
            }) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("perfbench: training run {i} failed: {e}");
                    rep.tally.record(false);
                    rep.digests.push(0);
                    return;
                }
            };
            let timeline = out.timeline.as_deref().unwrap_or(&[]);
            let mut diags = span("verify.replay", Some(run), req, |_| {
                if faulted {
                    engine.verify_timeline_faulted(&[*spec], timeline, plan)
                } else {
                    engine.verify_timeline(&[*spec], timeline)
                }
            })
            .expect("re-preparing a graph that just ran succeeds");
            diags.extend(pim_runtime::stats::cross_check_counters(
                out.report(),
                &out.counters,
            ));
            if !diags.is_clean() {
                eprintln!("perfbench: training run {i}:\n{}", diags.render_text());
            }
            rep.tally.record(diags.is_clean());
            rep.jobs += 1;
            let report = out.report();
            rep.digests
                .push(digest(&format!("{report:?}{:?}", out.degraded)));
            step_ms.push(report.per_step_time().seconds() * 1e3);
            energy_j.push(report.dynamic_energy.joules() / report.steps as f64);
            op_instances += (spec.graph.op_count() * spec.steps) as f64;
            work.counters.merge(&out.counters);
            work.timeline_entries += timeline.len() as u64;
            work.runs.push(*g);
        });
        rep.stage_ms.push(run_started.elapsed().as_secs_f64() * 1e3);
    }
    rep.host_ms = started.elapsed().as_secs_f64() * 1e3;
    rep.values = vec![
        ("sim.step_ms", geomean(&step_ms).unwrap_or(0.0)),
        ("sim.energy_j", geomean(&energy_j).unwrap_or(0.0)),
        ("sim.op_instances", op_instances),
    ];

    if traced {
        let graphs: Vec<&Graph> = specs.iter().map(|s| s.graph).collect();
        probe_analysis(&graphs);
        rep.counts = work.counts();
        rep.counts.push((
            "engine.analysis_share",
            analysis_share(&work.runs, &spans::recorded()),
        ));
    }
    rep
}

/// The analysis `Engine::execute` repeats per workload before driving
/// it; the graph hash and request fingerprint are identity, not analysis.
const ANALYSIS_SPANS: [&str; 4] = [
    "graph.costs",
    "graph.deps_topo",
    "profiler.profile",
    "select.candidates",
];

/// Times the per-graph analysis and identity an engine run performs, by
/// calling the same public functions on each graph (span request id =
/// graph index).
fn probe_analysis(graphs: &[&Graph]) {
    let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
    let cpu = engine.profiling_device();
    for (g, graph) in graphs.iter().enumerate() {
        let req = g as u64;
        span("graph.structural_hash", None, req, |_| {
            black_box(graph.structural_hash())
        });
        span("graph.costs", None, req, |_| {
            black_box(pim_graph::cost::graph_costs(graph)).expect("model graphs cost")
        });
        span("graph.deps_topo", None, req, |_| {
            black_box(graph.all_dependencies());
            black_box(graph.topo_order()).expect("model graphs are acyclic")
        });
        let profile = span("profiler.profile", None, req, |_| {
            pim_runtime::profiler::profile_step_cached(graph, cpu).expect("model graphs profile")
        });
        span("select.candidates", None, req, |_| {
            black_box(pim_runtime::select::select_candidates(
                &profile,
                engine.config().coverage,
            ))
        });
        let spec = WorkloadSpec {
            graph,
            steps: 1,
            cpu_progr_only: false,
        };
        span("fingerprint.request", None, req, |_| {
            black_box(RunRequest::new(&[spec]).fingerprint(engine.config()))
        });
    }
}

/// Graph-analysis time of the runs, each run charged its graph's probed
/// analysis time, over their `engine.execute` time. `runs` holds the
/// graph index of every execute call.
fn analysis_share(runs: &[usize], spans: &[Span]) -> f64 {
    let analysis_ns = |g: usize| -> u64 {
        spans
            .iter()
            .filter(|s| s.req == g as u64 && ANALYSIS_SPANS.contains(&s.name))
            .map(Span::dur_ns)
            .sum()
    };
    let analysis: u64 = runs.iter().map(|&g| analysis_ns(g)).sum();
    let (execute, _) = spans::total(spans, "engine.execute");
    if execute == 0 {
        0.0
    } else {
        analysis as f64 / execute as f64
    }
}

/// Replays `cells` (graph index, preset, steps) through `Engine::execute`
/// with a span each — the engine layer under a sweep or a daemon.
fn probe_engine(
    graphs: &[&Graph],
    cells: &[(usize, SystemPreset, usize)],
    tally: &mut Tally,
) -> Vec<(&'static str, f64)> {
    probe_analysis(graphs);
    let mut work = EngineWork::default();
    for (i, &(g, preset, steps)) in cells.iter().enumerate() {
        let engine = Engine::new(EngineConfig::preset(preset));
        let spec = WorkloadSpec {
            graph: graphs[g],
            steps,
            cpu_progr_only: false,
        };
        let out = span("engine.execute", None, i as u64, |_| {
            engine.execute(&RunRequest::new(&[spec]))
        });
        tally.record(out.is_ok());
        if let Ok(out) = out {
            work.counters.merge(&out.counters);
            work.runs.push(g);
        }
    }
    let mut counts = work.counts();
    counts.push((
        "engine.analysis_share",
        analysis_share(&work.runs, &spans::recorded()),
    ));
    counts
}

/// Per-layer metrics from a traced repetition's spans plus the counts
/// its workload reported.
fn layer_metrics(spans: &[Span], counts: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    let count = |name: &str| {
        counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let ms = |name: &str| spans::total(spans, name).0 as f64 / 1e6;
    let mean_us = |name: &str| {
        let (ns, n) = spans::total(spans, name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    };
    let calls = |name: &str| spans::total(spans, name).1 as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let execute_ns = spans::total(spans, "engine.execute").0 as f64;
    let verify_ns = spans::total(spans, "verify.replay").0 as f64;
    let (parse_ns, _) = spans::total(spans, "protocol.parse");
    let daemon_self_ms = spans
        .iter()
        .filter(|s| s.name == "daemon.session")
        .map(|s| spans::self_time_ns(s, spans) as f64 / 1e6)
        .sum::<f64>();
    let mut layers = vec![
        ("models.build_ms", ms("models.build")),
        ("graph.structural_hash_us", mean_us("graph.structural_hash")),
        ("graph.costs_us", mean_us("graph.costs")),
        ("graph.deps_topo_us", mean_us("graph.deps_topo")),
        ("profiler.profile_us", mean_us("profiler.profile")),
        ("select.candidates_us", mean_us("select.candidates")),
        ("fingerprint.request_us", mean_us("fingerprint.request")),
        ("engine.execute_calls", calls("engine.execute")),
        ("engine.execute_ms", execute_ns / 1e6),
        ("engine.events", count("engine.events")),
        (
            "engine.ns_per_event",
            per(execute_ns, count("engine.events")),
        ),
        ("engine.analysis_share", count("engine.analysis_share")),
        ("engine.useful_ratio", count("engine.useful_ratio")),
        ("faults.retries", count("faults.retries")),
        ("faults.redispatches", count("faults.redispatches")),
        ("verify.replay_ms", verify_ns / 1e6),
        (
            "verify.ns_per_entry",
            per(verify_ns, count("verify.entries")),
        ),
    ];
    for (name, metric, _) in SECTIONS {
        layers.push((metric, ms(name)));
    }
    layers.extend([
        ("serve.cache_key_us", mean_us("serve.cache_key")),
        ("serve.cache_key_calls", calls("serve.cache_key")),
        ("serve.execute_ms", ms("serve.execute")),
        ("serve.execute_calls", calls("serve.execute")),
        ("store.gets", calls("store.get")),
        ("store.hits", count("store.hits")),
        ("store.get_us", mean_us("store.get")),
        (
            "protocol.parse_us",
            per(parse_ns as f64 / 1e3, count("protocol.lines")),
        ),
        ("daemon.self_ms", daemon_self_ms),
        (
            "daemon.queue_wait_p50_ms",
            count("daemon.queue_wait_p50_ms"),
        ),
        (
            "daemon.queue_wait_p95_ms",
            count("daemon.queue_wait_p95_ms"),
        ),
    ]);
    layers
}
