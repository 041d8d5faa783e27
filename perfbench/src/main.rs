//! The repository benchmark: four seeded workloads over the simulator's
//! public APIs, host- and simulated-time end-to-end metrics, and a traced
//! run that splits host time by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_sweep|serve_trace|long_train|faulted_train> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every repetition runs in a fresh child process, because the caches the
//! workloads exercise are process-global. Repetitions continue until
//! `--seconds` have passed (at least [`MIN_REPS`] of each kind). Host
//! pass times take each stage of the pass at its fastest (see
//! [`fastest_ms`]), set-up time and peak memory their smallest value
//! (see [`smallest`]); every per-layer metric is a median over them. Host
//! pass and set-up times are scaled to a fixed reference kernel's speed
//! (see [`reference`]). The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics, or with `--trace 1` the per-layer ones). A one-line summary
//! with the digest of the simulated output goes to stderr. Any failed
//! check makes the exit code 1.

mod reference;
mod spans;
mod stats;
mod workloads;

use pim_common::trace::{parse_json, validate_chrome_trace, Json};
use stats::{fastest_total, median, percentile, tail_percentile, Tally};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload <paper_sweep|serve_trace|long_train|faulted_train> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Fewest repetitions of each kind a run makes, however short `--seconds`.
const MIN_REPS: usize = 3;

/// End-to-end metrics (untraced repetitions): name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("host_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced repetitions): name and unit. Times are host
/// time unless the unit says `sim_`.
const PER_LAYER: [(&str, &str); 45] = [
    ("models.build_ms", "ms"),
    ("graph.structural_hash_us", "us"),
    ("graph.costs_us", "us"),
    ("graph.deps_topo_us", "us"),
    ("profiler.profile_us", "us"),
    ("select.candidates_us", "us"),
    ("fingerprint.request_us", "us"),
    ("engine.execute_calls", "count"),
    ("engine.execute_ms", "ms"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.analysis_share", "ratio"),
    ("engine.useful_ratio", "ratio"),
    ("faults.retries", "count"),
    ("faults.redispatches", "count"),
    ("verify.replay_ms", "ms"),
    ("verify.ns_per_entry", "ns"),
    ("sweep.table1_ms", "ms"),
    ("sweep.fig2_ms", "ms"),
    ("sweep.fig8_ms", "ms"),
    ("sweep.fig10_ms", "ms"),
    ("sweep.fig11_ms", "ms"),
    ("sweep.fig12_ms", "ms"),
    ("sweep.fig13_ms", "ms"),
    ("sweep.fig16_ms", "ms"),
    ("sweep.ablations_ms", "ms"),
    ("serve.cache_key_us", "us"),
    ("serve.cache_key_calls", "count"),
    ("serve.execute_ms", "ms"),
    ("serve.execute_calls", "count"),
    ("store.gets", "count"),
    ("store.hits", "count"),
    ("store.get_us", "us"),
    ("daemon.hit_ratio", "ratio"),
    ("protocol.parse_us", "us"),
    ("daemon.self_ms", "ms"),
    ("daemon.queue_wait_p50_ms", "ms"),
    ("daemon.queue_wait_p95_ms", "ms"),
    ("sim.step_ms", "sim_ms"),
    ("sim.energy_j", "sim_J"),
    ("sim.ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("failed_ratio", "ratio"),
    ("run.reps", "count"),
    ("run.threads", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in child processes: run one repetition and print its [`Rep`].
    child: bool,
    /// Where a traced child writes its Chrome trace.
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = false;
    let mut trace_out = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--child" {
            child = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("`{}` needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                });
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: if child {
            0.0
        } else {
            seconds.ok_or("missing --seconds")?
        },
        trace: trace.ok_or("missing --trace")?,
        child,
        trace_out,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if args.child {
        child(&args, cores);
    } else {
        std::process::exit(orchestrate(&args, cores));
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn obj(pairs: &[(&str, f64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_string(), Json::Num(*v)))
            .collect(),
    )
}

/// Runs one repetition and prints it as one JSON line.
fn child(args: &Args, threads: usize) {
    let rep = workloads::run(&args.workload, args.seed, args.trace, threads);
    // The peak resident set is read before the reference kernel's
    // allocations can raise it.
    let rss_mb = peak_rss_mb();
    let reference_ms = (0..3)
        .map(|_| reference::run_ms())
        .fold(f64::INFINITY, f64::min);
    let mut tally = rep.tally;
    if let Some(path) = &args.trace_out {
        let json = spans::chrome_json(&rep.spans);
        let diags = validate_chrome_trace(&json);
        if !diags.is_clean() {
            eprintln!("perfbench: invalid span trace:\n{}", diags.render_text());
        }
        tally.record(diags.is_clean());
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, json));
        if let Err(e) = &written {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        tally.record(written.is_ok());
    }
    let out = Json::Obj(vec![
        ("reference_ms".into(), Json::Num(reference_ms)),
        ("setup_s".into(), Json::Num(rep.setup_s)),
        ("host_ms".into(), Json::Num(rep.host_ms)),
        (
            "stage_ms".into(),
            Json::Arr(rep.stage_ms.iter().map(|&ms| Json::Num(ms)).collect()),
        ),
        ("jobs".into(), Json::Num(rep.jobs as f64)),
        ("attempted".into(), Json::Num(tally.attempted as f64)),
        ("failed".into(), Json::Num(tally.failed as f64)),
        ("rss_mb".into(), Json::Num(rss_mb)),
        (
            "digests".into(),
            Json::Arr(
                rep.digests
                    .iter()
                    .map(|d| Json::Str(format!("{d:016x}")))
                    .collect(),
            ),
        ),
        ("values".into(), obj(&rep.values)),
        ("layers".into(), obj(&rep.layers)),
    ]);
    println!("{out}");
}

/// One child's parsed result.
struct ChildRep {
    doc: Json,
}

impl ChildRep {
    fn num(&self, key: &str) -> f64 {
        self.doc.field(key).and_then(Json::as_num).unwrap_or(0.0)
    }

    fn nested(&self, group: &str, key: &str) -> Option<f64> {
        self.doc.field(group)?.field(key)?.as_num()
    }

    fn stage_ms(&self) -> Vec<f64> {
        self.doc
            .field("stage_ms")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_num)
            .collect()
    }

    fn digests(&self) -> Vec<&str> {
        self.doc
            .field("digests")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_str)
            .collect()
    }
}

fn spawn_child(
    args: &Args,
    threads: usize,
    traced: bool,
    trace_out: &Path,
) -> Result<ChildRep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .env("PIM_RUN_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--trace-out").arg(trace_out);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = parse_json(line).map_err(|e| format!("repetition printed no result ({e})"))?;
    Ok(ChildRep { doc })
}

/// Medians of a field over repetitions.
fn median_of(reps: &[ChildRep], f: impl Fn(&ChildRep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The pass time at its fastest: each stage's fastest time over the
/// repetitions, summed (see [`stats::fastest_total`]). Every repetition
/// does the same deterministic work, and on a shared host other tenants'
/// load only ever adds time (by 50% and more, for seconds at a time), so
/// this is the steadiest estimate of what the code costs; a change to the
/// code moves it as much as it moves the median.
fn fastest_ms(reps: &[ChildRep]) -> f64 {
    fastest_total(&reps.iter().map(ChildRep::stage_ms).collect::<Vec<_>>())
}

/// The smallest value of a field over repetitions. Set-up time and the
/// reference kernel are taken at their fastest for the reason
/// [`fastest_ms`] gives: the medians of two sets of ten runs moved by 28%
/// between quiet and busy hours. A peak
/// resident set is taken at its smallest because which allocator arenas
/// a repetition's threads touch varies from run to run, which moves a
/// single peak by 10% either way.
fn smallest(reps: &[ChildRep], key: &str) -> f64 {
    let values: Vec<f64> = reps.iter().map(|r| r.num(key)).collect();
    percentile(&values, 0.0).unwrap_or(0.0)
}

fn orchestrate(args: &Args, threads: usize) -> i32 {
    let trace_out = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("perfbench-traces")))
        .unwrap_or_else(|| PathBuf::from("perfbench/target/perfbench-traces"))
        .join(format!("{}-seed{}.json", args.workload, args.seed));
    let started = Instant::now();
    let mut plain: Vec<ChildRep> = Vec::new();
    let mut traced: Vec<ChildRep> = Vec::new();
    let mut tally = Tally::default();
    loop {
        let short = plain.len() < MIN_REPS || (args.trace && traced.len() < MIN_REPS);
        if !short && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        // Traced runs alternate with untraced ones, which give their
        // overhead baseline.
        let run_traced = args.trace && traced.len() < plain.len();
        match spawn_child(args, threads, run_traced, &trace_out) {
            Ok(rep) => {
                tally.merge(Tally {
                    attempted: rep.num("attempted") as u64,
                    failed: rep.num("failed") as u64,
                });
                if run_traced {
                    traced.push(rep);
                } else {
                    plain.push(rep);
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                tally.record(false);
                break;
            }
        }
    }

    // Every repetition of one seed must produce the same outputs.
    let reference: Vec<String> = plain
        .first()
        .map(|r| r.digests().into_iter().map(str::to_string).collect())
        .unwrap_or_default();
    let reference_values = plain.first().and_then(|r| r.doc.field("values")).cloned();
    for rep in plain.iter().chain(&traced).skip(1) {
        let digests = rep.digests();
        let mismatches = reference
            .iter()
            .enumerate()
            .filter(|(i, d)| digests.get(*i) != Some(&d.as_str()))
            .count()
            + digests.len().saturating_sub(reference.len());
        let values_differ = rep.doc.field("values").cloned() != reference_values;
        if mismatches > 0 || values_differ {
            eprintln!("perfbench: a repetition's output differs from the first one");
        }
        for _ in 0..mismatches.max(usize::from(values_differ)) {
            tally.fail_attempted();
        }
    }

    let value = |name: &str| plain.first().and_then(|r| r.nested("values", name));
    // Host times are scaled to the reference kernel's nominal speed.
    let reference_ms = smallest(&plain, "reference_ms");
    let scale = if reference_ms > 0.0 {
        reference::NOMINAL_MS / reference_ms
    } else {
        1.0
    };
    let host_ms = fastest_ms(&plain) * scale;
    let mut summary = format!(
        "perfbench: {} seed {}: {} reps + {} traced, {threads} threads (PIM_RUN_THREADS and \
         serve workers capped at the {threads} available cores); output digest {}",
        args.workload,
        args.seed,
        plain.len(),
        traced.len(),
        output_digest(&reference),
    );
    // The pass time's distribution as the repetitions saw it, beside the
    // fastest-stage figure the metrics report.
    let pass_ms: Vec<f64> = plain.iter().map(|r| r.num("host_ms")).collect();
    summary.push_str(&format!(
        "; reference kernel {reference_ms:.3} ms at its fastest (scale {scale:.4}); \
         unscaled pass host_ms: stages at their fastest {:.3}, median {:.3}",
        host_ms / scale,
        median(&pass_ms).unwrap_or(0.0)
    ));
    if let Some(p) = tail_percentile(pass_ms.len()) {
        let tail = percentile(&pass_ms, p).unwrap_or(0.0);
        summary.push_str(&format!(", p{p} {tail:.3}"));
    }
    summary.push_str(&format!(" over {} reps", pass_ms.len()));
    if let Some(Json::Obj(fields)) = &reference_values {
        for (name, v) in fields {
            summary.push_str(&format!("; {name} {v}"));
        }
    }
    summary.push_str(&format!("; failed_ratio {}", tally.failed_ratio()));
    eprintln!("{summary}");

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let traced_ms = fastest_ms(&traced) * scale;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "trace.overhead_pct" if host_ms > 0.0 => (traced_ms / host_ms - 1.0) * 100.0,
                    "sim.ops_per_s" if host_ms > 0.0 => {
                        value("sim.op_instances").unwrap_or(0.0) / (host_ms / 1e3)
                    }
                    "failed_ratio" => tally.failed_ratio(),
                    "run.reps" => traced.len() as f64,
                    "run.threads" => threads as f64,
                    _ => value(name).unwrap_or_else(|| {
                        median_of(&traced, |r| r.nested("layers", name).unwrap_or(0.0))
                    }),
                };
                (name, unit, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "host_ms" => host_ms,
                    "jobs_per_s" => median_of(&plain, |r| r.num("jobs")) / (host_ms / 1e3),
                    "setup_s" => smallest(&plain, "setup_s") * scale,
                    _ => smallest(&plain, "rss_mb"),
                };
                (name, unit, v)
            })
            .collect()
    };
    let correct = tally.failed == 0 && tally.attempted > 0;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(tally.attempted as f64)),
        ("failed".into(), Json::Num(tally.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, unit, v)| {
                        (
                            name.to_string(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(v)),
                                ("unit".into(), Json::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    i32::from(!correct)
}

/// One short digest over a repetition's per-job digests.
fn output_digest(digests: &[String]) -> String {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    digests.hash(&mut h);
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.field(key)
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                let get = |k| {
                    m.field(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (get("name"), get("unit"))
            })
            .collect()
    }

    #[test]
    fn metrics_and_workloads_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse_json(text).expect("BENCHMARK.json parses");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names_units(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_units(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .field("workloads")
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists the workloads")
            .iter()
            .filter_map(|w| w.field("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, workloads::WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload long_train --seed 3 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.seed, ok.seconds, ok.trace, ok.child),
            (3, 2.0, true, false)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload long_train --seed x --seconds 1 --trace 0",
            "--workload long_train --seed 1 --seconds 0 --trace 0",
            "--workload long_train --seed 1 --seconds 1 --trace 2",
            "--workload long_train --seed 1 --seconds 1",
            "--workload long_train --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
