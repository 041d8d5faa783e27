//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! Recording is off until [`enable`]; while off, [`span`] only runs its
//! closure. Spans are kept in memory and written once at the end as
//! Chrome trace-event JSON through `pim_common::trace`. Every timestamp
//! here is host wall time, never simulated time.

use pim_common::trace::{Recorder, TraceEvent, TraceSink, Track};
use pim_common::units::Seconds;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the process.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer call, e.g. `engine.execute`.
    pub name: &'static str,
    /// The request or run this span works for.
    pub req: u64,
    /// Recording thread (one Chrome track each).
    pub tid: u32,
    /// Start, ns since the recording epoch.
    pub start_ns: u64,
    /// End, ns since the recording epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static LOG: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn since_epoch_ns(t: Instant) -> u64 {
    u64::try_from(t.duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// Starts recording spans.
pub fn enable() {
    epoch();
    ON.store(true, Ordering::Relaxed);
}

/// Runs `f` inside a span named `name` under `parent`, for request or
/// run `req`. `f` receives the new span's id (0 while recording is off)
/// to parent its own spans.
pub fn span<R>(name: &'static str, parent: Option<u64>, req: u64, f: impl FnOnce(u64) -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f(0);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let out = f(id);
    let end = Instant::now();
    let span = Span {
        id,
        parent,
        name,
        req,
        tid: TID.with(|t| *t),
        start_ns: since_epoch_ns(start),
        end_ns: since_epoch_ns(end),
    };
    LOG.lock().expect("span log poisoned").push(span);
    out
}

/// Every span recorded so far, in closing order.
pub fn recorded() -> Vec<Span> {
    LOG.lock().expect("span log poisoned").clone()
}

/// Total duration of the spans named `name`, in nanoseconds, and their
/// count.
pub fn total(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
}

/// Self time of `span`: its duration minus the part of it covered by
/// the union of its children. Children may overlap each other (runner
/// spans on concurrent workers), so their durations are not summed.
pub fn self_time_ns(span: &Span, spans: &[Span]) -> u64 {
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.dur_ns() - covered
}

/// Renders spans as Chrome trace-event JSON: one track per recording
/// thread, each span's id, parent and request in its args.
pub fn chrome_json(spans: &[Span]) -> String {
    const PID: u32 = 1;
    let mut rec = Recorder::new();
    rec.record(TraceEvent::ProcessName {
        track: Track::new(PID, 0),
        name: "perfbench (host time)".into(),
    });
    let tids: BTreeSet<u32> = spans.iter().map(|s| s.tid).collect();
    for tid in tids {
        rec.record(TraceEvent::ThreadName {
            track: Track::new(PID, tid),
            name: format!("thread {tid}"),
        });
    }
    for s in spans {
        rec.record(TraceEvent::Span {
            track: Track::new(PID, s.tid),
            name: s.name.to_string(),
            cat: "host",
            start: Seconds::new(s.start_ns as f64 * 1e-9),
            end: Seconds::new(s.end_ns as f64 * 1e-9),
            args: vec![
                ("id", s.id.into()),
                ("parent", s.parent.unwrap_or(0).into()),
                ("req", s.req.into()),
            ],
        });
    }
    rec.into_recording().to_chrome_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(id: u64, parent: Option<u64>, tid: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            req: 0,
            tid,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let session = at(1, None, 1, 0, 100);
        let spans = vec![
            session.clone(),
            // Two workers overlap on [20, 50) and [40, 70): union 50.
            at(2, Some(1), 2, 20, 50),
            at(3, Some(1), 3, 40, 70),
            // Nested inside child 2: not a direct child, ignored.
            at(4, Some(2), 2, 25, 30),
            // Overhangs the parent's end: only [90, 100) counts.
            at(5, Some(1), 2, 90, 120),
            // Another root's child: ignored.
            at(6, Some(9), 2, 0, 100),
        ];
        assert_eq!(self_time_ns(&session, &spans), 100 - 50 - 10);
        // A child fully inside another adds nothing.
        let nested = vec![
            session.clone(),
            at(2, Some(1), 2, 10, 60),
            at(3, Some(1), 3, 20, 30),
        ];
        assert_eq!(self_time_ns(&session, &nested), 50);
        assert_eq!(self_time_ns(&session, std::slice::from_ref(&session)), 100);
    }

    #[test]
    fn recorded_spans_export_as_a_valid_chrome_trace() {
        enable();
        let inner = span("outer", None, 7, |outer| {
            span("inner", Some(outer), 7, |id| id)
        });
        let spans = recorded();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let child = spans.iter().find(|s| s.id == inner).unwrap();
        assert_eq!(child.parent, Some(outer.id));
        assert!(child.start_ns >= outer.start_ns && child.end_ns <= outer.end_ns);
        assert_eq!(total(&spans, "inner").1, 1);
        let json = chrome_json(&spans);
        assert!(pim_common::trace::validate_chrome_trace(&json).is_clean());
        assert!(json.contains("\"req\":7"));
    }
}
