//! Deterministic fault model for the heterogeneous PIM complement.
//!
//! Real PIM deployments are not fault-free: the UPMEM characterization
//! studies report per-DPU failures and stragglers that a production
//! runtime must survive. This module describes *what goes wrong* as pure
//! data — a seeded, xorshift-driven [`FaultPlan`] — while the engine owns
//! *how to recover* (bounded retry, re-dispatch, graceful degradation
//! along the paper's fixed → programmable → host placement chain).
//!
//! Everything here is deterministic by construction:
//!
//! * the seeded generator ([`FaultPlan::seeded`]) derives every permanent
//!   fault and straggler window from one xorshift* stream, and
//! * the per-attempt decisions ([`FaultPlan::transient_fails`],
//!   [`FaultPlan::times_out`], [`FaultPlan::fail_point`]) are pure
//!   functions of `(seed, lane, workload, step, op, attempt)` — they do
//!   not consume shared RNG state, so the verdict for one attempt never
//!   depends on the order in which the scheduler asks.
//!
//! The same plan therefore yields byte-identical runs, reports, and
//! traces, which is what makes faulted schedules golden-testable and
//! statically checkable (`pim-verify`'s fault-legality pass replays a
//! timeline against the plan).

use pim_common::fingerprint::Fingerprint;
use pim_common::units::Seconds;
use serde::Serialize;
use std::hash::{Hash, Hasher};

/// The same xorshift* step the seeded graph generator uses: deterministic,
/// dependency-free, stable across platforms. Not for cryptography — for
/// naming fault scenarios by seed.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Seeds the generator (a zero seed is mapped to a nonzero state).
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed | 1 }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, 1)` with 53-bit resolution.
    pub fn frac(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Which shared PIM resource a fault takes down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FaultTarget {
    /// Quarantines this many fixed-function units (clamped to the pool).
    FixedUnits(usize),
    /// Quarantines the programmable ARM PIM entirely.
    ProgrPim,
}

/// The device lane a transient fault, link timeout, or straggler window
/// applies to. The host CPU is the reliability anchor of the recovery
/// policy and never faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FaultLane {
    /// The fixed-function pool (and the host↔pool link).
    Fixed,
    /// The programmable ARM PIM (and the host↔ARM link).
    Progr,
}

impl FaultLane {
    /// Stable salt distinguishing the lanes in decision hashes.
    fn salt(self) -> u64 {
        match self {
            FaultLane::Fixed => 0xF1,
            FaultLane::Progr => 0xA9,
        }
    }
}

/// One permanent (fail-stop) fault: at time `at` the targeted resource is
/// quarantined — in-flight work on it is killed and re-dispatched, and the
/// scheduler never places on it again.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PermanentFault {
    /// Simulated time the fault strikes (`<= 0` means before the run).
    pub at: Seconds,
    /// What is lost.
    pub target: FaultTarget,
}

impl Fingerprint for PermanentFault {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        let PermanentFault { at, target } = self;
        at.fingerprint(state);
        target.hash(state);
    }
}

/// A latency-degradation window: ops *started* on `lane` within
/// `[from, until)` run `multiplier`× slower (thermal throttling, refresh
/// storms, a flaky vault).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StragglerWindow {
    /// Affected device lane.
    pub lane: FaultLane,
    /// Window start (inclusive).
    pub from: Seconds,
    /// Window end (exclusive).
    pub until: Seconds,
    /// Latency multiplier, `>= 1`.
    pub multiplier: f64,
}

impl Fingerprint for StragglerWindow {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        let StragglerWindow {
            lane,
            from,
            until,
            multiplier,
        } = self;
        lane.hash(state);
        from.fingerprint(state);
        until.fingerprint(state);
        multiplier.fingerprint(state);
    }
}

/// A complete, deterministic description of every fault a run will see.
///
/// # Examples
///
/// ```
/// use pim_hw::faults::{FaultLane, FaultPlan};
/// use pim_common::units::Seconds;
///
/// let none = FaultPlan::none();
/// assert!(none.is_none());
/// assert!(!none.transient_fails(FaultLane::Fixed, 0, 0, 0, 0));
///
/// let plan = FaultPlan::seeded(7, 0.1, Seconds::new(1e-3), 444);
/// // Same seed, same plan — reproducible down to every decision.
/// assert_eq!(plan, FaultPlan::seeded(7, 0.1, Seconds::new(1e-3), 444));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed driving every per-attempt decision hash.
    pub seed: u64,
    /// Probability an attempt on a PIM lane suffers a transient
    /// mid-flight failure (per attempt, independent).
    pub transient_rate: f64,
    /// Probability an attempt's host↔PIM completion message is lost and
    /// the op must be re-dispatched after the timeout window.
    pub timeout_rate: f64,
    /// Fail-stop faults, in strike order.
    pub permanents: Vec<PermanentFault>,
    /// Latency-degradation windows.
    pub stragglers: Vec<StragglerWindow>,
}

impl Fingerprint for FaultPlan {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        let FaultPlan {
            seed,
            transient_rate,
            timeout_rate,
            permanents,
            stragglers,
        } = self;
        seed.hash(state);
        transient_rate.fingerprint(state);
        timeout_rate.fingerprint(state);
        permanents.fingerprint(state);
        stragglers.fingerprint(state);
    }
}

impl FaultPlan {
    /// The empty plan: no faults, ever. The engine keeps all fault
    /// bookkeeping off the hot path when it sees this.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            transient_rate: 0.0,
            timeout_rate: 0.0,
            permanents: Vec::new(),
            stragglers: Vec::new(),
        }
    }

    /// True when the plan can never inject anything.
    pub fn is_none(&self) -> bool {
        self.transient_rate <= 0.0
            && self.timeout_rate <= 0.0
            && self.permanents.is_empty()
            && self.stragglers.is_empty()
    }

    /// Derives a full scenario from one seed and an aggregate fault rate.
    ///
    /// `horizon` is the expected zero-fault makespan (permanent faults and
    /// straggler windows are placed at fractions of it); `ff_units` is the
    /// pool size quarantine chunks are scaled against. Rates are clamped
    /// to `[0, 1]`. The mapping is fixed:
    ///
    /// * transients at `rate`, link timeouts at `rate / 4`,
    /// * `round(rate × ff_units)` fixed-function units quarantined in up
    ///   to two chunks inside `[0.25, 0.75) × horizon`,
    /// * the programmable PIM fails permanently with probability
    ///   `rate / 4` (seed-determined), late in the run,
    /// * one straggler window per lane, `1 + 3 × rate` slowdown.
    pub fn seeded(seed: u64, rate: f64, horizon: Seconds, ff_units: usize) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        if rate == 0.0 {
            return FaultPlan::none();
        }
        let mut rng = FaultRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut permanents = Vec::new();
        let quarantine_total = (rate * ff_units as f64).round() as usize;
        if quarantine_total > 0 {
            let chunks = if quarantine_total >= 2 && rng.frac() < 0.5 {
                2
            } else {
                1
            };
            let first = quarantine_total.div_ceil(chunks);
            let mut left = quarantine_total;
            for _ in 0..chunks {
                let units = first.min(left);
                left -= units;
                permanents.push(PermanentFault {
                    at: horizon * (0.25 + 0.5 * rng.frac()),
                    target: FaultTarget::FixedUnits(units),
                });
            }
        }
        if rng.frac() < rate / 4.0 {
            permanents.push(PermanentFault {
                at: horizon * (0.6 + 0.3 * rng.frac()),
                target: FaultTarget::ProgrPim,
            });
        }
        permanents.sort_by(|a, b| a.at.seconds().total_cmp(&b.at.seconds()));
        let multiplier = 1.0 + 3.0 * rate;
        let stragglers = vec![
            StragglerWindow {
                lane: FaultLane::Fixed,
                from: horizon * (0.1 + 0.2 * rng.frac()),
                until: horizon * (0.4 + 0.2 * rng.frac()),
                multiplier,
            },
            StragglerWindow {
                lane: FaultLane::Progr,
                from: horizon * (0.3 + 0.2 * rng.frac()),
                until: horizon * (0.6 + 0.2 * rng.frac()),
                multiplier,
            },
        ];
        FaultPlan {
            seed,
            transient_rate: rate,
            timeout_rate: rate / 4.0,
            permanents,
            stragglers,
        }
    }

    /// A plan whose only fault is quarantining `units` fixed-function
    /// units before the run starts — the degradation scenario the
    /// acceptance tests exercise (all-units → the programmable-only
    /// preset).
    pub fn quarantine_ff_at_start(units: usize) -> Self {
        FaultPlan {
            permanents: vec![PermanentFault {
                at: Seconds::ZERO,
                target: FaultTarget::FixedUnits(units),
            }],
            ..FaultPlan::none()
        }
    }

    /// Adds one permanent fault (kept sorted by strike time).
    pub fn with_permanent(mut self, at: Seconds, target: FaultTarget) -> Self {
        self.permanents.push(PermanentFault { at, target });
        self.permanents
            .sort_by(|a, b| a.at.seconds().total_cmp(&b.at.seconds()));
        self
    }

    /// Adds one straggler window.
    pub fn with_straggler(mut self, window: StragglerWindow) -> Self {
        self.stragglers.push(window);
        self
    }

    /// The decision draw for one salted coordinate tuple, in `[0, 1)` —
    /// a pure function, independent of query order.
    fn draw(&self, salt: u64, wl: usize, step: usize, op: usize, attempt: u32) -> f64 {
        let mut state = self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for word in [wl as u64, step as u64, op as u64, u64::from(attempt)] {
            state = (state ^ word)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .rotate_left(31);
        }
        FaultRng::new(state).frac()
    }

    /// Does this attempt suffer a transient mid-flight failure on `lane`?
    pub fn transient_fails(
        &self,
        lane: FaultLane,
        wl: usize,
        step: usize,
        op: usize,
        attempt: u32,
    ) -> bool {
        self.transient_rate > 0.0
            && self.draw(lane.salt(), wl, step, op, attempt) < self.transient_rate
    }

    /// Does this attempt's completion message get lost on the host↔PIM
    /// link (detected only by timeout)?
    pub fn times_out(
        &self,
        lane: FaultLane,
        wl: usize,
        step: usize,
        op: usize,
        attempt: u32,
    ) -> bool {
        self.timeout_rate > 0.0
            && self.draw(lane.salt() ^ 0x7100, wl, step, op, attempt) < self.timeout_rate
    }

    /// Fraction of the attempt's duration that elapses before a transient
    /// failure manifests, in `[0.25, 0.75)` — deterministic per attempt.
    pub fn fail_point(&self, wl: usize, step: usize, op: usize, attempt: u32) -> f64 {
        0.25 + 0.5 * self.draw(0xFA11, wl, step, op, attempt)
    }

    /// Latency multiplier for an op *started* at `at` on `lane` (product
    /// of every overlapping straggler window; `1.0` outside all windows).
    pub fn latency_multiplier(&self, lane: FaultLane, at: Seconds) -> f64 {
        let t = at.seconds();
        self.stragglers
            .iter()
            .filter(|w| w.lane == lane && w.from.seconds() <= t && t < w.until.seconds())
            .map(|w| w.multiplier.max(1.0))
            .product()
    }

    /// Fixed-function units quarantined by permanent faults striking at
    /// or before `t`.
    pub fn ff_quarantined_by(&self, t: Seconds) -> usize {
        self.permanents
            .iter()
            .filter(|p| p.at <= t)
            .map(|p| match p.target {
                FaultTarget::FixedUnits(u) => u,
                FaultTarget::ProgrPim => 0,
            })
            .sum()
    }

    /// When the programmable PIM is permanently lost, if ever.
    pub fn progr_quarantine_at(&self) -> Option<Seconds> {
        self.permanents
            .iter()
            .find(|p| p.target == FaultTarget::ProgrPim)
            .map(|p| p.at)
    }

    /// Fixed-function units already quarantined before the run starts.
    pub fn initial_ff_quarantine(&self) -> usize {
        self.ff_quarantined_by(Seconds::ZERO)
    }

    /// True when the programmable PIM is quarantined before the run
    /// starts.
    pub fn progr_quarantined_initially(&self) -> bool {
        self.progr_quarantine_at()
            .is_some_and(|at| at <= Seconds::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_injects() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        for attempt in 0..4 {
            assert!(!plan.transient_fails(FaultLane::Fixed, 0, 1, 2, attempt));
            assert!(!plan.times_out(FaultLane::Progr, 0, 1, 2, attempt));
        }
        assert_eq!(
            plan.latency_multiplier(FaultLane::Fixed, Seconds::new(1.0)),
            1.0
        );
        assert_eq!(plan.ff_quarantined_by(Seconds::new(1e9)), 0);
        assert!(plan.progr_quarantine_at().is_none());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let horizon = Seconds::new(2e-3);
        let a = FaultPlan::seeded(42, 0.1, horizon, 444);
        let b = FaultPlan::seeded(42, 0.1, horizon, 444);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, 0.1, horizon, 444);
        assert_ne!(a, c, "different seeds should draw different scenarios");
        assert!(!a.is_none());
    }

    #[test]
    fn decisions_are_order_independent() {
        let plan = FaultPlan::seeded(7, 0.5, Seconds::new(1e-3), 444);
        let first = plan.transient_fails(FaultLane::Fixed, 1, 2, 3, 0);
        // Interleave unrelated queries; the original verdict must hold.
        for op in 0..32 {
            plan.transient_fails(FaultLane::Progr, 0, 0, op, 1);
            plan.times_out(FaultLane::Fixed, 0, 1, op, 0);
        }
        assert_eq!(plan.transient_fails(FaultLane::Fixed, 1, 2, 3, 0), first);
    }

    #[test]
    fn transient_rate_is_roughly_honored() {
        let plan = FaultPlan::seeded(11, 0.25, Seconds::new(1e-3), 444);
        let hits = (0..4000)
            .filter(|&op| plan.transient_fails(FaultLane::Fixed, 0, 0, op, 0))
            .count();
        let frac = hits as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.05, "observed rate {frac}");
    }

    #[test]
    fn quarantine_accumulates_over_time() {
        let plan = FaultPlan::none()
            .with_permanent(Seconds::new(1.0), FaultTarget::FixedUnits(100))
            .with_permanent(Seconds::new(0.5), FaultTarget::FixedUnits(50));
        // Builder keeps strike order sorted.
        assert!(plan.permanents[0].at < plan.permanents[1].at);
        assert_eq!(plan.ff_quarantined_by(Seconds::new(0.4)), 0);
        assert_eq!(plan.ff_quarantined_by(Seconds::new(0.5)), 50);
        assert_eq!(plan.ff_quarantined_by(Seconds::new(2.0)), 150);
    }

    #[test]
    fn straggler_windows_multiply_only_inside() {
        let plan = FaultPlan::none().with_straggler(StragglerWindow {
            lane: FaultLane::Progr,
            from: Seconds::new(1.0),
            until: Seconds::new(2.0),
            multiplier: 3.0,
        });
        assert_eq!(
            plan.latency_multiplier(FaultLane::Progr, Seconds::new(0.5)),
            1.0
        );
        assert_eq!(
            plan.latency_multiplier(FaultLane::Progr, Seconds::new(1.5)),
            3.0
        );
        assert_eq!(
            plan.latency_multiplier(FaultLane::Fixed, Seconds::new(1.5)),
            1.0
        );
        assert_eq!(
            plan.latency_multiplier(FaultLane::Progr, Seconds::new(2.0)),
            1.0
        );
    }

    #[test]
    fn fail_point_stays_mid_flight() {
        let plan = FaultPlan::seeded(3, 0.3, Seconds::new(1e-3), 444);
        for op in 0..100 {
            let f = plan.fail_point(0, 0, op, 0);
            assert!((0.25..0.75).contains(&f), "fail point {f}");
        }
    }

    #[test]
    fn quarantine_all_ff_is_initial() {
        let plan = FaultPlan::quarantine_ff_at_start(444);
        assert_eq!(plan.initial_ff_quarantine(), 444);
        assert!(!plan.progr_quarantined_initially());
    }
}
