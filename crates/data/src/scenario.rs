//! Scenario engine: trace-driven and composable synthetic workload
//! scenarios that modulate *both* the arrival rate and the access
//! distribution over virtual time.
//!
//! The RecShard paper's core claim is that stat-guided plans stay ahead of
//! baselines *as access distributions shift* (the 20-month drift study of
//! Section 3.5). A [`ScenarioSpec`] makes that shift a first-class input:
//! it combines
//!
//! * **rate curves** ([`RateCurve`]) — multiplicative QPS modulation over
//!   virtual time: diurnal sinusoids, flash-crowd spikes, or piecewise
//!   traces ingested from CSV ([`parse_trace_csv`]); multiple curves
//!   compose by multiplying, and
//! * **shift events** ([`ShiftEvent`]) — discrete changes to the feature
//!   universe at a virtual instant: correlated hot-key shifts (hash-seed
//!   rotations that relocate every hot row of the affected tables),
//!   drift storms (per-class pooling rescales, the paper's Figure 9
//!   mechanism compressed into an instant), and table-growth events
//!   (cardinality growth under a fixed hash size, flattening the hashed
//!   row distribution).
//!
//! Everything is a pure function of the spec and virtual time — no RNG —
//! so the same spec threaded through the discrete-event trainer and the
//! online serving layer perturbs both identically and a seeded run stays
//! bit-deterministic.

use crate::feature::{FeatureClass, FeatureSpec};
use crate::model::ModelSpec;

/// Floor applied to the composed rate multiplier, so a pathological curve
/// stack can slow arrivals by at most 1000x instead of stalling virtual
/// time entirely.
pub const MIN_RATE_MULTIPLIER: f64 = 1e-3;

/// `true` unless `v` compares strictly greater than zero — rejects zero,
/// negatives *and* NaN in one test (validation wants all three to fail).
fn not_positive(v: f64) -> bool {
    v.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
}

/// `true` when `v` is negative or NaN — the complement of `v >= 0.0` with
/// NaN counted as invalid.
fn negative_or_nan(v: f64) -> bool {
    matches!(v.partial_cmp(&0.0), Some(std::cmp::Ordering::Less) | None)
}

/// Converts scenario seconds to the simulators' nanosecond clocks,
/// saturating instead of overflowing.
fn s_to_ns(s: f64) -> u64 {
    if not_positive(s) {
        return 0;
    }
    let ns = s * 1e9;
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns.round() as u64
    }
}

/// One breakpoint of a piecewise-constant trace curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Virtual time of the breakpoint, seconds.
    pub t_s: f64,
    /// Rate multiplier that holds from this breakpoint until the next.
    pub rate_multiplier: f64,
}

/// A multiplicative arrival-rate modulation over virtual time. Multiple
/// curves on one [`ScenarioSpec`] compose by multiplying their values.
#[derive(Debug, Clone, PartialEq)]
pub enum RateCurve {
    /// Constant multiplier 1 — the identity curve.
    Stationary,
    /// A diurnal sinusoid: `1 + amplitude * sin(2π t / period_s)`.
    Diurnal {
        /// Oscillation period, seconds of virtual time.
        period_s: f64,
        /// Peak deviation from 1 (0.5 ⇒ the rate swings between 0.5x
        /// and 1.5x).
        amplitude: f64,
    },
    /// A flash crowd: the rate jumps to `magnitude` for the interval
    /// `[start_s, start_s + duration_s)` and is 1 outside it.
    FlashCrowd {
        /// Spike onset, seconds of virtual time.
        start_s: f64,
        /// Spike duration, seconds.
        duration_s: f64,
        /// Rate multiplier while the spike holds (e.g. 4.0 = 4x QPS).
        magnitude: f64,
    },
    /// A piecewise-constant replay of an ingested trace: the multiplier of
    /// the latest breakpoint at or before `t` holds (1 before the first
    /// breakpoint).
    Trace {
        /// Breakpoints in strictly increasing `t_s` order.
        points: Vec<TracePoint>,
    },
}

impl RateCurve {
    /// The curve's multiplier at virtual time `t_ns`.
    pub fn multiplier_at(&self, t_ns: u64) -> f64 {
        match self {
            RateCurve::Stationary => 1.0,
            RateCurve::Diurnal {
                period_s,
                amplitude,
            } => {
                let t_s = t_ns as f64 / 1e9;
                1.0 + amplitude * (2.0 * std::f64::consts::PI * t_s / period_s).sin()
            }
            RateCurve::FlashCrowd {
                start_s,
                duration_s,
                magnitude,
            } => {
                let start = s_to_ns(*start_s);
                let end = s_to_ns(start_s + duration_s);
                if t_ns >= start && t_ns < end {
                    *magnitude
                } else {
                    1.0
                }
            }
            RateCurve::Trace { points } => points
                .iter()
                .rev()
                .find(|p| s_to_ns(p.t_s) <= t_ns)
                .map(|p| p.rate_multiplier)
                .unwrap_or(1.0),
        }
    }

    /// Virtual instants (ns) where this curve changes regime — used for
    /// scenario phase accounting. Smooth curves have none.
    fn boundaries_ns(&self, out: &mut Vec<u64>) {
        match self {
            RateCurve::Stationary | RateCurve::Diurnal { .. } => {}
            RateCurve::FlashCrowd {
                start_s,
                duration_s,
                ..
            } => {
                out.push(s_to_ns(*start_s));
                out.push(s_to_ns(start_s + duration_s));
            }
            RateCurve::Trace { points } => {
                out.extend(points.iter().map(|p| s_to_ns(p.t_s)));
            }
        }
    }
}

/// A discrete change to the feature universe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShiftKind {
    /// A correlated hot-key shift: the hash seed of a deterministic
    /// `fraction` of the tables rotates, relocating every hot row of the
    /// affected tables at once (new keys become hot, old ones go cold).
    HotKeyShift {
        /// Fraction of tables affected, in `[0, 1]`.
        fraction: f64,
    },
    /// A drift storm: every feature's mean pooling factor rescales by its
    /// class — the paper's Figure 9 drift compressed into one instant.
    DriftStorm {
        /// Multiplier applied to user-feature pooling means.
        user_scale: f64,
        /// Multiplier applied to content-feature pooling means.
        content_scale: f64,
    },
    /// A table-growth event: the raw categorical space of a deterministic
    /// `fraction` of the tables grows while the hash size stays fixed, so
    /// the hashed row distribution flattens (more collisions, colder head).
    TableGrowth {
        /// Fraction of tables affected, in `[0, 1]`.
        fraction: f64,
        /// Cardinality multiplier for the affected tables (≥ 1 grows).
        cardinality_factor: f64,
    },
}

/// A [`ShiftKind`] scheduled at a virtual instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftEvent {
    /// When the shift applies, seconds of virtual time.
    pub at_s: f64,
    /// What changes.
    pub shift: ShiftKind,
}

/// Whether the deterministic table-selection hash picks feature `fi` for
/// shift `shift_idx` at the given fraction. FNV-1a over the two indices,
/// mapped to `[0, 1)` — no RNG, so DES and serve select identically.
fn selects(fi: usize, shift_idx: usize, fraction: f64) -> bool {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in (fi as u64)
        .to_le_bytes()
        .into_iter()
        .chain((shift_idx as u64).to_le_bytes())
    {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    ((hash >> 11) as f64 / (1u64 << 53) as f64) < fraction
}

/// Error raised by scenario construction or trace ingestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A trace CSV line failed to parse.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The assembled spec violates an invariant.
    Invalid(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Parse { line, message } => {
                write!(f, "trace CSV line {line}: {message}")
            }
            ScenarioError::Invalid(message) => write!(f, "invalid scenario: {message}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Parses a rate-multiplier trace CSV into [`TracePoint`]s.
///
/// Format: two comma-separated columns `t_s,rate_multiplier`, one
/// breakpoint per line. Blank lines and `#` comments are skipped; an
/// optional header line naming the columns is accepted. Breakpoints must
/// have non-negative, strictly increasing times and positive multipliers.
///
/// # Errors
///
/// Returns [`ScenarioError::Parse`] with the 1-based line number of the
/// first malformed line.
pub fn parse_trace_csv(text: &str) -> Result<Vec<TracePoint>, ScenarioError> {
    let mut points: Vec<TracePoint> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if points.is_empty()
            && trimmed.to_ascii_lowercase().replace(' ', "") == "t_s,rate_multiplier"
        {
            continue;
        }
        let mut cols = trimmed.split(',');
        let (t_col, m_col) = match (cols.next(), cols.next(), cols.next()) {
            (Some(t), Some(m), None) => (t.trim(), m.trim()),
            _ => {
                return Err(ScenarioError::Parse {
                    line,
                    message: format!("expected two columns, got {trimmed:?}"),
                })
            }
        };
        let t_s: f64 = t_col.parse().map_err(|_| ScenarioError::Parse {
            line,
            message: format!("bad time {t_col:?}"),
        })?;
        let rate_multiplier: f64 = m_col.parse().map_err(|_| ScenarioError::Parse {
            line,
            message: format!("bad multiplier {m_col:?}"),
        })?;
        if !t_s.is_finite() || t_s < 0.0 {
            return Err(ScenarioError::Parse {
                line,
                message: format!("time must be finite and >= 0, got {t_s}"),
            });
        }
        if let Some(prev) = points.last() {
            if t_s <= prev.t_s {
                return Err(ScenarioError::Parse {
                    line,
                    message: format!("times must strictly increase ({} then {t_s})", prev.t_s),
                });
            }
        }
        if !rate_multiplier.is_finite() || rate_multiplier <= 0.0 {
            return Err(ScenarioError::Parse {
                line,
                message: format!("multiplier must be finite and > 0, got {rate_multiplier}"),
            });
        }
        points.push(TracePoint {
            t_s,
            rate_multiplier,
        });
    }
    Ok(points)
}

/// A complete workload scenario: a name, a stack of composable rate
/// curves, and a schedule of distribution shifts. One spec drives both the
/// discrete-event trainer and the online serving layer, deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable scenario name (used in bench artifacts).
    pub name: String,
    /// Rate curves; their multipliers compose by multiplying.
    pub rate_curves: Vec<RateCurve>,
    /// Distribution shifts in non-decreasing `at_s` order.
    pub shifts: Vec<ShiftEvent>,
}

impl ScenarioSpec {
    /// An empty scenario with the given name (stationary, no shifts).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            rate_curves: Vec::new(),
            shifts: Vec::new(),
        }
    }

    /// Adds a rate curve (builder style).
    pub fn with_curve(mut self, curve: RateCurve) -> Self {
        self.rate_curves.push(curve);
        self
    }

    /// Adds a distribution shift at `at_s` seconds (builder style).
    pub fn with_shift(mut self, at_s: f64, shift: ShiftKind) -> Self {
        self.shifts.push(ShiftEvent { at_s, shift });
        self
    }

    /// The strictly stationary scenario: multiplier 1 forever, no shifts.
    pub fn stationary() -> Self {
        Self::new("stationary")
    }

    /// A diurnal scenario: one sinusoidal QPS curve.
    pub fn diurnal(period_s: f64, amplitude: f64) -> Self {
        Self::new("diurnal").with_curve(RateCurve::Diurnal {
            period_s,
            amplitude,
        })
    }

    /// A flash-crowd scenario: a QPS spike of the given magnitude with a
    /// correlated hot-key shift at onset (flash crowds hit *new* content,
    /// so 30% of the tables re-key when the spike lands).
    pub fn flash_crowd(start_s: f64, duration_s: f64, magnitude: f64) -> Self {
        Self::new("flash-crowd")
            .with_curve(RateCurve::FlashCrowd {
                start_s,
                duration_s,
                magnitude,
            })
            .with_shift(start_s, ShiftKind::HotKeyShift { fraction: 0.3 })
    }

    /// A sustained drift storm: `waves` compounding per-class pooling
    /// rescales (user features heat up, content features cool down),
    /// capped by a table-growth event one interval after the last wave.
    pub fn drift_storm(start_s: f64, interval_s: f64, waves: usize) -> Self {
        let mut spec = Self::new("drift-storm");
        for w in 0..waves {
            spec = spec.with_shift(
                start_s + interval_s * w as f64,
                ShiftKind::DriftStorm {
                    user_scale: 1.4,
                    content_scale: 0.7,
                },
            );
        }
        spec.with_shift(
            start_s + interval_s * waves as f64,
            ShiftKind::TableGrowth {
                fraction: 0.25,
                cardinality_factor: 1.5,
            },
        )
    }

    /// A scenario replaying an ingested rate trace (see
    /// [`parse_trace_csv`] for the CSV schema).
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioError::Parse`] from the CSV parser.
    // recshard-lint: allow(test-only-pub) -- the one way to feed in the rate
    // trace the README documents.
    pub fn from_trace_csv(name: impl Into<String>, csv: &str) -> Result<Self, ScenarioError> {
        let points = parse_trace_csv(csv)?;
        Ok(Self::new(name).with_curve(RateCurve::Trace { points }))
    }

    /// Validates curve and shift parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] describing the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let bad = |msg: String| Err(ScenarioError::Invalid(msg));
        for curve in &self.rate_curves {
            match curve {
                RateCurve::Stationary => {}
                RateCurve::Diurnal {
                    period_s,
                    amplitude,
                } => {
                    if not_positive(*period_s) {
                        return bad(format!("diurnal period must be > 0, got {period_s}"));
                    }
                    if !(0.0..1.0).contains(amplitude) {
                        return bad(format!(
                            "diurnal amplitude must be in [0, 1), got {amplitude}"
                        ));
                    }
                }
                RateCurve::FlashCrowd {
                    start_s,
                    duration_s,
                    magnitude,
                } => {
                    if negative_or_nan(*start_s) {
                        return bad(format!("flash-crowd start must be >= 0, got {start_s}"));
                    }
                    if not_positive(*duration_s) {
                        return bad(format!(
                            "flash-crowd duration must be > 0, got {duration_s}"
                        ));
                    }
                    if not_positive(*magnitude) || !magnitude.is_finite() {
                        return bad(format!(
                            "flash-crowd magnitude must be > 0, got {magnitude}"
                        ));
                    }
                }
                RateCurve::Trace { points } => {
                    for pair in points.windows(2) {
                        if pair[1].t_s <= pair[0].t_s {
                            return bad("trace breakpoints must strictly increase".into());
                        }
                    }
                    if let Some(p) = points
                        .iter()
                        .find(|p| not_positive(p.rate_multiplier) || !p.rate_multiplier.is_finite())
                    {
                        return bad(format!(
                            "trace multiplier must be finite and > 0, got {}",
                            p.rate_multiplier
                        ));
                    }
                }
            }
        }
        for pair in self.shifts.windows(2) {
            if pair[1].at_s < pair[0].at_s {
                return bad("shift events must be in non-decreasing time order".into());
            }
        }
        for ev in &self.shifts {
            if negative_or_nan(ev.at_s) {
                return bad(format!("shift time must be >= 0, got {}", ev.at_s));
            }
            match ev.shift {
                ShiftKind::HotKeyShift { fraction } | ShiftKind::TableGrowth { fraction, .. } => {
                    if !(0.0..=1.0).contains(&fraction) {
                        return bad(format!("shift fraction must be in [0, 1], got {fraction}"));
                    }
                }
                ShiftKind::DriftStorm { .. } => {}
            }
            if let ShiftKind::TableGrowth {
                cardinality_factor, ..
            } = ev.shift
            {
                if not_positive(cardinality_factor) || !cardinality_factor.is_finite() {
                    return bad(format!(
                        "cardinality factor must be finite and > 0, got {cardinality_factor}"
                    ));
                }
            }
            if let ShiftKind::DriftStorm {
                user_scale,
                content_scale,
            } = ev.shift
            {
                if [user_scale, content_scale]
                    .iter()
                    .any(|&x| not_positive(x) || !x.is_finite())
                {
                    return bad(format!(
                        "drift-storm scales must be finite and > 0, got {user_scale} and \
                         {content_scale}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The composed rate multiplier at virtual time `t_ns` (product of all
    /// curves, floored at [`MIN_RATE_MULTIPLIER`]).
    pub fn rate_multiplier(&self, t_ns: u64) -> f64 {
        self.rate_curves
            .iter()
            .map(|c| c.multiplier_at(t_ns))
            .product::<f64>()
            .max(MIN_RATE_MULTIPLIER)
    }

    /// Scales an inter-arrival gap by the instantaneous rate: a 2x rate
    /// halves the gap. Zero gaps stay zero; positive gaps never round to
    /// zero (virtual time must advance).
    pub fn scaled_gap_ns(&self, gap_ns: u64, t_ns: u64) -> u64 {
        if gap_ns == 0 {
            return 0;
        }
        let scaled = gap_ns as f64 / self.rate_multiplier(t_ns);
        if scaled >= u64::MAX as f64 {
            u64::MAX
        } else {
            (scaled.round() as u64).max(1)
        }
    }

    /// All virtual instants (ns, sorted, deduplicated, excluding 0) where
    /// the scenario changes regime: shift times, flash-crowd edges, and
    /// trace breakpoints.
    pub fn boundaries_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for curve in &self.rate_curves {
            curve.boundaries_ns(&mut out);
        }
        out.extend(self.shifts.iter().map(|s| s_to_ns(s.at_s)));
        out.retain(|&t| t > 0);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// How many shift events are due at or before virtual time `t_ns`.
    pub fn shifts_due(&self, t_ns: u64) -> usize {
        self.shifts
            .iter()
            .filter(|s| s_to_ns(s.at_s) <= t_ns)
            .count()
    }

    /// The feature universe after the first `applied` shifts, in schedule
    /// order. `applied` is clamped to the schedule length; `applied == 0`
    /// returns `base` unchanged (same name). Hash sizes never change —
    /// embedding tables are allocated once — so remap tables built against
    /// `base` stay valid.
    pub fn model_after(&self, base: &ModelSpec, applied: usize) -> ModelSpec {
        let applied = applied.min(self.shifts.len());
        if applied == 0 {
            return base.clone();
        }
        let mut features: Vec<FeatureSpec> = base.features().to_vec();
        for (idx, ev) in self.shifts.iter().take(applied).enumerate() {
            match ev.shift {
                ShiftKind::HotKeyShift { fraction } => {
                    for (fi, f) in features.iter_mut().enumerate() {
                        if selects(fi, idx, fraction) {
                            f.hash_seed = f
                                .hash_seed
                                .wrapping_mul(0x0000_0100_0000_01B3)
                                .wrapping_add(idx as u64 + 1);
                        }
                    }
                }
                ShiftKind::DriftStorm {
                    user_scale,
                    content_scale,
                } => {
                    for f in features.iter_mut() {
                        let scale = match f.class {
                            FeatureClass::User => user_scale,
                            FeatureClass::Content => content_scale,
                        };
                        f.pooling = f.pooling.with_mean_scaled(scale);
                    }
                }
                ShiftKind::TableGrowth {
                    fraction,
                    cardinality_factor,
                } => {
                    for (fi, f) in features.iter_mut().enumerate() {
                        if selects(fi, idx, fraction) {
                            f.cardinality =
                                ((f.cardinality as f64 * cardinality_factor).round() as u64).max(1);
                        }
                    }
                }
            }
        }
        ModelSpec::new(
            format!("{}+{}#{}", base.name(), self.name, applied),
            base.kind(),
            features,
            base.batch_size(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The regime index at `t_ns`: the boundaries at or before it.
    fn phase_of(s: &ScenarioSpec, t_ns: u64) -> usize {
        s.boundaries_ns().iter().filter(|&&b| b <= t_ns).count()
    }

    #[test]
    fn stationary_is_identity() {
        let s = ScenarioSpec::stationary();
        assert_eq!(s.rate_multiplier(0), 1.0);
        assert_eq!(s.rate_multiplier(1_000_000_000), 1.0);
        assert_eq!(s.scaled_gap_ns(500, 12345), 500);
        assert_eq!(phase_of(&s, u64::MAX), 0);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn diurnal_oscillates_around_one() {
        let s = ScenarioSpec::diurnal(4.0, 0.5);
        assert!(s.validate().is_ok());
        // Peak at t = period/4.
        let peak = s.rate_multiplier(s_to_ns(1.0));
        assert!((peak - 1.5).abs() < 1e-9, "peak {peak}");
        // Trough at 3/4 period.
        let trough = s.rate_multiplier(s_to_ns(3.0));
        assert!((trough - 0.5).abs() < 1e-9, "trough {trough}");
        // A 1.5x rate shrinks gaps, a 0.5x rate stretches them.
        assert!(s.scaled_gap_ns(1000, s_to_ns(1.0)) < 1000);
        assert!(s.scaled_gap_ns(1000, s_to_ns(3.0)) > 1000);
    }

    #[test]
    fn flash_crowd_spikes_inside_window_only() {
        let s = ScenarioSpec::flash_crowd(2.0, 1.0, 4.0);
        assert!(s.validate().is_ok());
        assert_eq!(s.rate_multiplier(s_to_ns(1.9)), 1.0);
        assert_eq!(s.rate_multiplier(s_to_ns(2.5)), 4.0);
        assert_eq!(s.rate_multiplier(s_to_ns(3.1)), 1.0);
        // Phase 0 → 1 at onset (hot-key shift + spike edge coincide),
        // → 2 when the spike ends.
        assert_eq!(phase_of(&s, s_to_ns(1.0)), 0);
        assert_eq!(phase_of(&s, s_to_ns(2.5)), 1);
        assert_eq!(phase_of(&s, s_to_ns(5.0)), 2);
        assert_eq!(s.shifts_due(s_to_ns(1.0)), 0);
        assert_eq!(s.shifts_due(s_to_ns(2.5)), 1);
    }

    #[test]
    fn curves_compose_by_multiplying() {
        let s = ScenarioSpec::new("combo")
            .with_curve(RateCurve::FlashCrowd {
                start_s: 0.0,
                duration_s: 10.0,
                magnitude: 3.0,
            })
            .with_curve(RateCurve::FlashCrowd {
                start_s: 5.0,
                duration_s: 10.0,
                magnitude: 2.0,
            });
        assert_eq!(s.rate_multiplier(s_to_ns(1.0)), 3.0);
        assert_eq!(s.rate_multiplier(s_to_ns(6.0)), 6.0);
        assert_eq!(s.rate_multiplier(s_to_ns(12.0)), 2.0);
        assert_eq!(s.rate_multiplier(s_to_ns(20.0)), 1.0);
    }

    #[test]
    fn rate_multiplier_is_floored() {
        let s = ScenarioSpec::new("crush").with_curve(RateCurve::Trace {
            points: vec![TracePoint {
                t_s: 0.0,
                rate_multiplier: 1e-9,
            }],
        });
        assert_eq!(s.rate_multiplier(s_to_ns(1.0)), MIN_RATE_MULTIPLIER);
        // Gaps stretch by at most 1000x and never hit zero.
        assert_eq!(s.scaled_gap_ns(100, s_to_ns(1.0)), 100_000);
        assert_eq!(s.scaled_gap_ns(0, 0), 0);
        assert!(ScenarioSpec::flash_crowd(0.0, 1.0, 1e6).scaled_gap_ns(1, s_to_ns(0.5)) >= 1);
    }

    #[test]
    fn trace_csv_roundtrip_and_errors() {
        let csv = "# a comment\nt_s, rate_multiplier\n0.5, 2.0\n\n1.5,0.25\n";
        let points = parse_trace_csv(csv).expect("valid csv");
        assert_eq!(points.len(), 2);
        let s = ScenarioSpec::from_trace_csv("replay", csv).expect("valid csv");
        assert_eq!(s.rate_multiplier(0), 1.0, "1.0 before the first point");
        assert_eq!(s.rate_multiplier(s_to_ns(1.0)), 2.0);
        assert_eq!(s.rate_multiplier(s_to_ns(2.0)), 0.25);
        assert_eq!(phase_of(&s, s_to_ns(2.0)), 2);

        let err = parse_trace_csv("0.5,1.0\n0.5,2.0\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Parse { line: 2, .. }), "{err}");
        assert!(parse_trace_csv("nonsense\n").is_err());
        assert!(parse_trace_csv("1.0,-2.0\n").is_err());
        assert!(parse_trace_csv("1.0\n").is_err());
        assert!(parse_trace_csv("-1.0,2.0\n").is_err());
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let bad = ScenarioSpec::new("x").with_curve(RateCurve::Diurnal {
            period_s: 0.0,
            amplitude: 0.5,
        });
        assert!(bad.validate().is_err());
        let bad = ScenarioSpec::new("x").with_curve(RateCurve::Diurnal {
            period_s: 1.0,
            amplitude: 1.0,
        });
        assert!(bad.validate().is_err());
        let bad = ScenarioSpec::new("x")
            .with_shift(2.0, ShiftKind::HotKeyShift { fraction: 0.5 })
            .with_shift(1.0, ShiftKind::HotKeyShift { fraction: 0.5 });
        assert!(bad.validate().is_err());
        let bad = ScenarioSpec::new("x").with_shift(1.0, ShiftKind::HotKeyShift { fraction: 1.5 });
        assert!(bad.validate().is_err());
        assert!(ScenarioSpec::drift_storm(1.0, 1.0, 3).validate().is_ok());
        // A non-finite scale would saturate pooling counts to `u32::MAX`.
        for (user_scale, content_scale) in [
            (f64::INFINITY, 0.7),
            (1.4, f64::INFINITY),
            (f64::NAN, 0.7),
            (1.4, 0.0),
        ] {
            let bad = ScenarioSpec::new("x").with_shift(
                1.0,
                ShiftKind::DriftStorm {
                    user_scale,
                    content_scale,
                },
            );
            assert!(
                bad.validate().is_err(),
                "scales {user_scale} / {content_scale}"
            );
        }
    }

    #[test]
    fn model_after_applies_shifts_deterministically() {
        let base = ModelSpec::small(12, 7);
        let s = ScenarioSpec::new("shifty")
            .with_shift(1.0, ShiftKind::HotKeyShift { fraction: 0.5 })
            .with_shift(
                2.0,
                ShiftKind::DriftStorm {
                    user_scale: 1.4,
                    content_scale: 0.7,
                },
            )
            .with_shift(
                3.0,
                ShiftKind::TableGrowth {
                    fraction: 0.5,
                    cardinality_factor: 2.0,
                },
            );
        assert_eq!(&s.model_after(&base, 0), &base, "0 shifts = identity");
        let one = s.model_after(&base, 1);
        let rekeyed = base
            .features()
            .iter()
            .zip(one.features())
            .filter(|(a, b)| a.hash_seed != b.hash_seed)
            .count();
        assert!(rekeyed > 0 && rekeyed < base.num_features());
        // Hash sizes never change.
        for (a, b) in base.features().iter().zip(one.features()) {
            assert_eq!(a.hash_size, b.hash_size);
        }
        let all = s.model_after(&base, usize::MAX);
        let grown = base
            .features()
            .iter()
            .zip(all.features())
            .filter(|(a, b)| b.cardinality > a.cardinality)
            .count();
        assert!(grown > 0 && grown < base.num_features());
        // Deterministic: same inputs, same output.
        assert_eq!(s.model_after(&base, 2), s.model_after(&base, 2));
        all.features().iter().for_each(|f| {
            f.validate().expect("shifted features stay valid");
        });
    }

    #[test]
    fn drift_storm_rescales_pooling_by_class() {
        let base = ModelSpec::small(10, 3);
        let s = ScenarioSpec::drift_storm(1.0, 1.0, 2);
        let stormed = s.model_after(&base, 2);
        let mut user_up = false;
        for (a, b) in base.features().iter().zip(stormed.features()) {
            if a.class == FeatureClass::User && a.avg_pooling() > 1.5 {
                assert!(b.avg_pooling() > a.avg_pooling());
                user_up = true;
            }
        }
        assert!(user_up, "some user feature pooling must grow");
    }
}
