//! The canonical `BENCH_*.json` artifact: one writer, reader and gate set
//! for `BENCH_des.json`, `BENCH_scenarios.json`, `BENCH_serve.json` and
//! `BENCH_solver.json`.
//!
//! **Format.** A header (`bench`, `seed`, `timed`, a sentinel note) then
//! named sections of rows, one row per line. Row fields are [`Field`]s.
//! Timings hold measurements only under `RECSHARD_BENCH_TIMING=1`, else the
//! [`TIMING_DISABLED`] sentinel, so untimed runs are byte-stable; every
//! other field is a pure function of the sweep configuration and seed, and
//! [`Artifact::fingerprint`] blanks timings so it never sees them.
//!
//! **Keys and gates.** Each artifact declares a [`Spec`]: sections with the
//! fields forming a row's key, timing fields and gates. A run's rows match
//! baseline rows on (section, key); unmatched rows are skipped, so trimmed
//! sweeps never false-positive. [`fingerprint_drift`] flags any changed
//! fingerprint; [`perf_regressions`] flags each of the spec's [`PerfGate`]
//! metrics beyond its fixed tolerance (there is no tolerance knob) and
//! skips sentinels. Every gate counts the rows it compared, so a gate that
//! checked nothing says so.
//!
//! **Baselines.** [`Artifact::parse`] rejects another bench's artifact, a
//! missing header field and an unparsable row with a typed [`ParseError`].
//! Bench binaries load `RECSHARD_BENCH_BASELINE` with [`Baseline::from_env`]
//! before their sweep and gate with [`Baseline::check`]
//! (`RECSHARD_BENCH_ALLOW_DRIFT=1` turns drift into a note).

use crate::report::RunReport;
use recshard_des::RunSummary;
use recshard_obs::ObsBundle;
use std::fmt;
use std::time::Instant;

/// Sentinel written to timing fields when wall-clock measurement is off.
pub const TIMING_DISABLED: f64 = -1.0;

/// Wall-clock repetitions of a timed run; see [`best_of`].
const TIMING_REPS: usize = 3;

/// FNV-1a offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds one word into an FNV-1a hash.
pub(crate) fn fnv_fold(hash: &mut u64, word: u64) {
    *hash ^= word;
    *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
}

/// One row field.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// A count or size.
    Int(u64),
    /// A deterministic quantity.
    Float(f64),
    /// A label.
    Str(String),
    /// A 64-bit fingerprint.
    Fingerprint(u64),
    /// A wall-clock measurement, or [`TIMING_DISABLED`].
    Timing(f64),
}

impl fmt::Display for Field {
    /// The field's canonical JSON text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Int(v) => write!(f, "{v}"),
            Field::Float(v) | Field::Timing(v) => write!(f, "{v:.9e}"),
            Field::Str(s) => write!(f, "\"{s}\""),
            Field::Fingerprint(v) => write!(f, "\"{v:#018x}\""),
        }
    }
}

/// One row: named fields in artifact order.
#[derive(Debug, Clone, PartialEq)]
pub struct Row(Vec<(String, Field)>);

impl Row {
    /// A row of `fields`, in the order they are written.
    pub fn new(fields: impl IntoIterator<Item = (&'static str, Field)>) -> Self {
        Self(fields.into_iter().map(|(n, v)| (n.into(), v)).collect())
    }

    /// The field called `name`.
    pub fn get(&self, name: &str) -> Option<&Field> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// A [`Row`] of `name: Kind(value)` fields, e.g. `row![gpus: Int(4)]`.
macro_rules! row {
    ($($name:ident: $kind:ident($value:expr)),* $(,)?) => {
        $crate::artifact::Row::new([$((stringify!($name), $crate::artifact::Field::$kind($value))),*])
    };
}
pub(crate) use row;

/// Which way a [`PerfGate`] metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (a rate).
    Higher,
    /// Smaller is better (a cost).
    Lower,
}

/// A relative floor on one row metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfGate {
    /// The gated field.
    pub metric: &'static str,
    /// Which way the metric improves.
    pub better: Better,
    /// Relative worsening tolerated before a row counts as regressed.
    pub tolerance: f64,
}

/// The declared shape and gates of one `BENCH_*.json` artifact.
#[derive(Debug, PartialEq)]
pub struct Spec {
    /// The `"bench"` header value.
    pub bench: &'static str,
    /// The file the bench binary writes.
    pub file: &'static str,
    /// `(section, key fields)`, in file order.
    pub sections: &'static [(&'static str, &'static [&'static str])],
    /// Fields holding wall-clock timings.
    pub timing: &'static [&'static str],
    /// Whether fingerprint drift fails the bench binary.
    pub drift_gated: bool,
    /// The perf gates, each checked and reported on its own.
    pub perf: &'static [PerfGate],
}

/// One `BENCH_*.json` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The artifact's declared shape.
    pub spec: &'static Spec,
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Whether timing fields hold measurements.
    pub timed: bool,
    /// `(section, rows)`, in file order.
    pub sections: Vec<(&'static str, Vec<Row>)>,
}

impl Artifact {
    /// An artifact whose `i`-th section, in `spec` order, holds `rows[i]`.
    pub fn new(spec: &'static Spec, seed: u64, timed: bool, rows: Vec<Vec<Row>>) -> Self {
        let names = spec.sections.iter().map(|&(name, _)| name);
        let sections = names.zip(rows).collect();
        Self {
            spec,
            seed,
            timed,
            sections,
        }
    }

    /// The rows of section `name` (empty when absent).
    pub fn section(&self, name: &str) -> &[Row] {
        let found = self.sections.iter().find(|(n, _)| *n == name);
        found.map_or(&[], |(_, rows)| rows)
    }

    /// Canonical JSON: fixed key order, one row per line.
    pub fn to_json(&self) -> String {
        self.render(false)
    }

    /// FNV-1a hash of the canonical JSON with every timing blanked.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        for byte in self.render(true).bytes() {
            fnv_fold(&mut hash, u64::from(byte));
        }
        hash
    }

    fn render(&self, blank_timing: bool) -> String {
        let (bench, seed, timed) = (self.spec.bench, self.seed, self.timed && !blank_timing);
        let mut out = format!(
            "{{\n  \"bench\": \"{bench}\",\n  \"seed\": {seed},\n  \"timed\": {timed},\n  \
             \"timing_sentinel\": \"-1 = timing disabled for byte-stable output\",\n"
        );
        for (s, (name, rows)) in self.sections.iter().enumerate() {
            out.push_str(&format!("  \"{name}\": [\n"));
            for (r, Row(fields)) in rows.iter().enumerate() {
                let text: Vec<String> = fields
                    .iter()
                    .map(|(name, value)| match value {
                        Field::Timing(_) if blank_timing => {
                            format!("\"{name}\": {}", Field::Timing(TIMING_DISABLED))
                        }
                        _ => format!("\"{name}\": {value}"),
                    })
                    .collect();
                let comma = if r + 1 < rows.len() { "," } else { "" };
                out.push_str(&format!("    {{{}}}{comma}\n", text.join(", ")));
            }
            let comma = if s + 1 < self.sections.len() { "," } else { "" };
            out.push_str(&format!("  ]{comma}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Parses a canonical artifact of `spec`'s bench. Field kinds follow
    /// from the text: quoted `0x` + 16 hex digits is a fingerprint, other
    /// quoted text a string, a `spec.timing` field a timing, digits an
    /// integer, any other number a float.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] when the file names another bench, lacks a header
    /// field, holds an unparsable row, or strays from the canonical layout.
    pub fn parse(spec: &'static Spec, text: &str) -> Result<Self, ParseError> {
        let malformed = |line, reason: String| ParseError::Malformed { line, reason };
        let mut lines = text.lines().map(str::trim).zip(1..);
        if lines.next().map(|(l, _)| l) != Some("{") {
            return Err(malformed(1, "expected `{`".into()));
        }
        let (mut bench, mut seed, mut timed, mut closed) = (false, None, None, false);
        let mut sections = Vec::new();
        let mut open: Option<(&str, &[&str], Vec<Row>)> = None;
        for (line, n) in lines {
            let entry = line.strip_suffix(',').unwrap_or(line);
            if closed {
                return Err(malformed(n, "content after the closing `}`".into()));
            } else if let Some((section, key, rows)) = &mut open {
                if entry == "]" {
                    sections.push((*section, std::mem::take(rows)));
                    open = None;
                } else {
                    let row = parse_row(spec, key, entry);
                    rows.push(row.map_err(|reason| ParseError::BadRow { line: n, reason })?);
                }
                continue;
            } else if line == "}" {
                closed = true;
                continue;
            }
            let Some((name, value)) = entry.strip_prefix('"').and_then(|e| e.split_once("\": "))
            else {
                return Err(malformed(n, "expected `\"name\": value`".into()));
            };
            let bad = |what: &str| malformed(n, format!("{what} `{name}`"));
            match name {
                _ if value == "[" => {
                    let section = spec.sections.iter().find(|(s, _)| *s == name);
                    let &(section, key) = section.ok_or_else(|| bad("unknown section"))?;
                    open = Some((section, key, Vec::new()));
                }
                "bench" if value.trim_matches('"') == spec.bench => bench = true,
                "bench" => {
                    let found = value.trim_matches('"').to_string();
                    return Err(ParseError::BenchMismatch {
                        expected: spec.bench,
                        found,
                    });
                }
                "seed" => seed = Some(value.parse().map_err(|_| bad("bad value of"))?),
                "timed" => timed = Some(value.parse().map_err(|_| bad("bad value of"))?),
                "timing_sentinel" => {}
                _ => return Err(bad("unknown header field")),
            }
        }
        if !bench {
            return Err(ParseError::MissingHeader("bench"));
        }
        let seed = seed.ok_or(ParseError::MissingHeader("seed"))?;
        let timed = timed.ok_or(ParseError::MissingHeader("timed"))?;
        if open.is_some() || !closed {
            let last = text.lines().count();
            return Err(malformed(last, "truncated: missing `]` or `}`".into()));
        }
        Ok(Self {
            spec,
            seed,
            timed,
            sections,
        })
    }
}

/// Parses one row line (without its trailing comma).
fn parse_row(spec: &Spec, key: &[&str], line: &str) -> Result<Row, String> {
    let body = line.strip_prefix("{\"").and_then(|l| l.strip_suffix('}'));
    let mut fields = Vec::new();
    for item in body
        .ok_or("not a `{\"name\": value, ...}` object")?
        .split(", \"")
    {
        let (name, value) = item
            .split_once("\": ")
            .ok_or_else(|| format!("expected `\"name\": value`, found `{item}`"))?;
        let field = parse_field(spec, name, value)
            .ok_or_else(|| format!("`{name}`: unparsable value `{value}`"))?;
        fields.push((name.to_string(), field));
    }
    let row = Row(fields);
    match key.iter().find(|k| row.get(k).is_none()) {
        Some(k) => Err(format!("missing key field `{k}`")),
        None => Ok(row),
    }
}

fn parse_field(spec: &Spec, name: &str, value: &str) -> Option<Field> {
    if let Some(text) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
        let hex = text
            .strip_prefix("0x")
            .filter(|h| h.len() == 16 && h.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')));
        Some(match hex.and_then(|h| u64::from_str_radix(h, 16).ok()) {
            Some(fp) => Field::Fingerprint(fp),
            None => Field::Str(text.to_string()),
        })
    } else if spec.timing.contains(&name) {
        value.parse().ok().map(Field::Timing)
    } else if value.bytes().all(|b| b.is_ascii_digit()) {
        value.parse().ok().map(Field::Int)
    } else {
        value.parse().ok().map(Field::Float)
    }
}

/// Why [`Artifact::parse`] rejected a file. Lines are 1-based.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A required header field (`bench`, `seed` or `timed`) is absent.
    MissingHeader(&'static str),
    /// The file is another bench's artifact.
    BenchMismatch {
        expected: &'static str,
        found: String,
    },
    /// A row that does not parse.
    BadRow { line: usize, reason: String },
    /// A line that does not fit the canonical layout.
    Malformed { line: usize, reason: String },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingHeader(field) => write!(f, "missing header field `{field}`"),
            ParseError::BenchMismatch { expected, found } => {
                write!(f, "artifact of bench `{found}`, expected `{expected}`")
            }
            ParseError::BadRow { line, reason } => write!(f, "line {line}: bad row: {reason}"),
            ParseError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// What one gate checked and what failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Rows compared: key matched, no sentinel on either side.
    pub compared: usize,
    /// Rows of the current run carrying the gated field(s).
    pub total: usize,
    /// One line per failing comparison.
    pub failures: Vec<String>,
}

/// Every row of `current`, labelled by section and key, with the baseline
/// row of the same section and key, if any.
fn matched<'a>(
    current: &'a Artifact,
    baseline: &'a Artifact,
) -> impl Iterator<Item = (String, &'a Row, Option<&'a Row>)> + 'a {
    current
        .sections
        .iter()
        .flat_map(move |&(section, ref rows)| {
            let spec = current.spec.sections.iter().find(|(s, _)| *s == section);
            let key = spec.map_or(&[][..], |(_, key)| key);
            rows.iter().map(move |row| {
                let same_key = |b: &&Row| key.iter().all(|k| b.get(k) == row.get(k));
                let base = baseline.section(section).iter().find(same_key);
                let mut label = section.to_string();
                for (k, v) in key.iter().filter_map(|k| Some((k, row.get(k)?))) {
                    label.push_str(&format!(" {k}={v}"));
                }
                (label, row, base)
            })
        })
}

/// Compares every fingerprint field of `current` with its baseline row's:
/// drift means the simulated behaviour changed.
pub fn fingerprint_drift(current: &Artifact, baseline: &Artifact) -> GateReport {
    let mut report = GateReport::default();
    for (label, Row(fields), base) in matched(current, baseline) {
        let fingerprints = fields
            .iter()
            .filter(|(_, v)| matches!(v, Field::Fingerprint(_)));
        if fingerprints.clone().next().is_none() {
            continue;
        }
        report.total += 1;
        let Some(base) = base else { continue };
        report.compared += 1;
        for (name, value) in fingerprints.filter(|(n, v)| base.get(n) != Some(v)) {
            let was = base.get(name).map_or("(absent)".into(), Field::to_string);
            let line = format!("{label}: {name} {value} differs from baseline {was}");
            report.failures.push(line);
        }
    }
    report
}

/// Compares `gate.metric` of `current` with its baseline row's, flagging
/// rows worse by more than `gate.tolerance`.
pub fn perf_regressions(current: &Artifact, baseline: &Artifact, gate: PerfGate) -> GateReport {
    let number = |row: Option<&Row>| match row?.get(gate.metric)? {
        Field::Int(v) => Some(*v as f64),
        Field::Float(v) => Some(*v),
        Field::Timing(v) if *v != TIMING_DISABLED => Some(*v),
        _ => None,
    };
    let mut report = GateReport::default();
    for (label, row, base) in matched(current, baseline) {
        if row.get(gate.metric).is_none() {
            continue;
        }
        report.total += 1;
        let (Some(value), Some(was)) = (number(Some(row)), number(base)) else {
            continue;
        };
        report.compared += 1;
        let (regressed, direction) = match gate.better {
            Better::Higher => (value < was * (1.0 - gate.tolerance), "below"),
            Better::Lower => (value > was * (1.0 + gate.tolerance), "above"),
        };
        if regressed {
            let (metric, pct) = (gate.metric, gate.tolerance * 100.0);
            report.failures.push(format!(
                "{label}: {metric} {value:.6e} is more than {pct:.0}% {direction} the \
                 baseline's {was:.6e}"
            ));
        }
    }
    report
}

/// A bench binary's failed gate or unusable baseline. `Debug` prints the
/// plain message, so `main` can return it and exit non-zero.
pub struct BaselineError(String);

impl fmt::Debug for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The previously committed artifact (and its path) a bench binary gates
/// on, if any.
#[derive(Debug)]
pub struct Baseline(Option<(String, Artifact)>);

impl Baseline {
    /// Reads and parses the artifact named by `RECSHARD_BENCH_BASELINE`
    /// (no baseline when unset). Call it before the sweep, and before the
    /// binary overwrites the file.
    ///
    /// # Errors
    ///
    /// When the file cannot be read or is not `spec`'s artifact.
    pub fn from_env(spec: &'static Spec) -> Result<Self, BaselineError> {
        let Ok(path) = std::env::var("RECSHARD_BENCH_BASELINE") else {
            return Ok(Self(None));
        };
        let text = std::fs::read_to_string(&path);
        let text = text.map_err(|e| BaselineError(format!("read baseline {path}: {e}")))?;
        let artifact = Artifact::parse(spec, &text);
        let artifact = artifact.map_err(|e| BaselineError(format!("baseline {path}: {e}")))?;
        Ok(Self(Some((path, artifact))))
    }

    /// Runs the spec's gates on `current`, printing one line per gate.
    ///
    /// # Errors
    ///
    /// Lists every drifted fingerprint (unless `RECSHARD_BENCH_ALLOW_DRIFT=1`)
    /// and every perf regression of every gate.
    pub fn check(&self, current: &Artifact) -> Result<(), BaselineError> {
        let Some((path, baseline)) = &self.0 else {
            return Ok(());
        };
        let mut failures = Vec::new();
        if current.spec.drift_gated {
            let drift = fingerprint_drift(current, baseline);
            let (compared, total, drifted) = (drift.compared, drift.total, drift.failures.len());
            println!("fingerprint gate vs {path}: compared {compared} of {total} points, {drifted} drifted");
            let allowed = std::env::var("RECSHARD_BENCH_ALLOW_DRIFT").as_deref() == Ok("1");
            for line in &drift.failures {
                if allowed {
                    println!("note (drift allowed): {line}");
                } else {
                    failures.push(format!("FINGERPRINT DRIFT: {line}"));
                }
            }
            if !failures.is_empty() {
                let file = current.spec.file;
                failures.push(format!(
                    "if the change is intentional, re-run with RECSHARD_BENCH_ALLOW_DRIFT=1 \
                     and commit the regenerated {file}"
                ));
            }
        }
        for &gate in current.spec.perf {
            let perf = perf_regressions(current, baseline, gate);
            println!("{}", perf_summary(current, baseline, gate, &perf));
            for line in &perf.failures {
                failures.push(format!("PERF REGRESSION: {line}"));
            }
        }
        match failures.is_empty() {
            true => Ok(()),
            false => Err(BaselineError(failures.join("\n"))),
        }
    }
}

/// One perf gate's verdict line. A timing gate that compared nothing
/// because a side is untimed says it was skipped, not passed.
fn perf_summary(
    current: &Artifact,
    baseline: &Artifact,
    gate: PerfGate,
    perf: &GateReport,
) -> String {
    let PerfGate {
        metric, tolerance, ..
    } = gate;
    let (compared, total, regressed) = (perf.compared, perf.total, perf.failures.len());
    let side = if current.timed {
        "the baseline"
    } else {
        "this run"
    };
    let timed = current.timed && baseline.timed;
    if compared == 0 && !timed && current.spec.timing.contains(&metric) {
        format!("{metric} gate skipped: {side} is untimed (compared 0 of {total} points)")
    } else {
        let pct = tolerance * 100.0;
        format!("{metric} gate: compared {compared} of {total} points (tolerance {pct:.0}%), {regressed} regressed")
    }
}

/// Runs `run` once — best of `TIMING_REPS` (3) when `include_timing` is set —
/// and returns its result with the fastest wall time in ms. Seeded runs are
/// pure functions of their inputs, so every repetition must return the
/// same result (asserted). This is the harness's one wall-clock read.
pub fn best_of<T: PartialEq + fmt::Debug>(
    include_timing: bool,
    mut run: impl FnMut() -> T,
) -> (T, f64) {
    let reps = if include_timing { TIMING_REPS } else { 1 };
    let start = Instant::now();
    let first = run();
    let mut best_ms = start.elapsed().as_secs_f64() * 1e3;
    for _ in 1..reps {
        let start = Instant::now();
        let again = run();
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            first, again,
            "seeded repetitions must replay bit-identically"
        );
    }
    (first, best_ms)
}

/// `measured` when timing is recorded, else [`TIMING_DISABLED`].
pub fn recorded(include_timing: bool, measured: f64) -> f64 {
    if include_timing {
        measured
    } else {
        TIMING_DISABLED
    }
}

/// When `RECSHARD_OBS_DIR` is set, runs `smoke` (one traced seeded run) and
/// writes `{prefix}_trace.jsonl`, `{prefix}_trace.chrome.json` (load it in
/// `chrome://tracing` or Perfetto) and `{prefix}_metrics.json` there.
///
/// # Errors
///
/// When the directory or a file cannot be written.
pub fn export_obs(
    prefix: &str,
    smoke: impl FnOnce() -> (RunSummary, ObsBundle),
) -> std::io::Result<()> {
    let Ok(dir) = std::env::var("RECSHARD_OBS_DIR") else {
        return Ok(());
    };
    let (summary, bundle) = smoke();
    std::fs::create_dir_all(&dir)?;
    let path = |suffix: &str| format!("{dir}/{prefix}_{suffix}");
    std::fs::write(path("trace.jsonl"), bundle.trace.to_jsonl())?;
    std::fs::write(path("trace.chrome.json"), bundle.trace.to_chrome())?;
    std::fs::write(path("metrics.json"), bundle.metrics.to_json())?;
    let mut obs = RunReport::new("observability export");
    obs.push("directory", &dir)
        .push("trace records", bundle.trace.len())
        .push_fingerprint("trace fingerprint", bundle.trace.fingerprint())
        .push_fingerprint("metrics fingerprint", bundle.metrics.fingerprint())
        .push_fingerprint("event-log fingerprint", summary.fingerprint);
    print!("{obs}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{des_bench, scenario_bench, serve_bench, solver_bench};
    use proptest::prelude::*;

    /// Every committed artifact with its spec.
    fn committed() -> [(&'static Spec, &'static str); 4] {
        let des = include_str!("../../../BENCH_des.json");
        let scenarios = include_str!("../../../BENCH_scenarios.json");
        let solver = include_str!("../../../BENCH_solver.json");
        let serve = include_str!("../../../BENCH_serve.json");
        [
            (&des_bench::SPEC, des),
            (&scenario_bench::SPEC, scenarios),
            (&solver_bench::SPEC, solver),
            (&serve_bench::SPEC, serve),
        ]
    }

    static TOY: Spec = Spec {
        bench: "toy",
        file: "BENCH_toy.json",
        sections: &[("points", &["id"])],
        timing: &["rate"],
        drift_gated: true,
        perf: &[PerfGate {
            metric: "rate",
            better: Better::Higher,
            tolerance: 0.25,
        }],
    };

    /// One toy row per rate; row `id` has fingerprint `id`.
    fn toy(timed: bool, rates: &[f64]) -> Artifact {
        let row = |(id, &rate): (usize, &f64)| row![id: Int(id as u64), fp: Fingerprint(id as u64), rate: Timing(rate)];
        let rows = rates.iter().enumerate().map(row).collect();
        Artifact::new(&TOY, 1, timed, vec![rows])
    }

    #[test]
    fn committed_artifacts_round_trip_and_gate_against_themselves() {
        // (points compared, rows carrying the gated field) of the drift gate,
        // then of each perf gate
        let expected: [&[(usize, usize)]; 4] = [
            &[(8, 8), (8, 8)],
            &[(16, 16), (0, 16)],
            &[(20, 20), (20, 20), (15, 15)],
            &[(9, 9), (9, 9)],
        ];
        for ((spec, text), expected) in committed().into_iter().zip(expected) {
            let artifact = Artifact::parse(spec, text).expect("committed artifact parses");
            assert_eq!(artifact.to_json(), text, "{} must round-trip", spec.file);
            let gates = spec.perf.iter();
            let reports: Vec<GateReport> = std::iter::once(fingerprint_drift(&artifact, &artifact))
                .chain(gates.map(|&gate| perf_regressions(&artifact, &artifact, gate)))
                .collect();
            let counts: Vec<_> = reports.iter().map(|r| (r.compared, r.total)).collect();
            assert_eq!(counts, expected, "{}", spec.file);
            assert!(
                reports.iter().all(|r| r.failures.is_empty()),
                "{}",
                spec.file
            );
        }
    }

    #[test]
    fn parse_rejects_a_wrong_bench_a_missing_header_and_a_bad_row() {
        let [(des, text), _, (_, solver_text), _] = committed();
        let parse = |text: &str| Artifact::parse(des, text);
        let found = "solver_scaling".to_string();
        let mismatch = ParseError::BenchMismatch {
            expected: "des_throughput",
            found,
        };
        assert_eq!(parse(solver_text), Err(mismatch));
        let missing = text.replace("  \"seed\": 42480,\n", "");
        assert_eq!(parse(&missing), Err(ParseError::MissingHeader("seed")));
        let bad = parse(&text.replacen("60000", "sixty", 1));
        assert!(
            matches!(bad, Err(ParseError::BadRow { line: 7, .. })),
            "{bad:?}"
        );
        let keyless = parse(&text.replacen("\"gpus\": 4, ", "", 1));
        assert!(format!("{keyless:?}").contains("missing key field `gpus`"));
        let one_line = parse("{\"bench\": \"solver_scaling\"}");
        assert!(matches!(
            one_line,
            Err(ParseError::Malformed { line: 1, .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..4096)
        ) {
            for (spec, _) in committed() {
                let _ = Artifact::parse(spec, &String::from_utf8_lossy(&bytes));
            }
        }

        #[test]
        fn parse_never_panics_on_truncated_or_flipped_artifacts(
            cut in any::<usize>(), at in any::<usize>(), mask in any::<u8>()
        ) {
            for (spec, text) in committed() {
                let bytes = text.as_bytes();
                let cut = cut % bytes.len();
                let truncated = Artifact::parse(spec, &String::from_utf8_lossy(&bytes[..cut]));
                // Losing the closing `}` is an error, never a shorter baseline.
                prop_assert!(cut + 1 >= bytes.len() || truncated.is_err());
                let mut flipped = bytes.to_vec();
                flipped[at % bytes.len()] ^= mask | 1;
                let _ = Artifact::parse(spec, &String::from_utf8_lossy(&flipped));
            }
        }
    }

    #[test]
    fn gates_count_compared_rows_and_skip_sentinels() {
        let base = toy(true, &[100.0, 100.0, 100.0]);
        let run = toy(true, &[100.0, 50.0, TIMING_DISABLED, 100.0]);
        let perf = perf_regressions(&run, &base, TOY.perf[0]);
        assert_eq!((perf.compared, perf.total), (2, 4));
        assert_eq!(
            perf.failures,
            ["points id=1: rate 5.000000e1 is more than 25% below the baseline's 1.000000e2"]
        );
        let cost = PerfGate {
            better: Better::Lower,
            ..TOY.perf[0]
        };
        assert!(perf_regressions(&run, &base, cost).failures.is_empty());
        assert_eq!(perf_regressions(&base, &run, cost).failures.len(), 1);

        let mut drifted = run.clone();
        drifted.sections[0].1[1] = row![id: Int(1), fp: Fingerprint(9)];
        let drift = fingerprint_drift(&drifted, &base);
        assert_eq!((drift.compared, drift.total), (3, 4));
        let line =
            "points id=1: fp \"0x0000000000000009\" differs from baseline \"0x0000000000000001\"";
        assert_eq!(drift.failures, [line]);
    }

    #[test]
    fn check_reports_skips_and_fails_on_regression() {
        let (timed, untimed) = (toy(true, &[100.0; 4]), toy(false, &[TIMING_DISABLED; 4]));
        let summary = |run: &Artifact, base: &Artifact| {
            perf_summary(
                run,
                base,
                TOY.perf[0],
                &perf_regressions(run, base, TOY.perf[0]),
            )
        };
        let verdicts = [
            summary(&timed, &timed),
            summary(&timed, &untimed),
            summary(&untimed, &timed),
        ];
        assert_eq!(
            verdicts,
            [
                "rate gate: compared 4 of 4 points (tolerance 25%), 0 regressed",
                "rate gate skipped: the baseline is untimed (compared 0 of 4 points)",
                "rate gate skipped: this run is untimed (compared 0 of 4 points)",
            ]
        );
        let baseline = Baseline(Some(("BENCH_toy.json".to_string(), timed)));
        assert!(baseline.check(&untimed).is_ok());
        let err = baseline
            .check(&toy(true, &[10.0; 4]))
            .expect_err("a 90% slowdown");
        assert!(format!("{err:?}").starts_with("PERF REGRESSION: points id=0"));
    }

    #[test]
    fn solver_artifact_gates_the_default_solver_cost_too() {
        let (spec, text) = committed()[2];
        let base = Artifact::parse(spec, text).expect("committed artifact parses");
        // A 5% costlier default-solver plan at the first point, with every
        // bucketed-solver cost unchanged.
        let mut run = base.clone();
        let Row(fields) = &mut run.sections[0].1[0];
        for (name, value) in fields.iter_mut() {
            if let (true, Field::Float(cost)) = (name == "structured_cost_ms", value) {
                *cost *= 1.05;
            }
        }
        let &[scalable, structured] = spec.perf else {
            panic!("the solver artifact has two perf gates")
        };
        assert!(perf_regressions(&run, &base, scalable).failures.is_empty());
        let report = perf_regressions(&run, &base, structured);
        assert_eq!(
            perf_summary(&run, &base, structured, &report),
            "structured_cost_ms gate: compared 15 of 15 points (tolerance 2%), 1 regressed"
        );
        let baseline = Baseline(Some(("BENCH_solver.json".to_string(), base)));
        let err = baseline
            .check(&run)
            .expect_err("a 5% costlier default plan");
        let prefix = "PERF REGRESSION: points tables=100 gpus=4: structured_cost_ms";
        assert!(format!("{err:?}").starts_with(prefix), "{err:?}");
    }
}
