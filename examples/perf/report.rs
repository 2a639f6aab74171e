//! The benchmark's files: the `BENCHMARK.json` manifest it is run
//! against, the result line the driver reads, and the `results.json`
//! a whole set of runs is stored in.

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// A name → value table that is a JSON *object* on the wire. (The
/// workspace's serde stand-in writes every map as a list of pairs, and
/// the driver reads `"metrics": {…}`.)
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table<T>(pub BTreeMap<String, T>);

impl<T: Serialize> Serialize for Table<T> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<T: Deserialize> Deserialize for Table<T> {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let Value::Map(entries) = v else {
            return Err(serde::Error::custom("expected an object"));
        };
        entries
            .iter()
            .map(|(k, v)| Ok((k.clone(), T::from_value(v)?)))
            .collect::<Result<_, _>>()
            .map(Table)
    }
}

/// One workload of the manifest.
#[derive(Clone, Debug, Deserialize)]
pub struct WorkloadEntry {
    pub name: String,
    pub why: String,
}

/// One end-to-end metric of the manifest.
#[derive(Clone, Debug, Deserialize)]
pub struct EndToEndEntry {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric of the manifest (its direction is for the
/// reader; per-layer metrics carry no bound and get no verdict).
#[derive(Clone, Debug, Deserialize)]
pub struct PerLayerEntry {
    pub name: String,
    pub unit: String,
}

/// `BENCHMARK.json`: the single place metric names, units, directions
/// and bounds are written down. The program reads it rather than
/// repeat it, and refuses to report a set of metrics that differs.
#[derive(Clone, Debug, Deserialize)]
pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadEntry>,
    pub end_to_end: Vec<EndToEndEntry>,
    pub per_layer: Vec<PerLayerEntry>,
}

impl Manifest {
    /// Reads `BENCHMARK.json` from the working directory (the wrapper
    /// script runs the program from the root of the checkout).
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("cannot read BENCHMARK.json (run from the repo root): {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
    }

    /// Attaches the manifest's unit to every measured value, insisting
    /// that `values` holds exactly the metrics the manifest lists.
    pub fn with_units<'a>(
        &self,
        listed: impl Iterator<Item = (&'a str, &'a str)>,
        mut values: BTreeMap<String, f64>,
    ) -> Result<Table<Metric>, String> {
        let mut out = BTreeMap::new();
        for (name, unit) in listed {
            let value = values.remove(name).ok_or_else(|| {
                format!("metric {name} is in BENCHMARK.json but was not measured")
            })?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            out.insert(
                name.to_string(),
                Metric {
                    value,
                    unit: unit.to_string(),
                },
            );
        }
        match values.keys().next() {
            Some(extra) => Err(format!(
                "metric {extra} was measured but is not in BENCHMARK.json"
            )),
            None => Ok(Table(out)),
        }
    }
}

/// A measured value with its unit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// The last line of a single-workload run's standard output.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Table<Metric>,
}

/// Everything one single-workload process measured: its result line
/// plus the harness statistics `compare` needs to judge the noise.
/// Printed as the `detail` line just before the result line.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub traced: bool,
    pub result: ResultLine,
    /// `bench.*` statistics of the untraced timed repeats.
    pub harness: Table<f64>,
    /// Wall-clock seconds of every untraced timed repeat, in order.
    pub wall_s: Vec<f64>,
}

/// Where the numbers were taken.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
    pub workers: usize,
    /// Machine-wide steal share over the whole set of runs.
    pub steal_share: f64,
}

/// `results.json`: one set of runs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Results {
    pub fingerprint: Fingerprint,
    pub runs: Vec<RunRecord>,
}

impl Results {
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Writes the set indented, so that refreshing a committed
    /// baseline is a diff a reviewer can read.
    pub fn save(&self, path: &std::path::Path) -> Result<(), String> {
        let json = serde_json::to_string(self).map_err(|e| e.to_string())?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, indent(&json)).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Re-flows compact JSON one member per line, two spaces per level;
/// arrays of plain numbers (the raw samples) stay on one line.
fn indent(json: &str) -> String {
    let mut out = String::with_capacity(json.len() * 2);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut skip_until = 0;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    for (i, c) in json.char_indices() {
        if i < skip_until {
            continue;
        }
        if in_string {
            out.push(c);
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '[' | '{' => {
                let numbers = json[i + 1..]
                    .find(']')
                    .map(|end| &json[i..i + end + 2])
                    .filter(|body| c == '[' && !body[1..].contains(['[', '{', '"']));
                if let Some(body) = numbers {
                    out.push_str(&body.replace(',', ", "));
                    skip_until = i + body.len();
                } else {
                    depth += 1;
                    out.push(c);
                    newline(&mut out, depth);
                }
            }
            ']' | '}' => {
                depth -= 1;
                if out.trim_end().ends_with(['[', '{']) {
                    out.truncate(out.trim_end().len());
                } else {
                    newline(&mut out, depth);
                }
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            c => out.push(c),
        }
    }
    out.push('\n');
    out
}
