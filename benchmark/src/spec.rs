//! `BENCHMARK.json` is the one place metric names, units, directions and
//! regression bounds are written down. The benchmark reads it at start
//! and refuses to print a result that does not match it, so the file the
//! driver reads and the numbers the program prints cannot drift apart.

use crate::json::Value;

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Share of the reference value by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let arr = doc
        .get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("BENCHMARK.json: no \"{key}\" list"))?;
    arr.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .ok_or(format!("BENCHMARK.json: {key} entry without \"{f}\""))
            };
            Ok(MetricSpec {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Reads `BENCHMARK.json` from the current directory (the root of
    /// the checkout — `run.sh` changes there before starting the program).
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
        let doc = Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("BENCHMARK.json: no \"workloads\" list")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or("BENCHMARK.json: workload without \"name\"")
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no \"run_seconds\"")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }
}
