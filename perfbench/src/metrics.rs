//! The metric registry: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists exactly
//! these (checked by a unit test), and every run emits every metric of
//! its mode — end-to-end untraced, per-layer traced.

use std::collections::BTreeMap;

/// Paper-scale models of the compile-layer profile, by metric suffix
/// (Table 2 order).
pub const PAPER_MODELS: [&str; 6] = ["bert", "resnext", "lstm", "efficientnet", "swin", "mmoe"];

/// Programs of `infer-full`: the six tiny models plus BERT at bench scale.
pub const ZOO: [&str; 7] = [
    "bert",
    "resnext",
    "lstm",
    "efficientnet",
    "swin",
    "mmoe",
    "bert_bench",
];

/// Pipeline variants each `infer-full` program is compiled with.
pub const VARIANTS: [&str; 2] = ["v0", "full"];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name: name.into(),
        unit,
        better,
    }
}

/// End-to-end metrics, reported by every workload from an untraced run.
pub fn end_to_end() -> Vec<Spec> {
    vec![
        spec("median_ms", "ms", "lower"),
        spec("tail_ms", "ms", "lower"),
        spec("throughput_per_s", "1/s", "higher"),
        spec("setup_s", "s", "lower"),
        spec("peak_rss_mb", "MB", "lower"),
    ]
}

/// Per-layer metrics, reported by every workload from a traced run. A
/// layer the workload's timed operations never enter reports 0.
pub fn per_layer() -> Vec<Spec> {
    let mut v = vec![spec("frontend.build_ms", "ms", "lower")];
    for m in PAPER_MODELS {
        for stage in [
            "transform.horizontal_ms",
            "transform.vertical_ms",
            "transform.reduction_ms",
            "analysis.ms",
            "sched.schedule_ms",
            "kernel.ms",
            "verify.ms",
            "certify.ms",
        ] {
            v.push(spec(format!("{stage}.{m}"), "ms", "lower"));
        }
        v.push(spec(format!("transform.tes_after.{m}"), "count", "lower"));
        v.push(spec(format!("kernel.kernels.{m}"), "count", "lower"));
        v.push(spec(format!("gpusim.modeled_us.{m}"), "us", "lower"));
    }
    for p in ZOO {
        for variant in VARIANTS {
            v.push(spec(format!("te.prepare_ms.{p}.{variant}"), "ms", "lower"));
            v.push(spec(format!("te.eval_ms.{p}.{variant}"), "ms", "lower"));
        }
        v.push(spec(format!("te.bytecode_tes.{p}.full"), "count", "lower"));
        v.push(spec(format!("te.full_over_v0.{p}"), "ratio", "lower"));
    }
    v.extend([
        spec("serve.submit_us", "us", "lower"),
        spec("serve.queue_ms", "ms", "lower"),
        spec("serve.exec_ms", "ms", "lower"),
        spec("serve.post_ms", "ms", "lower"),
        spec("serve.mean_batch", "count", "higher"),
        spec("serve.size_flush_share", "share", "higher"),
        spec("serve.padding_waste", "share", "lower"),
        spec("serve.cache_variants", "count", "lower"),
        spec("serve.gen_lateness_ms", "ms", "lower"),
        spec("serve.rejected_share", "share", "lower"),
        spec("serve.slo_share", "share", "higher"),
        spec("souffle.trace_overhead_pct", "%", "lower"),
    ]);
    v
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (compiles, evaluations or sent requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// False when a check outside the per-operation ones failed, such as
    /// the traced run's pipeline re-composition.
    pub checks_failed: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.checks_failed.push(what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};
    use souffle::trace::json;

    #[test]
    fn registry_names_are_valid_unique_and_bounded() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layer.len()), "{} rows", layer.len());
        let mut seen = std::collections::HashSet::new();
        for s in e2e.iter().chain(&layer) {
            assert!(valid_name(&s.name), "{}", s.name);
            assert!(valid_unit(s.unit), "{}", s.unit);
            assert!(matches!(s.better, "lower" | "higher"));
            assert!(seen.insert(s.name.clone()), "duplicate {}", s.name);
        }
        assert!(e2e
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s" && s.better == "lower"));
    }

    /// `BENCHMARK.json` declares exactly the registry, in order.
    #[test]
    fn benchmark_json_matches_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&raw).expect("BENCHMARK.json parses");
        for (key, want) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let want: Vec<[String; 3]> = want
                .into_iter()
                .map(|s| [s.name, s.unit.to_string(), s.better.to_string()])
                .collect();
            let got: Vec<[String; 3]> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| {
                    ["name", "unit", "better"].map(|f| {
                        m.get(f)
                            .and_then(|x| x.as_str())
                            .unwrap_or_else(|| panic!("{key}: {f}"))
                            .to_string()
                    })
                })
                .collect();
            assert_eq!(got, want, "{key} differs from the registry");
        }
    }
}
