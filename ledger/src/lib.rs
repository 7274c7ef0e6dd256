//! Stage ledger: the repository's benchmark.
//!
//! This library is the end-to-end half. It spawns the shipped
//! `mergeable serve` binary as child processes on loopback and drives them
//! through `ms_service::Client` only, so its numbers depend on the wire
//! protocol and the CLI, never on internal Rust APIs. The per-layer half
//! (`src/trace.rs`, `src/replay.rs`, `src/probes.rs`) belongs to the sibling
//! package `trace/`; see `README.md`.

pub mod args;
pub mod check;
pub mod conn;
pub mod diff;
pub mod host;
pub mod jsonio;
pub mod load;
pub mod report;
pub mod span;
pub mod spec;
pub mod stats;
pub mod sut;

#[cfg(test)]
mod tests {
    use crate::jsonio::{as_arr, as_f64, as_str, get, parse};
    use crate::spec;

    /// `BENCHMARK.json` repeats the lists in `spec.rs`; keep them equal.
    #[test]
    fn benchmark_json_matches_spec() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json = parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            as_arr(get(&json, key).expect(key))
                .iter()
                .map(|m| as_str(get(m, "name").unwrap()).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            spec::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end"),
            spec::END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            spec::PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (entry, m) in as_arr(get(&json, "end_to_end").unwrap())
            .iter()
            .zip(spec::END_TO_END)
        {
            assert_eq!(as_str(get(entry, "unit").unwrap()), Some(m.unit));
            assert_eq!(as_f64(get(entry, "bound").unwrap()), Some(m.bound));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(as_str(get(entry, "better").unwrap()), Some(better));
        }
        for (entry, m) in as_arr(get(&json, "per_layer").unwrap())
            .iter()
            .zip(spec::PER_LAYER)
        {
            assert_eq!(as_str(get(entry, "unit").unwrap()), Some(m.1));
            let better = if m.2 { "higher" } else { "lower" };
            assert_eq!(as_str(get(entry, "better").unwrap()), Some(better));
        }
        for (entry, m) in as_arr(get(&json, "workloads").unwrap())
            .iter()
            .zip(spec::WORKLOADS)
        {
            assert_eq!(as_str(get(entry, "why").unwrap()), Some(m.why));
        }
    }
}
