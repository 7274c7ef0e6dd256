//! Command line shared by `ledger run` and `ledger trace`. Both are started
//! by the `ledger/ledger` script from the repository root, which builds the
//! server and names it in `LEDGER_SERVER_BIN`.

use crate::spec::{self, Workload};
use std::path::PathBuf;

pub struct Args {
    /// Only this workload, and print the driver's one-line result last.
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Result file (default `ledger/results/BENCH_<kind>.json`).
    pub out: Option<PathBuf>,
    pub server_bin: PathBuf,
    /// The repository root (the working directory).
    pub root: PathBuf,
}

impl Args {
    /// Parse `--workload W --seed S --seconds N --out FILE` (`--trace 0|1`
    /// is the script's business and ignored here).
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: 20.0,
            out: None,
            server_bin: std::env::var_os("LEDGER_SERVER_BIN")
                .map_or_else(|| PathBuf::from("target/release/mergeable"), PathBuf::from),
            root: PathBuf::from("."),
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    args.workload = Some(spec::workload(&name).ok_or_else(|| {
                        let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload '{name}'; one of {known:?}")
                    })?);
                }
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if args.seconds.is_nan() || args.seconds < 0.5 {
                        return Err("--seconds must be at least 0.5".to_string());
                    }
                }
                "--out" => args.out = Some(PathBuf::from(value()?)),
                "--trace" => drop(value()?),
                other => return Err(format!("unexpected argument '{other}'")),
            }
        }
        if !args.server_bin.is_file() {
            return Err(format!(
                "server binary {} not found; start the benchmark through ledger/ledger",
                args.server_bin.display()
            ));
        }
        Ok(args)
    }

    pub fn workloads(&self) -> Vec<&'static Workload> {
        match self.workload {
            Some(w) => vec![w],
            None => spec::WORKLOADS.iter().collect(),
        }
    }

    /// `ledger/out/`: temporary data directories and raw spans.
    pub fn out_dir(&self) -> PathBuf {
        self.root.join("ledger/out")
    }

    pub fn result_path(&self, default_name: &str) -> PathBuf {
        self.out
            .clone()
            .unwrap_or_else(|| self.root.join("ledger/results").join(default_name))
    }
}
