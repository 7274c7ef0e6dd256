//! `ledger run` and `ledger diff`: the end-to-end half of the stage ledger.
//! Links only `ms_service::{Client, Request, Response}`, `ms_core` and
//! `ms_workloads`.

use ledger::args::Args;
use ledger::check::{self, Verdict};
use ledger::load::{set_up, window};
use ledger::report::{self, WorkloadResult};
use ledger::spec::{Workload, SETUPS};
use ledger::stats::median;
use ledger::{diff, host, jsonio, sut};
use ms_service::Client;
use std::process::ExitCode;

fn run_workload(args: &Args, w: &'static Workload) -> Result<WorkloadResult, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut outs = Vec::with_capacity(SETUPS);
    let mut verdict = Verdict::default();
    let (mut server, mut warmup_items_per_s) = (Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        // Everything from scratch, stream generation included; the servers
        // die with `setup` at the end of the iteration.
        let mut setup = set_up(&args.server_bin, &args.out_dir(), w, args.seed)?;
        setups.push(setup.setup_s);
        warmup_items_per_s.push(setup.warmup_items_per_s);
        server = setup.sut.describe();
        let out = window::<Client>(&mut setup, w, args.seconds / SETUPS as f64, false);
        verdict.absorb(check::verify(&mut setup, w, &[&out]));
        outs.push(out);
    }
    Ok(WorkloadResult {
        workload: w,
        server,
        metrics: report::end_to_end(&outs, &setups),
        extras: report::extras(&outs),
        attempted: outs.iter().map(|o| o.tally.attempted).sum(),
        failed: outs.iter().map(|o| o.tally.failed).sum(),
        verdict,
        warmup_items_per_s: median(&warmup_items_per_s),
    })
}

fn run(argv: impl Iterator<Item = String>) -> Result<bool, String> {
    let args = Args::parse(argv)?;
    sut::sweep_stale(&args.out_dir());
    host::pin_to_one_core();
    let mut results = Vec::new();
    for w in args.workloads() {
        let result = run_workload(&args, w)?;
        result.print();
        results.push(result);
    }
    let correct = results.iter().all(WorkloadResult::correct);
    // A single-workload run is the driver's (or a smoke test): it leaves the
    // committed full run-set alone unless told where to write.
    if args.workload.is_none() || args.out.is_some() {
        let path = args.result_path("BENCH_e2e.json");
        let file = report::e2e_file(&args.root, args.seed, args.seconds, &results);
        report::write_file(&path, &file)?;
        println!("wrote {}", path.display());
    }
    println!("shard_scaling unmeasured (see host.shard_scaling in the result file)");
    if args.workload.is_some() {
        let r = &results[0];
        println!(
            "{}",
            report::driver_line(correct, r.attempted, r.failed, &r.metrics)
        );
    }
    Ok(correct)
}

fn diff_files(mut argv: impl Iterator<Item = String>) -> Result<bool, String> {
    let (Some(a), Some(b), None) = (argv.next(), argv.next(), argv.next()) else {
        return Err("usage: ledger diff A.json B.json".to_string());
    };
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        jsonio::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let worse = diff::diff(&load(&a)?, &load(&b)?)?;
    println!("{worse} worse");
    Ok(worse == 0)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let outcome = match argv.next().as_deref() {
        Some("run") => run(argv),
        Some("diff") => diff_files(argv),
        _ => Err("usage: ledger run [--workload W] [--seed S] [--seconds N] [--out FILE] | ledger diff A.json B.json".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
