//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints every metric by name and unit, then, as
//! the last line of standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits non-zero, printing no result, when the workload cannot run.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::plan::Workload;
use perfbench::run::{run, Options, Report};

fn usage() -> String {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {seconds}"
        ));
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        items: None,
    })
}

fn json_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // the native tier and the C compiler write their scratch files under
    // the temporary directory: keep them inside the working directory
    let tmp = PathBuf::from(format!(".perfbench-tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let tmp = tmp.canonicalize().unwrap_or(tmp);
    std::env::set_var("TMPDIR", &tmp);
    let result = run(&opts);
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok(report) => {
            println!(
                "workload {} seed {} ({} run, {} s)",
                opts.workload.name(),
                opts.seed,
                if opts.trace { "traced" } else { "untraced" },
                opts.seconds
            );
            for m in &report.metrics {
                println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
            }
            for n in &report.notes {
                println!("  # {n}");
            }
            println!("{}", json_line(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
