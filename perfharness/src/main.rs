//! `ppsim-perfharness --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one benchmark run and prints its result as the last line of
//! standard output: `{"correct", "attempted", "failed", "metrics"}`.

use ppsim_perfharness::{run, RunSpec, Size, Workload};

const USAGE: &str = "usage: ppsim-perfharness --workload <suite-cold|trace-import|check-sweep> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed `{value}`"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside 0..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (want 0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(RunSpec {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::full(),
        inject: None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = run(&spec);
    for why in &out.failures {
        eprintln!("FAILED: {why}");
    }
    let walls: Vec<String> = out.pass_walls.iter().map(|w| format!("{w:.3}")).collect();
    eprintln!(
        "{} untraced passes, wall (s): {}",
        walls.len(),
        walls.join(" ")
    );
    let setups: Vec<String> = out
        .setup_blocks
        .iter()
        .map(|s| format!("{:.3}", s * 1e3))
        .collect();
    eprintln!(
        "{} set-up blocks, time per set-up (ms): {}",
        setups.len(),
        setups.join(" ")
    );
    for m in &out.metrics {
        eprintln!("{:<48} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.to_json());
}
