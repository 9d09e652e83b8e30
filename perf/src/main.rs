//! The repo's benchmark: every speed claim is measured with this binary.
//!
//! ```text
//! perf --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! runs one of the five workloads of `BENCHMARK.json` for about
//! `--seconds` seconds on inputs generated from `--seed`, checks the
//! outputs after timing has stopped, prints every metric as
//! `workload metric value unit n=<samples>`, and ends with one JSON line
//! (`correct`, `attempted`, `failed`, `metrics`). `--trace 0` measures the
//! end-to-end metrics with all tracing off; `--trace 1` measures the
//! per-layer metrics with benchmark-side spans round every call into a
//! layer, and writes a Chrome trace under `perf/target/trace/`.
//!
//! It calls only the public `tileqr` facade. See `README.md` beside this
//! package for what each workload and metric is for.

mod check;
mod clock;
mod host;
mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::{hetero, oneshot, service, Outcome, RunArgs};

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SquareCoarse,
    SquareFine,
    TallSkinny,
    ServiceSmall,
    HeteroPlan,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SquareCoarse,
        Workload::SquareFine,
        Workload::TallSkinny,
        Workload::ServiceSmall,
        Workload::HeteroPlan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SquareCoarse => oneshot::SQUARE_COARSE.name,
            Workload::SquareFine => oneshot::SQUARE_FINE.name,
            Workload::TallSkinny => oneshot::TALL_SKINNY.name,
            Workload::ServiceSmall => service::NAME,
            Workload::HeteroPlan => hetero::NAME,
        }
    }

    fn run(self, args: RunArgs, trace: bool, out: &mut Report) -> Result<Outcome, String> {
        let one_shot = |w: &oneshot::OneShot, out: &mut Report| {
            if trace {
                w.run_traced(args, out)
            } else {
                w.run(args, out)
            }
        };
        match (self, trace) {
            (Workload::SquareCoarse, _) => one_shot(&oneshot::SQUARE_COARSE, out),
            (Workload::SquareFine, _) => one_shot(&oneshot::SQUARE_FINE, out),
            (Workload::TallSkinny, _) => one_shot(&oneshot::TALL_SKINNY, out),
            (Workload::ServiceSmall, false) => service::run(args, out),
            (Workload::ServiceSmall, true) => service::run_traced(args, out),
            (Workload::HeteroPlan, false) => hetero::run(args, out),
            (Workload::HeteroPlan, true) => hetero::run_traced(args, out),
        }
    }
}

struct Cli {
    workload: Workload,
    args: RunArgs,
    trace: bool,
}

const USAGE: &str = "usage: perf --workload <name> --seed <u64> --seconds <1..=60> --trace <0|1>
workloads: square_coarse square_fine tall_skinny service_small hetero_plan";

fn parse(argv: &[String]) -> Result<Cli, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {value} is outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        args: RunArgs {
            seed,
            seconds: seconds.ok_or("--seconds is required")?,
            cores: host::cores(),
        },
        trace,
    })
}

fn run(cli: &Cli) -> Result<String, String> {
    let cores = cli.args.cores;
    let cpu = host::pin_to_one_cpu()?;
    let name = cli.workload.name();
    eprintln!(
        "# perf {name} seed={} seconds={} trace={} | {} | {cores} cores, pinned to cpu {cpu} | workers={}",
        cli.args.seed,
        cli.args.seconds,
        u8::from(cli.trace),
        host::cpu_model(),
        host::WORKERS,
    );
    let mut out = Report::new(name, if cli.trace { PER_LAYER } else { END_TO_END });
    let outcome = cli.workload.run(cli.args, cli.trace, &mut out)?;
    if cli.trace {
        out.zero_untouched();
    }
    let missing = out.missing();
    if !missing.is_empty() {
        return Err(format!(
            "{name}: metrics missing or not finite: {missing:?}"
        ));
    }
    if outcome.attempted == 0 {
        return Err(format!("{name}: no operation was attempted"));
    }
    print!("{}", out.lines());
    let json = out.json(outcome.attempted, outcome.failed);
    if cli.trace {
        workloads::write_file(&format!("{name}.layers.json"), &json)?;
    }
    Ok(json)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("perf: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("perf: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let cli = parse(&args(
            "--workload square_fine --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload, Workload::SquareFine);
        assert_eq!(
            (cli.args.seed, cli.args.seconds, cli.trace),
            (7, 12.0, true)
        );
        let cli = parse(&args("--seconds 3 --workload hetero_plan")).unwrap();
        assert_eq!((cli.args.seed, cli.trace), (1, false));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope --seconds 1",
            "--workload square_fine",
            "--workload square_fine --seconds 0",
            "--workload square_fine --seconds 61",
            "--workload square_fine --seconds 1 --trace yes",
            "--workload square_fine --seconds 1 --samples-scale 2",
            "--workload square_fine --seconds",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn workload_names_fit_the_grammar_and_are_unique() {
        let names: std::collections::BTreeSet<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), Workload::ALL.len());
        assert!(names.iter().all(|n| report::valid_name(n)));
    }
}
