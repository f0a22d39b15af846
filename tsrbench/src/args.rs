//! Strict command-line parsing: an unknown flag, a missing value or
//! `--help` never starts a run.

use std::fmt;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small responses over two closed-loop connections.
    Poll,
    /// Package bodies (Zipf-skewed) over two closed-loop connections.
    Fetch,
    /// Paced upstream publishes and refreshes beside an open-loop fleet.
    Update,
}

impl Workload {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Poll => "poll",
            Workload::Fetch => "fetch",
            Workload::Update => "update",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "poll" => Some(Workload::Poll),
            "fetch" => Some(Workload::Fetch),
            "update" => Some(Workload::Update),
            _ => None,
        }
    }
}

/// Client connections (and threads) of the closed loops. The load shape
/// is fixed so that results of different runs compare; a machine with
/// fewer online CPUs is refused.
pub const CONNS: usize = 2;

/// Parsed options of one benchmark run. The command line sets the first
/// four; the sizes after them are fixed there and shrunk only by the
/// benchmark's own test.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// Census scale of the synthetic upstream repository.
    pub scale: f64,
    /// RSA modulus size of the tenant signing key.
    pub key_bits: usize,
    /// World builds whose median is `setup_s`.
    pub setups: usize,
    /// Cold starts whose median is `recovery_ms`.
    pub recoveries: usize,
    /// Rounds of the measured phase, each with five publish waves; twenty
    /// leave ten refreshes above `refresh_p90_ms`.
    pub rounds: usize,
}

/// What the command line asked for.
#[derive(Debug)]
pub enum Command {
    /// Print usage and exit successfully.
    Help,
    /// Run one workload.
    Run(Options),
}

/// A rejected command line.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Usage text.
pub const USAGE: &str = "\
usage: tsrbench --workload <poll|fetch|update> --seed <n> --seconds <s> --trace <0|1>

Builds a TSR world (synthetic upstream, mirrors, store-backed service on a
loopback port), runs one workload against its /v1 API, checks every
response, and prints one JSON result object as the last line.
--trace 1 runs the workload twice (untraced, then traced) and reports the
per-layer metrics instead of the end-to-end ones.
The closed loops use 2 client connections and threads; a machine with fewer
than 2 online CPUs is refused.";

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<&'a str, ArgError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| ArgError(format!("{flag} needs a value")))
}

fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, ArgError> {
    raw.parse()
        .map_err(|_| ArgError(format!("{flag}: {raw:?} is not a valid number")))
}

/// Parses `args` (without the program name). A machine with fewer than
/// [`CONNS`] online CPUs (`nproc`) is refused.
///
/// # Errors
///
/// Unknown flags, missing or malformed values, out-of-range settings.
pub fn parse(args: &[String], nproc: usize) -> Result<Command, ArgError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut opts = Options {
        workload: Workload::Poll,
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: 0.002,
        key_bits: 1024,
        setups: 3,
        recoveries: 17,
        rounds: 20,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            "--workload" => {
                let raw = value(flag, &mut it)?;
                workload = Some(
                    Workload::parse(raw)
                        .ok_or_else(|| ArgError(format!("unknown workload {raw:?}")))?,
                );
            }
            "--seed" => seed = Some(number::<u64>(flag, value(flag, &mut it)?)?),
            "--seconds" => seconds = Some(number::<f64>(flag, value(flag, &mut it)?)?),
            "--trace" => {
                trace = Some(match value(flag, &mut it)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(ArgError(format!("--trace takes 0 or 1, not {other:?}"))),
                })
            }
            other => return Err(ArgError(format!("unknown argument {other:?}"))),
        }
    }
    opts.workload = workload.ok_or_else(|| ArgError("--workload is required".into()))?;
    opts.seed = seed.ok_or_else(|| ArgError("--seed is required".into()))?;
    opts.seconds = seconds.ok_or_else(|| ArgError("--seconds is required".into()))?;
    opts.trace = trace.ok_or_else(|| ArgError("--trace is required".into()))?;
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err(ArgError("--seconds must be in (0, 600]".into()));
    }
    if nproc < CONNS {
        return Err(ArgError(format!(
            "refused: the workloads use {CONNS} client threads and this machine has \
             {nproc} online CPUs; client threads beyond that measure the scheduler, \
             not the server"
        )));
    }
    Ok(Command::Run(opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn full_command_line_parses() {
        let Ok(Command::Run(o)) =
            parse(&args("--workload fetch --seed 7 --seconds 10 --trace 1"), 2)
        else {
            panic!("should parse");
        };
        assert_eq!(o.workload, Workload::Fetch);
        assert_eq!(o.seed, 7);
        assert!(o.trace);
    }

    #[test]
    fn help_and_unknown_flags_never_run() {
        assert!(matches!(parse(&args("--help"), 2), Ok(Command::Help)));
        assert!(matches!(
            parse(
                &args("--workload poll --seed 1 --seconds 1 --trace 0 --help"),
                2
            ),
            Ok(Command::Help)
        ));
        assert!(parse(&args("--workload poll --bogus"), 2).is_err());
        assert!(parse(&args("--workload poll --seed 1 --seconds 1"), 2).is_err());
        assert!(parse(&args("--workload nope --seed 1 --seconds 1 --trace 0"), 2).is_err());
    }

    #[test]
    fn fewer_cpus_than_connections_are_refused() {
        let line = args("--workload poll --seed 1 --seconds 1 --trace 0");
        assert!(parse(&line, 1).is_err());
        assert!(parse(&line, 2).is_ok());
        // The connection count is not settable.
        assert!(parse(
            &args("--workload poll --seed 1 --seconds 1 --trace 0 --conns 1"),
            2
        )
        .is_err());
        // Help still works on a small machine.
        assert!(matches!(parse(&args("--help"), 1), Ok(Command::Help)));
    }
}
