//! The one run-configuration surface shared by every driver of the
//! pipeline: `nascentc`, `nascentd`, the table binaries, and the tests.
//!
//! A [`RunConfig`] names everything that changes what the pipeline
//! computes (scheme, check kind, implication mode, discharge tier,
//! engine, classic pre-pass, whether to optimize at all). The flag
//! parser ([`RunConfig::parse_flag`] / [`RunConfig::from_args`]) and the
//! per-field string parsers are defined here exactly once, so a flag
//! accepted by `nascentc` is accepted — with identical spelling and
//! identical diagnostics — as a JSON field by `nascentd`.

use nascent_interp::Engine;
use nascent_rangecheck::{CheckKind, Discharge, ImplicationMode, OptimizeOptions, Scheme};

/// What the pipeline should produce for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Optimize and measure (no certificate).
    #[default]
    Optimize,
    /// Optimize, measure, and re-prove every decision with the static
    /// certifier.
    Certify,
}

impl Mode {
    /// `optimize` / `certify`, as used in URLs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Optimize => "optimize",
            Mode::Certify => "certify",
        }
    }
}

/// One run configuration: every knob that changes what the pipeline
/// computes for a given source program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunConfig {
    /// Placement scheme.
    pub scheme: Scheme,
    /// PRX or INX checks.
    pub kind: CheckKind,
    /// Implication ablation.
    pub implications: ImplicationMode,
    /// Static-discharge tier.
    pub discharge: Discharge,
    /// Execution engine for the dynamic counters.
    pub engine: Engine,
    /// Classical scalar-optimization pre-pass.
    pub classic: bool,
    /// `false` keeps the naive checks (`--no-opt`).
    pub optimize: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scheme: Scheme::Lls,
            kind: CheckKind::default(),
            implications: ImplicationMode::default(),
            discharge: Discharge::default(),
            engine: Engine::default(),
            classic: false,
            optimize: true,
        }
    }
}

/// Parses a scheme name (`NI`, `CS`, …, case-insensitive).
pub fn parse_scheme(name: &str) -> Result<Scheme, String> {
    match name.to_ascii_uppercase().as_str() {
        "NI" => Ok(Scheme::Ni),
        "CS" => Ok(Scheme::Cs),
        "LNI" => Ok(Scheme::Lni),
        "SE" => Ok(Scheme::Se),
        "LI" => Ok(Scheme::Li),
        "LLS" => Ok(Scheme::Lls),
        "ALL" => Ok(Scheme::All),
        "MCM" => Ok(Scheme::Mcm),
        other => Err(format!("unknown scheme `{other}`")),
    }
}

/// Parses a check kind (`prx` or `inx`).
pub fn parse_kind(name: &str) -> Result<CheckKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "prx" => Ok(CheckKind::Prx),
        "inx" => Ok(CheckKind::Inx),
        other => Err(format!("unknown check kind `{other}`")),
    }
}

/// Parses an implication mode (`all`, `cross`, or `none`).
pub fn parse_implications(mode: &str) -> Result<ImplicationMode, String> {
    match mode {
        "all" => Ok(ImplicationMode::All),
        "cross" => Ok(ImplicationMode::CrossFamilyOnly),
        "none" => Ok(ImplicationMode::None),
        other => Err(format!("unknown implication mode `{other}`")),
    }
}

/// Parses a discharge mode (`on` or `off`).
pub fn parse_discharge(mode: &str) -> Result<Discharge, String> {
    match mode {
        "on" => Ok(Discharge::On),
        "off" => Ok(Discharge::Off),
        other => Err(format!("unknown discharge mode `{other}`")),
    }
}

/// Parses an engine name (`tree`, `vm`, or `native`).
pub fn parse_engine(name: &str) -> Result<Engine, String> {
    name.parse::<Engine>()
}

/// Parses a mode name (`optimize` or `certify`).
pub fn parse_mode(name: &str) -> Result<Mode, String> {
    match name {
        "optimize" => Ok(Mode::Optimize),
        "certify" => Ok(Mode::Certify),
        other => Err(format!("unknown mode `{other}`")),
    }
}

impl RunConfig {
    /// The optimizer options this configuration selects.
    pub fn opts(&self) -> OptimizeOptions {
        OptimizeOptions {
            scheme: self.scheme,
            kind: self.kind,
            implications: self.implications,
            discharge: self.discharge,
        }
    }

    /// A [`RunConfig`] that reproduces `opts` (VM engine, no pre-pass).
    pub fn from_opts(opts: &OptimizeOptions) -> RunConfig {
        RunConfig {
            scheme: opts.scheme,
            kind: opts.kind,
            implications: opts.implications,
            discharge: opts.discharge,
            ..RunConfig::default()
        }
    }

    /// Tries to consume the flag at `args[*i]` (plus its value, if any).
    /// Returns `Ok(true)` when the flag belonged to the run
    /// configuration, `Ok(false)` when the caller should handle it, and
    /// `Err` on a malformed value. `*i` is left on the last consumed
    /// element, mirroring a manual `while i < args.len()` loop.
    pub fn parse_flag(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        fn value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        }
        let flag = args[*i].clone();
        match flag.as_str() {
            "--scheme" => self.scheme = parse_scheme(&value(args, i, &flag)?)?,
            "--inx" => self.kind = CheckKind::Inx,
            "--implications" => self.implications = parse_implications(&value(args, i, &flag)?)?,
            "--discharge" => self.discharge = parse_discharge(&value(args, i, &flag)?)?,
            "--engine" => self.engine = parse_engine(&value(args, i, &flag)?)?,
            "--classic" => self.classic = true,
            "--no-opt" => self.optimize = false,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds a configuration from a full argument list, rejecting
    /// anything that is not a run-configuration flag. Binaries with
    /// extra flags (e.g. `nascentc --certify`) drive [`Self::parse_flag`]
    /// directly inside their own loop.
    pub fn from_args(args: &[String]) -> Result<RunConfig, String> {
        let mut config = RunConfig::default();
        let mut i = 0;
        while i < args.len() {
            if !config.parse_flag(args, &mut i)? {
                return Err(format!("unknown option `{}`", args[i]));
            }
            i += 1;
        }
        Ok(config)
    }

    /// A stable, human-readable fingerprint of the configuration — the
    /// cache-key component and the `config` echo in service responses.
    pub fn fingerprint(&self) -> String {
        format!(
            "scheme={} kind={} implications={} discharge={} engine={} classic={} optimize={}",
            self.scheme.name(),
            match self.kind {
                CheckKind::Prx => "prx",
                CheckKind::Inx => "inx",
            },
            match self.implications {
                ImplicationMode::All => "all",
                ImplicationMode::CrossFamilyOnly => "cross",
                ImplicationMode::None => "none",
            },
            match self.discharge {
                Discharge::On => "on",
                Discharge::Off => "off",
            },
            self.engine.name(),
            self.classic,
            self.optimize,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn from_args_parses_every_flag() {
        let c = RunConfig::from_args(&args(&[
            "--scheme",
            "SE",
            "--inx",
            "--implications",
            "cross",
            "--discharge",
            "on",
            "--engine",
            "tree",
            "--classic",
            "--no-opt",
        ]))
        .unwrap();
        assert_eq!(c.scheme, Scheme::Se);
        assert_eq!(c.kind, CheckKind::Inx);
        assert_eq!(c.implications, ImplicationMode::CrossFamilyOnly);
        assert_eq!(c.discharge, Discharge::On);
        assert_eq!(c.engine, Engine::Tree);
        assert!(c.classic);
        assert!(!c.optimize);
    }

    #[test]
    fn from_args_rejects_unknown_and_missing() {
        assert!(RunConfig::from_args(&args(&["--frobnicate"])).is_err());
        assert!(RunConfig::from_args(&args(&["--scheme"])).is_err());
        assert!(RunConfig::from_args(&args(&["--scheme", "BOGUS"])).is_err());
        assert!(RunConfig::from_args(&args(&["--engine", "jit"])).is_err());
    }

    #[test]
    fn engine_native_parses_and_fingerprints() {
        let c = RunConfig::from_args(&args(&["--engine", "native"])).unwrap();
        assert_eq!(c.engine, Engine::Native);
        assert!(c.fingerprint().contains("engine=native"));
        assert_ne!(c.fingerprint(), RunConfig::default().fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = RunConfig::default();
        let mut b = a;
        b.scheme = Scheme::Ni;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a;
        c.discharge = Discharge::On;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
