//! Workloads and their seeded inputs.
//!
//! A [`Plan`] is everything a run sends: the distinct naive programs, the
//! distinct requests over them, and the order one pass sends them in.
//! The program under test sees only the generated sources; the seed stays
//! on the benchmark's side.

use std::fmt::Write as _;

use nascent_driver::harness::full_matrix_configs;
use nascent_driver::{Mode, RunConfig};
use nascent_interp::Engine;
use nascent_rangecheck::{CheckKind, Discharge, Scheme};
use nascent_suite::{suite, Scale};

use crate::rng::Rng;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper suite at paper scale × the 42-config matrix × discharge
    /// off/on, certified on the VM: the paper's own traffic.
    SuitePaper,
    /// Synthetic k-loop × k-access programs under NI and LLS, certified:
    /// the certifier's superlinear cost.
    ScalingCertify,
    /// The small suite × 42 configs through an in-process `nascentd`,
    /// every distinct request sent twice.
    ServiceMix,
    /// The paper suite × {no-opt, NI, LLS, ALL} on the native engine.
    NativeExec,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::SuitePaper,
        Workload::ScalingCertify,
        Workload::ServiceMix,
        Workload::NativeExec,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuitePaper => "suite-paper",
            Workload::ScalingCertify => "scaling-certify",
            Workload::ServiceMix => "service-mix",
            Workload::NativeExec => "native-exec",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{name}` (expected one of {})",
                    names.join(", ")
                )
            })
    }

    /// The engine every request of the workload runs on.
    pub fn engine(self) -> Engine {
        match self {
            Workload::NativeExec => Engine::Native,
            _ => Engine::Vm,
        }
    }
}

/// One distinct request: a program, a configuration and a mode.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    /// Index into [`Plan::sources`].
    pub program: usize,
    /// Run configuration.
    pub config: RunConfig,
    /// Optimize or certify.
    pub mode: Mode,
}

/// The inputs of one workload for one seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Distinct naive programs (MiniF source).
    pub sources: Vec<String>,
    /// Distinct requests.
    pub items: Vec<Item>,
    /// One pass: indices into `items`, in send order. A request may
    /// appear more than once (service-mix sends each twice).
    pub order: Vec<usize>,
    /// Loop counts of the synthetic programs (scaling-certify only), one
    /// per source.
    pub ks: Vec<usize>,
}

/// Loop counts of the scaling-certify programs.
pub const SCALING_KS: [usize; 3] = [32, 64, 96];

/// Programs per (k, scheme) cell of scaling-certify in one pass: more of
/// the cheap sizes, so a pass has the 40 requests a p75 tail needs. With
/// these counts the median falls among the k = 32 LLS latencies and the
/// p75 tail among the k = 64 NI ones, not at the edge between two
/// groups, where run-to-run noise would flip it.
fn scaling_copies(k: usize) -> usize {
    match k {
        32 => 14,
        64 => 5,
        _ => 1,
    }
}

fn config(engine: Engine) -> RunConfig {
    RunConfig {
        engine,
        ..RunConfig::default()
    }
}

/// Builds the plan of `workload` for `seed`.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    let mut order_rng = Rng::new(seed, 1);
    let mut sources = Vec::new();
    let mut items = Vec::new();
    let mut ks = Vec::new();
    let engine = workload.engine();
    match workload {
        Workload::SuitePaper => {
            sources = suite(Scale::Paper).into_iter().map(|b| b.source).collect();
            for program in 0..sources.len() {
                for c in full_matrix_configs() {
                    for discharge in [Discharge::Off, Discharge::On] {
                        items.push(Item {
                            program,
                            config: RunConfig {
                                discharge,
                                ..RunConfig::from_opts(&c.opts)
                            },
                            mode: Mode::Certify,
                        });
                    }
                }
            }
        }
        Workload::ScalingCertify => {
            let mut shifts = Rng::new(seed, 2);
            for k in SCALING_KS {
                for scheme in [Scheme::Ni, Scheme::Lls] {
                    for _ in 0..scaling_copies(k) {
                        items.push(Item {
                            program: sources.len(),
                            config: RunConfig {
                                scheme,
                                kind: CheckKind::Inx,
                                ..config(engine)
                            },
                            mode: Mode::Certify,
                        });
                        sources.push(scaling_program(k, &mut shifts));
                        ks.push(k);
                    }
                }
            }
        }
        Workload::ServiceMix => {
            sources = suite(Scale::Small).into_iter().map(|b| b.source).collect();
            for program in 0..sources.len() {
                for c in full_matrix_configs() {
                    for mode in [Mode::Optimize, Mode::Certify] {
                        items.push(Item {
                            program,
                            config: RunConfig::from_opts(&c.opts),
                            mode,
                        });
                    }
                }
            }
        }
        Workload::NativeExec => {
            sources = suite(Scale::Paper).into_iter().map(|b| b.source).collect();
            let base = RunConfig {
                kind: CheckKind::Inx,
                ..config(engine)
            };
            let configs = [
                RunConfig {
                    optimize: false,
                    ..base
                },
                RunConfig {
                    scheme: Scheme::Ni,
                    ..base
                },
                RunConfig {
                    scheme: Scheme::Lls,
                    ..base
                },
                RunConfig {
                    scheme: Scheme::All,
                    ..base
                },
            ];
            for program in 0..sources.len() {
                for config in configs {
                    items.push(Item {
                        program,
                        config,
                        mode: Mode::Optimize,
                    });
                }
            }
        }
    }
    let copies = if workload == Workload::ServiceMix {
        2
    } else {
        1
    };
    let mut order: Vec<usize> = (0..copies).flat_map(|_| 0..items.len()).collect();
    order_rng.shuffle(&mut order);
    Plan {
        sources,
        items,
        order,
        ks,
    }
}

/// A synthetic program with `k` sequential loops of `k` array stores
/// each, so `2k²` naive checks: the shape of the `extensions` scaling
/// experiment. The seed shifts every store offset by one constant, so
/// the program's shape, and the work it costs, do not depend on the
/// seed. The loop bound is a variable, so hoisted checks keep a guard.
pub fn scaling_program(k: usize, rng: &mut Rng) -> String {
    let shift = rng.below(k);
    let n = 4 * k + 8 + shift;
    let mut src = String::new();
    let _ = writeln!(src, "program scale");
    let _ = writeln!(src, " integer a({n})");
    let _ = writeln!(src, " integer i, m");
    let _ = writeln!(src, " m = {}", n - k - 1 - shift);
    for li in 0..k {
        let _ = writeln!(src, " do i = 1, m");
        for ai in 0..k {
            let _ = writeln!(src, "  a(i + {}) = i + {li}", ai + 1 + shift);
        }
        let _ = writeln!(src, " enddo");
    }
    let _ = writeln!(src, " print a(1)");
    let _ = writeln!(src, "end");
    src
}
