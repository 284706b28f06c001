//! The three workloads: their set-up, one timed iteration, and the checks
//! that the simulator's outputs are correct.
//!
//! Every workload is an open loop: the engine pre-schedules Poisson
//! arrivals at a fixed simulated rate, independent of how fast operations
//! complete.  The benchmark's `--seed` becomes the engine seed, so the same
//! seed gives the same inputs.

use crate::trace::Tracer;
use pqs_bench::planner;
use pqs_core::probabilistic::EpsilonIntersecting;
use pqs_core::system::QuorumSystem;
use pqs_core::universe::ServerId;
use pqs_math::mc::BernoulliEstimator;
use pqs_math::plan::{self, CapacityPlan, PlanInput};
use pqs_sim::failure::{ByzantineStrategy, FailurePlan};
use pqs_sim::latency::LatencyModel;
use pqs_sim::metrics::{EngineStageTimings, SimReport};
use pqs_sim::runner::{ProtocolKind, SimConfig, Simulation};
use pqs_sim::workload::KeySpace;
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// `R(100, ε=1e-3)`, safe protocol, sequential engine, Zipf(1.0) over
    /// 4096 keys at 5000 op/s, 90% reads, no gossip, no failures: the
    /// per-operation foreground path does nearly all the work.
    KvReadMostly,
    /// The capacity planner's `directory` preset (n=150, q=25, digest/delta
    /// gossip) on 8 shards and 2 threads: gossip and the spine dominate.
    DirectoryGossip,
    /// A validator-shaped sweep of short same-seed static/adaptive
    /// Byzantine twin runs over churn and healing partitions, signed
    /// records, 4 shards and 2 threads: per-run fixed costs dominate.
    AdversarialSweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::KvReadMostly,
        Workload::DirectoryGossip,
        Workload::AdversarialSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvReadMostly => "kv_read_mostly",
            Workload::DirectoryGossip => "directory_gossip",
            Workload::AdversarialSweep => "adversarial_sweep",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `kv_read_mostly`: simulated seconds per run.
const KV_DURATION: f64 = 30.0;
/// `directory_gossip`: simulated seconds per run.
const DIRECTORY_DURATION: f64 = 40.0;
/// `directory_gossip`: engine shards and worker threads.
const DIRECTORY_SHARDS: u32 = 8;
const DIRECTORY_THREADS: u32 = 2;
/// `adversarial_sweep`: twin pairs per sweep and simulated seconds per run.
const SWEEP_PAIRS: u64 = 20;
const SWEEP_DURATION: f64 = 2.0;
/// `adversarial_sweep`: statically Byzantine servers (ids `0..4`) and
/// adaptive sleepers (the next 6 ids).
const SWEEP_BYZANTINE: u32 = 4;
const SWEEP_SLEEPERS: u32 = 6;
/// Wilson z of the stale-rate check.  The check runs on every seed the
/// benchmark is given, so its false-alarm rate must be negligible (about
/// 6e-5 per seed at z = 4); it still separates the coverage-(q + margin)
/// prediction from the margin-free ε of R(n, q), about twice as large.
const CHECK_Z: f64 = 4.0;
/// The graceful-degradation band of `validate_adversarial`: the adaptive
/// stale rate may not exceed `max(8 × static, static + 0.08)`.
const DEGRADATION_FACTOR: f64 = 8.0;
const DEGRADATION_SLACK: f64 = 0.08;

/// The workload's quorum system: `R(100, ε=1e-3)`, the planner's solved
/// `R(n, q)` (pass its plan), or `R(60, 12)`.
pub fn build_system(workload: Workload, solved: Option<&CapacityPlan>) -> EpsilonIntersecting {
    match (workload, solved) {
        (Workload::KvReadMostly, _) => {
            EpsilonIntersecting::with_target_epsilon(100, 1e-3).expect("R(100, 1e-3) exists")
        }
        (Workload::DirectoryGossip, Some(solved)) => {
            EpsilonIntersecting::new(solved.n as u32, solved.q as u32)
                .expect("the planner emits a valid (n, q)")
        }
        (Workload::DirectoryGossip, None) => panic!("directory_gossip needs its capacity plan"),
        (Workload::AdversarialSweep, _) => {
            EpsilonIntersecting::new(60, 12).expect("R(60, 12) exists")
        }
    }
}

/// One `Simulation::run_with_stats` call of an iteration.
#[derive(Debug)]
pub struct RunSpec {
    /// Engine configuration (seed included).
    pub config: SimConfig,
    /// Explicit failure plan, if the run has one.
    pub failures: Option<FailurePlan>,
}

/// A workload after set-up: quorum system, protocol and the runs of one
/// iteration.
#[derive(Debug)]
pub struct Prepared {
    /// Which workload this is.
    pub workload: Workload,
    /// The quorum system every run uses.
    pub system: EpsilonIntersecting,
    /// The register protocol the simulated clients run.
    pub protocol: ProtocolKind,
    /// The runs of one iteration, in order.
    pub runs: Vec<RunSpec>,
    /// The planner input and its solution (`directory_gossip` only).
    pub capacity: Option<(PlanInput, CapacityPlan)>,
}

/// What one `run_with_stats` call returned, with its host time.
#[derive(Debug)]
pub struct RunResult {
    /// The simulated outcome.
    pub report: SimReport,
    /// The engine's own stage timings.
    pub stages: EngineStageTimings,
    /// Host seconds of the call, measured here.
    pub host_s: f64,
}

impl Prepared {
    /// Builds the workload's quorum system, configurations and failure
    /// plans from `seed`.
    pub fn build(workload: Workload, seed: u64, tr: &mut Tracer) -> Prepared {
        match workload {
            Workload::KvReadMostly => {
                let system = tr.span("core.system_build", || build_system(workload, None));
                let config = SimConfig::builder()
                    .with_duration(KV_DURATION)
                    .with_arrival_rate(5000.0)
                    .with_read_fraction(0.9)
                    .with_keyspace(KeySpace::zipf(4096, 1.0))
                    .with_latency(LatencyModel::Exponential { mean: 2e-3 })
                    .with_probe_margin(2)
                    .with_seed(seed)
                    .build();
                Prepared {
                    workload,
                    system,
                    protocol: ProtocolKind::Safe,
                    runs: vec![RunSpec {
                        config,
                        failures: None,
                    }],
                    capacity: None,
                }
            }
            Workload::DirectoryGossip => {
                let input = planner::scenario_by_name("directory")
                    .expect("the planner ships a directory preset")
                    .input;
                let solved = tr
                    .span("plan.solve", || plan::solve(&input))
                    .expect("the directory preset is feasible");
                let system = tr.span("core.system_build", || {
                    build_system(workload, Some(&solved))
                });
                let mut config =
                    planner::plan_config(&input, &solved, seed, DIRECTORY_DURATION, true);
                config.num_shards = DIRECTORY_SHARDS;
                config.threads = DIRECTORY_THREADS;
                Prepared {
                    workload,
                    system,
                    protocol: ProtocolKind::Safe,
                    runs: vec![RunSpec {
                        config,
                        failures: None,
                    }],
                    capacity: Some((input, solved)),
                }
            }
            Workload::AdversarialSweep => {
                let system = tr.span("core.system_build", || build_system(workload, None));
                let sleepers: Vec<ServerId> = (SWEEP_BYZANTINE..SWEEP_BYZANTINE + SWEEP_SLEEPERS)
                    .map(ServerId::new)
                    .collect();
                let adaptive = ByzantineStrategy::HotKeyTargeting {
                    sleepers,
                    min_writes: 3,
                };
                let mut runs = Vec::new();
                for pair in 0..SWEEP_PAIRS {
                    let config = SimConfig::builder()
                        .with_duration(SWEEP_DURATION)
                        .with_arrival_rate(1000.0)
                        .with_read_fraction(0.3)
                        .with_keyspace(KeySpace::zipf(64, 1.0))
                        .with_latency(LatencyModel::Pareto {
                            scale: 1e-3,
                            shape: 1.5,
                        })
                        .with_op_timeout(0.05)
                        .with_max_retries(2)
                        .with_probe_margin(4)
                        .with_num_shards(4)
                        .with_threads(2)
                        .with_seed(seed.wrapping_mul(SWEEP_PAIRS).wrapping_add(pair))
                        .build();
                    for strategy in [ByzantineStrategy::Static, adaptive.clone()] {
                        runs.push(RunSpec {
                            config,
                            failures: Some(sweep_failures(SWEEP_DURATION, strategy)),
                        });
                    }
                }
                Prepared {
                    workload,
                    system,
                    protocol: ProtocolKind::Dissemination,
                    runs,
                    capacity: None,
                }
            }
        }
    }

    /// Runs every run of one iteration, timing each call from outside.
    pub fn iterate(&self, tr: &mut Tracer) -> Vec<RunResult> {
        self.runs
            .iter()
            .map(|run| {
                let mut sim = Simulation::new(&self.system, self.protocol, run.config);
                if let Some(failures) = &run.failures {
                    sim = sim.with_failure_plan(failures.clone());
                }
                let open = tr.begin("runner.run_with_stats");
                let start = Instant::now();
                let (report, stages) = sim.run_with_stats();
                let host_s = start.elapsed().as_secs_f64();
                tr.end(open);
                RunResult {
                    report,
                    stages,
                    host_s,
                }
            })
            .collect()
    }

    /// Checks one iteration's outputs against the simulator's contracts.
    pub fn check_outputs(&self, results: &[RunResult], checks: &mut Checks) {
        for (i, r) in results.iter().enumerate() {
            let rep = &r.report;
            let ops = rep.completed_reads + rep.completed_writes + rep.unavailable_ops;
            checks.check(rep.summed_per_variable_ops() == ops, || {
                format!(
                    "run {i}: per-key operations {} != completed + unavailable {ops}",
                    rep.summed_per_variable_ops()
                )
            });
        }
        match self.workload {
            Workload::KvReadMostly => {
                // Without failures every probed server stores a write, late
                // probes included, so a write covers q + margin servers and
                // an eligible read (a uniform q-subset: the first q of its
                // probes) is stale with the exact probability below — the
                // exact ε of R(n, q) at coverage q + margin.
                let rep = &results[0].report;
                let q = self.system.quorum_size() as u64;
                let n = self.system.universe().size() as u64;
                let coverage = q + u64::from(self.runs[0].config.probe_margin);
                let eps = plan::nonintersection_probability(n, coverage, q);
                let trials = rep
                    .completed_reads
                    .saturating_sub(rep.concurrent_reads)
                    .saturating_sub(rep.unwritten_reads);
                let stale = (rep.stale_reads + rep.empty_reads).min(trials);
                let (lo, hi) =
                    BernoulliEstimator::from_counts(stale, trials).wilson_interval(CHECK_Z);
                checks.check((lo..=hi).contains(&eps), || {
                    format!(
                        "eligible stale-read rate {stale}/{trials} (Wilson [{lo}, {hi}]) \
                         does not cover the exact epsilon {eps} at coverage {coverage}"
                    )
                });
            }
            Workload::DirectoryGossip => {
                let (_, solved) = self.capacity.as_ref().expect("directory has a plan");
                let violations = planner::check_prediction(
                    self.workload.name(),
                    solved,
                    &results[0].report,
                    true,
                );
                checks.check(violations.is_empty(), || violations.join("; "));
            }
            Workload::AdversarialSweep => {
                for (pair, twins) in results.chunks(2).enumerate() {
                    let (s, a) = (&twins[0].report, &twins[1].report);
                    checks.check(
                        s.events_processed == a.events_processed
                            && s.completed_reads == a.completed_reads
                            && s.completed_writes == a.completed_writes
                            && s.per_server_accesses == a.per_server_accesses,
                        || format!("pair {pair}: the adaptive twin's foreground counts diverged"),
                    );
                    let (s_rate, a_rate) =
                        (s.eligible_stale_read_rate(), a.eligible_stale_read_rate());
                    let ceiling = (DEGRADATION_FACTOR * s_rate).max(s_rate + DEGRADATION_SLACK);
                    checks.check(a_rate + 1e-12 >= s_rate && a_rate <= ceiling, || {
                        format!(
                            "pair {pair}: adaptive stale rate {a_rate} outside \
                             [static {s_rate}, ceiling {ceiling}]"
                        )
                    });
                    checks.check(a.adaptive_activations > 0, || {
                        format!("pair {pair}: the adaptive sleepers never activated")
                    });
                    let schedule = self.runs[2 * pair]
                        .failures
                        .as_ref()
                        .map_or(0, |f| f.memberships.len() as u64);
                    checks.check(s.membership_events == schedule, || {
                        format!(
                            "pair {pair}: {} membership events applied, schedule has {schedule}",
                            s.membership_events
                        )
                    });
                    checks.check(s.dropped_probes > 0, || {
                        format!("pair {pair}: the partitions dropped no probes")
                    });
                }
            }
        }
    }
}

/// The sweep's failure plan, scaled to the run duration `d`: four static
/// Byzantine servers; churn that takes two servers down mid-run and brings
/// them, plus one initially absent joiner, back (2 leaves, 3 joins); and two
/// healing partitions, into two and then three components.
fn sweep_failures(d: f64, strategy: ByzantineStrategy) -> FailurePlan {
    let mut plan = FailurePlan::none()
        .with_join(0.15 * d, ServerId::new(22))
        .with_leave(0.25 * d, ServerId::new(20))
        .with_leave(0.30 * d, ServerId::new(21))
        .with_join(0.60 * d, ServerId::new(20))
        .with_join(0.65 * d, ServerId::new(21))
        .with_partition(0.25 * d, 0.55 * d, 2)
        .with_partition(0.70 * d, 0.85 * d, 3)
        .with_strategy(strategy);
    plan.byzantine = (0..SWEEP_BYZANTINE).map(ServerId::new).collect();
    plan
}

/// Output checks attempted and what each failed one found; failed ÷
/// attempted is the error rate.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// One description per check that did not hold.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Number of checks that did not hold.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Checks that a repeated iteration returned exactly the reports of
    /// the first one (the engine is deterministic for a config and seed).
    pub fn check_repeat(&mut self, first: &[RunResult], again: &[RunResult]) {
        for (i, (a, b)) in first.iter().zip(again).enumerate() {
            self.check(a.report == b.report, || {
                format!(
                    "run {i}: a repeated run of the same config and seed returned another report"
                )
            });
        }
    }
}
