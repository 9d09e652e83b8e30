//! Event-order tests for the runtime's DAG engine — no threads, no sleeps.
//!
//! The testkit's one virtual driver, [`Machine`], plays *both* sides of
//! the manager/worker protocol on one thread over the real `DagRun`: it
//! dispatches, runs each attempt through the real `run_attempt`, and
//! settles each report through `DagRun::settle`, the code the service
//! runs — here in seeded adversarial orders the live drivers only meet
//! under faults and unlucky timing:
//!
//! * a `Done` delivered twice for one attempt,
//! * a watchdog sweep retiring every busy slot, whose attempts then report
//!   *late* — sometimes before the retry (harvested), sometimes after,
//! * `Failed` / `Panicked` reports for tasks that are already committed,
//! * retries woken before and after a late result superseded them.
//!
//! The suite keeps its own model of the charging rule (a lost attempt
//! counts only if it is the report its slot is waiting on *and* the task
//! is still uncommitted), holds every verdict of the engine to it and
//! predicts every recovery counter, and the final state must be
//! bit-identical to [`FactorState::run_all`], the independent reference.

use tileqr_dag::{EliminationTree, TaskGraph};
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::{MatrixError, TiledMatrix};
use tileqr_runtime::engine::Verdict;
use tileqr_runtime::{FaultTolerance, InjectedFault, RunReport, RuntimeError};
use tileqr_testkit::adversary::Rule;
use tileqr_testkit::explorer::{assert_bit_identical, Finish, Machine, Report, Settled};

const B: usize = 4;
const WORKERS: usize = 3;

/// The reference grids: single tile, square flat-TS, rectangular greedy,
/// tall-skinny plateau.
fn grids() -> Vec<(usize, usize, EliminationTree)> {
    vec![
        (4, 4, EliminationTree::Flat),
        (16, 16, EliminationTree::Flat),
        (24, 12, EliminationTree::Greedy),
        (32, 8, EliminationTree::Plateau(2)),
    ]
}

fn fixture(rows: usize, cols: usize, tree: EliminationTree) -> (TiledMatrix<f64>, TaskGraph) {
    let a = random_matrix::<f64>(rows, cols, 0xE7E7 + rows as u64);
    let tiled = TiledMatrix::from_matrix(&a, B).unwrap();
    let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), tree);
    (tiled, g)
}

fn sequential(tiled: &TiledMatrix<f64>, g: &TaskGraph) -> FactorState<f64> {
    let mut seq = FactorState::new(tiled.clone());
    seq.run_all(g).unwrap();
    seq
}

/// What the charging rule says the report counters must read.
#[derive(Debug, Default, PartialEq)]
struct Counts {
    retries: u64,
    requeues: u64,
    worker_deaths: u64,
}

/// The suite's own model of a run: which tasks committed, whether the run
/// halted, and the counters the charging rule predicts.
struct Model {
    committed: Vec<bool>,
    halted: bool,
    want: Counts,
}

impl Model {
    /// Hold one settled report to the charging rule.
    fn check(&mut self, s: &Settled) {
        let t = s.key.0;
        let live = !self.halted && !self.committed[t];
        let lost = matches!(s.verdict, Verdict::Lost(_));
        match s.report {
            Report::Done => {
                let won = matches!(s.verdict, Verdict::Committed(_));
                assert_eq!(won, live, "task {t}: the first Done wins, only the first");
                self.committed[t] |= won;
            }
            Report::Failed => {
                assert_eq!(
                    lost,
                    s.expected && live,
                    "task {t}: late/superseded failure"
                );
            }
            Report::Panicked => {
                assert_eq!(lost, s.expected && live, "task {t}: late/superseded panic");
                self.want.worker_deaths += u64::from(s.expected);
                self.want.requeues += u64::from(lost);
            }
        }
        // A charged loss parks a retry, or spends the budget: the run halts.
        self.want.retries += u64::from(s.retried);
        self.halted |= lost && !s.retried;
    }
}

/// A `WORKERS`-slot machine with `budget` attempts per task, dispatching
/// by `order`, and the suite's model of it.
fn machine<'g>(
    tiled: TiledMatrix<f64>,
    g: &'g TaskGraph,
    order: Option<Rule>,
    budget: u32,
) -> (Machine<'g>, Model) {
    let ft = FaultTolerance {
        max_attempts: budget,
        ..FaultTolerance::default()
    };
    let model = Model {
        committed: vec![false; g.len()],
        halted: false,
        want: Counts::default(),
    };
    (Machine::new(tiled, g, WORKERS, order, Some(ft)), model)
}

/// Close the run and hold it to the invariants.
fn finish(m: Machine, model: Model, reference: &FactorState<f64>) -> RunReport {
    assert!(m.flights.is_empty() && m.parked.is_empty());
    assert_eq!(m.run.in_flight(), 0, "every dispatch was settled once");
    let done = m.run.all_done();
    let (explored, report) = m.finish();
    let got = Counts {
        retries: report.retries,
        requeues: report.requeues,
        worker_deaths: report.worker_deaths,
    };
    assert_eq!(
        got, model.want,
        "recovery counters follow the charging rule"
    );
    if done {
        assert_eq!(report.total_tasks() as usize, model.committed.len());
        assert_bit_identical(&explored.state, reference);
    }
    report
}

/// One seeded storm: every dispatch and every delivery draws its
/// mischief from `seed`. The budget is effectively unbounded, so the run
/// must converge whatever the draw.
fn storm(tiled: TiledMatrix<f64>, g: &TaskGraph, order: Option<Rule>, seed: u64) -> RunReport {
    let reference = sequential(&tiled, g);
    let (mut m, mut model) = machine(tiled, g, order, u32::MAX);
    m.drive(Finish::Seeded(seed), true, |s| model.check(s));
    assert!(m.run.all_done(), "seed {seed}: the storm must converge");
    assert!(m.errors.is_empty(), "seed {seed}: {:?}", m.errors);
    finish(m, model, &reference)
}

#[test]
fn seeded_event_storms_converge_bit_identically() {
    let orders = [
        None,
        Some(Rule::CriticalPath),
        Some(Rule::Lifo),
        Some(Rule::Seeded(11)),
    ];
    let mut recoveries = 0;
    for (rows, cols, tree) in grids() {
        let (tiled, g) = fixture(rows, cols, tree);
        for (i, &order) in orders.iter().enumerate() {
            for seed in 0..12u64 {
                let report = storm(tiled.clone(), &g, order, 1000 * i as u64 + seed);
                recoveries += report.retries + report.requeues;
            }
        }
    }
    assert!(recoveries > 100, "the storms must actually storm");
}

/// Drains the whole DAG through `rule`'s pick hook and checks dispatch
/// safety: no task pops before every predecessor has committed — however
/// the rule reorders the ready set.
fn drain_safely(tree: EliminationTree, rule: Rule) {
    let (tiled, g) = fixture(20, 20, tree);
    let reference = sequential(&tiled, &g);
    let (mut m, mut model) = machine(tiled, &g, Some(rule), 1);
    while !m.run.all_done() {
        while let Some(w) = m.idle.pop() {
            let Some((t, _)) = m.dispatch(w, InjectedFault::None) else {
                break;
            };
            assert!(
                g.preds(t).iter().all(|&p| model.committed[p]),
                "{tree:?} {rule:?}: task {t} dispatched before a predecessor"
            );
        }
        model.check(&m.deliver(0));
    }
    let report = finish(m, model, &reference);
    assert_eq!(report.total_tasks() as usize, g.len(), "{tree:?} {rule:?}");
}

/// Dispatch safety under every dispatch rule, on both elimination trees.
#[test]
fn every_order_drains_a_dag_safely() {
    let rules = [
        Rule::Fifo,
        Rule::CriticalPath,
        Rule::ReversePriority,
        Rule::Lifo,
        Rule::AntiAffinity,
        Rule::Seeded(99),
    ];
    for tree in [EliminationTree::Flat, EliminationTree::Binary] {
        for rule in rules {
            drain_safely(tree, rule);
        }
    }
}

/// The priority rules reorder the ready set hardest — reverse priority
/// prefers late tasks whenever it legally can — and still never dispatch
/// a task ahead of its predecessors.
#[test]
fn priority_dispatch_never_readies_before_preds_complete() {
    for tree in [EliminationTree::Flat, EliminationTree::Binary] {
        for rule in [Rule::CriticalPath, Rule::ReversePriority] {
            drain_safely(tree, rule);
        }
    }
}

/// The defect the two hand-ported loops disagreed on, as a script: a slot
/// is retired by the watchdog, its retry commits, and only then does the
/// retired attempt report — as a failure, as a panic, and as a `Done`.
/// None of the three may touch the budget of the committed task.
#[test]
fn reports_after_commit_never_charge_the_budget() {
    for late in [
        InjectedFault::TransientError,
        InjectedFault::Panic,
        InjectedFault::None,
    ] {
        let (tiled, g) = fixture(16, 16, EliminationTree::Flat);
        let reference = sequential(&tiled, &g);
        // One retry is the whole budget: a second charge would be fatal.
        let (mut m, mut model) = machine(tiled, &g, None, 2);
        let w = m.idle.pop().unwrap();
        assert_eq!(m.dispatch(w, late), Some((0, 0)));
        m.watchdog().iter().for_each(|s| model.check(s));
        assert_eq!(model.want.retries, 1);
        m.run.wake(m.parked.pop().unwrap());
        let w = m.idle.pop().unwrap();
        assert_eq!(m.dispatch(w, InjectedFault::None), Some((0, 1)));
        model.check(&m.deliver(1)); // the retry commits task 0 ...
        assert!(model.committed[0]);
        model.check(&m.deliver(0)); // ... and then the retired attempt reports
        assert!(m.errors.is_empty(), "late {late:?}: {:?}", m.errors);
        // Drain the rest of the DAG cleanly, oldest report first.
        m.drive(Finish::Oldest, false, |s| model.check(s));
        let report = finish(m, model, &reference);
        assert_eq!((report.retries, report.requeues), (1, 1), "late {late:?}");
    }
}

/// A late `Done` from a retired slot is *harvested* when it arrives before
/// the retry: it wins the fence, the woken retry is skipped, and the task
/// is credited to the retired slot.
#[test]
fn late_done_from_retired_slot_is_harvested_first() {
    let (tiled, g) = fixture(16, 16, EliminationTree::Flat);
    let reference = sequential(&tiled, &g);
    let (mut m, mut model) = machine(tiled, &g, Some(Rule::Lifo), 2);
    let w = m.idle.pop().unwrap();
    assert_eq!(m.dispatch(w, InjectedFault::None), Some((0, 0)));
    m.watchdog().iter().for_each(|s| model.check(s));
    model.check(&m.deliver(0)); // late, unexpected — and first
    assert!(model.committed[0]);
    m.run.wake(m.parked.pop().unwrap());
    while !m.run.all_done() {
        while let Some(w) = m.idle.pop() {
            match m.dispatch(w, InjectedFault::None) {
                Some((t, _)) => assert_ne!(t, 0, "the superseded retry must be skipped"),
                None => break,
            }
        }
        model.check(&m.deliver(0));
    }
    let report = finish(m, model, &reference);
    assert_eq!(report.tasks_per_worker.iter().sum::<u64>(), g.len() as u64);
    assert_eq!(report.worker_deaths, 1);
}

/// A retry parked and re-run until `max_attempts` is gone surfaces
/// exactly one `RetriesExhausted`; from then on the run only drains.
#[test]
fn exhausted_budget_surfaces_exactly_once() {
    let (tiled, g) = fixture(24, 12, EliminationTree::Greedy);
    let reference = sequential(&tiled, &g);
    // Newest-ready-first, so a woken retry is the very next dispatch.
    let (mut m, mut model) = machine(tiled, &g, Some(Rule::Lifo), 2);
    // Every slot takes a source that fails its first attempt.
    let mut sources = Vec::new();
    while let Some(w) = m.idle.pop() {
        match m.dispatch(w, InjectedFault::TransientError) {
            Some((t, 0)) => sources.push(t),
            other => {
                assert_eq!(other, None);
                break;
            }
        }
    }
    assert!(!sources.is_empty());
    let doomed = sources[0];
    model.check(&m.deliver(0));
    assert_eq!(m.parked, vec![doomed], "first failure parks a retry");
    m.run.wake(m.parked.pop().unwrap());
    let w = m.idle.pop().unwrap();
    assert_eq!(
        m.dispatch(w, InjectedFault::TransientError),
        Some((doomed, 1))
    );
    let retry = m.flights.len() - 1;
    model.check(&m.deliver(retry));
    // Whatever else was in flight now reports too: nothing more surfaces.
    while !m.flights.is_empty() {
        model.check(&m.deliver(0));
    }
    // The budget is charged with what the driver reports: the lost
    // attempt's own error.
    let source = MatrixError::Runtime {
        reason: format!("injected transient failure: task {doomed} attempt 1"),
    };
    let exhausted = RuntimeError::RetriesExhausted {
        task: doomed,
        attempts: 2,
        last: RuntimeError::Kernel {
            task: doomed,
            source,
        }
        .to_string(),
    };
    assert_eq!(m.errors, vec![exhausted]);
    assert!(m.run.is_halted() && !m.run.all_done());
    let w = m.idle.pop().unwrap();
    let dispatched = m.dispatch(w, InjectedFault::None);
    assert_eq!(dispatched, None, "a halted run dispatches nothing");
    let report = finish(m, model, &reference);
    assert_eq!(report.retries, 1);
}
