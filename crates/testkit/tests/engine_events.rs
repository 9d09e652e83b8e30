//! Event-order tests for the runtime's DAG engine — no threads, no sleeps.
//!
//! [`DagRun`] is channel-free, so this suite plays *both* sides of the
//! manager/worker protocol on one thread: it dispatches, runs each
//! attempt through the real [`run_attempt`], and then delivers the
//! reports in seeded adversarial orders the live drivers only meet under
//! faults and unlucky timing:
//!
//! * a `Done` delivered twice for one attempt,
//! * a watchdog sweep retiring every busy slot, whose attempts then report
//!   *late* — sometimes before the retry (harvested), sometimes after,
//! * `Failed` / `Panicked` reports for tasks that are already committed,
//! * retries woken before and after a late result superseded them.
//!
//! An independent model of the charging rule (a lost attempt counts only
//! if it is the report its slot is waiting on *and* the task is still
//! uncommitted) predicts every recovery counter, and the final state must
//! be bit-identical to [`FactorState::run_all`]. Readiness is not modelled
//! twice: [`DagRun`] and the virtual machine in `tileqr_testkit::explorer`
//! step the same `tileqr_dag::Frontier`, and the explorer, which stages
//! and commits on its own, stays the independent reference for the
//! stage/compute/commit protocol itself.

use std::time::{Duration, Instant};
use tileqr_dag::{EliminationTree, TaskGraph, TaskId};
use tileqr_kernels::exec::FactorState;
use tileqr_kernels::Workspace;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::{Rng64, TiledMatrix};
use tileqr_obs::HotPathCounters;
use tileqr_runtime::engine::{run_attempt, DagRun, Outcome, Slots};
use tileqr_runtime::{FaultInjector, FaultTolerance, InjectedFault, RunReport, RuntimeError};
use tileqr_testkit::adversary::{Adversary, Rule};
use tileqr_testkit::explorer::assert_bit_identical;

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

/// The same fault on every attempt it is consulted for.
struct Always(InjectedFault);

impl FaultInjector for Always {
    fn before_attempt(&self, _: TaskId, _: u32) -> InjectedFault {
        self.0
    }
}

type Key = (TaskId, u32);

/// An attempt that has run but whose report the manager has not seen.
struct Flight {
    w: usize,
    key: Key,
    outcome: Outcome<f64>,
}

/// What the charging rule says the report counters must read.
#[derive(Debug, Default, PartialEq)]
struct Counts {
    retries: u64,
    requeues: u64,
    worker_deaths: u64,
}

/// Both halves of the protocol around one [`DagRun`].
struct Machine<'g> {
    graph: &'g TaskGraph,
    shared: FactorState<f64>,
    run: DagRun,
    /// The dispatch rule's pick hook; `None` is the driver's FIFO.
    adversary: Option<Adversary>,
    slots: Slots<Key>,
    /// The model's own idle-slot stack: which slots a driver could hand
    /// the next task to (the engine only tracks what is in flight).
    idle: Vec<usize>,
    ws: Workspace<f64>,
    ft: FaultTolerance,
    flights: Vec<Flight>,
    parked: Vec<TaskId>,
    committed: Vec<bool>,
    want: Counts,
    errors: Vec<RuntimeError>,
}

impl<'g> Machine<'g> {
    fn new(
        tiled: TiledMatrix<f64>,
        graph: &'g TaskGraph,
        order: Option<Rule>,
        budget: u32,
    ) -> Self {
        Machine {
            graph,
            shared: FactorState::new(tiled),
            run: DagRun::new(graph, WORKERS, None),
            adversary: order.map(|rule| Adversary::new(rule, graph, B)),
            slots: Slots::new(WORKERS),
            idle: (0..WORKERS).rev().collect(),
            ws: Workspace::new(B, B),
            ft: FaultTolerance {
                max_attempts: budget,
                ..FaultTolerance::default()
            },
            flights: Vec::new(),
            parked: Vec::new(),
            committed: vec![false; graph.len()],
            want: Counts::default(),
            errors: Vec::new(),
        }
    }

    /// Run attempt `key` on the spot (fenced: nothing is committed).
    fn attempt(&mut self, key: Key, fault: InjectedFault) -> Outcome<f64> {
        let kind = self.graph.task(key.0);
        let injector = Always(fault);
        run_attempt(
            self.shared.stage_preserving(kind),
            key,
            Some(&injector),
            &mut self.ws,
            false,
        )
    }

    /// Hand slot `w` the next ready task, if any, running it with `fault`.
    /// The report stays in flight until [`deliver`](Self::deliver)ed.
    fn dispatch(&mut self, w: usize, fault: InjectedFault) -> Option<Key> {
        let seam = self.adversary.as_ref().map(|a| a as &dyn FaultInjector);
        let Some(key) = self.run.pop_ready(w, seam) else {
            self.idle.push(w);
            return None;
        };
        let outcome = self.attempt(key, fault);
        self.slots.watch(w, key);
        self.flights.push(Flight { w, key, outcome });
        Some(key)
    }

    /// A lost attempt of `t` that the rule says must be charged.
    fn charge(&mut self, t: TaskId) {
        match self.run.charge_retry(&self.ft, t, "scripted".to_string()) {
            Ok(_) => {
                self.want.retries += 1;
                self.parked.push(t);
            }
            Err(e) => self.errors.push(e),
        }
    }

    /// Deliver flight `i` to the manager side, the way both drivers do.
    fn deliver(&mut self, i: usize) {
        let Flight { w, key, outcome } = self.flights.swap_remove(i);
        let t = key.0;
        let expected = self.slots.settle(w, key);
        if expected {
            self.idle.push(w); // the same worker, or its respawned slot
        }
        let live = !self.run.is_halted() && !self.committed[t];
        match outcome {
            Outcome::Done(done) => {
                let won = self
                    .run
                    .on_done(self.graph, &mut self.shared, key, w, expected, done);
                assert_eq!(won, live, "task {t}: the first Done wins, only the first");
                self.committed[t] |= won;
            }
            Outcome::Failed(_) => {
                let charge = self.run.on_failed(t, expected);
                assert_eq!(
                    charge,
                    expected && live,
                    "task {t}: late/superseded failure"
                );
                if charge {
                    self.charge(t);
                }
            }
            Outcome::Panicked(_) => {
                let charge = self.run.on_panicked(t, w, expected);
                assert_eq!(charge, expected && live, "task {t}: late/superseded panic");
                self.want.worker_deaths += u64::from(expected);
                if charge {
                    self.want.requeues += 1;
                    self.charge(t);
                }
            }
        }
    }

    /// The stall watchdog fires on every busy slot at once: each is
    /// retired and respawned, its task charged a retry — and its attempt
    /// stays in flight, to report late.
    fn watchdog(&mut self) {
        let far = Instant::now() + Duration::from_secs(3600);
        for (w, (t, _)) in self.slots.take_stalled(Duration::from_secs(1), far) {
            self.idle.push(w); // respawned
            let live = !self.run.is_halted() && !self.committed[t];
            assert_eq!(self.run.on_panicked(t, w, true), live);
            self.want.worker_deaths += 1;
            if live {
                self.want.requeues += 1;
                self.charge(t);
            }
        }
    }

    /// Close the run and hold it to the invariants.
    fn finish(self, reference: &FactorState<f64>) -> RunReport {
        assert!(self.flights.is_empty() && self.parked.is_empty());
        assert_eq!(self.run.in_flight(), 0, "every dispatch was settled once");
        let done = self.run.all_done();
        let report = self
            .run
            .into_report(Duration::ZERO, HotPathCounters::default());
        let got = Counts {
            retries: report.retries,
            requeues: report.requeues,
            worker_deaths: report.worker_deaths,
        };
        assert_eq!(got, self.want, "recovery counters follow the charging rule");
        if done {
            assert_eq!(report.total_tasks() as usize, self.graph.len());
            assert_bit_identical(&self.shared, reference);
        }
        report
    }
}

/// One seeded storm: every dispatch and every delivery draws its
/// mischief from `seed`. The budget is effectively unbounded, so the run
/// must converge whatever the draw.
fn storm(tiled: TiledMatrix<f64>, g: &TaskGraph, order: Option<Rule>, seed: u64) -> RunReport {
    let reference = sequential(&tiled, g);
    let mut m = Machine::new(tiled, g, order, u32::MAX);
    let mut rng = Rng64::seed_from_u64(seed);
    let mut draw = move |n: u64| rng.next_u64() % n;
    loop {
        while let Some(w) = m.idle.pop() {
            let fault = match draw(10) {
                0 => InjectedFault::TransientError,
                1 => InjectedFault::Panic,
                _ => InjectedFault::None,
            };
            let Some(key) = m.dispatch(w, fault) else {
                break;
            };
            if fault == InjectedFault::None && draw(5) == 0 {
                // The same attempt reports twice (a duplicate `Done`,
                // bit-identical because nothing was committed in between).
                let outcome = m.attempt(key, fault);
                m.flights.push(Flight { w, key, outcome });
            }
        }
        if m.flights.is_empty() && m.parked.is_empty() {
            break;
        }
        match draw(10) {
            0 => m.watchdog(),
            1 | 2 if !m.parked.is_empty() => {
                let t = m.parked.swap_remove(draw(m.parked.len() as u64) as usize);
                m.run.wake(t);
            }
            _ if !m.flights.is_empty() => m.deliver(draw(m.flights.len() as u64) as usize),
            _ => {}
        }
    }
    assert!(m.run.all_done(), "seed {seed}: the storm must converge");
    assert!(m.errors.is_empty(), "seed {seed}: {:?}", m.errors);
    m.finish(&reference)
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
    let mut m = Machine::new(tiled, &g, Some(rule), 1);
    while !m.run.all_done() {
        while let Some(w) = m.idle.pop() {
            let Some((t, _)) = m.dispatch(w, InjectedFault::None) else {
                break;
            };
            assert!(
                g.preds(t).iter().all(|&p| m.committed[p]),
                "{tree:?} {rule:?}: task {t} dispatched before a predecessor"
            );
        }
        m.deliver(0);
    }
    let report = m.finish(&reference);
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
        let mut m = Machine::new(tiled, &g, None, 2);
        let w = m.idle.pop().unwrap();
        assert_eq!(m.dispatch(w, late), Some((0, 0)));
        m.watchdog();
        assert_eq!(m.want.retries, 1);
        m.run.wake(m.parked.pop().unwrap());
        let w = m.idle.pop().unwrap();
        assert_eq!(m.dispatch(w, InjectedFault::None), Some((0, 1)));
        m.deliver(1); // the retry commits task 0 ...
        assert!(m.committed[0]);
        m.deliver(0); // ... and then the retired attempt reports
        assert!(m.errors.is_empty(), "late {late:?}: {:?}", m.errors);
        // Drain the rest of the DAG cleanly.
        while !m.run.all_done() {
            while let Some(w) = m.idle.pop() {
                if m.dispatch(w, InjectedFault::None).is_none() {
                    break;
                }
            }
            m.deliver(0);
        }
        let report = m.finish(&reference);
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
    let mut m = Machine::new(tiled, &g, Some(Rule::Lifo), 2);
    let w = m.idle.pop().unwrap();
    assert_eq!(m.dispatch(w, InjectedFault::None), Some((0, 0)));
    m.watchdog();
    m.deliver(0); // late, unexpected — and first
    assert!(m.committed[0]);
    m.run.wake(m.parked.pop().unwrap());
    while !m.run.all_done() {
        while let Some(w) = m.idle.pop() {
            match m.dispatch(w, InjectedFault::None) {
                Some((t, _)) => assert_ne!(t, 0, "the superseded retry must be skipped"),
                None => break,
            }
        }
        m.deliver(0);
    }
    let report = m.finish(&reference);
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
    let mut m = Machine::new(tiled, &g, Some(Rule::Lifo), 2);
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
    m.deliver(0);
    assert_eq!(m.parked, vec![doomed], "first failure parks a retry");
    m.run.wake(m.parked.pop().unwrap());
    let w = m.idle.pop().unwrap();
    assert_eq!(
        m.dispatch(w, InjectedFault::TransientError),
        Some((doomed, 1))
    );
    let retry = m.flights.len() - 1;
    m.deliver(retry);
    // Whatever else was in flight now reports too: nothing more surfaces.
    while !m.flights.is_empty() {
        m.deliver(0);
    }
    let exhausted = RuntimeError::RetriesExhausted {
        task: doomed,
        attempts: 2,
        last: "scripted".to_string(),
    };
    assert_eq!(m.errors, vec![exhausted]);
    assert!(m.run.is_halted() && !m.run.all_done());
    let w = m.idle.pop().unwrap();
    let seam = m.adversary.as_ref().map(|a| a as &dyn FaultInjector);
    assert_eq!(
        m.run.pop_ready(w, seam),
        None,
        "a halted run dispatches nothing"
    );
    m.idle.push(w);
    let report = m.finish(&reference);
    assert_eq!(report.retries, 1);
}
