//! The testkit's one virtual driver, and schedule exploration on it.
//!
//! Every legal interleaving must commit a bit-identical factorization, but
//! real threads sample only a few. A [`Machine`] plays both sides of the
//! driver's protocol on one thread over the real engine — dispatch by
//! [`DagRun::pop_ready`], staging in the driver's mode, [`run_attempt`],
//! and [`DagRun::settle`] once a [`Finish`] rule delivers the [`Outcome`]
//! — with an [`Adversary`] picking what goes next; a storm also draws
//! faults, duplicate reports, watchdog sweeps and retry wakes from its
//! seed. [`explore`] is the machine with no faults and no retry budget,
//! held to the independent reference, [`FactorState::run_all`].

use crate::adversary::{Adversary, Rule};
use std::time::{Duration, Instant};
use tileqr_dag::{EliminationTree, TaskGraph, TaskId};
use tileqr_kernels::exec::FactorState;
use tileqr_kernels::Workspace;
use tileqr_matrix::{Matrix, Result, Rng64, Scalar, TiledMatrix};
use tileqr_obs::HotPathCounters;
use tileqr_runtime::engine::{run_attempt, DagRun, Outcome, Slots, Verdict};
use tileqr_runtime::{FaultInjector, FaultTolerance, InjectedFault, RunReport, RuntimeError};

/// How [`explore`] resolves its two nondeterministic choices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExploreStrategy {
    /// Dispatch FIFO — the driver's order — or, with `critical_path`,
    /// highest bottom level first ([`Rule::CriticalPath`]); the
    /// *completion* order among in-flight tasks is a seeded random
    /// permutation — the honest model of workers racing to finish.
    Seeded {
        /// RNG seed for the completion choices.
        seed: u64,
        /// Dispatch highest bottom level first instead of FIFO.
        critical_path: bool,
    },
    /// Dispatch the ready task with the *lowest* bottom level (the exact
    /// inverse of the critical-path heuristic) and complete in-flight
    /// tasks newest-first — the worst schedule a priority bug could
    /// produce.
    ReversePriority,
    /// Dispatch the ready task whose home column is farthest from the
    /// previously dispatched one — maximal loss of locality/affinity.
    AntiAffinity,
    /// One virtual worker draining the ready set newest-first, so the
    /// oldest ready tasks starve as long as legally possible.
    LifoStarvation,
}

/// Outcome of one explored interleaving (of an `f64` factorization unless
/// said otherwise).
#[derive(Debug)]
pub struct Exploration<T: Scalar = f64> {
    /// Order in which tasks committed — the schedule's fingerprint.
    pub completion_order: Vec<TaskId>,
    /// Final factorization state, reassembled for comparison.
    pub state: FactorState<T>,
}

impl<T: Scalar> Exploration<T> {
    /// Compact order fingerprint for distinct-interleaving counting.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the completion order: collision-safe enough to
        // count distinct schedules among a few hundred.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &t in &self.completion_order {
            h ^= t as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// One attempt: its task and 0-based attempt number.
type Key = (TaskId, u32);

/// What an attempt reported, without its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Report {
    /// It ran to completion.
    Done,
    /// It returned an error.
    Failed,
    /// It panicked, or the watchdog retired its slot.
    Panicked,
}

/// One report the manager settled, and what [`DagRun::settle`] made of it.
#[derive(Debug)]
pub struct Settled {
    /// Which attempt (task, 0-based attempt number) reported.
    pub key: Key,
    /// What it reported.
    pub report: Report,
    /// Its slot was waiting on it (a watchdog retirement is expected).
    pub expected: bool,
    /// The engine's verdict.
    pub verdict: Verdict,
    /// A lost attempt parked a retry (false: the budget was spent).
    pub retried: bool,
}

/// Which in-flight attempt reports next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Finish {
    /// The oldest.
    Oldest,
    /// The newest.
    Newest,
    /// A uniform choice from this seed's stream.
    Seeded(u64),
}

/// The same fault on every attempt it is consulted for.
struct Always(InjectedFault);

impl FaultInjector for Always {
    fn before_attempt(&self, _: TaskId, _: u32) -> InjectedFault {
        self.0
    }
}

/// Both halves of the driver's protocol around one [`DagRun`], on one
/// thread: the testkit's one virtual driver.
pub struct Machine<'g, T: Scalar = f64> {
    graph: &'g TaskGraph,
    explored: Exploration<T>,
    /// The engine's run of the graph.
    pub run: DagRun,
    adversary: Option<Adversary>,
    slots: Slots<Key>,
    /// Idle worker slots; the next dispatch takes the last.
    pub idle: Vec<usize>,
    ws: Workspace<T>,
    /// `None`, as unfenced: destructive staging, and a loss ends the run.
    ft: Option<FaultTolerance>,
    /// Attempts run and not yet reported, oldest first, with their slots.
    pub flights: Vec<(usize, Key, Outcome<T>)>,
    /// Tasks whose charged retry waits for a [`DagRun::wake`].
    pub parked: Vec<TaskId>,
    /// An exhausted budget, or with none, a lost attempt's cause.
    pub errors: Vec<RuntimeError>,
}

impl<'g, T: Scalar> Machine<'g, T> {
    /// `workers` idle slots over `tiles`, dispatching by `rule` (`None`:
    /// the driver's FIFO), retrying within `ft`'s attempt budget.
    pub fn new(
        tiles: TiledMatrix<T>,
        graph: &'g TaskGraph,
        workers: usize,
        rule: Option<Rule>,
        ft: Option<FaultTolerance>,
    ) -> Self {
        let b = tiles.tile_size();
        let completion_order = Vec::with_capacity(graph.len());
        Machine {
            graph,
            explored: Exploration {
                completion_order,
                state: FactorState::new(tiles),
            },
            run: DagRun::new(graph, workers, None),
            adversary: rule.map(|rule| Adversary::new(rule, graph, b)),
            slots: Slots::new(workers),
            idle: (0..workers).rev().collect(),
            ws: Workspace::new(b, b),
            ft,
            flights: Vec::new(),
            parked: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Run attempt `key` with `fault` on slot `w`, staged in the driver's
    /// mode (preserving only with a budget); its report stays in flight.
    fn attempt(&mut self, w: usize, key: Key, fault: InjectedFault) {
        let (kind, state) = (self.graph.task(key.0), &mut self.explored.state);
        let staged = match self.ft {
            Some(_) => state.stage_preserving(kind),
            None => state.stage(kind),
        };
        let outcome = run_attempt(staged, key, Some(&Always(fault)), &mut self.ws, false);
        self.flights.push((w, key, outcome));
    }

    /// Hand slot `w` the next ready task and run it with `fault`; `None`
    /// puts `w` back.
    pub fn dispatch(&mut self, w: usize, fault: InjectedFault) -> Option<Key> {
        let pick = self.adversary.as_ref().map(|a| a as _);
        let Some(key) = self.run.pop_ready(w, pick) else {
            self.idle.push(w);
            return None;
        };
        self.slots.watch(w, key);
        self.attempt(w, key, fault);
        Some(key)
    }

    /// Deliver flight `i` to the manager, as the driver settles a report.
    pub fn deliver(&mut self, i: usize) -> Settled {
        let (w, key, outcome) = self.flights.remove(i);
        let expected = self.slots.settle(w, key);
        if expected {
            self.idle.push(w); // the same worker, or its respawned slot
        }
        self.settle(w, key, expected, outcome)
    }

    /// The stall watchdog retires and respawns every busy slot, as an
    /// expected `Panicked`; the attempts stay in flight, to report late.
    pub fn watchdog(&mut self) -> Vec<Settled> {
        let far = Instant::now() + Duration::from_secs(3600);
        let stalled = self.slots.take_stalled(Duration::from_secs(1), far);
        let stalled = stalled.into_iter().map(|(w, key)| {
            self.idle.push(w);
            self.settle(w, key, true, Outcome::Panicked("stalled".into()))
        });
        stalled.collect()
    }

    /// Settle a report through the engine and, as the driver does, charge
    /// a lost attempt: park a retry, or surface the error.
    fn settle(&mut self, w: usize, key: Key, expected: bool, outcome: Outcome<T>) -> Settled {
        let report = match outcome {
            Outcome::Done(_) => Report::Done,
            Outcome::Failed(_) => Report::Failed,
            Outcome::Panicked(_) => Report::Panicked,
        };
        let (run, explored, parked) = (&mut self.run, &mut self.explored, self.parked.len());
        let verdict = run.settle(self.graph, &mut explored.state, key, w, expected, outcome);
        match (&verdict, self.ft) {
            (Verdict::Committed(_), _) => explored.completion_order.push(key.0),
            (Verdict::Dropped, _) => {}
            (Verdict::Lost(cause), Some(ft)) => {
                match run.charge_retry(&ft, key.0, cause.to_string()) {
                    Ok(_) => self.parked.push(key.0),
                    Err(e) => self.errors.push(e),
                }
            }
            (Verdict::Lost(cause), None) => {
                run.halt();
                self.errors.push(cause.clone());
            }
        }
        let retried = self.parked.len() > parked;
        Settled {
            key,
            report,
            expected,
            verdict,
            retried,
        }
    }

    /// Run until nothing is in flight or parked: fill every idle slot,
    /// then deliver the flight `finish` picks, or wake a parked retry. A
    /// `storm` draws from the same seeded stream a fault per dispatch (1
    /// in 10 a transient error, 1 in 10 a panic), a duplicate report for 1
    /// in 5 clean ones, and, in place of a delivery, a watchdog sweep (1 in
    /// 10) or a retry's wake (2 in 10). `check` sees every settled report.
    pub fn drive(&mut self, finish: Finish, storm: bool, mut check: impl FnMut(&Settled)) {
        let seed = if let Finish::Seeded(seed) = finish {
            seed
        } else {
            0
        };
        let mut rng = Rng64::seed_from_u64(seed);
        let mut draw = move |n: usize| (rng.next_u64() % n as u64) as usize;
        loop {
            while let Some(w) = self.idle.pop() {
                let fault = match storm.then(|| draw(10)) {
                    Some(0) => InjectedFault::TransientError,
                    Some(1) => InjectedFault::Panic,
                    _ => InjectedFault::None,
                };
                let Some(key) = self.dispatch(w, fault) else {
                    break;
                };
                if storm && fault == InjectedFault::None && draw(5) == 0 {
                    // The same attempt reports twice (a duplicate `Done`,
                    // bit-identical because nothing committed in between).
                    self.attempt(w, key, fault);
                }
            }
            if self.flights.is_empty() && self.parked.is_empty() {
                return;
            }
            match if storm { draw(10) } else { 1 } {
                0 => self.watchdog().iter().for_each(&mut check),
                1 | 2 if !self.parked.is_empty() => {
                    let t = self.parked.swap_remove(draw(self.parked.len()));
                    self.run.wake(t);
                }
                _ if !self.flights.is_empty() => {
                    let i = match finish {
                        Finish::Oldest => 0,
                        Finish::Newest => self.flights.len() - 1,
                        Finish::Seeded(_) => draw(self.flights.len()),
                    };
                    check(&self.deliver(i));
                }
                _ => {}
            }
        }
    }

    /// Close the run: the state and commit order, and the engine's report.
    pub fn finish(self) -> (Exploration<T>, RunReport) {
        let counters = HotPathCounters::default();
        (
            self.explored,
            self.run.into_report(Duration::ZERO, counters),
        )
    }
}

/// Run one interleaving of `graph` over `tiles` on a virtual
/// `workers`-slot [`Machine`] with no faults and no retry budget. Returns
/// the reassembled state and the completion order.
pub fn explore<T: Scalar>(
    tiles: TiledMatrix<T>,
    graph: &TaskGraph,
    workers: usize,
    strategy: ExploreStrategy,
) -> Result<Exploration<T>> {
    let (rule, finish, cap) = match strategy {
        ExploreStrategy::Seeded {
            seed,
            critical_path,
        } if critical_path => (Rule::CriticalPath, Finish::Seeded(seed), workers),
        ExploreStrategy::Seeded { seed, .. } => (Rule::Fifo, Finish::Seeded(seed), workers),
        ExploreStrategy::ReversePriority => (Rule::ReversePriority, Finish::Newest, workers),
        ExploreStrategy::AntiAffinity => (Rule::AntiAffinity, Finish::Oldest, workers),
        ExploreStrategy::LifoStarvation => (Rule::Lifo, Finish::Oldest, 1),
    };
    let mut m = Machine::new(tiles, graph, cap.max(1), Some(rule), None);
    m.drive(finish, false, |_| {});
    match m.errors.pop() {
        Some(e) => Err(e.into()),
        None => Ok(m.finish().0),
    }
}

/// Convenience wrapper: tile `a`, explore one interleaving of any member of
/// the elimination zoo, and return it alongside the sequential reference
/// state for bit-identity checks.
pub fn explore_tree_vs_sequential<T: Scalar>(
    a: &Matrix<T>,
    tile_size: usize,
    tree: EliminationTree,
    workers: usize,
    strategy: ExploreStrategy,
) -> Result<(Exploration<T>, FactorState<T>)> {
    let tiled = TiledMatrix::from_matrix(a, tile_size)?;
    let graph = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), tree);
    let mut reference = FactorState::new(tiled.clone());
    reference.run_all(&graph)?;
    let explored = explore(tiled, &graph, workers, strategy)?;
    Ok((explored, reference))
}

/// Assert an exploration reproduced the sequential factorization
/// *bitwise*: every tile and every `T` factor.
pub fn assert_bit_identical<T: Scalar>(explored: &FactorState<T>, reference: &FactorState<T>) {
    assert_eq!(
        explored.tiles().to_matrix(),
        reference.tiles().to_matrix(),
        "tiles diverged from the sequential factorization"
    );
    assert_eq!(
        explored.r_matrix(),
        reference.r_matrix(),
        "R factor diverged from the sequential factorization"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::gen::random_matrix;

    #[test]
    fn every_strategy_is_bit_identical_to_sequential() {
        let a = random_matrix::<f64>(24, 24, 77);
        for strategy in [
            ExploreStrategy::Seeded {
                seed: 3,
                critical_path: false,
            },
            ExploreStrategy::Seeded {
                seed: 3,
                critical_path: true,
            },
            ExploreStrategy::ReversePriority,
            ExploreStrategy::AntiAffinity,
            ExploreStrategy::LifoStarvation,
        ] {
            let (exp, reference) =
                explore_tree_vs_sequential(&a, 8, EliminationTree::Flat, 3, strategy).unwrap();
            let expected = TaskGraph::build_tree(3, 3, EliminationTree::Flat).len();
            assert_eq!(exp.completion_order.len(), expected);
            assert_bit_identical(&exp.state, &reference);
        }
    }

    #[test]
    fn seeded_replay_is_exact_and_seed_sensitive() {
        let a = random_matrix::<f64>(32, 32, 5);
        let run = |seed| {
            let strategy = ExploreStrategy::Seeded {
                seed,
                critical_path: false,
            };
            explore_tree_vs_sequential(&a, 8, EliminationTree::Flat, 4, strategy)
                .unwrap()
                .0
        };
        assert_eq!(run(9).completion_order, run(9).completion_order);
        // Distinct seeds explore distinct interleavings (for this size the
        // schedule space is astronomically larger than two).
        assert_ne!(run(1).completion_order, run(2).completion_order);
        assert_ne!(run(1).fingerprint(), run(2).fingerprint());
    }

    #[test]
    fn starvation_runs_single_slot() {
        let a = random_matrix::<f64>(16, 16, 8);
        let (exp, reference) = explore_tree_vs_sequential(
            &a,
            8,
            EliminationTree::Flat,
            8,
            ExploreStrategy::LifoStarvation,
        )
        .unwrap();
        assert_bit_identical(&exp.state, &reference);
    }
}
