//! Morsel-driven intra-query parallelism.
//!
//! With more than one worker configured, the wiring runs a {filter |
//! project}* chain over a scan — and an aggregate directly above one —
//! as a morsel group: `k` workers plus a merge, every one of them an
//! [`OperatorShell`](crate::ops::OperatorShell). The table is split into
//! page-range [morsels](cordoba_storage::Morsel) claimed from a shared
//! atomic [`MorselDispenser`], and each worker is a `MorselKernel`: a
//! kernel with no ports that runs its claimed pages through privately
//! compiled copies of the chain's own kernels (no shared mutable state),
//! charging what those kernels charge — the same total work as the
//! serial task-per-operator wiring, split `k` ways.
//!
//! * A pipe group's workers hand each finished morsel to the merge over
//!   the group's link ([`crate::ops::port`]), which releases them in
//!   index order: the merge relays them, charging the chain root's
//!   per-consumer output cost once per delivered page as the serial
//!   wiring does; the link itself carries no modeled cost.
//! * An aggregate group's workers fold their pages into private
//!   `AggCore`s, which the merge combines in worker order and emits
//!   sorted — row-identical to the serial aggregate.
//!
//! The simulator schedules the whole group on virtual contexts
//! ([`crate::wiring::instantiate`]); [`crate::wiring::run_local`] gives
//! each worker an OS thread of its own. [`ParallelConfig::default`] is
//! one worker: the wiring is then the classic one-task-per-operator
//! layout and nothing here runs.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::ops::aggregate::{AggCore, Deposit};
use crate::ops::shell::{Drained, PageWork, Port};
use crate::ops::{Kernel, Pages};
use cordoba_storage::{morsel_at, Morsel, Page};
use std::ops::Range;
// std re-exports in normal builds; model-checked shims under
// `--features model` (see tests/model_check.rs).
use shuttle_lite::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pages per claimed morsel and per simulated step when the config does
/// not override it: large enough to amortize a dispenser round-trip and
/// a scheduler step, small enough to balance skewed filters across
/// workers.
const DEFAULT_MORSEL_PAGES: usize = 4;

/// Intra-query parallelism knob, threaded from the engine config down
/// to the wiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Morsel workers per parallelizable fragment. `1` (the default)
    /// is the serial one-task-per-operator wiring; `0` is treated as
    /// `1`.
    pub workers: usize,
    /// Pages per morsel (`0` treated as `1`), the one granularity of
    /// both substrates: what a morsel worker claims, what an OS link
    /// hands off, and the most pages an operator's task moves in one
    /// simulated step (its kernel calls then add up to one step). Rows
    /// and per-row charges do not depend on it; `1` is the one-page
    /// protocol, step for step.
    pub morsel_pages: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 1,
            morsel_pages: DEFAULT_MORSEL_PAGES,
        }
    }
}

impl ParallelConfig {
    /// A config with `workers` morsel workers and default granularity.
    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig {
            workers,
            ..Self::default()
        }
    }

    /// The worker count with the zero case normalized away.
    pub(crate) fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }
}

/// Shared atomic hand-out of morsels: workers race on one counter and
/// each morsel index is claimed exactly once, in increasing order.
#[derive(Debug)]
pub struct MorselDispenser {
    page_count: usize,
    granularity: usize,
    next: AtomicUsize,
}

impl MorselDispenser {
    /// A dispenser over `page_count` pages in morsels of `granularity`
    /// pages (`0` treated as `1`).
    pub fn new(page_count: usize, granularity: usize) -> Self {
        MorselDispenser {
            page_count,
            granularity: granularity.max(1),
            next: AtomicUsize::new(0),
        }
    }

    /// Claims the next unclaimed morsel, or `None` when the page list
    /// is exhausted. Returns the morsel's index so callers can restore
    /// sequential order when reassembling per-morsel outputs.
    pub fn claim(&self) -> Option<(usize, Morsel)> {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        morsel_at(self.page_count, self.granularity, idx).map(|m| (idx, m))
    }
}

/// One worker of a morsel group: a kernel with no ports, each call of
/// which runs the next page of its claimed morsel — claiming a fresh
/// one from the group's dispenser when the last is done — through the
/// chain's kernels, the page's tail flushed by each (so output page
/// boundaries depend only on that page's rows). It charges the scan's
/// input cost plus what each kernel reports, at least 1, and reports
/// the page's rows as progress. A pipe worker emits the chain's pages
/// and reports each morsel it finishes; an aggregate worker folds them
/// instead and leaves its core for the merge when the table runs out.
pub(crate) struct MorselKernel {
    pages: Arc<[Arc<Page>]>,
    dispenser: Arc<MorselDispenser>,
    scan_cost: OpCost,
    /// The chain above the scan, bottom-up.
    stages: Vec<Box<dyn Kernel + Send>>,
    /// The morsel in hand: its index and the pages of it not yet run.
    morsel: Option<(usize, Range<usize>)>,
    /// A stage's input and its output, swapped after every stage.
    bufs: [Pages; 2],
    fold: Option<Fold>,
}

/// What an aggregate group's worker does with the chain's pages.
pub(crate) struct Fold {
    /// Its private core.
    pub(crate) core: AggCore,
    /// The aggregate's plan cost, charged per folded page.
    pub(crate) cost: OpCost,
    /// The worker's index: its slot in `deposit`.
    pub(crate) worker: usize,
    /// Where the core goes when the table runs out.
    pub(crate) deposit: Deposit,
}

impl MorselKernel {
    /// A worker over the morsels `dispenser` hands out of `pages`, at
    /// `scan_cost` per page, running `stages` and then `fold`, if any.
    pub(crate) fn new(
        pages: Arc<[Arc<Page>]>,
        dispenser: Arc<MorselDispenser>,
        scan_cost: OpCost,
        stages: Vec<Box<dyn Kernel + Send>>,
        fold: Option<Fold>,
    ) -> Self {
        MorselKernel {
            pages,
            dispenser,
            scan_cost,
            stages,
            morsel: None,
            bufs: [Vec::new(), Vec::new()],
            fold,
        }
    }

    /// The next page to run, the index of its morsel and whether it is
    /// the morsel's last; `None` once the dispenser is exhausted.
    fn next_page(&mut self) -> Option<(usize, Arc<Page>, bool)> {
        if self.morsel.as_ref().is_none_or(|(_, left)| left.is_empty()) {
            self.morsel = self.dispenser.claim().map(|(i, m)| (i, m.start..m.end));
        }
        let (index, left) = self.morsel.as_mut()?;
        let page = self.pages[left.next()?].clone();
        Some((*index, page, Range::is_empty(left)))
    }
}

impl Kernel for MorselKernel {
    fn name(&self) -> &'static str {
        "morsel worker"
    }

    fn ports(&self) -> Vec<Port> {
        Vec::new()
    }

    /// Never called: a worker has no ports.
    fn on_page(&mut self, _: usize, _: &Arc<Page>, _: &mut Pages) -> Result<PageWork, ExecError> {
        Ok(PageWork::default())
    }

    fn drain(&mut self, out: &mut Pages) -> Result<Drained, ExecError> {
        let Some((index, page, ends)) = self.next_page() else {
            if let Some(Fold {
                core,
                worker,
                deposit,
                ..
            }) = self.fold.take()
            {
                deposit.put(worker, core);
            }
            return Ok(Drained::LAST);
        };
        let rows = page.rows();
        let mut cost = self.scan_cost.input_cost(rows);
        let [cur, next] = &mut self.bufs;
        cur.clear();
        cur.push(page);
        for stage in &mut self.stages {
            next.clear();
            for p in cur.iter() {
                cost += stage.on_page(0, p, next)?.cost;
            }
            cost += stage.drain(next)?.cost;
            std::mem::swap(cur, next);
        }
        let morsel = match &mut self.fold {
            Some(fold) => {
                for p in cur.drain(..) {
                    cost += fold.cost.input_cost(p.rows());
                    fold.core.consume_page(&p);
                }
                None
            }
            None => {
                out.append(cur);
                ends.then_some(index)
            }
        };
        Ok(Drained {
            cost: cost.max(1),
            progress: rows,
            last: false,
            morsel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispenser_hands_out_each_morsel_exactly_once() {
        let dispenser = MorselDispenser::new(100, 3);
        let claims = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some((idx, m)) = dispenser.claim() {
                        claims.lock().unwrap().push((idx, m));
                    }
                });
            }
        });
        let mut claims = claims.into_inner().unwrap();
        claims.sort_by_key(|&(i, _)| i);
        assert_eq!(claims.len(), 34);
        let mut covered = 0;
        for (i, (idx, m)) in claims.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(m.start, covered);
            covered = m.end;
        }
        assert_eq!(covered, 100);
    }

    #[test]
    fn config_normalizes_workers() {
        assert_eq!(ParallelConfig::default().workers, 1);
        assert_eq!(ParallelConfig::with_workers(0).effective_workers(), 1);
        assert_eq!(ParallelConfig::with_workers(8).effective_workers(), 8);
    }
}
