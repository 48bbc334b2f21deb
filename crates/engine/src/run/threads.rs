//! The dispatcher's groups on OS threads: the run's second place to
//! run, beside the simulator.
//!
//! [`super::run_once_on_threads`] advances the simulator until the
//! dispatcher has formed and dispatched every group of its batch. The
//! dispatcher splits each member as it would to attach it in the
//! simulator, fails a member whose split fails, and hands the group
//! here instead of spawning its tasks. [`run`] then runs the groups, at
//! most `contexts` at once, each claimed from one counter by the
//! thread that runs it:
//!
//! * **One member to run** — its whole plan runs through
//!   [`wiring::run_local`] on the claiming thread.
//! * **Shared** — the claiming thread runs the pivot's graph once and
//!   its root fans out to one thread per member, as a simulated shared
//!   pivot fans out to its members: the root's `Fanout` writes OS links
//!   ([`Outlet::os`]) where it would write simulator channels, and each
//!   member's fragment reads its link through the port of the operator
//!   above its `Source` leaf ([`Inlet::os`]) — no task in between on
//!   either side ([`wiring::run_local_between`]). A link hands off
//!   numbered morsels of `morsel_pages` pivot pages (for a scan pivot
//!   the table's own `Arc<Page>`s — nothing is copied), then an end
//!   hand-off when the pivot closes — the one protocol of every link
//!   across threads, a morsel group's included: one hand-off (a lock,
//!   often a futex wake) per morsel per member, not per page. Between
//!   plans, OS channels exist only at this sharing seam, exactly where
//!   the model's per-consumer `s` lives — the producer pays the real
//!   (wall-clock) `M·s`. A link holds `queue_capacity` hand-offs, so at
//!   most `queue_capacity × morsel_pages` pages are in flight per
//!   member, as `Arc`s. A member reads end-of-stream at its pivot's end
//!   hand-off, not when the driver lets go of the links.
//!
//! Every plan runs in the one local driver, a private single-context
//! run loop per thread, so compiled expressions, fault cells and
//! brokers behave exactly as in a simulated run and the rows are
//! bit-identical to [`super::run_once`]'s — float bits and row order
//! included. Each query charges a broker of its own, as in the
//! simulator, and returns every granted byte by the time its run
//! returns (asserted in debug builds).
//!
//! Faults stay per query: a member that fails hangs up its link and
//! the producer stops serving it at its next hand-off while its peers
//! go on, and once every member has hung up the pivot's root stops
//! too; a pivot fault travels down every link, so no member mistakes a
//! truncated pivot for end-of-stream. Results, completions (wall-clock
//! nanoseconds since the groups started) and failures go into the
//! engine's books, a fault before injected chaos as in the simulator.

use super::dispatcher::{Arrival, EngineCore};
use cordoba_exec::ops::{Inlet, Outlet};
use cordoba_exec::wiring::{self, WiringConfig};
use cordoba_exec::{ExecError, PhysicalPlan, QueryResources};
use cordoba_sim::VTime;
use cordoba_storage::{Catalog, Page};
use std::iter::from_fn;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, ScopedJoinHandle};

/// A dispatched group handed over to run on threads: the pivot its
/// members' fragments read (`None` for a query with nothing to share),
/// and the members whose split succeeded (at least one), each with its
/// fragment over the pivot (`None` when the whole query is the pivot).
pub(super) type Group = (Option<PhysicalPlan>, Vec<(Arrival, Option<PhysicalPlan>)>);

/// A query's result pages, or the error that failed it.
type Outcome = Result<Vec<Arc<Page>>, ExecError>;

/// Runs every group handed over to `core`, at most `core.contexts` at
/// once, and records each member in the engine's books. Returns the
/// wall-clock nanoseconds the groups took.
#[expect(
    clippy::disallowed_types,
    reason = "the thread substrate times its groups with an honest wall clock"
)]
pub(super) fn run(core: &mut EngineCore) -> VTime {
    let start = std::time::Instant::now();
    let now = || VTime::try_from(start.elapsed().as_nanos()).unwrap_or(VTime::MAX);
    let groups = core.threads.take().unwrap_or_default();
    // A pivot runs only for members: the dispatcher hands over no group
    // whose every member failed its split.
    debug_assert!(groups.iter().all(|(_, members)| !members.is_empty()));
    let (cat, cfg) = (&*core.catalog, &core.wiring);
    // A group runs from the thread that claims it: each member's
    // outcome and wall-clock end, in member order. Each query's run
    // returns every byte granted to its broker (checked in debug builds).
    let done = run_claimed(groups.len(), core.contexts, |i| match &groups[i] {
        (Some(pivot), members) if members.len() > 1 => run_shared(cat, pivot, members, cfg, &now),
        (_, members) => members
            .iter()
            .map(|(member, _)| {
                let res = QueryResources::for_config(&cfg.memory);
                let outcome = wiring::run_local(cat, &member.spec.plan, cfg, &res);
                debug_assert_eq!(res.broker.used(), 0);
                (outcome, now())
            })
            .collect(),
    });
    let members = groups.iter().flat_map(|(_, members)| members);
    for ((member, _), (mut outcome, at)) in members.zip(done.into_iter().flatten()) {
        if let (Ok(pages), Some(rows)) = (&mut outcome, &core.queries[member.submission].rows) {
            *rows.borrow_mut() = std::mem::take(pages);
        }
        let chaos = member.spec.chaos.clone().map_or(Ok(()), Err);
        core.finish(member.submission, outcome.and(chaos).map(|_| at));
    }
    core.completion_records.sort_by_key(|&(_, at)| at);
    now()
}

/// Runs `job` for each of `m` indexes on up to `threads` workers that
/// claim indexes from one counter; outcomes in index order. The calling
/// thread is one of the workers, so a single worker starts no thread.
#[expect(
    clippy::disallowed_methods,
    reason = "group-level threads: the engine's place to start OS threads"
)]
fn run_claimed<T: Send>(m: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < m);
    let work = || from_fn(claim).map(|i| (i, job(i))).collect::<Vec<_>>();
    let mut done: Vec<(usize, T)> = thread::scope(|scope| {
        let others: Vec<_> = (1..threads.min(m)).map(|_| scope.spawn(work)).collect();
        // This thread's share first, then the others'.
        work()
            .into_iter()
            .chain(others.into_iter().flat_map(join))
            .collect()
    });
    // fetch_add handed each index 0..m to exactly one worker.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Runs `pivot`'s graph once on this thread, its root feeding one link
/// per member, each read by the member's fragment on a thread of its
/// own. A pivot that fails (or wedges) sends its error down every link
/// instead of just hanging up ([`wiring::run_feeding`]), so the error
/// is the last thing a member reads and no page behind it is ever
/// served.
#[expect(
    clippy::disallowed_methods,
    reason = "the sharing seam's member threads: the engine's place to start OS threads"
)]
fn run_shared(
    cat: &Catalog,
    pivot: &PhysicalPlan,
    members: &[(Arrival, Option<PhysicalPlan>)],
    cfg: &WiringConfig,
    now: &(impl Fn() -> VTime + Sync),
) -> Vec<(Outcome, VTime)> {
    thread::scope(|scope| {
        // One bounded link per member: the fan-out serialization point
        // of the model.
        let (txs, consumers): (Vec<_>, Vec<_>) = members
            .iter()
            .map(|(_, fragment)| {
                let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity);
                let consume = move || {
                    let Some(fragment) = fragment else {
                        // The whole query is the pivot: it reads its link
                        // up to the end hand-off, as a simulated member's
                        // sink reads its feed.
                        let morsels = rx.iter().map_while(Result::transpose);
                        let pages: Result<Vec<_>, _> = morsels.map(|m| m.map(|(_, p)| p)).collect();
                        return (pages.map(|m| m.concat()), now());
                    };
                    let res = QueryResources::for_config(&cfg.memory);
                    let feed = vec![Inlet::os(rx, &res.fault)];
                    let pages = wiring::run_local_between(cat, fragment, feed, vec![], cfg, &res);
                    debug_assert_eq!(res.broker.used(), 0);
                    (pages, now())
                };
                (tx, scope.spawn(consume))
            })
            .unzip();
        let res = QueryResources::for_config(&cfg.memory);
        let morsel = cfg.parallel.morsel_pages;
        let outlet = |tx: &mpsc::SyncSender<_>| Outlet::os(tx.clone(), morsel, &res.fault);
        wiring::run_feeding(&txs, || {
            let outs = txs.iter().map(outlet).collect();
            wiring::run_local_between(cat, pivot, vec![], outs, cfg, &res)
        });
        debug_assert_eq!(res.broker.used(), 0);
        drop(txs);
        consumers.into_iter().map(join).collect()
    })
}

/// A scoped thread's result, its panic re-raised here.
fn join<T>(thread: ScopedJoinHandle<'_, T>) -> T {
    thread.join().unwrap_or_else(|panic| resume_unwind(panic))
}
