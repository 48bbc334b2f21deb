//! The dispatcher's groups on OS threads: the run's second place to
//! run, beside the simulator.
//!
//! [`super::run_once_on_threads`] advances the simulator until the
//! dispatcher has formed and dispatched every group of its batch, each
//! handed over here instead of spawned. [`run`] then runs the groups, at
//! most `contexts` at once, each claimed from one queue by the thread
//! that runs it — the calling thread among them, so one context starts
//! no thread.
//!
//! A claimed group runs in a one-context run loop on its thread (a
//! [`LocalRun`]), wired by the very code that spawns it into the
//! simulator ([`DispatcherTask::spawn_group`]): its pivot once, its
//! root's fan-out writing one simulator channel per member, each
//! member's fragment reading its channel through the port of the
//! operator above its `Source` leaf, and a sink per member that ends it
//! as a simulated sink does. A group of one member is its whole plan
//! and its sink. Only a morsel group's workers leave the loop, each on
//! a scoped OS thread of its own feeding its merge over an OS link
//! (`cordoba_exec::ops::port`). So a run starts at most `contexts`
//! threads for its groups, plus morsel workers.
//!
//! Compiled expressions, fault cells and brokers behave exactly as in a
//! simulated run and the rows are bit-identical to
//! [`super::run_once`]'s — float bits and row order included. Each
//! query charges a broker of its own, as in the simulator, and returns
//! every granted byte by the time its run ends (asserted in debug
//! builds). Faults stay per query, and fail a member through the
//! simulator's own path: a member sink watches its pivot's fault first,
//! then its fragment's, then injected chaos. Results, completions
//! (wall-clock nanoseconds since the groups started, read as each
//! member's sink finishes) and failures go into the engine's books.

use super::dispatcher::{DispatcherTask, End, EngineCore, Env, PendingGroup};
use cordoba_exec::wiring::LocalRun;
use cordoba_sim::VTime;
use std::cell::RefCell;
use std::iter::from_fn;
use std::panic::resume_unwind;
use std::rc::Rc;
use std::sync::{Mutex, PoisonError};
use std::thread;

/// Runs every group handed over to `core`, at most `core.contexts` at
/// once, and records each member in the engine's books. Returns the
/// wall-clock nanoseconds the groups took.
#[expect(
    clippy::disallowed_types,
    reason = "the thread substrate times its groups with an honest wall clock"
)]
pub(super) fn run(core: &mut EngineCore) -> VTime {
    let start = std::time::Instant::now();
    let now = move || VTime::try_from(start.elapsed().as_nanos()).unwrap_or(VTime::MAX);
    let groups = core.threads.take().unwrap_or_default();
    let (catalog, wiring, sink_cost) = (&*core.catalog, &core.wiring, core.sink_cost);
    let capture = core.capture;
    // A group runs in a one-context run loop on the thread that claims
    // it, spawned as the simulator spawns it.
    let run_group = |(gid, group): (usize, PendingGroup)| {
        let ended = Rc::new(RefCell::new(Vec::new()));
        let end: End = {
            let ended = ended.clone();
            Rc::new(move |_ctx, member, pages, fault| {
                let end = fault.map_or_else(|| Ok(now()), Err);
                ended.borrow_mut().push((member.submission, end, pages));
            })
        };
        let env = Env {
            catalog,
            wiring,
            sink_cost,
            capture,
            end: &end,
        };
        let mut local = LocalRun::default();
        let failed = DispatcherTask::spawn_group(&mut local, &env, gid, group, None);
        let live_tasks = local.run().live_tasks;
        let failed = failed.into_iter().map(|(k, err)| (k, Err(err), Vec::new()));
        let ended: Vec<_> = ended.take().into_iter().chain(failed).collect();
        (ended, live_tasks)
    };
    let mut live_tasks = 0;
    for (ended, live) in run_claimed(groups, core.contexts, run_group) {
        for (submission, end, pages) in ended {
            if let Some(rows) = &core.queries[submission].rows {
                *rows.borrow_mut() = pages;
            }
            core.finish(submission, end);
        }
        live_tasks += live;
    }
    // A member whose sink never finished — its group's loop wedged —
    // fails as the simulator's stop rule fails it.
    core.stall(live_tasks);
    core.completion_records.sort_by_key(|&(_, at)| at);
    now()
}

/// Runs `job` on each of `items` on up to `threads` workers that claim
/// them from one queue; outcomes in item order. The calling thread is
/// one of the workers, so a single worker starts no thread.
#[expect(
    clippy::disallowed_methods,
    reason = "group-level threads: the engine's place to start OS threads"
)]
fn run_claimed<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    job: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let m = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    // No job runs under the lock, so a poisoned one still holds a sound
    // queue.
    let claim = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let work = || {
        from_fn(claim)
            .map(|(i, item)| (i, job(item)))
            .collect::<Vec<_>>()
    };
    let mut done: Vec<(usize, R)> = thread::scope(|scope| {
        let others: Vec<_> = (1..threads.min(m)).map(|_| scope.spawn(work)).collect();
        // This thread's share first, then the others', each re-raising
        // its panic here.
        let others = others
            .into_iter()
            .flat_map(|thread| thread.join().unwrap_or_else(|panic| resume_unwind(panic)));
        work().into_iter().chain(others).collect()
    });
    // The queue handed each item to exactly one worker.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, outcome)| outcome).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn groups_are_claimed_by_at_most_contexts_threads_the_caller_among_them() {
        for threads in [1, 2, 3] {
            let ids = run_claimed((0..12).collect(), threads, |i: usize| {
                (i, thread::current().id())
            });
            let order: Vec<usize> = ids.iter().map(|&(i, _)| i).collect();
            assert_eq!(order, (0..12).collect::<Vec<_>>(), "item order");
            let used: HashSet<_> = ids.iter().map(|&(_, id)| id).collect();
            assert!(used.len() <= threads, "{threads}: {} threads", used.len());
            if threads == 1 {
                assert_eq!(used, HashSet::from([thread::current().id()]));
            }
        }
    }
}
