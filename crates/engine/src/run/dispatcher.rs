//! Group formation and dispatch: the staged engine's sharing mechanism.
//!
//! Arriving queries queue briefly (the *formation window*, standing in
//! for the stage-queue residence time of the paper's packet-based
//! engine); compatible queries whose admission the [`Policy`] approves
//! merge into a sharing group. At dispatch, the group's pivot sub-plan
//! is instantiated **once** with one output channel per member, and each
//! member's private above-fragment is grafted onto its channel. Every
//! member, shared or not, is attached the same way: its fragment (its
//! whole plan when unshared) is instantiated over its feed, or its sink
//! reads the feed itself when the whole query is the pivot, and any
//! error closes the feed and fails that query alone.
//!
//! Compatibility is *semantic*, not structural: pivots are bucketed by
//! [`cordoba_exec::subsume::fingerprint`] and an arrival joins a group
//! when one pivot subsumes the other. A narrower arrival attaches with
//! a residual filter; a wider one *widens* the group's pivot (existing
//! members re-split against the widened pivot at dispatch, which is
//! sound because subsumption is transitive). When a
//! [`crate::fragment_cache::FragmentCache`] is configured, the output
//! pages of each fresh shared pivot are captured, and a later arrival
//! whose pivot a cached fragment subsumes replays the pages through its
//! residual instead of re-running the pivot.
//!
//! A run on OS threads forms and dispatches the same groups: at
//! dispatch each member is split as below, one whose split fails fails
//! here, and the group is handed over to [`super::threads`] instead of
//! spawning tasks. A fresh shared pivot enters the fragment cache there
//! too, so both substrates evict alike, but stays in flight: nothing on
//! threads captures its pages, so it is never served.

use super::threads::Group;
use super::Disposition;
use crate::fragment_cache::CachedFragment;
use crate::policy::{OverlapInfo, Policy};
use crate::query::QuerySpec;
use crate::sharing::split_with_residual;
use cordoba_exec::ops::{Fanout, OperatorShell, Outlet, ScanKernel, SinkKernel};
use cordoba_exec::subsume::{coverage_estimate, fingerprint, subsume_residual};
use cordoba_exec::wiring::{instantiate_into, WiringConfig};
use cordoba_exec::{ExecError, FaultCell, OpCost, PhysicalPlan, QueryResources};
use cordoba_sim::channel::{self};
#[expect(
    clippy::disallowed_types,
    reason = "the engine's control tasks step themselves; they run no operator"
)]
use cordoba_sim::{Spawner, Step, Task, TaskCtx, TaskId, VTime};
use cordoba_storage::{Catalog, Page};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// The group-formation window (virtual time): an arrival within it of
/// a compatible open group may merge with it. Stands in for stage-queue
/// residence in the paper's packet engine.
const WINDOW: VTime = 2_000;

/// What a fresh pivot's capture sink fills: its cache entry's pages,
/// and the flag that makes them servable.
type Capture = (Rc<RefCell<Vec<Arc<Page>>>>, Rc<Cell<bool>>);

/// An arrival awaiting group formation.
#[derive(Debug, Clone)]
pub(crate) struct Arrival {
    pub(super) submission: usize,
    pub(super) spec: QuerySpec,
}

impl Arrival {
    /// Its fragment over its group's pivot, `at`. A member without a
    /// pivot of its own is split at the group's, which fails it unless
    /// its plan holds that.
    fn split(&self, at: &PhysicalPlan, cat: &Catalog) -> Result<Option<PhysicalPlan>, ExecError> {
        let own = self.spec.pivot.as_ref().unwrap_or(at);
        split_with_residual(&self.spec.plan, own, at, cat)
    }
}

/// A forming (not yet dispatched) sharing group.
pub(crate) struct PendingGroup {
    /// The group's (possibly widened) pivot and the fingerprint of its
    /// filter-peeled base (the bucket key).
    pivot: Option<(PhysicalPlan, u64)>,
    /// When set, the pivot's output replays from these cached pages
    /// instead of executing the pivot.
    cached: Option<CachedFragment>,
    members: Vec<Arrival>,
    due: VTime,
}

/// `s` (per-consumer output cost) of a plan's root operator — what a
/// cached replay still has to pay per member.
fn root_out_per_tuple(plan: &PhysicalPlan) -> f64 {
    match plan {
        PhysicalPlan::Scan { cost, .. }
        | PhysicalPlan::Filter { cost, .. }
        | PhysicalPlan::Project { cost, .. }
        | PhysicalPlan::Aggregate { cost, .. }
        | PhysicalPlan::Sort { cost, .. }
        | PhysicalPlan::NestedLoopJoin { cost, .. }
        | PhysicalPlan::MergeJoin { cost, .. } => cost.out_per_tuple,
        PhysicalPlan::HashJoin { probe_cost, .. } => probe_cost.out_per_tuple,
        PhysicalPlan::Source { .. } => 0.0,
    }
}

/// One offered query's record, by submission id: the run's one book
/// of what it was offered and what became of each query.
pub(crate) struct Offered {
    /// When the query was offered (0 for a batch).
    pub(crate) at: VTime,
    /// What became of it: [`Disposition::Rejected`] from the offer on,
    /// or [`Disposition::InFlight`] until [`EngineCore::finish`].
    pub(crate) disposition: Disposition,
    /// Its result pages, filled by its sink — only when the run captures.
    pub(crate) rows: Option<Rc<RefCell<Vec<Arc<Page>>>>>,
}

/// Shared mutable engine state (single-threaded simulator world).
pub(crate) struct EngineCore {
    pub(crate) catalog: Rc<Catalog>,
    pub(crate) wiring: WiringConfig,
    pub(crate) policy: Policy,
    pub(crate) contexts: usize,
    /// Closed system: completed queries are resubmitted.
    pub(crate) resubmit: bool,
    pub(crate) max_group: usize,
    pub(crate) sink_cost: OpCost,
    pub(crate) arrivals: VecDeque<Arrival>,
    pub(crate) pending: Vec<PendingGroup>,
    pub(crate) dispatcher: Option<TaskId>,
    /// Every offered query, indexed by submission id — its offered
    /// position, admitted or not.
    pub(crate) queries: Vec<Offered>,
    /// `(submission id, completion time)` in completion order, for
    /// response times.
    pub(crate) completion_records: Vec<(usize, VTime)>,
    /// Sizes of dispatched groups (sharing diagnostics), in dispatch
    /// order: a group's index is its id, the `g{id}` of its tasks'
    /// labels.
    pub(crate) group_sizes: Vec<usize>,
    /// Arrivals scheduled by an open-system driver but not yet
    /// submitted; keeps the dispatcher alive while the schedule drains.
    pub(crate) external_arrivals_pending: usize,
    /// Queries admitted but not yet completed (the closed system's
    /// multiprogramming level) — the denominator of the fair-share
    /// effective-processor estimate handed to the policy.
    pub(crate) live_queries: usize,
    /// Whether each query's result pages are kept ([`Offered::rows`]).
    pub(crate) capture: bool,
    /// Cache of completed shared-fragment outputs (`None` = disabled).
    pub(crate) fragment_cache: Option<crate::fragment_cache::FragmentCache>,
    /// Arrivals that joined a group under a structurally *different*
    /// (subsuming) pivot — sharing the old equality test would miss.
    pub(crate) subsume_joins: u64,
    /// Times a pending group's pivot was replaced by a wider arrival's.
    pub(crate) pivot_widenings: u64,
    /// On OS threads: the dispatched groups, handed over to run once
    /// the simulator idles (`None`: groups spawn simulator tasks).
    pub(crate) threads: Option<Vec<Group>>,
}

impl EngineCore {
    /// Offers a query at `now`: it takes the next submission id, so ids
    /// are offered positions. Only an admitted one (`admit`) enters the
    /// arrival queue, in flight; a refused one is recorded as rejected
    /// and never runs.
    pub(crate) fn offer(&mut self, spec: QuerySpec, now: VTime, admit: bool) {
        let submission = self.queries.len();
        let disposition = if admit {
            self.arrivals.push_back(Arrival { submission, spec });
            self.live_queries += 1;
            Disposition::InFlight
        } else {
            Disposition::Rejected
        };
        self.queries.push(Offered {
            at: now,
            disposition,
            rows: self.capture.then(Rc::default),
        });
    }

    /// Records the end of an admitted query: its completion time, or the
    /// error that failed it (a plan rejected at instantiation, a runtime
    /// fault, injected chaos, a stall). Either way it is no longer live.
    ///
    /// # Panics
    ///
    /// Panics unless the query is in flight: a query ends once.
    pub(crate) fn finish(&mut self, submission: usize, end: Result<VTime, ExecError>) {
        let query = &mut self.queries[submission];
        let in_flight = matches!(query.disposition, Disposition::InFlight);
        assert!(in_flight, "query {submission} ended but was not in flight");
        query.disposition = match end {
            Ok(at) => {
                self.completion_records.push((submission, at));
                let response = at.saturating_sub(query.at);
                Disposition::Completed { at, response }
            }
            Err(err) => Disposition::Failed(err),
        };
        self.live_queries -= 1;
    }
}

/// The engine's control task: forms and dispatches sharing groups.
pub(crate) struct DispatcherTask {
    pub(super) core: Rc<RefCell<EngineCore>>,
}

impl DispatcherTask {
    fn assimilate_arrivals(core: &mut EngineCore, now: VTime) {
        while let Some(arrival) = core.arrivals.pop_front() {
            let mut joined = false;
            if core.policy.may_share() {
                if let Some(pivot) = &arrival.spec.pivot {
                    let fp = fingerprint(pivot);
                    for group in core.pending.iter_mut() {
                        let open = group.members.len() < core.max_group;
                        let Some((group_pivot, _)) =
                            group.pivot.as_ref().filter(|&&(_, f)| f == fp && open)
                        else {
                            continue;
                        };
                        let exact = group_pivot == pivot;
                        // The group runs whichever pivot subsumes the
                        // other: join a wider group through a residual,
                        // or widen the group to this arrival's pivot
                        // (disallowed for cached groups — their pages
                        // are fixed).
                        let (wide, widen) = if subsume_residual(group_pivot, pivot).is_some() {
                            (group_pivot.clone(), false)
                        } else if group.cached.is_none()
                            && subsume_residual(pivot, group_pivot).is_some()
                        {
                            (pivot.clone(), true)
                        } else {
                            continue;
                        };
                        let member_infos: Vec<OverlapInfo<'_>> = group
                            .members
                            .iter()
                            .map(|m| OverlapInfo {
                                name: &m.spec.name,
                                // Members always carry a pivot (they
                                // joined through one); treat a missing
                                // one as full coverage, the conservative
                                // admission input.
                                coverage: m
                                    .spec
                                    .pivot
                                    .as_ref()
                                    .map_or(1.0, |p| coverage_estimate(&wide, p)),
                            })
                            .collect();
                        let candidate = OverlapInfo {
                            name: &arrival.spec.name,
                            coverage: coverage_estimate(&wide, pivot),
                        };
                        // Fair share of the machine for the expanded
                        // group under the current multiprogramming level.
                        let n_eff = core.contexts as f64 * (group.members.len() + 1) as f64
                            / core.live_queries.max(1) as f64;
                        let n_eff = n_eff.min(core.contexts as f64);
                        if core.policy.admit_overlap(&member_infos, candidate, n_eff) {
                            if widen {
                                group.pivot = Some((wide, fp));
                                core.pivot_widenings += 1;
                            }
                            if !exact {
                                core.subsume_joins += 1;
                            }
                            group.members.push(arrival.clone());
                            joined = true;
                            break;
                        }
                        // Paper Section 8.1: if this group refuses, try
                        // the remaining groups in turn.
                    }
                    // No open group: a completed fragment from the cache
                    // can still serve this query. Replay is a strict
                    // saving (the pivot's work is already paid), so a
                    // ready subsuming fragment is always used.
                    if !joined {
                        if let Some(cache) = core.fragment_cache.as_mut() {
                            if let Some(hit) = cache.lookup(fp, pivot) {
                                core.pending.push(PendingGroup {
                                    pivot: Some((hit.pivot.clone(), fp)),
                                    cached: Some(hit),
                                    members: vec![arrival.clone()],
                                    // Nothing to wait for: replay at once.
                                    due: now,
                                });
                                joined = true;
                            }
                        }
                    }
                }
            }
            if !joined {
                let window = if core.policy.may_share() { WINDOW } else { 0 };
                let pivot = arrival.spec.pivot.as_ref();
                core.pending.push(PendingGroup {
                    pivot: pivot.map(|pivot| (pivot.clone(), fingerprint(pivot))),
                    cached: None,
                    members: vec![arrival],
                    due: now + window,
                });
            }
        }
    }

    fn spawn_group(
        core: &mut EngineCore,
        core_rc: &Rc<RefCell<EngineCore>>,
        ctx: &mut TaskCtx<'_>,
        group: PendingGroup,
    ) {
        let gid = core.group_sizes.len();
        core.group_sizes.push(group.members.len());
        let capture = Self::cache_in_flight(core, &group);
        if core.threads.is_some() {
            return Self::hand_over(core, group);
        }
        let Some((pivot, _)) = &group.pivot else {
            for member in group.members {
                let plan = member.spec.plan.clone();
                Self::spawn_member(core, core_rc, ctx, member, Ok(Some(plan)), None, vec![]);
            }
            return;
        };
        // One pivot instance, one feed per member.
        let (outs, feeds): (Vec<Outlet>, Vec<_>) = group
            .members
            .iter()
            .map(|_| {
                let (tx, rx) = channel::bounded(core.wiring.queue_capacity);
                (tx.into(), rx)
            })
            .unzip();
        let shared = Self::spawn_pivot(core, ctx, gid, &group, pivot, outs, capture);
        for (member, feed) in group.members.into_iter().zip(feeds) {
            let fragment = match &shared {
                Ok(_) => member.split(pivot, &core.catalog),
                Err(err) => Err(err.clone()),
            };
            let faults = shared.iter().flatten().cloned().collect();
            Self::spawn_member(core, core_rc, ctx, member, fragment, Some(feed), faults);
        }
    }

    /// Hands `group` over to run on OS threads: each member is split as
    /// for its attachment in the simulator, and one whose split fails
    /// fails here, as it would there. A group none of whose members is
    /// left is not handed over: its pivot has nobody to run for.
    fn hand_over(core: &mut EngineCore, group: PendingGroup) {
        let (pivot, mut members) = (group.pivot.as_ref().map(|(p, _)| p), Vec::new());
        for member in group.members {
            match pivot.map_or(Ok(None), |pivot| member.split(pivot, &core.catalog)) {
                Ok(fragment) => members.push((member, fragment)),
                Err(err) => core.finish(member.submission, Err(err)),
            }
        }
        if let (Some(groups), false) = (core.threads.as_mut(), members.is_empty()) {
            groups.push((group.pivot.map(|(pivot, _)| pivot), members));
        }
    }

    /// Enters a fresh shared pivot's output into the fragment cache, in
    /// flight, when one is configured and the policy may share — on
    /// either substrate, so both count the same evictions — and returns
    /// what the simulator's capture sink fills. On threads nothing
    /// fills it: it stays in flight and is never served.
    fn cache_in_flight(core: &mut EngineCore, group: &PendingGroup) -> Option<Capture> {
        let (pivot, fp) = group.pivot.as_ref().filter(|_| group.cached.is_none())?;
        let cache = core
            .fragment_cache
            .as_mut()
            .filter(|_| core.policy.may_share())?;
        let entry = CachedFragment::in_flight(*fp, pivot.clone());
        let capture = (entry.pages.clone(), entry.ready.clone());
        cache.insert(entry);
        Some(capture)
    }

    /// Spawns a group's pivot delivering to `outs`: a replay of its
    /// cached pages, or one instance of `pivot`, with a sink capturing
    /// its pages into `capture` if given. Returns the fault cell the
    /// members' sinks must watch — none for a replay, whose pages come
    /// from a completed, fault-free run — or the error that rejected
    /// the pivot, in which case nothing was spawned.
    fn spawn_pivot(
        core: &mut EngineCore,
        ctx: &mut TaskCtx<'_>,
        gid: usize,
        group: &PendingGroup,
        pivot: &PhysicalPlan,
        mut outs: Vec<Outlet>,
        capture: Option<Capture>,
    ) -> Result<Option<FaultCell>, ExecError> {
        if let Some(hit) = &group.cached {
            // Replay the cached pages: the pivot's input work is
            // already paid; only per-consumer delivery remains.
            let pages = hit.pages.borrow().clone();
            let replay = Box::new(ScanKernel::new(pages, OpCost::per_tuple(0.0)));
            let fanout = Fanout::new(outs, root_out_per_tuple(pivot));
            let task = OperatorShell::new(replay, vec![], fanout, FaultCell::default())
                .morsel_pages(core.wiring.parallel.morsel_pages);
            ctx.spawn_task(format!("g{gid}/cached"), Box::new(task));
            return Ok(None);
        }
        // The shared pivot gets its own broker/fault pair; each
        // member's private fragment gets another, so one member's
        // overrun cannot starve its peers.
        let res = QueryResources::for_config(&core.wiring.memory);
        // One extra consumer captures the pivot's pages for later
        // replay — the pivot pays the same `s` for it as for any member.
        let capture_rx = capture.is_some().then(|| {
            let (tx, rx) = channel::bounded(core.wiring.queue_capacity);
            outs.push(tx.into());
            rx
        });
        instantiate_into(
            ctx,
            &core.catalog,
            pivot,
            outs,
            &mut VecDeque::new(),
            &format!("g{gid}/shared"),
            &core.wiring,
            &res,
        )?;
        if let (Some(rx), Some((pages, ready))) = (capture_rx, capture) {
            let fault = res.fault.clone();
            let capture = SinkKernel::new(OpCost::per_tuple(0.0)).collecting(pages);
            let sink = OperatorShell::new(
                Box::new(capture),
                vec![rx.into()],
                Fanout::none(),
                FaultCell::default(),
            )
            .morsel_pages(core.wiring.parallel.morsel_pages)
            .on_done(Box::new(move |_ctx| {
                // Servable only if the pivot drained without faulting.
                if fault.get().is_none() {
                    ready.set(true);
                }
            }));
            ctx.spawn_task(format!("g{gid}/capture"), Box::new(sink));
        }
        Ok(Some(res.fault))
    }

    /// Attaches one member: instantiates its `fragment` over `feed`, the
    /// member's channel from its group's pivot if it shares one, and
    /// spawns its sink over the fragment's output — over `feed` itself
    /// when `fragment` is `None`, the whole query being the pivot. The
    /// sink fails the query on a fault in any of `faults` (the
    /// pivot's, first), in the fragment, or injected by chaos. On an
    /// error the feed is closed, so the pivot never blocks on it, and
    /// only this query fails.
    fn spawn_member(
        core: &mut EngineCore,
        core_rc: &Rc<RefCell<EngineCore>>,
        ctx: &mut TaskCtx<'_>,
        member: Arrival,
        fragment: Result<Option<PhysicalPlan>, ExecError>,
        feed: Option<channel::Receiver<Arc<Page>>>,
        mut faults: Vec<FaultCell>,
    ) {
        let label = format!("q{}/{}", member.submission, member.spec.name);
        let input = fragment.and_then(|fragment| {
            let Some(plan) = fragment else {
                return feed
                    .clone()
                    .ok_or_else(|| ExecError::plan("no pivot feeds the member"));
            };
            let res = QueryResources::for_config(&core.wiring.memory);
            let (tx, rx) = channel::bounded(core.wiring.queue_capacity);
            let mut sources = feed.iter().map(|feed| feed.clone().into()).collect();
            instantiate_into(
                ctx,
                &core.catalog,
                &plan,
                vec![tx.into()],
                &mut sources,
                &label,
                &core.wiring,
                &res,
            )?;
            faults.push(res.fault);
            Ok(rx)
        });
        let rx = match input {
            Ok(rx) => rx,
            Err(err) => {
                if let Some(feed) = feed {
                    feed.close(ctx);
                }
                core.finish(member.submission, Err(err));
                return;
            }
        };
        if let Some(err) = &member.spec.chaos {
            // Chaos injection: a pre-set fault cell only this member's
            // sink watches, so the query fails while its group peers
            // (and a shared pivot) run unaffected.
            let cell = FaultCell::default();
            cell.set(err.clone());
            faults.push(cell);
        }
        let mut kernel = SinkKernel::new(core.sink_cost);
        if let Some(rows) = &core.queries[member.submission].rows {
            kernel = kernel.collecting(rows.clone());
        }
        let engine = Rc::downgrade(core_rc);
        let (spec, submission) = (member.spec, member.submission);
        let sink = OperatorShell::new(
            Box::new(kernel),
            vec![rx.into()],
            Fanout::none(),
            FaultCell::default(),
        )
        .morsel_pages(core.wiring.parallel.morsel_pages);
        let sink = sink.on_done(Box::new(move |ctx| {
            // The engine core can be gone when a time-capped or
            // cancelled run tears down while sinks still drain; there
            // is nobody left to report to, so just exit.
            let Some(engine) = engine.upgrade() else {
                return;
            };
            let mut core = engine.borrow_mut();
            // A fault anywhere in this query's operator graph (its
            // private fragment or the shared pivot) turns the finish
            // into a failure: no completion, no resubmission.
            let fault = faults.iter().find_map(|f| f.get());
            let resubmit = fault.is_none() && core.resubmit;
            core.finish(submission, fault.map_or(Ok(ctx.now()), Err));
            if resubmit {
                core.offer(spec, ctx.now(), true);
                let dispatcher = core.dispatcher;
                drop(core);
                if let Some(d) = dispatcher {
                    ctx.wake(d);
                }
            }
        }));
        ctx.spawn_task(format!("{label}/sink"), Box::new(sink));
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "the engine's control tasks step themselves; they run no operator"
)]
impl Task for DispatcherTask {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let now = ctx.now();
        let mut core = self.core.borrow_mut();
        Self::assimilate_arrivals(&mut core, now);
        // Dispatch every group whose window has expired.
        let mut due = Vec::new();
        let mut i = 0;
        while i < core.pending.len() {
            if core.pending[i].due <= now {
                due.push(core.pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        // Dispatch by due time. Among groups due together the order is
        // deterministic but not arrival order: `swap_remove` scrambles it.
        due.sort_by_key(|g| g.due);
        let dispatched = !due.is_empty();
        for group in due {
            Self::spawn_group(&mut core, &self.core, ctx, group);
        }
        if let Some(next_due) = core.pending.iter().map(|g| g.due).min() {
            let delay = next_due.saturating_sub(now);
            Step::sleep(1, delay)
        } else if core.resubmit || !core.arrivals.is_empty() || core.external_arrivals_pending > 0 {
            // Parked until a sink or arrival driver wakes us.
            Step::blocked(u64::from(dispatched))
        } else {
            Step::done(u64::from(dispatched))
        }
    }
}
