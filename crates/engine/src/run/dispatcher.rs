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
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// An arrival awaiting group formation.
#[derive(Debug, Clone)]
pub(crate) struct Arrival {
    submission: usize,
    spec: QuerySpec,
}

/// A forming (not yet dispatched) sharing group.
pub(crate) struct PendingGroup {
    /// The group's (possibly widened) pivot.
    pivot: Option<PhysicalPlan>,
    /// Fingerprint of `pivot`'s filter-peeled base (bucket key).
    fingerprint: Option<u64>,
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

/// Per-submission result buffers (run-once collection mode).
type CollectBuffers = Vec<Rc<RefCell<Vec<Arc<Page>>>>>;

/// Shared mutable engine state (single-threaded simulator world).
pub(crate) struct EngineCore {
    pub(crate) catalog: Rc<Catalog>,
    pub(crate) wiring: WiringConfig,
    pub(crate) policy: Policy,
    pub(crate) contexts: usize,
    /// Group-formation window in virtual time.
    pub(crate) window: VTime,
    /// Closed system: completed queries are resubmitted.
    pub(crate) resubmit: bool,
    pub(crate) max_group: usize,
    pub(crate) sink_cost: OpCost,
    pub(crate) arrivals: VecDeque<Arrival>,
    pub(crate) pending: Vec<PendingGroup>,
    pub(crate) dispatcher: Option<TaskId>,
    /// `(submission id, error)` per failed query: plans rejected at
    /// instantiation and runtime faults (e.g. unsorted merge inputs,
    /// spill I/O errors, exhausted memory budgets). Failed queries
    /// never appear in `completion_records` and are not resubmitted.
    pub(crate) failures: Vec<(usize, ExecError)>,
    /// Submission ids refused at admission (bounded admission queue
    /// full): they hold a position in every per-submission table but
    /// never entered `arrivals`.
    pub(crate) rejections: Vec<usize>,
    /// Submission time by submission id (0 for pre-run submissions).
    pub(crate) arrival_times: Vec<VTime>,
    /// `(submission id, completion time)` pairs, for response times.
    pub(crate) completion_records: Vec<(usize, VTime)>,
    /// Sizes of dispatched groups (sharing diagnostics).
    pub(crate) group_sizes: Vec<usize>,
    pub(crate) next_submission: usize,
    /// Arrivals scheduled by an open-system driver but not yet
    /// submitted; keeps the dispatcher alive while the schedule drains.
    pub(crate) external_arrivals_pending: usize,
    /// Queries admitted but not yet completed (the closed system's
    /// multiprogramming level) — the denominator of the fair-share
    /// effective-processor estimate handed to the policy.
    pub(crate) live_queries: usize,
    pub(crate) group_seq: u64,
    /// Result collection buffers by submission id (run-once mode).
    pub(crate) collect: Option<CollectBuffers>,
    /// Cache of completed shared-fragment outputs (`None` = disabled).
    pub(crate) fragment_cache: Option<crate::fragment_cache::FragmentCache>,
    /// Arrivals that joined a group under a structurally *different*
    /// (subsuming) pivot — sharing the old equality test would miss.
    pub(crate) subsume_joins: u64,
    /// Times a pending group's pivot was replaced by a wider arrival's.
    pub(crate) pivot_widenings: u64,
}

impl EngineCore {
    /// Offers a query at `now`. Every offered query takes the next
    /// submission id — so ids are offered positions — but only an
    /// admitted one (`admit`) enters the arrival queue; a refused one is
    /// recorded in `rejections` and never runs.
    pub(crate) fn offer(&mut self, spec: QuerySpec, now: VTime, admit: bool) {
        let submission = self.next_submission;
        self.next_submission += 1;
        if let Some(collect) = &mut self.collect {
            debug_assert_eq!(collect.len(), submission);
            collect.push(Rc::new(RefCell::new(Vec::new())));
        }
        debug_assert_eq!(self.arrival_times.len(), submission);
        self.arrival_times.push(now);
        if admit {
            self.arrivals.push_back(Arrival { submission, spec });
            self.live_queries += 1;
        } else {
            self.rejections.push(submission);
        }
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
                        if group.fingerprint != Some(fp) || group.members.len() >= core.max_group {
                            continue;
                        }
                        // A fingerprint implies a pivot; a pivot-less
                        // group can never share, so skip it rather than
                        // take the engine down on a malformed group.
                        let Some(group_pivot) = group.pivot.as_ref() else {
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
                                group.pivot = Some(wide);
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
                                    pivot: Some(hit.pivot.clone()),
                                    fingerprint: Some(fp),
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
                let window = if core.policy.may_share() {
                    core.window
                } else {
                    0
                };
                core.pending.push(PendingGroup {
                    fingerprint: arrival.spec.pivot.as_ref().map(fingerprint),
                    pivot: arrival.spec.pivot.clone(),
                    cached: None,
                    members: vec![arrival],
                    due: now + window,
                });
            }
        }
    }

    /// Records a query rejected at instantiation (malformed plan): it
    /// counts as finished (failed), never as a completion.
    fn fail_query(core: &mut EngineCore, submission: usize, err: &ExecError) {
        core.failures.push((submission, err.clone()));
        core.live_queries = core.live_queries.saturating_sub(1);
    }

    fn spawn_group(
        core: &mut EngineCore,
        core_rc: &Rc<RefCell<EngineCore>>,
        ctx: &mut TaskCtx<'_>,
        group: PendingGroup,
    ) {
        core.group_sizes.push(group.members.len());
        let gid = core.group_seq;
        core.group_seq += 1;
        let Some(pivot) = &group.pivot else {
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
        let shared = Self::spawn_pivot(core, ctx, gid, &group, pivot, outs);
        for (member, feed) in group.members.into_iter().zip(feeds) {
            // A member without a pivot of its own is split at the
            // group's, which fails it unless its plan holds that.
            let own = member.spec.pivot.as_ref().unwrap_or(pivot);
            let fragment = match &shared {
                Ok(_) => split_with_residual(&member.spec.plan, own, pivot, &core.catalog),
                Err(err) => Err(err.clone()),
            };
            let faults = shared.iter().flatten().cloned().collect();
            Self::spawn_member(core, core_rc, ctx, member, fragment, Some(feed), faults);
        }
    }

    /// Spawns a group's pivot delivering to `outs`: a replay of its
    /// cached pages, or one instance of `pivot` (with a capture sink
    /// when a fragment cache is configured). Returns the fault cell the
    /// members' sinks must watch — none for a replay, whose pages come
    /// from a completed, fault-free run — or the error that rejected
    /// the pivot, in which case nothing was spawned.
    fn spawn_pivot(
        core: &mut EngineCore,
        ctx: &mut TaskCtx<'_>,
        gid: u64,
        group: &PendingGroup,
        pivot: &PhysicalPlan,
        mut outs: Vec<Outlet>,
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
        // With a cache configured, one extra consumer captures the
        // pivot's pages for later replay — the pivot pays the same `s`
        // for it as for any member. Under never-share the cache is
        // never consulted, so capturing would be pure overhead: skip it.
        let capture_rx = (core.policy.may_share() && core.fragment_cache.is_some()).then(|| {
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
        if let Some(rx) = capture_rx {
            let entry = CachedFragment::in_flight(
                group.fingerprint.unwrap_or_else(|| fingerprint(pivot)),
                pivot.clone(),
            );
            let ready = entry.ready.clone();
            let fault = res.fault.clone();
            let capture = SinkKernel::new(OpCost::per_tuple(0.0)).collecting(entry.pages.clone());
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
            // The cache was present when the capture channel opened,
            // but a teardown path may have dropped it since; the
            // capture sink then just drains.
            if let Some(cache) = core.fragment_cache.as_mut() {
                cache.insert(entry);
            }
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
                Self::fail_query(core, member.submission, &err);
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
        if let Some(collect) = &core.collect {
            kernel = kernel.collecting(collect[member.submission].clone());
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
            if let Some(err) = faults.iter().find_map(|f| f.get()) {
                core.failures.push((submission, err));
                core.live_queries = core.live_queries.saturating_sub(1);
                return;
            }
            core.completion_records.push((submission, ctx.now()));
            core.live_queries = core.live_queries.saturating_sub(1);
            if core.resubmit {
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
        // Dispatch in arrival order for determinism.
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
