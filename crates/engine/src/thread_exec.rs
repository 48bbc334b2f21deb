//! Batches of copies of one query on OS threads: the shapes the
//! wall-clock benchmark, the examples and the contention re-fit run.
//!
//! There is no second driver here. Each entry point is a configuration
//! of [`crate::run_once_on_threads`]: the engine's dispatcher forms the
//! groups as for a simulated batch, and the run's thread substrate runs
//! them — a query alone through [`wiring::run_local`], a shared pivot
//! once on one thread with each member's fragment on a thread of its
//! own, fed over the OS links of the sharing seam
//! ([`cordoba_exec::ops::Outlet::os`], [`cordoba_exec::ops::Inlet::os`]).
//! Rows are bit-identical to [`crate::run_once`]'s — float bits and row
//! order included.
//!
//! [`wiring::run_local`]: cordoba_exec::wiring::run_local

use crate::{run_once_on_threads, EngineConfig, Policy, QuerySpec};
use cordoba_exec::{ExecError, ParallelConfig};
use cordoba_storage::{Catalog, Value};
use std::time::Duration;

/// Outcome of a threaded run.
#[derive(Debug)]
pub struct ThreadReport {
    /// Result rows per query, in submission order.
    pub results: Vec<Vec<Vec<Value>>>,
    /// Wall-clock duration of the batch.
    pub elapsed: Duration,
}

/// Runs `m` copies of `spec` once on threads under `cfg`: the report of
/// a batch every query of which succeeded, else its first
/// (submission-order) error.
fn copies(
    catalog: &Catalog,
    spec: &QuerySpec,
    m: usize,
    cfg: EngineConfig,
) -> Result<ThreadReport, ExecError> {
    let report = run_once_on_threads(catalog, &vec![spec.clone(); m], &cfg);
    match report.failures.into_iter().next() {
        Some((_, err)) => Err(err),
        None => Ok(ThreadReport {
            results: report.results,
            elapsed: Duration::from_nanos(report.makespan),
        }),
    }
}

/// Executes `m` copies of `spec` without sharing on up to `threads`
/// worker threads, each running the query's operator graph in a private
/// run loop.
///
/// # Panics
///
/// Panics if a query fails (a plan that does not type-check, or a
/// runtime fault such as an unsorted merge input).
#[expect(
    clippy::expect_used,
    reason = "documented '# Panics' contract of this harness entry point"
)]
pub fn run_unshared(catalog: &Catalog, spec: &QuerySpec, m: usize, threads: usize) -> ThreadReport {
    let report = run_unshared_parallel(catalog, spec, m, threads, &ParallelConfig::default());
    report.expect("unshared query failed")
}

/// Executes `m` copies of `spec` without sharing, each query running
/// its operator graph with `parallel.workers` morsel worker threads per
/// parallel fragment. `threads` bounds how many *queries* run
/// concurrently, so total thread pressure is `threads × (1 + fragments
/// × workers)`.
///
/// This is the unshared baseline the contention re-fit measures: the
/// same queries and the same `ops/*` tasks as [`run_unshared`], but
/// each scan → filter → project (→ aggregate) fragment spread across
/// morsel workers instead of a single thread of control.
pub fn run_unshared_parallel(
    catalog: &Catalog,
    spec: &QuerySpec,
    m: usize,
    threads: usize,
    parallel: &ParallelConfig,
) -> Result<ThreadReport, ExecError> {
    let mut cfg = EngineConfig::default();
    (cfg.contexts, cfg.parallel) = (threads.max(1), *parallel);
    copies(catalog, spec, m, cfg)
}

/// Measures unshared throughput (queries per wall-clock second) of the
/// engine's own operator tasks on real threads at each morsel worker
/// count, running one query at a time so the samples isolate
/// *intra*-query scaling.
///
/// Feed the samples to [`cordoba_core::estimate::estimate_k`] to
/// recover the scaling exponent `κ` of `e(k) = k^κ` for this
/// host — the paper's aggregate-bandwidth contention form, fitted on
/// the same operator tasks the simulator prices.
pub fn worker_scaling_samples(
    catalog: &Catalog,
    spec: &QuerySpec,
    repeats: usize,
    worker_counts: &[u32],
) -> Result<Vec<(u32, f64)>, ExecError> {
    let mut samples = Vec::with_capacity(worker_counts.len());
    for &k in worker_counts {
        let cfg = ParallelConfig::with_workers(k.max(1) as usize);
        let report = run_unshared_parallel(catalog, spec, repeats.max(1), 1, &cfg)?;
        let secs = report.elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        samples.push((k.max(1), repeats.max(1) as f64 / secs));
    }
    Ok(samples)
}

/// Executes `m` copies of `spec` with the pivot sub-plan shared: the
/// pivot's operator graph runs once and fans its pages out, a morsel
/// per hand-off, to `m` consumer threads over bounded links. At `m = 1`
/// the copy is a group of one and runs unshared, its whole plan on one
/// thread with no link, so its time holds no sharing seam.
///
/// # Panics
///
/// Panics if `spec` has no pivot, or if a query fails (a plan that does
/// not type-check, or a runtime fault).
#[expect(
    clippy::expect_used,
    reason = "documented '# Panics' contract of this harness entry point"
)]
pub fn run_shared(catalog: &Catalog, spec: &QuerySpec, m: usize) -> ThreadReport {
    spec.pivot.as_ref().expect("shared run needs a pivot");
    let mut cfg = EngineConfig::default();
    (cfg.policy, cfg.max_group) = (Policy::AlwaysShare, m.max(1));
    copies(catalog, spec, m, cfg).expect("shared query failed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_once, Report};
    use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
    use cordoba_exec::ops::{Fanout, Handoff, Inlet, Outlet};
    use cordoba_exec::{reference, FaultCell, JoinKind, OpCost, PhysicalPlan};
    use cordoba_sim::channel::Recv;
    use cordoba_sim::{DetachedCtx, TaskCtx};
    use cordoba_storage::{DataType, Field, Page, PageBuilder, Schema, TableBuilder};
    use std::sync::{mpsc, Arc};

    type Rows = Vec<Vec<Value>>;

    fn kv_schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ])
    }

    /// `t` is sorted on `k` and its `v` sums exactly in any order (the
    /// morsel-parallel tests need that); `u` goes unsorted after 1500
    /// rows (a merge join over it faults mid-stream, with result pages
    /// already out) and its `v` sums are order-sensitive in the last
    /// bits.
    fn catalog() -> Catalog {
        let mut t = TableBuilder::new("t", kv_schema());
        let mut u = TableBuilder::new("u", kv_schema());
        for i in 0..2000 {
            t.push_row(&[Value::Int(i), Value::Float((i % 13) as f64)]);
            let k = if i < 1500 { i } else { i % 97 };
            u.push_row(&[Value::Int(k), Value::Float((i % 13) as f64 * 0.1)]);
        }
        let mut c = Catalog::new();
        c.register(t.finish());
        c.register(u.finish());
        c
    }

    fn scan(table: &str) -> PhysicalPlan {
        PhysicalPlan::Scan {
            table: table.into(),
            cost: OpCost::default(),
        }
    }

    fn sum_v(input: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::Aggregate {
            input: Box::new(input),
            group_by: vec![],
            aggs: vec![("s".into(), Agg::Sum(ScalarExpr::col(1)))],
            cost: OpCost::default(),
        }
    }

    fn below(input: PhysicalPlan, k: i64) -> PhysicalPlan {
        PhysicalPlan::Filter {
            input: Box::new(input),
            predicate: Predicate::col_cmp(0, CmpOp::Lt, k),
            cost: OpCost::default(),
        }
    }

    /// sum(v) over the low keys of `table`, shareable at the scan.
    fn scan_query(table: &str, k: i64) -> QuerySpec {
        QuerySpec::shared_at("sq", sum_v(below(scan(table), k)), scan(table))
    }

    fn query() -> QuerySpec {
        scan_query("t", 1000)
    }

    /// sum(v) over a semi join, shareable at the join.
    fn join_query() -> QuerySpec {
        let join = PhysicalPlan::HashJoin {
            build: Box::new(below(scan("t"), 40)),
            probe: Box::new(scan("u")),
            build_key: 0,
            probe_key: 0,
            kind: JoinKind::Semi,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        QuerySpec::shared_at("jq", sum_v(join.clone()), join)
    }

    fn merge_join(left: &str, right: &str) -> PhysicalPlan {
        PhysicalPlan::MergeJoin {
            left: Box::new(scan(left)),
            right: Box::new(scan(right)),
            left_key: 0,
            right_key: 0,
            cost: OpCost::default(),
        }
    }

    /// Rows with floats replaced by their bit patterns: equality on
    /// these is bit-for-bit, which `Value`'s `==` is not (`-0.0`, NaN).
    fn bits(rows: &Rows) -> Rows {
        let bit = |v: &Value| match v {
            Value::Float(f) => Value::Int(f.to_bits() as i64),
            other => other.clone(),
        };
        rows.iter().map(|r| r.iter().map(bit).collect()).collect()
    }

    /// The serial simulated engine's rows for `spec`: the denominator
    /// every threaded mode must reproduce exactly.
    fn serial_rows(cat: &Catalog, spec: &QuerySpec) -> Rows {
        let mut out = run_once(cat, std::slice::from_ref(spec), &EngineConfig::default());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        out.results.remove(0)
    }

    /// `specs` run once on two threads under `policy`, sharing in one
    /// group. Each query's broker is checked empty as its run returns
    /// (debug builds).
    fn on_threads(cat: &Catalog, specs: &[QuerySpec], policy: Policy) -> Report {
        let cfg = EngineConfig {
            contexts: 2,
            policy,
            max_group: specs.len().max(1),
            ..EngineConfig::default()
        };
        run_once_on_threads(cat, specs, &cfg)
    }

    #[test]
    fn unshared_threads_match_reference() {
        let cat = catalog();
        let expected = reference::execute(&cat, &query().plan);
        let report = run_unshared(&cat, &query(), 4, 2);
        assert_eq!(report.results.len(), 4);
        for r in &report.results {
            assert_eq!(r, &expected);
        }
    }

    #[test]
    fn shared_threads_match_reference() {
        let cat = catalog();
        let expected = reference::execute(&cat, &query().plan);
        let report = run_shared(&cat, &query(), 4);
        assert_eq!(report.results.len(), 4);
        for r in &report.results {
            assert_eq!(r, &expected);
        }
    }

    /// A catalog whose `t` holds `rows` rows (256 to the page) with
    /// order-sensitive `v` sums.
    fn sized_catalog(rows: i64) -> Catalog {
        let mut t = TableBuilder::new("t", kv_schema());
        for i in 0..rows {
            t.push_row(&[Value::Int(i), Value::Float((i % 13) as f64 * 0.1)]);
        }
        let mut c = Catalog::new();
        c.register(t.finish());
        c
    }

    /// `m` copies of `spec`, unshared on two threads and shared in one
    /// group, reproduce the serial engine's rows at each `m`.
    fn assert_bit_identical(cat: &Catalog, spec: &QuerySpec, ms: &[usize]) {
        let want = bits(&serial_rows(cat, spec));
        for &m in ms {
            for (policy, groups) in [(Policy::NeverShare, m), (Policy::AlwaysShare, m.min(1))] {
                let report = on_threads(cat, &vec![spec.clone(); m], policy);
                assert!(report.failures.is_empty(), "{:?}", report.failures);
                assert_eq!(
                    (report.results.len(), report.group_sizes.len()),
                    (m, groups)
                );
                for rows in &report.results {
                    assert_eq!(bits(rows), want, "{} m={m}", spec.name);
                }
            }
        }
    }

    #[test]
    fn threads_reproduce_the_serial_engine_bit_for_bit() {
        let cat = catalog();
        let q = scan_query("u", 50);
        let whole = QuerySpec::shared_at("whole", q.plan.clone(), q.plan.clone());
        for spec in [q, join_query(), whole] {
            assert_bit_identical(&cat, &spec, &[1, 2, 4]);
        }
        // A scan pivot of every length the hand-off can meet: empty, one
        // page, and 0, 1 and `morsel_pages - 1` pages beyond a full
        // morsel.
        let mp = ParallelConfig::default().morsel_pages;
        for pages in [0, 1, mp - 1, mp, mp + 1, 2 * mp - 1, 2 * mp] {
            let cat = sized_catalog(256 * pages as i64 - pages.min(1) as i64);
            assert_eq!(cat.expect("t").pages().len(), pages);
            assert_bit_identical(&cat, &scan_query("t", 1 << 20), &[1, 3]);
        }
    }

    #[test]
    fn pivot_fault_fails_every_consumer() {
        // The pivot merge-joins `u`, which goes unsorted after 1500
        // rows: it faults with join pages already delivered. No consumer
        // may return the rows it computed from the truncated stream.
        let cat = catalog();
        let pivot = merge_join("u", "t");
        let spec = QuerySpec::shared_at("bad", sum_v(pivot.clone()), pivot);
        let report = on_threads(&cat, &vec![spec.clone(); 3], Policy::AlwaysShare);
        assert_eq!(
            (report.group_sizes.as_slice(), report.failures.len()),
            (&[3][..], 3)
        );
        for (_, r) in &report.failures {
            assert!(
                matches!(r, ExecError::UnsortedMergeInput { side: "left", .. }),
                "{r:?}"
            );
        }
        // Unshared, the same plan fails the same way, per query.
        let report = on_threads(&cat, &[spec.clone(), spec], Policy::NeverShare);
        assert_eq!(report.failures.len(), 2);
        for (_, r) in &report.failures {
            assert!(matches!(r, ExecError::UnsortedMergeInput { .. }), "{r:?}");
        }
    }

    #[test]
    fn consumer_fault_leaves_its_peers_exact() {
        let cat = catalog();
        let pivot = scan("u");
        let member = |plan| QuerySpec {
            name: "m".into(),
            plan,
            pivot: Some(pivot.clone()),
            chaos: None,
        };
        let good = sum_v(pivot.clone());
        // Faults at run time, above the pivot: its left input (the
        // shared scan of `u`) is unsorted.
        let faulty = merge_join("u", "t");
        // Never starts: the pivot does not occur in it, so its split
        // fails at dispatch and the pivot feeds its peers alone.
        let foreign = scan("t");
        let specs = [good.clone(), faulty, foreign, good.clone()].map(member);
        let report = on_threads(&cat, &specs, Policy::AlwaysShare);
        assert_eq!(report.group_sizes, [4]);
        let want = bits(&serial_rows(&cat, &QuerySpec::unshared("good", good)));
        assert_eq!(bits(&report.results[0]), want);
        assert_eq!(bits(&report.results[3]), want);
        let [(1, ref faulty), (2, ref foreign)] = report.failures[..] else {
            panic!("{:?}", report.failures);
        };
        assert!(
            matches!(faulty, ExecError::UnsortedMergeInput { side: "left", .. }),
            "{faulty:?}"
        );
        assert!(matches!(foreign, ExecError::PlanType(_)), "{foreign:?}");
    }

    #[test]
    #[should_panic(expected = "shared query failed")]
    fn run_shared_panics_on_a_failed_query() {
        let pivot = merge_join("u", "t");
        let spec = QuerySpec::shared_at("bad", sum_v(pivot.clone()), pivot);
        run_shared(&catalog(), &spec, 2);
    }

    #[test]
    fn parallel_unshared_matches_reference_at_each_worker_count() {
        let cat = catalog();
        let expected = reference::execute(&cat, &query().plan);
        for workers in [1usize, 4] {
            let cfg = ParallelConfig::with_workers(workers);
            let report = run_unshared_parallel(&cat, &query(), 3, 2, &cfg).unwrap();
            assert_eq!(report.results.len(), 3);
            for r in &report.results {
                assert_eq!(r, &expected, "workers={workers}");
            }
        }
    }

    #[test]
    fn worker_scaling_samples_cover_requested_counts() {
        let cat = catalog();
        let samples = worker_scaling_samples(&cat, &query(), 2, &[1, 2]).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].0, 1);
        assert_eq!(samples[1].0, 2);
        for (k, x) in samples {
            assert!(x > 0.0, "throughput at k={k} must be positive, got {x}");
        }
    }

    #[test]
    fn no_consumer_means_the_pivot_does_not_run() {
        // Both members lack the join pivot, so both fail at dispatch.
        // Their group is not handed over, so its pivot never runs: the
        // runner asserts (debug builds) that every group it is handed
        // has a member, and `run::tests` checks nothing was handed over.
        let (cat, spec) = (catalog(), join_query());
        let stray = QuerySpec {
            plan: scan("t"),
            ..spec.clone()
        };
        let report = on_threads(&cat, &[stray.clone(), stray], Policy::AlwaysShare);
        assert_eq!(
            (report.group_sizes.as_slice(), report.completed),
            (&[2][..], 0)
        );
        for (_, err) in &report.failures {
            assert!(
                err.to_string().contains("pivot sub-plan not found"),
                "{err}"
            );
        }
        assert!(run_shared(&cat, &spec, 0).results.is_empty());
    }

    /// Pages per hand-off of the seams below.
    const MORSEL: usize = 4;

    /// `n` distinct one-row pages.
    fn pivot_pages(n: usize) -> Vec<Arc<Page>> {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        (0..n)
            .map(|i| {
                let mut b = PageBuilder::new(schema.clone());
                b.push_row(&[Value::Int(i as i64)]);
                b.finish()
            })
            .collect()
    }

    /// A seam stepped by hand: the pivot root's fan-out over one link
    /// per consumer, the pivot's fault cell, and `produce`'s own
    /// senders; the consumers' receiving ends go to the caller.
    struct Seam {
        fanout: Fanout,
        fault: FaultCell,
        txs: Vec<mpsc::SyncSender<Handoff>>,
    }

    fn seam(consumers: usize, morsel_pages: usize) -> (Seam, Vec<mpsc::Receiver<Handoff>>) {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..consumers).map(|_| mpsc::sync_channel(16)).unzip();
        let fault = FaultCell::default();
        let outs = txs
            .iter()
            .map(|tx| Outlet::os(tx.clone(), morsel_pages, &fault))
            .collect();
        let fanout = Fanout::new(outs, 0.0);
        (Seam { fanout, fault, txs }, rxs)
    }

    impl Seam {
        /// The pivot's root delivers `pages`, one per step.
        fn emit(&mut self, pages: &[Arc<Page>], ctx: &mut TaskCtx<'_>) {
            for page in pages {
                self.fanout.extend(&mut vec![page.clone()]);
                assert!(self.fanout.flush(ctx).1, "an OS link is never full");
            }
        }

        /// As `produce` ends: the run's ports go (with whatever they
        /// were gathering), then the pivot's error if it failed, then
        /// the hang-up.
        fn finish(self) {
            drop(self.fanout);
            if let Some(err) = self.fault.take() {
                for tx in &self.txs {
                    let _ = tx.send(Err(err.clone()));
                }
            }
        }
    }

    /// Reads `inlet` to its end as the port of a consumer's operator:
    /// the pages it fed, how many reads that took, and the pivot's error
    /// if one ended it.
    fn read_all(
        mut inlet: Inlet,
        ctx: &mut TaskCtx<'_>,
    ) -> (Vec<Arc<Page>>, usize, Option<ExecError>) {
        let (mut fed, mut reads) = (Vec::new(), 0);
        loop {
            reads += 1;
            match inlet.recv(ctx) {
                Ok(Recv::Value(page)) => fed.push(page),
                Ok(Recv::Closed) => return (fed, reads, None),
                Ok(Recv::Empty) => panic!("an OS link blocks instead"),
                Err(err) => return (fed, reads, Some(err)),
            }
        }
    }

    fn same_pages(got: &[Arc<Page>], want: &[Arc<Page>]) -> bool {
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| Arc::ptr_eq(g, w))
    }

    #[test]
    fn the_seam_hands_off_whole_morsels_and_the_partial_tail() {
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        for n in [
            0,
            1,
            MORSEL - 1,
            MORSEL,
            MORSEL + 1,
            2 * MORSEL - 1,
            2 * MORSEL,
        ] {
            let pages = pivot_pages(n);
            let (mut seam, mut rxs) = seam(2, MORSEL);
            seam.emit(&pages, ctx);
            seam.fanout.close(ctx);
            seam.finish();
            // One consumer's raw link: full morsels, then the tail,
            // never an empty hand-off.
            let raw = rxs.remove(0);
            let handoffs: Vec<_> = raw.try_iter().map(|h| h.expect("no fault")).collect();
            let sizes: Vec<_> = handoffs.iter().map(Vec::len).collect();
            let mut want = vec![MORSEL; n / MORSEL];
            want.extend((n % MORSEL > 0).then_some(n % MORSEL));
            assert_eq!(sizes, want, "n={n}");
            assert!(same_pages(&handoffs.concat(), &pages), "n={n}");
            // The other's port: the same pages (not copies), one per
            // read, then end-of-stream.
            let port = Inlet::os(rxs.remove(0), &FaultCell::default());
            let (fed, reads, fault) = read_all(port, ctx);
            assert!(same_pages(&fed, &pages), "n={n}");
            assert_eq!(reads, n + 1, "n={n}");
            assert!(fault.is_none(), "n={n}");
        }
    }

    #[test]
    fn a_hung_up_consumer_is_dropped_at_the_next_hand_off() {
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        let pages = pivot_pages(3 * MORSEL);
        // How many outlets are gathering a page: its strong count less
        // the test's own.
        let gathering = |page: &Arc<Page>| Arc::strong_count(page) - 1;
        let (mut seam, mut rxs) = seam(2, MORSEL);
        let peer = rxs.remove(1);
        let failed = FaultCell::default();
        let mut port = Inlet::os(rxs.remove(0), &failed);
        seam.emit(&pages[..MORSEL], ctx);
        // Consumer 0's query fails after the first hand-off, in an
        // operator other than the one reading the link: its port reads
        // as closed, the morsel in hand unread, and hangs up. Nothing
        // tells the fan-out until the next hand-off; from then on the
        // peer alone is served, exactly.
        failed.set(ExecError::plan("consumer broke"));
        assert!(matches!(port.recv(ctx), Ok(Recv::Closed)));
        seam.emit(&pages[MORSEL..2 * MORSEL - 1], ctx);
        assert_eq!(gathering(&pages[MORSEL]), 2);
        seam.emit(&pages[2 * MORSEL - 1..=2 * MORSEL], ctx);
        assert_eq!(gathering(&pages[2 * MORSEL]), 1, "the peer's outlet only");
        let got: Vec<_> = peer.try_iter().map(|h| h.expect("no fault")).collect();
        assert!(same_pages(&got.concat(), &pages[..2 * MORSEL]));
        // The last consumer goes: nothing tells the fan-out until the
        // next morsel is full, and then it reports that nobody listens,
        // which the pivot root's shell takes as the end of its output.
        drop(peer);
        seam.emit(&pages[2 * MORSEL + 1..3 * MORSEL - 1], ctx);
        assert!(!seam.fanout.is_unheard());
        seam.emit(&pages[3 * MORSEL - 1..3 * MORSEL], ctx);
        assert_eq!(gathering(&pages[3 * MORSEL - 1]), 0);
        assert!(seam.fanout.is_unheard(), "the pivot is cancelled");
    }

    #[test]
    fn a_pivot_fault_discards_the_morsel_in_hand() {
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        let pages = pivot_pages(MORSEL + 2);
        let (mut seam, mut rxs) = seam(1, MORSEL);
        let inlet = Inlet::os(rxs.remove(0), &FaultCell::default());
        // One full hand-off is out and two pages are in hand when the
        // pivot faults and its root ends the stream, as a failing
        // operator's shell does.
        seam.emit(&pages, ctx);
        let err = ExecError::plan("pivot broke");
        seam.fault.set(err.clone());
        seam.fanout.close(ctx);
        seam.finish();
        // The consumer was fed the first morsel and nothing of the
        // second, and its query fails with the pivot's error.
        let (fed, _, fault) = read_all(inlet, ctx);
        assert!(same_pages(&fed, &pages[..MORSEL]));
        assert_eq!(fault, Some(err));
    }

    /// Model check of the batched seam, in the manner of
    /// `crates/sim/tests/model_channel.rs`: the producer thread and each
    /// consumer thread are step machines, and every merge order of their
    /// steps must leave each consumer that stayed with either the
    /// pivot's complete page sequence, in order, then end-of-stream — or
    /// the pivot's error. A truncated stream that reads as end-of-stream
    /// is the bug this guards against.
    mod seam_model {
        use super::*;
        use shuttle_lite::explore::{count, interleavings};

        /// Pages per hand-off, and pages a healthy pivot emits: one full
        /// hand-off, then a partial one that only its close flushes.
        const MORSEL: usize = 2;
        const PAGES: usize = 3;

        /// One consumer thread, reading its link through the port of
        /// the operator above its `Source` leaf. A thread blocked in
        /// `recv` makes no progress, so a step that would park is
        /// skipped; to know which steps would, the link ends at `tap`
        /// and a hand-off crosses to the port's own link (`wire`) only
        /// at the step that needs it.
        struct Consumer {
            tap: mpsc::Receiver<Handoff>,
            wire: Option<mpsc::SyncSender<Handoff>>,
            port: Inlet,
            /// Reads the hand-offs crossed so far still hold.
            unread: usize,
            fed: Vec<Arc<Page>>,
            fault: Option<ExecError>,
            done: bool,
        }

        impl Consumer {
            fn new(tap: mpsc::Receiver<Handoff>) -> Self {
                let (wire, rx) = mpsc::sync_channel(1);
                Consumer {
                    tap,
                    wire: Some(wire),
                    port: Inlet::os(rx, &FaultCell::default()),
                    unread: 0,
                    fed: Vec::new(),
                    fault: None,
                    done: false,
                }
            }

            fn step(&mut self, ctx: &mut TaskCtx<'_>) {
                if self.done {
                    return;
                }
                if self.unread == 0 {
                    match self.tap.try_recv() {
                        Ok(handoff) => {
                            self.unread = handoff.as_ref().map_or(1, Vec::len);
                            let wire = self.wire.as_ref().expect("the pivot has not hung up");
                            wire.send(handoff).expect("the port listens");
                        }
                        Err(mpsc::TryRecvError::Empty) => return,
                        Err(mpsc::TryRecvError::Disconnected) => self.wire = None,
                    }
                }
                match self.port.recv(ctx) {
                    Ok(Recv::Value(page)) => {
                        self.fed.push(page);
                        self.unread -= 1;
                    }
                    Ok(Recv::Closed) => self.done = true,
                    Ok(Recv::Empty) => panic!("an OS link blocks instead"),
                    Err(err) => (self.fault, self.done) = (Some(err), true),
                }
            }
        }

        /// The producer thread: `emitted` pages, then the pivot's root
        /// ends the stream — after it faulted, if `faulty` — then
        /// `produce`'s tail.
        struct Producer {
            seam: Option<Seam>,
            pages: Vec<Arc<Page>>,
            emitted: usize,
            faulty: bool,
            op: usize,
        }

        impl Producer {
            fn step(&mut self, ctx: &mut TaskCtx<'_>) {
                let Some(seam) = &mut self.seam else {
                    return;
                };
                if self.op < self.emitted {
                    seam.emit(&self.pages[self.op..=self.op], ctx);
                } else if self.op == self.emitted {
                    if self.faulty {
                        seam.fault.set(ExecError::plan("pivot broke"));
                    }
                    seam.fanout.close(ctx);
                } else {
                    self.seam.take().expect("checked above").finish();
                }
                self.op += 1;
            }
        }

        /// Explores every interleaving of one producer (`emitted + 2`
        /// ops) and two consumers; consumer 0 hangs up at its op
        /// `hang_up`, if given. Returns how many were explored.
        fn explore(emitted: usize, faulty: bool, hang_up: Option<usize>) -> usize {
            let lens = [emitted + 2, 3, 4];
            let pages = pivot_pages(PAGES);
            let (explored, exhausted) = interleavings(&lens, usize::MAX, |seq| {
                let mut detached = DetachedCtx::new();
                let ctx = &mut detached.ctx(0);
                let (seam, taps) = seam(2, MORSEL);
                let mut producer = Producer {
                    seam: Some(seam),
                    pages: pages.clone(),
                    emitted,
                    faulty,
                    op: 0,
                };
                let mut consumers: Vec<_> = taps
                    .into_iter()
                    .map(|tap| Some(Consumer::new(tap)))
                    .collect();
                let mut ops = [0usize; 3];
                for &t in seq {
                    match t {
                        0 => producer.step(ctx),
                        c => {
                            if c == 1 && hang_up == Some(ops[1]) {
                                // Its own failure: the thread ends and
                                // drops its end of the link.
                                consumers[0] = None;
                            }
                            if let Some(consumer) = &mut consumers[c - 1] {
                                consumer.step(ctx);
                            }
                        }
                    }
                    ops[t] += 1;
                }
                // Nothing is left to race: run each thread to its end.
                while producer.seam.is_some() {
                    producer.step(ctx);
                }
                for consumer in consumers.iter_mut().flatten() {
                    while !consumer.done {
                        consumer.step(ctx);
                    }
                    let fed = &consumer.fed;
                    match &consumer.fault {
                        Some(err) => assert!(faulty, "seq {seq:?}: {err} from a healthy pivot"),
                        None => {
                            assert!(!faulty, "seq {seq:?}: a failed pivot read as end-of-stream");
                            assert!(
                                same_pages(fed, &pages[..emitted]),
                                "seq {seq:?}: truncated or reordered: {} of {emitted} pages",
                                fed.len()
                            );
                        }
                    }
                    // Whatever was fed is a prefix of the pivot's output.
                    assert!(same_pages(fed, &pages[..fed.len()]), "seq {seq:?}");
                }
            });
            assert!(exhausted);
            assert_eq!(explored, count(&lens));
            explored
        }

        /// The acceptance floor per scenario, as in the channel suite.
        const MIN_INTERLEAVINGS: usize = 1_000;

        #[test]
        fn flush_on_close_delivers_the_partial_tail_to_everyone() {
            assert!(explore(PAGES, false, None) >= MIN_INTERLEAVINGS);
        }

        #[test]
        fn a_consumer_hang_up_leaves_its_peer_exact() {
            // Before its first hand-off, between the two, and after both.
            for at in 0..3 {
                assert!(explore(PAGES, false, Some(at)) >= MIN_INTERLEAVINGS);
            }
        }

        #[test]
        fn a_pivot_fault_reaches_every_consumer_as_an_error() {
            // With nothing, a partial morsel, and a just-flushed morsel
            // in the fan-out's hand; and with a consumer leaving too.
            for emitted in 0..=PAGES {
                assert!(explore(emitted, true, None) >= MIN_INTERLEAVINGS);
            }
            assert!(explore(PAGES, true, Some(1)) >= MIN_INTERLEAVINGS);
        }
    }
}
