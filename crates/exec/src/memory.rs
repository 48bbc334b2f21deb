//! Per-query memory broker: grant/release accounting with an optional
//! hard budget.
//!
//! Every memory-hungry operator in a query shares one [`MemoryBroker`].
//! Before buffering input (a sort's page list, a join's build arena)
//! the operator asks the broker for a grant; a refused grant is the
//! signal to spill — convert buffered state to a [spill
//! file](cordoba_storage::spill) and release the grant — instead of
//! growing. The broker also records the high-water mark, which is what
//! the acceptance criterion "peak tracked memory ≤ 1.25 × budget" is
//! measured against.
//!
//! # Spill streams
//!
//! What an operator spills to is a stream it opens through
//! `SpillContext::io`, and a stream's memory is its **frame** (see
//! [`cordoba_storage::spill`]): `SpillIo::create` / `open` grant the
//! frame for the life of the stream and finishing or dropping the
//! stream returns it, so an open stream is on the books for exactly as
//! long as it exists and no operator accounts for a stream buffer
//! itself. How many pages a frame gets is not configured but derived
//! where the stream is opened, from the budget, what is left of it and
//! the number of streams the operator is about to hold open at once
//! (`SpillContext::frame_pages`); operators then fit themselves in
//! beside their frames (`SpillContext::grant_beside`).
//!
//! The account is lock-free atomic state behind an `Arc`, so one
//! broker can serve operator graphs running on several OS threads
//! (`engine::thread_exec` charges a whole batch to one) as well as the
//! single-threaded simulator; clones share the same account. Single-threaded `peak()`
//! semantics are unchanged: with one caller, `peak` is exactly the
//! maximum of `used` over the grant history.

use crate::error::{ExecError, FaultCell};
use cordoba_storage::spill::{self, SpillFile, SpillReader, SpillWriter, MAX_FRAME_PAGES};
use cordoba_storage::{Page, Schema, PAGE_SIZE};
use std::io;
use std::path::PathBuf;
// std re-exports in normal builds; model-checked shims under
// `--features model` (see tests/model_check.rs).
use shuttle_lite::sync::atomic::{AtomicUsize, Ordering};
use shuttle_lite::sync::Arc;

#[derive(Debug, Default)]
struct BrokerState {
    budget: Option<usize>,
    used: AtomicUsize,
    peak: AtomicUsize,
    /// Bytes of the spill streams finished on this account.
    spilled: AtomicUsize,
}

impl BrokerState {
    /// Raises `peak` to at least `used` (monotone CAS loop).
    fn bump_peak(&self, used: usize) {
        let mut peak = self.peak.load(Ordering::Relaxed);
        while used > peak {
            match self
                .peak
                .compare_exchange_weak(peak, used, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(observed) => peak = observed,
            }
        }
    }
}

/// Shared per-query memory account: an operator asks it for a grant
/// before buffering, and a refused grant is the signal to spill.
#[derive(Debug, Clone, Default)]
pub struct MemoryBroker(Arc<BrokerState>);

impl MemoryBroker {
    /// A broker with no budget: every grant succeeds, usage is still
    /// tracked. This is the default and preserves the pre-broker
    /// behaviour (operators never spill).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A broker that refuses grants past `bytes` of tracked memory.
    pub fn with_budget(bytes: usize) -> Self {
        MemoryBroker(Arc::new(BrokerState {
            budget: Some(bytes),
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            spilled: AtomicUsize::new(0),
        }))
    }

    /// The configured budget, if any.
    pub(crate) fn budget(&self) -> Option<usize> {
        self.0.budget
    }

    /// Requests `bytes`. Returns `false` (and grants nothing) if the
    /// request would push tracked usage past the budget — the caller
    /// should spill and retry or fall back to [`MemoryBroker::grant`].
    /// Safe under concurrent workers: the budget check and the charge
    /// are one atomic compare-exchange, so racing grants can never
    /// jointly overshoot the budget.
    pub fn try_grant(&self, bytes: usize) -> bool {
        self.try_grant_leaving(bytes, 0)
    }

    /// [`MemoryBroker::try_grant`], refused unless `headroom` more
    /// bytes would still fit afterwards: how an operator keeps room for
    /// the frame of the stream it will spill to.
    fn try_grant_leaving(&self, bytes: usize, headroom: usize) -> bool {
        let granted = self
            .0
            .used
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |used| {
                let next = used.saturating_add(bytes);
                match self.0.budget {
                    Some(budget) if next.saturating_add(headroom) > budget => None,
                    _ => Some(next),
                }
            });
        match granted {
            Ok(prev) => {
                self.0.bump_peak(prev.saturating_add(bytes));
                true
            }
            Err(_) => false,
        }
    }

    /// Takes `bytes` unconditionally, still tracked against the peak.
    /// For fixed overheads that spilling cannot eliminate (the frame of
    /// an open spill stream).
    pub fn grant(&self, bytes: usize) {
        let prev = self.0.used.fetch_add(bytes, Ordering::AcqRel);
        self.0.bump_peak(prev.saturating_add(bytes));
    }

    /// Returns `bytes` to the account.
    pub fn release(&self, bytes: usize) {
        // Saturating decrement: a release can never underflow the
        // account even if callers double-release under a race.
        let _ = self
            .0
            .used
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |used| {
                Some(used.saturating_sub(bytes))
            });
    }

    /// Currently granted bytes.
    pub fn used(&self) -> usize {
        self.0.used.load(Ordering::Acquire)
    }

    /// High-water mark of granted bytes over the broker's lifetime.
    pub fn peak(&self) -> usize {
        self.0.peak.load(Ordering::Acquire)
    }

    /// Bytes written to spill files on this account, each file counted
    /// once, when its stream is finished.
    pub fn spilled(&self) -> usize {
        self.0.spilled.load(Ordering::Acquire)
    }
}

/// Memory policy applied to every query a wiring config instantiates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Per-query budget in bytes; `None` means unbounded (operators
    /// buffer everything in memory, as before the broker existed).
    pub query_budget: Option<usize>,
    /// Directory for spill files; `None` uses the system temp dir.
    pub spill_dir: Option<PathBuf>,
}

impl MemoryConfig {
    /// Builds a fresh broker honouring this config's budget.
    pub fn broker(&self) -> MemoryBroker {
        match self.query_budget {
            Some(b) => MemoryBroker::with_budget(b),
            None => MemoryBroker::unbounded(),
        }
    }
}

/// Everything an out-of-core operator needs to spill: the query's
/// memory account, its fault slot, and where spill files go.
#[derive(Debug, Clone)]
pub struct SpillContext {
    /// The query's shared memory account.
    pub broker: MemoryBroker,
    /// The query's shared fault slot.
    pub fault: FaultCell,
    /// Directory spill files are created in.
    pub dir: PathBuf,
}

impl SpillContext {
    /// Binds `cfg`'s policy to one query's broker and fault cell.
    pub(crate) fn new(cfg: &MemoryConfig, broker: MemoryBroker, fault: FaultCell) -> Self {
        SpillContext {
            broker,
            fault,
            dir: cfg.spill_dir.clone().unwrap_or_else(std::env::temp_dir),
        }
    }

    /// Spill-file I/O on behalf of operator `op`.
    pub(crate) fn io(&self, op: &'static str) -> SpillIo<'_> {
        SpillIo { ctx: self, op }
    }

    /// Pages in the frame of each of the `streams` spill streams an
    /// operator is about to hold open at once: together the frames take
    /// at most half the budget and no more than what is left of it,
    /// each at least a page and at most [`MAX_FRAME_PAGES`].
    pub(crate) fn frame_pages(&self, streams: usize) -> usize {
        let budget = self.broker.budget().unwrap_or(usize::MAX);
        let left = budget.saturating_sub(self.broker.used());
        ((budget / 2).min(left) / PAGE_SIZE / streams.max(1)).clamp(1, MAX_FRAME_PAGES)
    }

    /// Requests `bytes` for what an operator buffers, refused unless
    /// the frame of the stream it would spill that to — `pages` pages
    /// of `schema` rows — still fits afterwards.
    pub(crate) fn grant_beside(&self, bytes: usize, schema: &Schema, pages: usize) -> bool {
        let frame = spill::frame_bytes(schema, pages);
        self.broker.try_grant_leaving(bytes, frame)
    }

    /// An unbounded context (never spills) — the default for direct
    /// operator construction in tests and benches.
    pub fn unbounded() -> Self {
        SpillContext::new(
            &MemoryConfig::default(),
            MemoryBroker::unbounded(),
            FaultCell::default(),
        )
    }

    /// A context with a `bytes` budget and default policy, spilling to
    /// the system temp dir.
    pub fn with_budget(bytes: usize) -> Self {
        SpillContext::new(
            &MemoryConfig::default(),
            MemoryBroker::with_budget(bytes),
            FaultCell::default(),
        )
    }
}

impl Default for SpillContext {
    fn default() -> Self {
        SpillContext::unbounded()
    }
}

/// An open spill stream and the grant for its frame, taken when the
/// stream was opened and returned when it is finished or dropped —
/// whoever holds the stream holds its memory, and nobody else accounts
/// for it.
pub(crate) struct Framed<S> {
    stream: S,
    _frame: FrameGrant,
}

/// A row stream being written.
pub(crate) type SpillStream = Framed<SpillWriter>;
/// A sealed stream being read back.
pub(crate) type SpillCursor = Framed<SpillReader>;

struct FrameGrant {
    broker: MemoryBroker,
    bytes: usize,
}

impl Drop for FrameGrant {
    fn drop(&mut self) {
        self.broker.release(self.bytes);
    }
}

/// The spill-file operations of one operator, each failure typed as an
/// [`ExecError::Spill`] naming it: the one place an I/O error of the
/// spill path becomes a query fault, and the one place a stream's frame
/// is granted.
pub(crate) struct SpillIo<'a> {
    ctx: &'a SpillContext,
    op: &'static str,
}

impl SpillIo<'_> {
    /// Types the failure of a spill-file operation.
    fn typed<T>(&self, result: io::Result<T>) -> Result<T, ExecError> {
        result.map_err(|e| ExecError::spill(self.op, e))
    }

    /// The stream just opened, if it was, with `bytes` granted for its
    /// frame.
    fn framed<S>(&self, bytes: usize, opened: io::Result<S>) -> Result<Framed<S>, ExecError> {
        let stream = self.typed(opened)?;
        let broker = self.ctx.broker.clone();
        broker.grant(bytes);
        let _frame = FrameGrant { broker, bytes };
        Ok(Framed { stream, _frame })
    }

    /// A new row stream for rows of `schema`, with a granted frame of
    /// `frame_pages` pages (see [`SpillContext::frame_pages`]).
    #[expect(
        clippy::disallowed_methods,
        reason = "a stream opens where its frame is granted"
    )]
    pub(crate) fn create(
        &self,
        schema: std::sync::Arc<Schema>,
        frame_pages: usize,
    ) -> Result<SpillStream, ExecError> {
        let bytes = spill::frame_bytes(&schema, frame_pages);
        let opened = SpillWriter::create_framed(&self.ctx.dir, schema, frame_pages);
        self.framed(bytes, opened)
    }

    /// Appends one row ([`SpillWriter::push_row`]).
    pub(crate) fn push(&self, to: &mut SpillStream, row: &[u8]) -> Result<(), ExecError> {
        self.typed(to.stream.push_row(row))
    }

    /// Appends `rows` contiguous rows as records of their own
    /// ([`SpillWriter::write_raw_rows`]).
    pub(crate) fn push_rows(
        &self,
        to: &mut SpillStream,
        payload: &[u8],
        rows: usize,
    ) -> Result<(), ExecError> {
        self.typed(to.stream.write_raw_rows(payload, rows))
    }

    /// Seals a stream for reading, counting its bytes as spilled; its
    /// frame goes back.
    pub(crate) fn finish(&self, stream: SpillStream) -> Result<SpillFile, ExecError> {
        let file = self.typed(stream.stream.finish())?;
        let bytes = file.bytes() as usize;
        self.ctx.broker.0.spilled.fetch_add(bytes, Ordering::AcqRel);
        Ok(file)
    }

    /// Opens a sealed stream with a granted frame of `frame_pages`
    /// pages. The grant covers the page in hand: all but one of the
    /// frame's pages buffer the file, the last is the page
    /// [`SpillIo::next_page`] hands out. A cursor cannot do with less
    /// than a page of each, so under a one-page frame it holds, and is
    /// granted, two.
    #[expect(
        clippy::disallowed_methods,
        reason = "a stream opens where its frame is granted"
    )]
    pub(crate) fn open(
        &self,
        file: SpillFile,
        frame_pages: usize,
    ) -> Result<SpillCursor, ExecError> {
        let buffered = frame_pages.saturating_sub(1).max(1);
        let bytes = spill::frame_bytes(file.schema(), buffered + 1);
        self.framed(bytes, file.into_reader_framed(buffered))
    }

    /// The next page of an open stream, `None` at its end.
    pub(crate) fn next_page(
        &self,
        from: &mut SpillCursor,
    ) -> Result<Option<std::sync::Arc<Page>>, ExecError> {
        self.typed(from.stream.next_page())
    }
}

/// The per-query runtime resources the wiring layer threads through a
/// plan: one fault slot and one memory account shared by every
/// operator of the query.
#[derive(Debug, Clone, Default)]
pub struct QueryResources {
    /// Shared fault slot — first runtime error wins.
    pub fault: FaultCell,
    /// Shared memory account.
    pub broker: MemoryBroker,
}

impl QueryResources {
    /// Fresh resources honouring `cfg`'s budget.
    pub fn for_config(cfg: &MemoryConfig) -> Self {
        QueryResources {
            fault: FaultCell::default(),
            broker: cfg.broker(),
        }
    }

    /// Fresh resources (own fault slot) charging an existing account —
    /// for executors that run several operator graphs against one
    /// broker.
    pub fn charging(broker: &MemoryBroker) -> Self {
        QueryResources {
            fault: FaultCell::default(),
            broker: broker.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_broker_grants_everything() {
        let b = MemoryBroker::unbounded();
        assert!(b.try_grant(usize::MAX / 2));
        assert_eq!(b.budget(), None);
        assert_eq!(b.used(), usize::MAX / 2);
    }

    #[test]
    fn budget_refuses_over_limit_grants() {
        let b = MemoryBroker::with_budget(100);
        assert!(b.try_grant(60));
        assert!(!b.try_grant(50), "60 + 50 > 100");
        assert_eq!(b.used(), 60, "refused grant must not be charged");
        assert!(b.try_grant(40));
        assert_eq!(b.used(), 100);
    }

    #[test]
    fn release_frees_capacity_and_peak_sticks() {
        let b = MemoryBroker::with_budget(100);
        assert!(b.try_grant(80));
        b.release(80);
        assert_eq!(b.used(), 0);
        assert!(b.try_grant(90));
        assert_eq!(b.peak(), 90);
        b.release(90);
        assert_eq!(b.peak(), 90, "peak is a high-water mark");
    }

    #[test]
    fn forced_grant_exceeds_budget_but_is_tracked() {
        let b = MemoryBroker::with_budget(10);
        b.grant(25);
        assert_eq!(b.used(), 25);
        assert_eq!(b.peak(), 25);
        assert!(!b.try_grant(1));
    }

    #[test]
    fn clones_share_the_account() {
        let b = MemoryBroker::with_budget(100);
        let c = b.clone();
        assert!(b.try_grant(70));
        assert!(!c.try_grant(40));
        c.release(70);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn config_builds_matching_broker() {
        let cfg = MemoryConfig {
            query_budget: Some(4096),
            ..MemoryConfig::default()
        };
        assert_eq!(cfg.broker().budget(), Some(4096));
        assert_eq!(MemoryConfig::default().broker().budget(), None);
    }

    #[test]
    fn concurrent_grants_never_overshoot_the_budget() {
        // 8 workers hammer try_grant/release; the atomic
        // check-and-charge must keep tracked usage (and therefore the
        // peak) within the budget at every instant.
        let budget = 1000usize;
        let b = MemoryBroker::with_budget(budget);
        std::thread::scope(|scope| {
            for w in 0..8usize {
                let b = b.clone();
                scope.spawn(move || {
                    let chunk = 50 + 25 * (w % 4);
                    let mut held = Vec::new();
                    for _ in 0..200 {
                        if b.try_grant(chunk) {
                            assert!(b.used() <= budget, "used overshot budget");
                            held.push(chunk);
                        } else if let Some(bytes) = held.pop() {
                            b.release(bytes);
                        }
                    }
                    for bytes in held {
                        b.release(bytes);
                    }
                });
            }
        });
        assert_eq!(b.used(), 0, "all grants returned");
        assert!(b.peak() <= budget, "peak {} within budget", b.peak());
        assert!(b.peak() > 0, "some grant succeeded");
    }

    #[test]
    fn concurrent_forced_grants_account_exactly() {
        let b = MemoryBroker::unbounded();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let b = b.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        b.grant(3);
                    }
                });
            }
        });
        assert_eq!(b.used(), 12_000);
        assert_eq!(b.peak(), 12_000);
    }

    #[test]
    fn spill_context_defaults_to_temp_dir() {
        let ctx = SpillContext::unbounded();
        assert_eq!(ctx.dir, std::env::temp_dir());
    }
}
