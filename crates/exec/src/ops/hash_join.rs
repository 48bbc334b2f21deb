//! Hash join: blocking build over one input, pipelined probe over the
//! other. Supports inner, semi (EXISTS — TPC-H Q4), anti, and left
//! outer (TPC-H Q13) semantics on integer equi-keys.
//!
//! The build side is allocation-free per row: every build page's
//! payload is appended to one contiguous arena in a single copy, and
//! rows sharing a key are chained through index links in a flat entry
//! vector keyed by an [`FxHashMap`] (integer hashing, no SipHash) —
//! the layout Jahangiri et al. (PAPERS.md) show join throughput hinges
//! on, replacing the old `HashMap<i64, Vec<Box<[u8]>>>` with its
//! boxed-row heap allocation per build tuple. Probe keys are gathered
//! page-at-a-time through [`Page::gather_i64`].
//!
//! # Out-of-core operation (dynamic hybrid hash join)
//!
//! With a budgeted [`MemoryBroker`](crate::MemoryBroker) the join
//! follows the dynamic hybrid design of Jahangiri et al.: the build
//! input is split into a growth-aware number of partitions, each
//! starting memory-resident. When a grant is refused, the largest
//! resident partition is the **spill victim** — its arena is dumped to
//! a [`SpillFile`] and further rows for it stream to disk. Probe rows
//! for resident partitions are joined immediately; probe rows for
//! spilled partitions are spilled alongside. After the streaming probe
//! each (build, probe) spill pair is reloaded and joined; a pair whose
//! build side still exceeds the budget is **recursively repartitioned**
//! with a level-seeded hash, up to `max_recursion` levels, after which
//! the query fails with a typed
//! [`ExecError::BudgetExhausted`](crate::ExecError::BudgetExhausted).
//! With an unbounded broker (the default) there is a single resident
//! partition and behaviour is unchanged from the in-memory join.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::memory::SpillContext;
use crate::ops::{default_row_bytes, int_key, Fanout, Outbox};
use crate::plan::JoinKind;
use cordoba_core::FxHashMap;
use cordoba_sim::channel::{Receiver, Recv};
use cordoba_sim::{Step, Task, TaskCtx, VTime};
use cordoba_storage::spill::{SpillFile, SpillReader, SpillWriter};
use cordoba_storage::{Page, PageBuilder, Schema, PAGE_SIZE};
use std::collections::VecDeque;
use std::sync::Arc;

/// Sentinel terminating a bucket chain.
const NIL: u32 = u32::MAX;

/// One chained build row: the byte offset of its row in the arena and
/// the index of the next row with the same key.
#[derive(Debug, Clone, Copy)]
struct BuildEntry {
    offset: u32,
    next: u32,
}

/// The arena-backed hash-join build table: contiguous row bytes,
/// chained same-key rows, and an integer-hashed directory. Insertion
/// performs zero per-row heap allocations (the arena and entry vector
/// grow amortized, by page).
#[derive(Debug, Default)]
pub struct BuildTable {
    /// key -> (first, last) entry index; `last` keeps chains in
    /// insertion order so inner joins emit matches in build order.
    heads: FxHashMap<i64, (u32, u32)>,
    entries: Vec<BuildEntry>,
    arena: Vec<u8>,
    row_width: usize,
    key_scratch: Vec<i64>,
}

impl BuildTable {
    /// Creates an empty build table for rows of `row_width` bytes.
    pub fn new(row_width: usize) -> Self {
        Self {
            row_width,
            ..Self::default()
        }
    }

    /// Number of build rows inserted.
    pub fn rows(&self) -> usize {
        self.entries.len()
    }

    /// Arena bytes in use (diagnostics / memory accounting).
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// The raw row arena — `rows()` contiguous rows of `row_width`
    /// bytes in insertion order (the bulk path for spilling a
    /// partition to disk).
    pub fn arena(&self) -> &[u8] {
        &self.arena
    }

    /// Links the entry for the row at `offset` into `key`'s chain.
    fn link(&mut self, key: i64, offset: usize) {
        let idx = self.entries.len() as u32;
        self.entries.push(BuildEntry {
            offset: offset as u32,
            next: NIL,
        });
        match self.heads.entry(key) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((idx, idx));
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let (_, last) = *e.get();
                self.entries[last as usize].next = idx;
                e.get_mut().1 = idx;
            }
        }
    }

    /// Inserts every row of `page`, keyed by Int column `key_col`: one
    /// bulk payload copy plus one directory update per row.
    ///
    /// # Panics
    ///
    /// Panics if the page's rows are not `row_width` wide or the arena
    /// exceeds `u32` addressing (> 4 GiB of build rows).
    pub fn insert_page(&mut self, page: &Page, key_col: usize) {
        assert_eq!(page.schema().row_width(), self.row_width);
        let base = self.arena.len();
        self.arena.extend_from_slice(page.payload());
        assert!(
            self.arena.len() <= u32::MAX as usize,
            "build arena exceeds u32 addressing"
        );
        let mut keys = std::mem::take(&mut self.key_scratch);
        page.gather_i64(key_col, &mut keys);
        for (r, &key) in keys.iter().enumerate() {
            self.link(key, base + r * self.row_width);
        }
        self.key_scratch = keys;
    }

    /// Inserts a single pre-encoded row under `key` (the partitioned
    /// build path, where a page's rows scatter across partitions).
    ///
    /// # Panics
    ///
    /// Panics if `raw` is not `row_width` bytes or the arena exceeds
    /// `u32` addressing.
    pub fn insert_row(&mut self, key: i64, raw: &[u8]) {
        assert_eq!(raw.len(), self.row_width);
        let base = self.arena.len();
        self.arena.extend_from_slice(raw);
        assert!(
            self.arena.len() <= u32::MAX as usize,
            "build arena exceeds u32 addressing"
        );
        self.link(key, base);
    }

    /// Whether any build row has `key`.
    pub fn contains(&self, key: i64) -> bool {
        self.heads.contains_key(&key)
    }

    /// Iterates the raw rows matching `key`, in insertion order.
    pub fn matches(&self, key: i64) -> MatchIter<'_> {
        MatchIter {
            table: self,
            next: self.heads.get(&key).map_or(NIL, |&(first, _)| first),
        }
    }
}

/// Iterator over a key's chained build rows.
pub struct MatchIter<'a> {
    table: &'a BuildTable,
    next: u32,
}

impl<'a> Iterator for MatchIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.next == NIL {
            return None;
        }
        let entry = self.table.entries[self.next as usize];
        self.next = entry.next;
        let at = entry.offset as usize;
        Some(&self.table.arena[at..at + self.table.row_width])
    }
}

/// Routes `key` to one of `parts` partitions. `level` seeds the hash
/// so each repartitioning pass redistributes keys that collided at the
/// previous level. Uses a splitmix64 finalizer rather than FxHash:
/// the routing takes `hash % parts`, and FxHash's low bits are too
/// weak for that (its low bit tracks key parity at every level, which
/// would make recursive repartitioning a no-op).
pub(crate) fn partition_of(key: i64, level: u32, parts: usize) -> usize {
    if parts <= 1 {
        return 0;
    }
    let mut x =
        (key as u64).wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(level) + 1));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % parts as u64) as usize
}

/// Growth-aware initial partition count: with budget `b` bytes and
/// page-granular spill buffers, √(b / page) partitions balance the
/// resident directory against per-partition buffer overhead (the
/// classic hybrid-hash sizing, per Jahangiri et al.). Unbounded
/// brokers get a single partition — the pure in-memory join.
fn initial_partitions(budget: Option<usize>, max_parts: usize) -> usize {
    match budget {
        None => 1,
        Some(b) => {
            let pages = (b / PAGE_SIZE).max(1);
            ((pages as f64).sqrt().ceil() as usize).clamp(2, max_parts)
        }
    }
}

/// One build partition: memory-resident until chosen as a spill
/// victim, on disk afterwards.
enum Partition {
    Resident {
        table: BuildTable,
        /// Bytes granted for `table`'s arena.
        granted: usize,
    },
    // Boxed: `SpilledPart` dwarfs `Resident` and partitions are long
    // vectors of this enum.
    Spilled(Box<SpilledPart>),
}

/// A spilled partition: its build rows stream to disk, and during the
/// probe phase its probe rows do too.
struct SpilledPart {
    writer: Option<SpillWriter>,
    buf: PageBuilder,
    file: Option<SpillFile>,
    probe: Option<ProbeSpill>,
}

/// Probe-side spill stream for one spilled partition.
struct ProbeSpill {
    writer: SpillWriter,
    buf: PageBuilder,
}

impl SpilledPart {
    fn create(spill: &SpillContext, schema: Arc<Schema>) -> Result<Self, ExecError> {
        let writer = SpillWriter::create(&spill.dir, schema.clone())
            .map_err(|e| ExecError::spill("hash join", e))?;
        // One in-flight buffer page that spilling cannot eliminate.
        spill.broker.grant(PAGE_SIZE);
        Ok(SpilledPart {
            writer: Some(writer),
            buf: PageBuilder::new(schema),
            file: None,
            probe: None,
        })
    }

    fn push_build_row(&mut self, raw: &[u8]) -> Result<(), ExecError> {
        if self.buf.is_full() {
            // lint: allow(writer opens with the build phase and closes only in finish_build)
            let writer = self.writer.as_mut().expect("open build writer");
            writer
                .write_page(&self.buf.finish_and_reset())
                .map_err(|e| ExecError::spill("hash join", e))?;
        }
        assert!(self.buf.push_raw(raw));
        Ok(())
    }

    /// Seals the build stream (end of build phase) and releases its
    /// buffer page.
    fn finish_build(&mut self, spill: &SpillContext) -> Result<(), ExecError> {
        // lint: allow(finish_build runs once, while the build writer is still open)
        let mut writer = self.writer.take().expect("open build writer");
        if !self.buf.is_empty() {
            writer
                .write_page(&self.buf.finish_and_reset())
                .map_err(|e| ExecError::spill("hash join", e))?;
        }
        self.file = Some(
            writer
                .finish()
                .map_err(|e| ExecError::spill("hash join", e))?,
        );
        spill.broker.release(PAGE_SIZE);
        Ok(())
    }

    fn push_probe_row(
        &mut self,
        raw: &[u8],
        probe_schema: &Arc<Schema>,
        spill: &SpillContext,
    ) -> Result<(), ExecError> {
        if self.probe.is_none() {
            let writer = SpillWriter::create(&spill.dir, probe_schema.clone())
                .map_err(|e| ExecError::spill("hash join", e))?;
            spill.broker.grant(PAGE_SIZE);
            self.probe = Some(ProbeSpill {
                writer,
                buf: PageBuilder::new(probe_schema.clone()),
            });
        }
        let probe = self.probe.as_mut().expect("just created"); // lint: allow(populated directly above)
        if probe.buf.is_full() {
            probe
                .writer
                .write_page(&probe.buf.finish_and_reset())
                .map_err(|e| ExecError::spill("hash join", e))?;
        }
        assert!(probe.buf.push_raw(raw));
        Ok(())
    }

    /// Seals the probe stream (end of probe phase). Returns the
    /// (build, probe) pair to join later, or `None` when no probe row
    /// ever routed here — every join kind is probe-driven, so a
    /// probe-less partition produces no output.
    fn into_pair(mut self, spill: &SpillContext) -> Result<Option<SpillPair>, ExecError> {
        let Some(mut probe) = self.probe.take() else {
            return Ok(None);
        };
        if !probe.buf.is_empty() {
            probe
                .writer
                .write_page(&probe.buf.finish_and_reset())
                .map_err(|e| ExecError::spill("hash join", e))?;
        }
        let probe_file = probe
            .writer
            .finish()
            .map_err(|e| ExecError::spill("hash join", e))?;
        spill.broker.release(PAGE_SIZE);
        if probe_file.rows() == 0 {
            return Ok(None);
        }
        let build = self.file.take().filter(|f| f.rows() > 0);
        Ok(Some(SpillPair {
            build,
            probe: probe_file,
            level: 1,
        }))
    }
}

/// A spilled (build, probe) pair awaiting its out-of-core join.
/// `build: None` means the build side was empty — Anti and LeftOuter
/// still emit for such pairs, so the probe file is joined against an
/// empty table.
struct SpillPair {
    build: Option<SpillFile>,
    probe: SpillFile,
    level: u32,
}

/// The pair currently being joined: its reloaded build table and the
/// streaming probe reader.
struct ActivePair {
    table: BuildTable,
    /// Bytes granted for the reloaded table.
    granted: usize,
    reader: SpillReader,
    /// Bytes granted for the probe page in flight.
    page_granted: usize,
}

enum PhaseState {
    Building,
    Probing,
    /// Streaming probe done; joining spilled partition pairs.
    SpillJoin,
    Flushing,
    Done,
}

/// Hash-join task.
pub struct HashJoinTask {
    rx_build: Receiver<Arc<Page>>,
    rx_probe: Receiver<Arc<Page>>,
    build_key: usize,
    probe_key: usize,
    kind: JoinKind,
    build_cost: OpCost,
    probe_cost: OpCost,
    build_schema: Arc<Schema>,
    probe_schema: Arc<Schema>,
    build_defaults: Vec<u8>,
    builder: PageBuilder,
    outbox: Outbox,
    state: PhaseState,
    probe_keys: Vec<i64>,
    spill: SpillContext,
    partitions: Vec<Partition>,
    pending: VecDeque<SpillPair>,
    active: Option<ActivePair>,
}

impl HashJoinTask {
    /// Creates a hash join.
    ///
    /// `out_schema` must be the plan-derived schema for `kind`
    /// (probe ++ build for Inner/LeftOuter, probe only for Semi/Anti);
    /// `build_schema` / `probe_schema` are the input schemas (default
    /// fill for outer joins, key-column validation). `spill` supplies
    /// the query's memory account and spill policy;
    /// [`SpillContext::unbounded`] reproduces the fully in-memory
    /// behaviour. Errs when a key column is out of range or not `Int`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rx_build: Receiver<Arc<Page>>,
        rx_probe: Receiver<Arc<Page>>,
        build_key: usize,
        probe_key: usize,
        kind: JoinKind,
        build_schema: Arc<Schema>,
        probe_schema: &Arc<Schema>,
        out_schema: Arc<Schema>,
        build_cost: OpCost,
        probe_cost: OpCost,
        fanout: Fanout,
        spill: SpillContext,
    ) -> Result<Self, ExecError> {
        int_key("hash join build", &build_schema, build_key)?;
        int_key("hash join probe", probe_schema, probe_key)?;
        let parts = initial_partitions(spill.broker.budget(), spill.max_partitions);
        let partitions = (0..parts)
            .map(|_| Partition::Resident {
                table: BuildTable::new(build_schema.row_width()),
                granted: 0,
            })
            .collect();
        Ok(Self {
            rx_build,
            rx_probe,
            build_key,
            probe_key,
            kind,
            build_cost,
            probe_cost,
            build_defaults: default_row_bytes(&build_schema),
            build_schema,
            probe_schema: probe_schema.clone(),
            builder: PageBuilder::new(out_schema),
            outbox: Outbox::new(fanout),
            state: PhaseState::Building,
            probe_keys: Vec::new(),
            spill,
            partitions,
            pending: VecDeque::new(),
            active: None,
        })
    }

    /// Routes one build page into the partitions, spilling victims
    /// until the resident demand fits the budget.
    fn build_page(&mut self, page: &Page) -> Result<(), ExecError> {
        let w = self.build_schema.row_width();
        if self.partitions.len() == 1 {
            // Unbounded fast path: bulk arena append, as before the
            // broker existed (try_grant on an unbounded broker always
            // succeeds; it exists to keep the accounting honest).
            let bytes = page.byte_len();
            self.spill.broker.try_grant(bytes);
            let Partition::Resident { table, granted } = &mut self.partitions[0] else {
                // lint: allow(partition 0 stays resident when partitioning is disabled)
                unreachable!("single partition never spills");
            };
            *granted += bytes;
            table.insert_page(page, self.build_key);
            return Ok(());
        }
        page.gather_i64(self.build_key, &mut self.probe_keys);
        let parts = self.partitions.len();
        loop {
            // Bytes this page adds to *resident* partitions.
            let mut demand = 0usize;
            for &key in &self.probe_keys {
                if let Partition::Resident { .. } = self.partitions[partition_of(key, 0, parts)] {
                    demand += w;
                }
            }
            if demand == 0 || self.spill.broker.try_grant(demand) {
                break;
            }
            if !self.spill_victim()? {
                // Nothing left to spill; take the memory anyway (a
                // single page exceeding the whole budget).
                self.spill.broker.grant(demand);
                break;
            }
        }
        for (raw, &key) in page.raw_rows().zip(&self.probe_keys) {
            match &mut self.partitions[partition_of(key, 0, parts)] {
                Partition::Resident { table, granted } => {
                    table.insert_row(key, raw);
                    *granted += w;
                }
                Partition::Spilled(sp) => sp.push_build_row(raw)?,
            }
        }
        Ok(())
    }

    /// Spills the resident partition holding the most granted memory.
    /// Returns `false` when no resident partition remains.
    fn spill_victim(&mut self) -> Result<bool, ExecError> {
        let victim = self
            .partitions
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                Partition::Resident { granted, .. } => Some((i, *granted)),
                Partition::Spilled(_) => None,
            })
            .max_by_key(|&(_, g)| g)
            .map(|(i, _)| i);
        let Some(v) = victim else {
            return Ok(false);
        };
        let replacement = Box::new(SpilledPart::create(&self.spill, self.build_schema.clone())?);
        let Partition::Resident { table, granted } =
            std::mem::replace(&mut self.partitions[v], Partition::Spilled(replacement))
        else {
            // lint: allow(pick_victim only returns resident partitions)
            unreachable!("victim chosen among residents");
        };
        let Partition::Spilled(sp) = &mut self.partitions[v] else {
            unreachable!("just replaced"); // lint: allow(std::mem::replace above installed the Spilled variant)
        };
        sp.writer
            .as_mut()
            .expect("fresh writer") // lint: allow(SpilledPart::create returns with its writer open)
            .write_raw_rows(table.arena(), table.rows())
            .map_err(|e| ExecError::spill("hash join", e))?;
        self.spill.broker.release(granted);
        Ok(true)
    }

    /// End of build input: seal every spilled partition's build stream.
    fn finish_build(&mut self) -> Result<(), ExecError> {
        for i in 0..self.partitions.len() {
            if let Partition::Spilled(sp) = &mut self.partitions[i] {
                sp.finish_build(&self.spill)?;
            }
        }
        Ok(())
    }

    /// Probes one page: resident partitions join immediately, spilled
    /// partitions buffer the probe row to disk.
    fn probe_page(&mut self, page: &Page) -> Result<(), ExecError> {
        page.gather_i64(self.probe_key, &mut self.probe_keys);
        let parts = self.partitions.len();
        for (probe_raw, &key) in page.raw_rows().zip(&self.probe_keys) {
            match &mut self.partitions[partition_of(key, 0, parts)] {
                Partition::Resident { table, .. } => probe_row(
                    self.kind,
                    table,
                    key,
                    probe_raw,
                    &mut self.builder,
                    &mut self.outbox,
                    &self.build_defaults,
                ),
                Partition::Spilled(sp) => {
                    sp.push_probe_row(probe_raw, &self.probe_schema, &self.spill)?
                }
            }
        }
        Ok(())
    }

    /// End of probe input: release resident partitions, queue spilled
    /// pairs for the out-of-core join phase.
    fn finish_probe(&mut self) -> Result<(), ExecError> {
        for part in std::mem::take(&mut self.partitions) {
            match part {
                Partition::Resident { granted, .. } => self.spill.broker.release(granted),
                Partition::Spilled(sp) => {
                    if let Some(pair) = sp.into_pair(&self.spill)? {
                        self.pending.push_back(pair);
                    }
                }
            }
        }
        Ok(())
    }

    /// One step of the spilled-pair join: probe one page of the active
    /// pair, or start the next pair. Returns the virtual cost and
    /// whether every pair is done.
    fn spill_join_step(&mut self) -> Result<(VTime, bool), ExecError> {
        if let Some(active) = &mut self.active {
            match active
                .reader
                .next_page()
                .map_err(|e| ExecError::spill("hash join", e))?
            {
                Some(page) => {
                    self.spill.broker.release(active.page_granted);
                    active.page_granted = page.byte_len();
                    self.spill.broker.grant(active.page_granted);
                    page.gather_i64(self.probe_key, &mut self.probe_keys);
                    for (probe_raw, &key) in page.raw_rows().zip(&self.probe_keys) {
                        probe_row(
                            self.kind,
                            &active.table,
                            key,
                            probe_raw,
                            &mut self.builder,
                            &mut self.outbox,
                            &self.build_defaults,
                        );
                    }
                    Ok((self.probe_cost.input_cost(page.rows()).max(1), false))
                }
                None => {
                    self.spill
                        .broker
                        .release(active.page_granted + active.granted);
                    self.active = None;
                    Ok((1, false))
                }
            }
        } else if let Some(pair) = self.pending.pop_front() {
            self.start_pair(pair)?;
            Ok((1, false))
        } else {
            Ok((1, true))
        }
    }

    /// Activates a spilled pair: reload its build side if it fits the
    /// budget, otherwise repartition (or fail at the recursion cap).
    fn start_pair(&mut self, pair: SpillPair) -> Result<(), ExecError> {
        let build_bytes = pair.build.as_ref().map_or(0, |f| f.bytes() as usize);
        if build_bytes == 0 || self.spill.broker.try_grant(build_bytes) {
            let mut table = BuildTable::new(self.build_schema.row_width());
            if let Some(file) = pair.build {
                let mut reader = file
                    .into_reader()
                    .map_err(|e| ExecError::spill("hash join", e))?;
                while let Some(page) = reader
                    .next_page()
                    .map_err(|e| ExecError::spill("hash join", e))?
                {
                    table.insert_page(&page, self.build_key);
                }
            }
            let reader = pair
                .probe
                .into_reader()
                .map_err(|e| ExecError::spill("hash join", e))?;
            self.active = Some(ActivePair {
                table,
                granted: build_bytes,
                reader,
                page_granted: 0,
            });
            Ok(())
        } else if pair.level >= self.spill.max_recursion {
            Err(ExecError::BudgetExhausted {
                op: "hash join",
                detail: format!(
                    "build partition of {build_bytes} B still exceeds the budget after {} \
                     repartitioning levels (skewed key?)",
                    pair.level
                ),
            })
        } else {
            self.repartition(pair)
        }
    }

    /// Splits an oversized pair into sub-pairs with a deeper-level
    /// hash, sized so each sub-build targets half the budget.
    fn repartition(&mut self, pair: SpillPair) -> Result<(), ExecError> {
        let budget = self.spill.broker.budget().unwrap_or(usize::MAX);
        let build_bytes = pair.build.as_ref().map_or(0, |f| f.bytes() as usize);
        let fan = build_bytes
            .div_ceil((budget / 2).max(PAGE_SIZE))
            .clamp(2, self.spill.max_partitions);
        // Transient buffer pages for both splits' writers.
        let overhead = 2 * fan * PAGE_SIZE;
        self.spill.broker.grant(overhead);
        let result = self.repartition_inner(pair, fan);
        self.spill.broker.release(overhead);
        result
    }

    fn repartition_inner(&mut self, pair: SpillPair, fan: usize) -> Result<(), ExecError> {
        let level = pair.level;
        let builds = match pair.build {
            Some(file) => self.split_file(file, self.build_key, fan, level)?,
            None => (0..fan).map(|_| None).collect(),
        };
        let probes = self.split_file(pair.probe, self.probe_key, fan, level)?;
        for (build, probe) in builds.into_iter().zip(probes) {
            // Probe-less sub-pairs produce no output for any join kind.
            if let Some(probe) = probe {
                self.pending.push_back(SpillPair {
                    build,
                    probe,
                    level: level + 1,
                });
            }
        }
        Ok(())
    }

    /// Hash-splits one spill file into `fan` new files by `key_col`,
    /// seeded with `level`. Empty outputs come back as `None`.
    fn split_file(
        &mut self,
        file: SpillFile,
        key_col: usize,
        fan: usize,
        level: u32,
    ) -> Result<Vec<Option<SpillFile>>, ExecError> {
        let schema = file.schema().clone();
        let mut outs: Vec<(SpillWriter, PageBuilder)> = Vec::with_capacity(fan);
        for _ in 0..fan {
            let writer = SpillWriter::create(&self.spill.dir, schema.clone())
                .map_err(|e| ExecError::spill("hash join", e))?;
            outs.push((writer, PageBuilder::new(schema.clone())));
        }
        let mut reader = file
            .into_reader()
            .map_err(|e| ExecError::spill("hash join", e))?;
        while let Some(page) = reader
            .next_page()
            .map_err(|e| ExecError::spill("hash join", e))?
        {
            page.gather_i64(key_col, &mut self.probe_keys);
            for (raw, &key) in page.raw_rows().zip(&self.probe_keys) {
                let (writer, buf) = &mut outs[partition_of(key, level, fan)];
                if buf.is_full() {
                    writer
                        .write_page(&buf.finish_and_reset())
                        .map_err(|e| ExecError::spill("hash join", e))?;
                }
                assert!(buf.push_raw(raw));
            }
        }
        let mut files = Vec::with_capacity(fan);
        for (mut writer, mut buf) in outs {
            if !buf.is_empty() {
                writer
                    .write_page(&buf.finish_and_reset())
                    .map_err(|e| ExecError::spill("hash join", e))?;
            }
            let file = writer
                .finish()
                .map_err(|e| ExecError::spill("hash join", e))?;
            files.push(if file.rows() == 0 { None } else { Some(file) });
        }
        Ok(files)
    }

    /// Aborts the query: records the fault, cancels both inputs, frees
    /// spill state and closes the output without the drain check.
    fn fail(&mut self, ctx: &mut TaskCtx<'_>, err: ExecError) -> Step {
        self.spill.fault.set(err);
        self.rx_build.close(ctx);
        self.rx_probe.close(ctx);
        self.partitions.clear();
        self.pending.clear();
        self.active = None;
        self.outbox.abandon();
        self.outbox.close(ctx);
        self.state = PhaseState::Done;
        Step::done(1)
    }
}

/// Joins one probe row against a build table, emitting per `kind` into
/// the builder/outbox.
fn probe_row(
    kind: JoinKind,
    table: &BuildTable,
    key: i64,
    probe_raw: &[u8],
    builder: &mut PageBuilder,
    outbox: &mut Outbox,
    build_defaults: &[u8],
) {
    match kind {
        JoinKind::Inner => {
            for build_raw in table.matches(key) {
                emit_row(builder, outbox, probe_raw, build_raw);
            }
        }
        JoinKind::Semi => {
            if table.contains(key) {
                emit_row(builder, outbox, probe_raw, &[]);
            }
        }
        JoinKind::Anti => {
            if !table.contains(key) {
                emit_row(builder, outbox, probe_raw, &[]);
            }
        }
        JoinKind::LeftOuter => {
            let mut m = table.matches(key).peekable();
            if m.peek().is_none() {
                emit_row(builder, outbox, probe_raw, build_defaults);
            } else {
                for build_raw in m {
                    emit_row(builder, outbox, probe_raw, build_raw);
                }
            }
        }
    }
}

/// Appends `probe_raw ++ build_raw` to the builder, spilling full pages
/// to the outbox. The two fragments are written directly — no
/// intermediate row scratch buffer.
fn emit_row(builder: &mut PageBuilder, outbox: &mut Outbox, probe_raw: &[u8], build_raw: &[u8]) {
    if builder.is_full() {
        outbox.push(builder.finish_and_reset());
    }
    assert!(builder.push_raw_parts(probe_raw, build_raw));
}

impl Task for HashJoinTask {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let (mut cost, drained) = self.outbox.flush(ctx);
        if !drained {
            return Step::blocked(cost);
        }
        match self.state {
            PhaseState::Building => match self.rx_build.try_recv(ctx) {
                Recv::Value(page) => {
                    if **page.schema() != *self.build_schema {
                        return self.fail(
                            ctx,
                            input_mismatch(&self.build_schema, &page, "build input"),
                        );
                    }
                    let n = page.rows();
                    cost += self.build_cost.input_cost(n);
                    ctx.add_progress(n as f64);
                    if let Err(err) = self.build_page(&page) {
                        return self.fail(ctx, err);
                    }
                    Step::yielded(cost)
                }
                Recv::Empty => Step::blocked(cost),
                Recv::Closed => {
                    if let Err(err) = self.finish_build() {
                        return self.fail(ctx, err);
                    }
                    self.state = PhaseState::Probing;
                    Step::yielded(cost.max(1))
                }
            },
            PhaseState::Probing => match self.rx_probe.try_recv(ctx) {
                Recv::Value(page) => {
                    if **page.schema() != *self.probe_schema {
                        return self.fail(
                            ctx,
                            input_mismatch(&self.probe_schema, &page, "probe input"),
                        );
                    }
                    let n = page.rows();
                    cost += self.probe_cost.input_cost(n);
                    ctx.add_progress(n as f64);
                    if let Err(err) = self.probe_page(&page) {
                        return self.fail(ctx, err);
                    }
                    let (c, drained) = self.outbox.flush(ctx);
                    cost += c;
                    if drained {
                        Step::yielded(cost)
                    } else {
                        Step::blocked(cost)
                    }
                }
                Recv::Empty => Step::blocked(cost),
                Recv::Closed => {
                    if let Err(err) = self.finish_probe() {
                        return self.fail(ctx, err);
                    }
                    self.state = if self.pending.is_empty() {
                        PhaseState::Flushing
                    } else {
                        PhaseState::SpillJoin
                    };
                    Step::yielded(cost.max(1))
                }
            },
            PhaseState::SpillJoin => match self.spill_join_step() {
                Ok((c, finished)) => {
                    cost += c;
                    if finished {
                        self.state = PhaseState::Flushing;
                    }
                    let (c, drained) = self.outbox.flush(ctx);
                    cost += c;
                    if drained {
                        Step::yielded(cost)
                    } else {
                        Step::blocked(cost)
                    }
                }
                Err(err) => self.fail(ctx, err),
            },
            PhaseState::Flushing => {
                if !self.builder.is_empty() {
                    let tail = self.builder.finish_and_reset();
                    self.outbox.push(tail);
                }
                self.state = PhaseState::Done;
                let (c, drained) = self.outbox.flush(ctx);
                cost += c + 1;
                if drained {
                    Step::yielded(cost)
                } else {
                    Step::blocked(cost)
                }
            }
            PhaseState::Done => {
                self.outbox.close(ctx);
                Step::done(cost)
            }
        }
    }
}

/// Builds the typed fault for a page whose schema differs from what
/// the operator was wired for.
fn input_mismatch(expected: &Arc<Schema>, page: &Page, which: &str) -> ExecError {
    ExecError::InputPageMismatch {
        op: "hash join",
        detail: format!(
            "{which}: expected {} columns / {} B rows, got {} columns / {} B rows",
            expected.len(),
            expected.row_width(),
            page.schema().len(),
            page.schema().row_width()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBroker;
    use crate::ops::testutil::CollectingSink;
    use crate::ops::ScanTask;
    use crate::plan::concat_schemas;
    use cordoba_sim::channel;
    use cordoba_sim::Simulator;
    use cordoba_storage::{DataType, Field, TableBuilder, Value};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn build_side() -> (Arc<Schema>, Vec<Vec<Value>>) {
        let schema = Schema::new(vec![
            Field::new("bk", DataType::Int),
            Field::new("bv", DataType::Int),
        ]);
        let rows = vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
            vec![Value::Int(2), Value::Int(21)],
            vec![Value::Int(4), Value::Int(40)],
        ];
        (schema, rows)
    }

    fn probe_side() -> (Arc<Schema>, Vec<Vec<Value>>) {
        let schema = Schema::new(vec![
            Field::new("pk", DataType::Int),
            Field::new("pv", DataType::Int),
        ]);
        let rows = vec![
            vec![Value::Int(1), Value::Int(100)],
            vec![Value::Int(2), Value::Int(200)],
            vec![Value::Int(3), Value::Int(300)],
        ];
        (schema, rows)
    }

    #[test]
    fn build_table_chains_preserve_insertion_order() {
        let (schema, rows) = build_side();
        let mut tb = TableBuilder::new("b", schema.clone());
        for r in &rows {
            tb.push_row(r);
        }
        let table = tb.finish();
        let mut bt = BuildTable::new(schema.row_width());
        for page in table.pages() {
            bt.insert_page(page, 0);
        }
        assert_eq!(bt.rows(), 4);
        assert_eq!(bt.arena_bytes(), 4 * schema.row_width());
        assert!(bt.contains(1) && bt.contains(2) && bt.contains(4));
        assert!(!bt.contains(3));
        // Key 2's two rows come back in build order (20 then 21).
        let values: Vec<i64> = bt
            .matches(2)
            .map(|raw| i64::from_le_bytes(raw[8..16].try_into().unwrap()))
            .collect();
        assert_eq!(values, vec![20, 21]);
        assert_eq!(bt.matches(99).count(), 0);
    }

    #[test]
    fn insert_row_matches_insert_page() {
        let (schema, rows) = build_side();
        let mut tb = TableBuilder::new("b", schema.clone());
        for r in &rows {
            tb.push_row(r);
        }
        let table = tb.finish();
        let mut bulk = BuildTable::new(schema.row_width());
        let mut single = BuildTable::new(schema.row_width());
        for page in table.pages() {
            bulk.insert_page(page, 0);
            let mut keys = Vec::new();
            page.gather_i64(0, &mut keys);
            for (raw, &key) in page.raw_rows().zip(&keys) {
                single.insert_row(key, raw);
            }
        }
        assert_eq!(bulk.arena(), single.arena());
        for key in [1, 2, 3, 4] {
            assert_eq!(
                bulk.matches(key).collect::<Vec<_>>(),
                single.matches(key).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn partition_hash_depends_on_level() {
        let spread =
            |level: u32| -> Vec<usize> { (0..64).map(|k| partition_of(k, level, 4)).collect() };
        assert_ne!(spread(0), spread(1), "levels must redistribute keys");
        assert!(spread(0).iter().all(|&p| p < 4));
        assert_eq!(partition_of(123, 0, 1), 0);
    }

    #[test]
    fn initial_partition_count_is_growth_aware() {
        assert_eq!(initial_partitions(None, 64), 1);
        // 16 pages -> √16 = 4 partitions.
        assert_eq!(initial_partitions(Some(16 * PAGE_SIZE), 64), 4);
        // Tiny budgets still get the minimum split.
        assert_eq!(initial_partitions(Some(1), 64), 2);
        // The cap wins for huge budgets.
        assert_eq!(initial_partitions(Some(1 << 30), 8), 8);
    }

    fn run_join_with(kind: JoinKind, spill: SpillContext) -> Vec<Vec<Value>> {
        let (bs, brows) = build_side();
        let (ps, prows) = probe_side();
        run_join_rows(kind, spill, (bs, brows), (ps, prows))
    }

    fn run_join_rows(
        kind: JoinKind,
        spill: SpillContext,
        (bs, brows): (Arc<Schema>, Vec<Vec<Value>>),
        (ps, prows): (Arc<Schema>, Vec<Vec<Value>>),
    ) -> Vec<Vec<Value>> {
        let mut tb = TableBuilder::new("b", bs.clone());
        for r in &brows {
            tb.push_row(r);
        }
        let btable = tb.finish();
        let mut tp = TableBuilder::new("p", ps.clone());
        for r in &prows {
            tp.push_row(r);
        }
        let ptable = tp.finish();

        let out_schema = match kind {
            JoinKind::Semi | JoinKind::Anti => ps.clone(),
            _ => concat_schemas(&ps, &bs),
        };
        let mut sim = Simulator::new(2);
        let (txb, rxb) = channel::bounded(4);
        let (txp, rxp) = channel::bounded(4);
        let (txo, rxo) = channel::bounded(4);
        sim.spawn(
            "scan_b",
            Box::new(ScanTask::new(
                btable.pages().to_vec(),
                OpCost::default(),
                Fanout::new(vec![txb], 0.0),
            )),
        );
        sim.spawn(
            "scan_p",
            Box::new(ScanTask::new(
                ptable.pages().to_vec(),
                OpCost::default(),
                Fanout::new(vec![txp], 0.0),
            )),
        );
        let fault = spill.fault.clone();
        sim.spawn(
            "join",
            Box::new(
                HashJoinTask::new(
                    rxb,
                    rxp,
                    0,
                    0,
                    kind,
                    bs,
                    &ps,
                    out_schema,
                    OpCost::default(),
                    OpCost::default(),
                    Fanout::new(vec![txo], 0.0),
                    spill,
                )
                .expect("valid keys"),
            ),
        );
        let out = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            "sink",
            Box::new(CollectingSink {
                rx: rxo,
                rows: out.clone(),
            }),
        );
        assert!(sim.run_to_idle().completed_all());
        assert_eq!(fault.get(), None, "join must not fault");
        let out = out.borrow().clone();
        out
    }

    fn run_join(kind: JoinKind) -> Vec<Vec<Value>> {
        run_join_with(kind, SpillContext::unbounded())
    }

    #[test]
    fn inner_join_expands_matches() {
        let got = run_join(JoinKind::Inner);
        assert_eq!(
            got,
            vec![
                vec![
                    Value::Int(1),
                    Value::Int(100),
                    Value::Int(1),
                    Value::Int(10)
                ],
                vec![
                    Value::Int(2),
                    Value::Int(200),
                    Value::Int(2),
                    Value::Int(20)
                ],
                vec![
                    Value::Int(2),
                    Value::Int(200),
                    Value::Int(2),
                    Value::Int(21)
                ],
            ]
        );
    }

    #[test]
    fn semi_join_emits_probe_rows_once() {
        let got = run_join(JoinKind::Semi);
        assert_eq!(
            got,
            vec![
                vec![Value::Int(1), Value::Int(100)],
                vec![Value::Int(2), Value::Int(200)],
            ]
        );
    }

    #[test]
    fn anti_join_emits_unmatched() {
        let got = run_join(JoinKind::Anti);
        assert_eq!(got, vec![vec![Value::Int(3), Value::Int(300)]]);
    }

    #[test]
    fn left_outer_fills_defaults() {
        let got = run_join(JoinKind::LeftOuter);
        assert_eq!(got.len(), 4);
        // Probe key 3 has no build match: build columns defaulted to 0.
        assert_eq!(
            got[3],
            vec![Value::Int(3), Value::Int(300), Value::Int(0), Value::Int(0)]
        );
    }

    #[test]
    fn empty_build_side() {
        // Inner/semi produce nothing; anti/left-outer pass all probe rows.
        let (bs, _) = build_side();
        let (ps, prows) = probe_side();
        for (kind, expect) in [
            (JoinKind::Inner, 0usize),
            (JoinKind::Semi, 0),
            (JoinKind::Anti, 3),
            (JoinKind::LeftOuter, 3),
        ] {
            let got = run_join_rows(
                kind,
                SpillContext::unbounded(),
                (bs.clone(), vec![]),
                (ps.clone(), prows.clone()),
            );
            assert_eq!(got.len(), expect, "{kind:?}");
        }
    }

    /// One join input: its schema and rows.
    type SideFixture = (Arc<Schema>, Vec<Vec<Value>>);

    /// Big skew-free inputs for the spill tests: build is ~4× a small
    /// budget, probe hits every key zero or more times.
    fn spill_fixture() -> (SideFixture, SideFixture) {
        let bs = Schema::new(vec![
            Field::new("bk", DataType::Int),
            Field::new("bv", DataType::Int),
        ]);
        let ps = Schema::new(vec![
            Field::new("pk", DataType::Int),
            Field::new("pv", DataType::Int),
        ]);
        let brows: Vec<Vec<Value>> = (0..8000)
            .map(|i| vec![Value::Int(i % 1500), Value::Int(i)])
            .collect();
        let prows: Vec<Vec<Value>> = (0..3000)
            .map(|i| vec![Value::Int((i * 7) % 2000), Value::Int(i + 1_000_000)])
            .collect();
        ((bs, brows), (ps, prows))
    }

    fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    }

    #[test]
    fn tiny_budget_join_matches_in_memory_for_all_kinds() {
        let (build, probe) = spill_fixture();
        for kind in [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::Anti,
            JoinKind::LeftOuter,
        ] {
            let want = run_join_rows(
                kind,
                SpillContext::unbounded(),
                (build.0.clone(), build.1.clone()),
                (probe.0.clone(), probe.1.clone()),
            );
            let spill = SpillContext::with_budget(8 * PAGE_SIZE);
            let broker = spill.broker.clone();
            let got = run_join_rows(
                kind,
                spill,
                (build.0.clone(), build.1.clone()),
                (probe.0.clone(), probe.1.clone()),
            );
            assert!(broker.peak() > 0);
            assert_eq!(broker.used(), 0, "{kind:?}: all grants released");
            assert_eq!(sorted(got), sorted(want), "{kind:?}");
        }
    }

    #[test]
    fn multi_level_recursion_still_joins_correctly() {
        // max_partitions = 2 with a build ≫ budget forces sub-pairs to
        // repartition recursively before they fit.
        let (build, probe) = spill_fixture();
        let want = run_join_rows(
            JoinKind::Inner,
            SpillContext::unbounded(),
            (build.0.clone(), build.1.clone()),
            (probe.0.clone(), probe.1.clone()),
        );
        let mut spill = SpillContext::with_budget(4 * PAGE_SIZE);
        spill.max_partitions = 2;
        spill.max_recursion = 8;
        let got = run_join_rows(JoinKind::Inner, spill, build, probe);
        assert_eq!(sorted(got), sorted(want));
    }

    #[test]
    fn skewed_key_exhausts_budget_with_typed_error() {
        // Every build row has the same key: no amount of repartitioning
        // shrinks the partition, so the recursion cap must trip.
        let bs = Schema::new(vec![
            Field::new("bk", DataType::Int),
            Field::new("bv", DataType::Int),
        ]);
        let ps = Schema::new(vec![
            Field::new("pk", DataType::Int),
            Field::new("pv", DataType::Int),
        ]);
        let brows: Vec<Vec<Value>> = (0..8000)
            .map(|i| vec![Value::Int(42), Value::Int(i)])
            .collect();
        let prows = vec![vec![Value::Int(42), Value::Int(0)]];

        let mut tb = TableBuilder::new("b", bs.clone());
        for r in &brows {
            tb.push_row(r);
        }
        let btable = tb.finish();
        let mut tp = TableBuilder::new("p", ps.clone());
        for r in &prows {
            tp.push_row(r);
        }
        let ptable = tp.finish();

        let mut sim = Simulator::new(2);
        let (txb, rxb) = channel::bounded(4);
        let (txp, rxp) = channel::bounded(4);
        let (txo, rxo) = channel::bounded(4);
        sim.spawn(
            "scan_b",
            Box::new(ScanTask::new(
                btable.pages().to_vec(),
                OpCost::default(),
                Fanout::new(vec![txb], 0.0),
            )),
        );
        sim.spawn(
            "scan_p",
            Box::new(ScanTask::new(
                ptable.pages().to_vec(),
                OpCost::default(),
                Fanout::new(vec![txp], 0.0),
            )),
        );
        let mut spill = SpillContext::with_budget(4 * PAGE_SIZE);
        spill.max_recursion = 2;
        let fault = spill.fault.clone();
        sim.spawn(
            "join",
            Box::new(
                HashJoinTask::new(
                    rxb,
                    rxp,
                    0,
                    0,
                    JoinKind::Inner,
                    bs.clone(),
                    &ps,
                    concat_schemas(&ps, &bs),
                    OpCost::default(),
                    OpCost::default(),
                    Fanout::new(vec![txo], 0.0),
                    spill,
                )
                .expect("valid keys"),
            ),
        );
        let out = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            "sink",
            Box::new(CollectingSink {
                rx: rxo,
                rows: out.clone(),
            }),
        );
        assert!(sim.run_to_idle().completed_all());
        assert!(
            matches!(
                fault.get(),
                Some(ExecError::BudgetExhausted {
                    op: "hash join",
                    ..
                })
            ),
            "got {:?}",
            fault.get()
        );
    }

    #[test]
    fn mismatched_probe_page_faults_instead_of_panicking() {
        let (bs, brows) = build_side();
        let (ps, _) = probe_side();
        // Probe pages arrive with the *build* schema widths but a
        // different column count — a malformed upstream.
        let wrong = Schema::new(vec![Field::new("solo", DataType::Int)]);
        let mut tb = TableBuilder::new("b", bs.clone());
        for r in &brows {
            tb.push_row(r);
        }
        let btable = tb.finish();
        let mut tw = TableBuilder::new("w", wrong.clone());
        tw.push_row(&[Value::Int(1)]);
        let wtable = tw.finish();

        let mut sim = Simulator::new(2);
        let (txb, rxb) = channel::bounded(4);
        let (txp, rxp) = channel::bounded(4);
        let (txo, rxo) = channel::bounded(4);
        sim.spawn(
            "scan_b",
            Box::new(ScanTask::new(
                btable.pages().to_vec(),
                OpCost::default(),
                Fanout::new(vec![txb], 0.0),
            )),
        );
        sim.spawn(
            "scan_w",
            Box::new(ScanTask::new(
                wtable.pages().to_vec(),
                OpCost::default(),
                Fanout::new(vec![txp], 0.0),
            )),
        );
        let spill = SpillContext::unbounded();
        let fault = spill.fault.clone();
        sim.spawn(
            "join",
            Box::new(
                HashJoinTask::new(
                    rxb,
                    rxp,
                    0,
                    0,
                    JoinKind::Inner,
                    bs.clone(),
                    &ps,
                    concat_schemas(&ps, &bs),
                    OpCost::default(),
                    OpCost::default(),
                    Fanout::new(vec![txo], 0.0),
                    spill,
                )
                .expect("valid keys"),
            ),
        );
        let out = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            "sink",
            Box::new(CollectingSink {
                rx: rxo,
                rows: out.clone(),
            }),
        );
        assert!(sim.run_to_idle().completed_all());
        assert!(
            matches!(
                fault.get(),
                Some(ExecError::InputPageMismatch {
                    op: "hash join",
                    ..
                })
            ),
            "got {:?}",
            fault.get()
        );
        assert!(out.borrow().is_empty());
    }

    #[test]
    fn spilled_join_peak_stays_near_budget() {
        let (build, probe) = spill_fixture();
        // Build side ~125 KiB vs a 32 KiB budget (≈4× over).
        let budget = 8 * PAGE_SIZE;
        let spill = SpillContext {
            broker: MemoryBroker::with_budget(budget),
            ..SpillContext::unbounded()
        };
        let broker = spill.broker.clone();
        let got = run_join_rows(JoinKind::Inner, spill, build, probe);
        assert!(!got.is_empty());
        assert!(
            broker.peak() <= budget + budget / 4,
            "peak {} exceeds 1.25 × budget {}",
            broker.peak(),
            budget
        );
    }
}
