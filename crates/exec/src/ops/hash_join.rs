//! Hash join: blocking build over one input, pipelined probe over the
//! other. Supports inner, semi (EXISTS — TPC-H Q4), anti, and left
//! outer (TPC-H Q13) semantics on integer equi-keys.
//!
//! The build side only appends: every build page's payload goes into
//! one contiguous arena in a single copy and its key column is gathered
//! beside it ([`Page::gather_i64`]), so row `i` is `arena[i * width..]`
//! and nothing is hashed or linked while rows arrive — Jahangiri et
//! al. (PAPERS.md) keep the build as append-then-index for the same
//! reason. The first probe builds the index in one pass: a
//! power-of-two array of bucket heads plus one `next` link per row,
//! filled last row first so that a chain ascends in build order. A
//! lookup walks its bucket's chain and keeps the rows whose stored key
//! matches. Probe keys are gathered page-at-a-time too.
//!
//! # Existence joins keep keys
//!
//! A semi or anti join only ever asks whether a probe key has a build
//! match, so its build side keeps keys and nothing else: its tables are
//! [`BuildTable`]s at row width 0, which hold each kept key's 8 bytes
//! and no arena, and the kernel grants exactly that, 8 B a kept key. A
//! build key equal to the last key the join kept is skipped, checked
//! across pages, so a run of one key keeps its first. Every key of a
//! run routes to the same partition, so the collapse needs no hashing;
//! inputs clustered on the join key (`lineitem` on its order key, TPC-H
//! Q4's build side) arrive in such runs. On unclustered input nothing
//! collapses and the table holds 8 B a row. A key-only partition spills
//! to a one-column `Int` schema, and everything that reads a build
//! partition back — reload, repartitioning — reads that stored schema
//! and its key column 0.
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
//! with a level-seeded hash, up to `MAX_RECURSION` (4) levels, after which
//! the query fails with a typed
//! [`ExecError::BudgetExhausted`](crate::ExecError::BudgetExhausted).
//! With an unbounded broker (the default) there is a single resident
//! partition and behaviour is unchanged from the in-memory join.
//!
//! Every open stream holds its frame, granted where it is opened
//! (`SpillContext::io`) for as long as it is open: sized for one stream
//! per partition in the build and probe phases, for the fan-out and the
//! file being split in a repartition, for two in a spilled pair. The
//! resident partitions share what those frames leave, with one frame of
//! headroom for the next victim, so the tracked peak stays inside the
//! budget with the streams counted.
//!
//! What is here is the kernel — the partitions, the spilled pairs and
//! the page functions of the build, probe and spilled-pair phases —
//! with [`Kernel::release`] its one teardown: every grant the state
//! holds is returned there, whatever phase a failure interrupts.
//! [`crate::ops::shell`] runs it as a task.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::memory::{SpillContext, SpillCursor, SpillIo, SpillStream};
use crate::ops::shell::{Drained, Kernel, PageWork, Pages, Port, PortClosed};
use crate::ops::{default_row_bytes, int_key};
use crate::plan::JoinKind;
use cordoba_sim::VTime;
use cordoba_storage::spill::SpillFile;
use cordoba_storage::{DataType, Field, Page, PageBuilder, Schema, PAGE_SIZE};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// The operator's name in faults.
const OP: &str = "hash join";

/// Repartitioning depth at which a still-oversized partition fails the
/// query with [`ExecError::BudgetExhausted`].
const MAX_RECURSION: u32 = 4;

/// Partition fan-out cap per level.
const MAX_PARTITIONS: usize = 64;

/// Sentinel terminating a bucket chain; build rows are numbered below it.
const NIL: u32 = u32::MAX;

/// What a key-only table holds for each key, and what it is granted.
const KEY_BYTES: usize = 8;

/// The arena-backed hash-join build table: contiguous fixed-width row
/// bytes and, beside them, each row's key — row `i` is
/// `arena[i * row_width..]`. Insertion only appends (no per-row heap
/// allocation, no hashing); the bucket directory is built in one pass
/// by the first lookup after an insert.
///
/// At row width 0 the table is key-only, what an existence join keeps:
/// its keys and no arena, and each match is an empty row.
#[derive(Debug, Default)]
pub struct BuildTable {
    arena: Vec<u8>,
    /// The key of each row, in insertion order.
    keys: Vec<i64>,
    row_width: usize,
    key_scratch: Vec<i64>,
    /// Built by the first lookup, cleared by every insert.
    directory: OnceLock<Directory>,
}

/// Bucket heads and chain links over a [`BuildTable`]'s rows. A chain
/// holds every row whose key hashes to the bucket, in insertion order.
#[derive(Debug)]
struct Directory {
    /// The first row of each bucket's chain; a power of two long.
    heads: Vec<u32>,
    /// The row after row `i` in its chain.
    next: Vec<u32>,
}

impl Directory {
    /// One pass over the keys, last row first, each row pushed onto
    /// the front of its bucket: chains therefore ascend in build order.
    fn build(keys: &[i64]) -> Self {
        let mut dir = Directory {
            heads: vec![NIL; keys.len().next_power_of_two().max(2)],
            next: vec![NIL; keys.len()],
        };
        for (row, &key) in keys.iter().enumerate().rev() {
            let bucket = dir.bucket(key);
            dir.next[row] = std::mem::replace(&mut dir.heads[bucket], row as u32);
        }
        dir
    }

    /// Multiplicative (Fibonacci) hashing: the product's high bits
    /// index the bucket array.
    fn bucket(&self, key: i64) -> usize {
        let hash = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> (64 - self.heads.len().trailing_zeros())) as usize
    }
}

impl BuildTable {
    /// Creates an empty build table for rows of `row_width` bytes; at
    /// row width 0, a key-only table.
    pub fn new(row_width: usize) -> Self {
        Self {
            row_width,
            ..Self::default()
        }
    }

    /// Number of build rows inserted.
    pub fn rows(&self) -> usize {
        self.keys.len()
    }

    /// Bytes held for the rows, what the join is granted for the table:
    /// the arena, or at row width 0 the keys.
    pub fn bytes(&self) -> usize {
        if self.row_width == 0 {
            self.keys.len() * KEY_BYTES
        } else {
            self.arena.len()
        }
    }

    /// The raw row arena — `rows()` contiguous rows of `row_width`
    /// bytes in insertion order (the bulk path for spilling a
    /// partition to disk).
    pub fn arena(&self) -> &[u8] {
        &self.arena
    }

    /// After an append: the directory is stale, and chain links must
    /// still be able to number every row.
    fn appended(&mut self) {
        self.directory.take();
        assert!(
            self.keys.len() < NIL as usize,
            "build table exceeds u32 row addressing"
        );
    }

    /// Inserts every row of `page`, keyed by Int column `key_col`: one
    /// bulk payload copy plus one gathered key column (at row width 0,
    /// the key column alone, whatever the page's width). A lookup after
    /// this rebuilds the bucket directory over all rows, so insert
    /// everything first.
    ///
    /// # Panics
    ///
    /// Panics if the page's rows are not `row_width` wide (at a nonzero
    /// width) or the table would hold `u32::MAX` rows or more (chain
    /// links are `u32` row numbers; arena offsets are `usize` and have
    /// no limit of their own).
    pub fn insert_page(&mut self, page: &Page, key_col: usize) {
        if self.row_width > 0 {
            assert_eq!(page.schema().row_width(), self.row_width);
            self.arena.extend_from_slice(page.payload());
        }
        page.gather_i64(key_col, &mut self.key_scratch);
        self.keys.extend_from_slice(&self.key_scratch);
        self.appended();
    }

    /// Inserts a single pre-encoded row under `key` (the partitioned
    /// build path, where a page's rows scatter across partitions).
    ///
    /// # Panics
    ///
    /// Panics if `raw` is not `row_width` bytes or the table would
    /// hold `u32::MAX` rows or more.
    pub fn insert_row(&mut self, key: i64, raw: &[u8]) {
        assert_eq!(raw.len(), self.row_width);
        self.arena.extend_from_slice(raw);
        self.keys.push(key);
        self.appended();
    }

    /// Writes the rows to `stream`: the arena in one bulk push, or at
    /// row width 0 each key as an 8-byte row.
    fn spill_to(&self, io: &SpillIo<'_>, stream: &mut SpillStream) -> Result<(), ExecError> {
        if self.row_width > 0 {
            return io.push_rows(stream, &self.arena, self.rows());
        }
        self.keys
            .iter()
            .try_for_each(|key| io.push(stream, &key.to_le_bytes()))
    }

    /// Whether any build row has `key`.
    pub fn contains(&self, key: i64) -> bool {
        self.matches(key).next().is_some()
    }

    /// Iterates the raw rows matching `key`, in insertion order.
    pub fn matches(&self, key: i64) -> MatchIter<'_> {
        let directory = self.directory.get_or_init(|| Directory::build(&self.keys));
        MatchIter {
            table: self,
            links: &directory.next,
            key,
            next: directory.heads[directory.bucket(key)],
        }
    }
}

/// Iterator over a key's build rows: its bucket's chain, filtered on
/// the stored key.
pub struct MatchIter<'a> {
    table: &'a BuildTable,
    links: &'a [u32],
    key: i64,
    next: u32,
}

impl<'a> Iterator for MatchIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        while self.next != NIL {
            let row = self.next as usize;
            self.next = self.links[row];
            if self.table.keys[row] == self.key {
                let width = self.table.row_width;
                return Some(&self.table.arena[row * width..][..width]);
            }
        }
        None
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
fn initial_partitions(budget: Option<usize>) -> usize {
    match budget {
        None => 1,
        Some(b) => {
            let pages = (b / PAGE_SIZE).max(1);
            ((pages as f64).sqrt().ceil() as usize).clamp(2, MAX_PARTITIONS)
        }
    }
}

/// One partition while the build input lasts: memory-resident until
/// chosen as a spill victim, streaming to disk afterwards.
enum BuildPart {
    Resident {
        table: BuildTable,
        /// Bytes granted for `table` ([`BuildTable::bytes`]).
        granted: usize,
    },
    /// The open stream of stored rows.
    Spilling(SpillStream),
}

/// One partition while the probe input lasts.
enum ProbePart {
    Resident {
        table: BuildTable,
        /// Bytes granted for `table` ([`BuildTable::bytes`]).
        granted: usize,
    },
    Spilled {
        /// The sealed stored rows.
        build: SpillFile,
        /// Probe rows routed here, once there are any.
        probe: Option<SpillStream>,
    },
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
    reader: SpillCursor,
}

/// What `drain` does next.
enum Tail {
    /// Join the spilled partition pairs, a probe page per call.
    SpillJoin,
    /// Emit the partly filled last page.
    Flush,
    Done,
}

/// Hash-join kernel.
pub struct HashJoinKernel {
    build_key: usize,
    probe_key: usize,
    kind: JoinKind,
    build_cost: OpCost,
    probe_cost: OpCost,
    build_schema: Arc<Schema>,
    probe_schema: Arc<Schema>,
    /// What the build side keeps, spills and reloads: its rows, or for
    /// an existence join its keys alone, as one `Int` column ...
    stored: Arc<Schema>,
    /// ... keyed by this column of it.
    stored_key: usize,
    /// The last build key an existence join kept.
    last_key: Option<i64>,
    build_defaults: Vec<u8>,
    builder: PageBuilder,
    tail: Tail,
    /// The join keys of the page in hand.
    keys: Vec<i64>,
    /// Rows of the build page in hand routed to each partition.
    routed: Vec<usize>,
    spill: SpillContext,
    /// Pages in the frame of a partition's stream: every partition may
    /// have one open, in the build phase and again in the probe phase.
    /// Sized as for twice as many, which leaves three quarters of the
    /// budget to the partitions still resident — what they hold is what
    /// the probe side need not spill.
    frame: usize,
    /// The partitions until the build input ends, then empty ...
    build_parts: VecDeque<BuildPart>,
    /// ... and the same partitions from then until the probe input ends.
    probe_parts: Vec<ProbePart>,
    pending: VecDeque<SpillPair>,
    active: Option<ActivePair>,
}

impl HashJoinKernel {
    /// Creates a hash join.
    ///
    /// `out_schema` must be the plan-derived schema for `kind`
    /// (probe ++ build for Inner/LeftOuter, probe only for Semi/Anti);
    /// `build_schema` / `probe_schema` are the input schemas (default
    /// fill for outer joins, key-column validation). `spill` supplies
    /// the query's memory account and spill directory;
    /// [`SpillContext::unbounded`] reproduces the fully in-memory
    /// behaviour. Errs when a key column is out of range or not `Int`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        build_key: usize,
        probe_key: usize,
        kind: JoinKind,
        build_schema: Arc<Schema>,
        probe_schema: Arc<Schema>,
        out_schema: Arc<Schema>,
        build_cost: OpCost,
        probe_cost: OpCost,
        spill: SpillContext,
    ) -> Result<Self, ExecError> {
        int_key("hash join build", &build_schema, build_key)?;
        int_key("hash join probe", &probe_schema, probe_key)?;
        let (stored, stored_key) = match kind {
            JoinKind::Semi | JoinKind::Anti => {
                let key = Field::new(build_schema.fields()[build_key].name.clone(), DataType::Int);
                (Schema::new(vec![key]), 0)
            }
            JoinKind::Inner | JoinKind::LeftOuter => (build_schema.clone(), build_key),
        };
        let parts = initial_partitions(spill.broker.budget());
        let mut join = Self {
            build_key,
            probe_key,
            kind,
            build_cost,
            probe_cost,
            build_defaults: default_row_bytes(&build_schema),
            build_schema,
            probe_schema,
            stored,
            stored_key,
            last_key: None,
            builder: PageBuilder::new(out_schema),
            tail: Tail::Flush,
            keys: Vec::new(),
            routed: Vec::new(),
            frame: spill.frame_pages(2 * parts),
            spill,
            build_parts: VecDeque::new(),
            probe_parts: Vec::new(),
            pending: VecDeque::new(),
            active: None,
        };
        join.build_parts = (0..parts)
            .map(|_| BuildPart::Resident {
                table: join.new_table(),
                granted: 0,
            })
            .collect();
        Ok(join)
    }

    /// Whether the join only asks if a build key exists, and so keeps
    /// keys alone.
    fn keys_only(&self) -> bool {
        matches!(self.kind, JoinKind::Semi | JoinKind::Anti)
    }

    /// An empty build table: key-only for an existence join.
    fn new_table(&self) -> BuildTable {
        BuildTable::new(if self.keys_only() {
            0
        } else {
            self.stored.row_width()
        })
    }

    /// Routes one build page into the partitions, spilling victims
    /// until the resident demand fits the budget. An existence join
    /// first drops each key equal to the one kept before it.
    fn build_page(&mut self, page: &Page) -> Result<(), ExecError> {
        let keys_only = self.keys_only();
        if let (false, [BuildPart::Resident { table, granted }]) =
            (keys_only, self.build_parts.make_contiguous())
        {
            // Unbounded fast path of a row table: bulk arena append, as
            // before the broker existed (try_grant on an unbounded
            // broker always succeeds; it exists to keep the accounting
            // honest). Key-only tables take the routed path below, which
            // collapses runs first.
            let bytes = page.byte_len();
            self.spill.broker.try_grant(bytes);
            *granted += bytes;
            table.insert_page(page, self.build_key);
            return Ok(());
        }
        page.gather_i64(self.build_key, &mut self.keys);
        if keys_only {
            let last = &mut self.last_key;
            self.keys.retain(|&key| last.replace(key) != Some(key));
        }
        let w = self.stored.row_width();
        let parts = self.build_parts.len();
        self.routed.clear();
        self.routed.resize(parts, 0);
        for &key in &self.keys {
            self.routed[partition_of(key, 0, parts)] += 1;
        }
        loop {
            // Bytes this page adds to *resident* partitions.
            let resident = self.build_parts.iter().zip(&self.routed);
            let demand: usize = resident
                .filter(|(part, _)| matches!(part, BuildPart::Resident { .. }))
                .map(|(_, &rows)| rows * w)
                .sum();
            // Room is kept for the frame the next victim's stream takes
            // before its arena is released.
            let spill = &self.spill;
            if demand == 0 || spill.grant_beside(demand, &self.stored, self.frame) {
                break;
            }
            if !self.spill_victim()? {
                // Nothing left to spill; take the memory anyway (a
                // single page exceeding the whole budget).
                self.spill.broker.grant(demand);
                break;
            }
        }
        // The grant is the partitions' from here on, so that a failed
        // write below leaves nothing unaccounted for.
        for (part, &rows) in self.build_parts.iter_mut().zip(&self.routed) {
            if let BuildPart::Resident { granted, .. } = part {
                *granted += rows * w;
            }
        }
        let io = self.spill.io(OP);
        if keys_only {
            for &key in &self.keys {
                match &mut self.build_parts[partition_of(key, 0, parts)] {
                    BuildPart::Resident { table, .. } => table.insert_row(key, &[]),
                    BuildPart::Spilling(stream) => io.push(stream, &key.to_le_bytes())?,
                }
            }
            return Ok(());
        }
        for (raw, &key) in page.raw_rows().zip(&self.keys) {
            match &mut self.build_parts[partition_of(key, 0, parts)] {
                BuildPart::Resident { table, .. } => table.insert_row(key, raw),
                BuildPart::Spilling(stream) => io.push(stream, raw)?,
            }
        }
        Ok(())
    }

    /// Spills the resident partition holding the most granted memory.
    /// Returns `false` when no resident partition remains.
    fn spill_victim(&mut self) -> Result<bool, ExecError> {
        let residents = self.build_parts.iter_mut().filter_map(|part| match part {
            BuildPart::Resident { granted, .. } => Some((*granted, part)),
            BuildPart::Spilling(_) => None,
        });
        let Some((granted, victim)) = residents.max_by_key(|&(granted, _)| granted) else {
            return Ok(false);
        };
        let io = self.spill.io(OP);
        let mut stream = io.create(self.stored.clone(), self.frame)?;
        if let BuildPart::Resident { table, .. } = victim {
            table.spill_to(&io, &mut stream)?;
        }
        self.spill.broker.release(granted);
        *victim = BuildPart::Spilling(stream);
        Ok(true)
    }

    /// End of build input: seal every spilled partition's build stream.
    /// A partition is in exactly one of the two lists throughout, so a
    /// failure part-way strands no grant.
    fn finish_build(&mut self) -> Result<(), ExecError> {
        while let Some(part) = self.build_parts.pop_front() {
            self.probe_parts.push(match part {
                BuildPart::Resident { table, granted } => ProbePart::Resident { table, granted },
                BuildPart::Spilling(stream) => ProbePart::Spilled {
                    build: self.spill.io(OP).finish(stream)?,
                    probe: None,
                },
            });
        }
        Ok(())
    }

    /// Probes one page: resident partitions join immediately, spilled
    /// partitions buffer the probe row to disk.
    fn probe_page(&mut self, page: &Page, out: &mut Pages) -> Result<(), ExecError> {
        page.gather_i64(self.probe_key, &mut self.keys);
        let parts = self.probe_parts.len();
        let io = self.spill.io(OP);
        for (probe_raw, &key) in page.raw_rows().zip(&self.keys) {
            match &mut self.probe_parts[partition_of(key, 0, parts)] {
                ProbePart::Resident { table, .. } => probe_row(
                    self.kind,
                    table,
                    key,
                    probe_raw,
                    &mut self.builder,
                    out,
                    &self.build_defaults,
                ),
                ProbePart::Spilled { probe, .. } => {
                    let stream = match probe {
                        Some(stream) => stream,
                        None => probe.insert(io.create(self.probe_schema.clone(), self.frame)?),
                    };
                    io.push(stream, probe_raw)?;
                }
            }
        }
        Ok(())
    }

    /// Hands over the probe-phase partitions with the resident tables'
    /// grants returned (an open probe stream carries its own).
    fn take_probe_parts(&mut self) -> Vec<ProbePart> {
        let parts = std::mem::take(&mut self.probe_parts);
        for part in &parts {
            if let ProbePart::Resident { granted, .. } = part {
                self.spill.broker.release(*granted);
            }
        }
        parts
    }

    /// End of probe input: release resident partitions, seal the probe
    /// streams and queue each spilled partition a probe row ever routed
    /// to — every join kind is probe-driven, so a probe-less partition
    /// produces no output.
    fn finish_probe(&mut self) -> Result<(), ExecError> {
        for part in self.take_probe_parts() {
            if let ProbePart::Spilled {
                build,
                probe: Some(stream),
            } = part
            {
                self.pending.push_back(SpillPair {
                    build: Some(build).filter(|f| f.rows() > 0),
                    probe: self.spill.io(OP).finish(stream)?,
                    level: 1,
                });
            }
        }
        Ok(())
    }

    /// One step of the spilled-pair join: probe one page of the active
    /// pair, or start the next pair. Returns the virtual cost and
    /// whether every pair is done.
    fn spill_join_step(&mut self, out: &mut Pages) -> Result<(VTime, bool), ExecError> {
        let Some(active) = &mut self.active else {
            let Some(pair) = self.pending.pop_front() else {
                return Ok((1, true));
            };
            self.start_pair(pair)?;
            return Ok((1, false));
        };
        let Some(page) = self.spill.io(OP).next_page(&mut active.reader)? else {
            self.spill.broker.release(active.granted);
            self.active = None;
            return Ok((1, false));
        };
        page.gather_i64(self.probe_key, &mut self.keys);
        for (probe_raw, &key) in page.raw_rows().zip(&self.keys) {
            probe_row(
                self.kind,
                &active.table,
                key,
                probe_raw,
                &mut self.builder,
                out,
                &self.build_defaults,
            );
        }
        Ok((self.probe_cost.input_cost(page.rows()).max(1), false))
    }

    /// Activates a spilled pair: reload its build side if it fits the
    /// budget, otherwise repartition (or fail at the recursion cap).
    fn start_pair(&mut self, pair: SpillPair) -> Result<(), ExecError> {
        let build_bytes = pair.build.as_ref().map_or(0, |f| f.bytes() as usize);
        if build_bytes == 0 || self.spill.broker.try_grant(build_bytes) {
            let loaded = self.load_pair(pair);
            if loaded.is_err() {
                self.spill.broker.release(build_bytes);
            }
            let (table, reader) = loaded?;
            self.active = Some(ActivePair {
                table,
                granted: build_bytes,
                reader,
            });
            Ok(())
        } else if pair.level >= MAX_RECURSION {
            Err(ExecError::BudgetExhausted {
                op: OP,
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

    /// Reloads a pair's build side and opens its probe side: two
    /// streams, read one after the other beside the granted table.
    fn load_pair(&self, pair: SpillPair) -> Result<(BuildTable, SpillCursor), ExecError> {
        let io = self.spill.io(OP);
        let frame = self.spill.frame_pages(2);
        let mut table = self.new_table();
        if let Some(file) = pair.build {
            let mut reader = io.open(file, frame)?;
            while let Some(page) = io.next_page(&mut reader)? {
                table.insert_page(&page, self.stored_key);
            }
        }
        Ok((table, io.open(pair.probe, frame)?))
    }

    /// Splits an oversized pair into sub-pairs with a deeper-level
    /// hash, sized so each sub-build targets half the budget.
    fn repartition(&mut self, pair: SpillPair) -> Result<(), ExecError> {
        let budget = self.spill.broker.budget().unwrap_or(usize::MAX);
        let build_bytes = pair.build.as_ref().map_or(0, |f| f.bytes() as usize);
        let fan = build_bytes
            .div_ceil((budget / 2).max(PAGE_SIZE))
            .clamp(2, MAX_PARTITIONS);
        let level = pair.level;
        let builds = match pair.build {
            Some(file) => self.split_file(file, self.stored_key, fan, level)?,
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
        let io = self.spill.io(OP);
        // The file being split and its `fan` outputs share the grant.
        let frame = self.spill.frame_pages(fan + 1);
        let mut outs = Vec::with_capacity(fan);
        for _ in 0..fan {
            outs.push(io.create(file.schema().clone(), frame)?);
        }
        let mut reader = io.open(file, frame)?;
        while let Some(page) = io.next_page(&mut reader)? {
            page.gather_i64(key_col, &mut self.keys);
            for (raw, &key) in page.raw_rows().zip(&self.keys) {
                io.push(&mut outs[partition_of(key, level, fan)], raw)?;
            }
        }
        let mut files = Vec::with_capacity(fan);
        for stream in outs {
            files.push(Some(io.finish(stream)?).filter(|f| f.rows() > 0));
        }
        Ok(files)
    }
}

/// Joins one probe row against a build table, emitting per `kind` into
/// the builder, full pages into `out`.
fn probe_row(
    kind: JoinKind,
    table: &BuildTable,
    key: i64,
    probe_raw: &[u8],
    builder: &mut PageBuilder,
    out: &mut Pages,
    build_defaults: &[u8],
) {
    match kind {
        JoinKind::Inner => {
            for build_raw in table.matches(key) {
                emit_row(builder, out, probe_raw, build_raw);
            }
        }
        JoinKind::Semi => {
            if table.contains(key) {
                emit_row(builder, out, probe_raw, &[]);
            }
        }
        JoinKind::Anti => {
            if !table.contains(key) {
                emit_row(builder, out, probe_raw, &[]);
            }
        }
        JoinKind::LeftOuter => {
            let mut m = table.matches(key).peekable();
            if m.peek().is_none() {
                emit_row(builder, out, probe_raw, build_defaults);
            } else {
                for build_raw in m {
                    emit_row(builder, out, probe_raw, build_raw);
                }
            }
        }
    }
}

/// Appends `probe_raw ++ build_raw` to the builder, moving full pages
/// to `out`. The two fragments are written directly — no intermediate
/// row scratch buffer.
fn emit_row(builder: &mut PageBuilder, out: &mut Pages, probe_raw: &[u8], build_raw: &[u8]) {
    if builder.is_full() {
        out.push(builder.finish_and_reset());
    }
    assert!(builder.push_raw_parts(probe_raw, build_raw));
}

impl Kernel for HashJoinKernel {
    fn name(&self) -> &'static str {
        OP
    }

    /// The build input is read to its end before the probe input.
    fn ports(&self) -> Vec<Port> {
        vec![
            ("build input", Some(self.build_schema.clone())),
            ("probe input", Some(self.probe_schema.clone())),
        ]
    }

    fn on_page(
        &mut self,
        port: usize,
        page: &Arc<Page>,
        out: &mut Pages,
    ) -> Result<PageWork, ExecError> {
        let cost = if port == 0 {
            self.build_page(page)?;
            self.build_cost
        } else {
            self.probe_page(page, out)?;
            self.probe_cost
        };
        Ok(PageWork {
            cost: cost.input_cost(page.rows()),
            progress: page.rows(),
        })
    }

    /// Blocking steps, a tick at least: sealing the build streams, then
    /// queueing the spilled pairs.
    fn on_close(&mut self, port: usize, _: &mut Pages) -> Result<PortClosed, ExecError> {
        if port == 0 {
            self.finish_build()?;
        } else {
            self.finish_probe()?;
            if !self.pending.is_empty() {
                self.tail = Tail::SpillJoin;
            }
        }
        Ok(PortClosed {
            cost: 0,
            min_tick: 1,
            last: false,
        })
    }

    fn drain(&mut self, out: &mut Pages) -> Result<Drained, ExecError> {
        match self.tail {
            Tail::SpillJoin => {
                let (cost, finished) = self.spill_join_step(out)?;
                if finished {
                    self.tail = Tail::Flush;
                }
                Ok(Drained::batch(cost))
            }
            Tail::Flush => {
                if !self.builder.is_empty() {
                    out.push(self.builder.finish_and_reset());
                }
                self.tail = Tail::Done;
                Ok(Drained::batch(1))
            }
            Tail::Done => Ok(Drained::LAST),
        }
    }

    /// Every resident partition's grant in whichever phase it is, the
    /// spilled pairs, the active pair's table. (Open streams return
    /// their frames as they drop.)
    fn release(&mut self) {
        for part in self.build_parts.drain(..) {
            if let BuildPart::Resident { granted, .. } = part {
                self.spill.broker.release(granted);
            }
        }
        drop(self.take_probe_parts());
        self.pending.clear();
        if let Some(active) = self.active.take() {
            self.spill.broker.release(active.granted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{drive, pages_of, run_shell};
    use crate::plan::concat_schemas;
    use crate::wiring::page_rows;
    use cordoba_storage::{TableBuilder, Value};
    use std::path::PathBuf;

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
        assert_eq!(bt.bytes(), 4 * schema.row_width());
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
        assert_eq!(initial_partitions(None), 1);
        // 16 pages -> √16 = 4 partitions.
        assert_eq!(initial_partitions(Some(16 * PAGE_SIZE)), 4);
        // Tiny budgets still get the minimum split.
        assert_eq!(initial_partitions(Some(1)), 2);
        // The cap wins for huge budgets (√262144 pages = 512).
        assert_eq!(initial_partitions(Some(1 << 30)), MAX_PARTITIONS);
    }

    fn run_join_with(kind: JoinKind, spill: SpillContext) -> Vec<Vec<Value>> {
        let (bs, brows) = build_side();
        let (ps, prows) = probe_side();
        run_join_rows(kind, spill, (bs, brows), (ps, prows))
    }

    /// An inner/outer/semi/anti join of `ps` rows with `bs` rows on
    /// their first columns, at the default costs.
    fn join_of(
        kind: JoinKind,
        spill: SpillContext,
        bs: &Arc<Schema>,
        ps: &Arc<Schema>,
    ) -> HashJoinKernel {
        let out_schema = match kind {
            JoinKind::Semi | JoinKind::Anti => ps.clone(),
            _ => concat_schemas(ps, bs),
        };
        let cost = OpCost::default();
        HashJoinKernel::new(
            0,
            0,
            kind,
            bs.clone(),
            ps.clone(),
            out_schema,
            cost,
            cost,
            spill,
        )
        .expect("valid keys")
    }

    fn run_join_rows(
        kind: JoinKind,
        spill: SpillContext,
        (bs, brows): (Arc<Schema>, Vec<Vec<Value>>),
        (ps, prows): (Arc<Schema>, Vec<Vec<Value>>),
    ) -> Vec<Vec<Value>> {
        let inputs = [pages_of(&bs, &brows), pages_of(&ps, &prows)];
        drive(
            &mut join_of(kind, spill, &bs, &ps),
            &[&inputs[0], &inputs[1]],
        )
        .expect("join must not fault")
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
        // A one-page budget against a 31-page build side: the two
        // first-level partitions are far over budget, and of the sixteen
        // sub-pairs each splits into some are still over a page, so they
        // repartition again before they fit.
        let (build, probe) = spill_fixture();
        let want = run_join_rows(
            JoinKind::Inner,
            SpillContext::unbounded(),
            (build.0.clone(), build.1.clone()),
            (probe.0.clone(), probe.1.clone()),
        );
        let spill = SpillContext::with_budget(PAGE_SIZE);
        let broker = spill.broker.clone();
        let got = run_join_rows(JoinKind::Inner, spill, build, probe);
        assert_eq!(sorted(got), sorted(want));
        assert_eq!(broker.used(), 0);
    }

    #[test]
    fn skewed_key_exhausts_budget_with_typed_error() {
        // Every build row has the same key: no amount of repartitioning
        // shrinks the partition, so the recursion cap must trip.
        let (bs, _) = build_side();
        let (ps, _) = probe_side();
        let brows: Vec<Vec<Value>> = (0..8000)
            .map(|i| vec![Value::Int(42), Value::Int(i)])
            .collect();
        let inputs = [
            pages_of(&bs, &brows),
            pages_of(&ps, &[vec![Value::Int(42), Value::Int(0)]]),
        ];
        let spill = SpillContext::with_budget(4 * PAGE_SIZE);
        let broker = spill.broker.clone();
        let mut join = join_of(JoinKind::Inner, spill, &bs, &ps);
        let err = drive(&mut join, &[&inputs[0], &inputs[1]]).expect_err("cannot fit");
        let detail = format!("after {MAX_RECURSION} repartitioning levels");
        assert!(
            matches!(&err, ExecError::BudgetExhausted { op: "hash join", detail: d } if d.contains(&detail)),
            "{err:?}"
        );
        join.release();
        assert_eq!(broker.used(), 0);
    }

    #[test]
    fn mismatched_probe_page_faults_instead_of_panicking() {
        let (bs, brows) = build_side();
        let (ps, _) = probe_side();
        // Probe pages arrive with the *build* schema widths but a
        // different column count — a malformed upstream.
        let wrong = Schema::new(vec![Field::new("solo", DataType::Int)]);
        let inputs = vec![
            pages_of(&bs, &brows),
            pages_of(&wrong, &[vec![Value::Int(1)]]),
        ];
        let spill = SpillContext::unbounded();
        let (fault, broker) = (spill.fault.clone(), spill.broker.clone());
        let join = join_of(JoinKind::Inner, spill, &bs, &ps);
        let out = run_shell(Box::new(join), inputs, &fault);
        assert_eq!(
            fault.get(),
            Some(ExecError::InputPageMismatch {
                op: "hash join",
                detail: "probe input: expected 2 columns / 16 B rows, got 1 columns / 8 B rows"
                    .into()
            })
        );
        assert!(out.is_empty());
        assert_eq!(broker.used(), 0, "the build table's grant came back");
    }

    #[test]
    fn spilled_join_peak_stays_near_budget() {
        let (build, probe) = spill_fixture();
        // Build side ~125 KiB vs a 32 KiB budget (≈4× over).
        let budget = 8 * PAGE_SIZE;
        let spill = SpillContext::with_budget(budget);
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

    /// `n` build rows `(i / run, i)`: keys in runs of `run`, clustered
    /// on the key as `lineitem` is on its order key.
    fn clustered_rows(n: i64, run: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![Value::Int(i / run), Value::Int(i)])
            .collect()
    }

    /// `rows` in a scattered order (`i * 7919 % n` for prime 7919, a
    /// permutation when 7919 does not divide `n`): the runs broken up.
    fn scattered(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
        let n = rows.len();
        (0..n).map(|i| rows[i * 7919 % n].clone()).collect()
    }

    /// 3 000 probe rows `((i * 7) % 2000, i)`, in probe order.
    fn probe_rows() -> Vec<Vec<Value>> {
        (0..3000)
            .map(|i| vec![Value::Int((i * 7) % 2000), Value::Int(i)])
            .collect()
    }

    /// What an existence join of `kind` over build keys `0..keys` emits:
    /// the matching (semi) or unmatched (anti) probe rows in probe order.
    fn existence(kind: JoinKind, keys: i64, probe: &[Vec<Value>]) -> Vec<Vec<Value>> {
        let semi = kind == JoinKind::Semi;
        let matched = |row: &&Vec<Value>| row[0].as_int().is_some_and(|k| k < keys);
        probe
            .iter()
            .filter(|row| matched(row) == semi)
            .cloned()
            .collect()
    }

    /// Rows stably ordered by their key: each key's rows keep the order
    /// they came in (spilled partitions only reorder across keys).
    fn by_key(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by_key(|row| row[0].as_int());
        rows
    }

    /// A budgeted spill context whose directory does not exist yet: the
    /// first spill file a join opens creates it.
    fn fresh_dir_budget(tag: &str, budget: usize) -> (SpillContext, PathBuf) {
        let name = format!("cordoba-hash-join-{tag}-{}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let mut spill = SpillContext::with_budget(budget);
        spill.dir = dir.clone();
        (spill, dir)
    }

    #[test]
    fn an_existence_join_whose_keys_fit_opens_no_spill_file() {
        // 40 000 build rows (625 KiB) against a 16-page (64 KiB) budget,
        // but 1 000 keys in runs of 40: kept as keys, one per run, the
        // build side is 8 KB and stays resident.
        let (bs, _) = build_side();
        let (ps, _) = probe_side();
        let budget = 16 * PAGE_SIZE;
        for kind in [JoinKind::Semi, JoinKind::Anti] {
            let (spill, dir) = fresh_dir_budget(&format!("{kind:?}-fits"), budget);
            let broker = spill.broker.clone();
            let build = (bs.clone(), clustered_rows(40_000, 40));
            let got = run_join_rows(kind, spill, build, (ps.clone(), probe_rows()));
            assert_eq!(got, existence(kind, 1000, &probe_rows()), "{kind:?}");
            assert!(!dir.exists(), "{kind:?}: a spill file was opened");
            assert!(broker.peak() <= budget, "{kind:?}: peak {}", broker.peak());
            assert_eq!(broker.used(), 0, "{kind:?}");
        }
    }

    /// The ([`SpillFile`]) build sides of the partitions that spilled.
    fn spilled_builds(join: &HashJoinKernel) -> Vec<&SpillFile> {
        let spilled = join.probe_parts.iter().filter_map(|part| match part {
            ProbePart::Spilled { build, .. } => Some(build),
            ProbePart::Resident { .. } => None,
        });
        spilled.collect()
    }

    #[test]
    fn a_scattered_existence_join_spills_eight_byte_keys_inside_its_budget() {
        // The same rows with their runs broken up: nothing collapses, and
        // 40 000 keys (312 KiB) cannot stay inside 64 KiB.
        let (bs, _) = build_side();
        let (ps, _) = probe_side();
        let budget = 16 * PAGE_SIZE;
        let build = pages_of(&bs, &scattered(&clustered_rows(40_000, 40)));
        let probe = pages_of(&ps, &probe_rows());
        for kind in [JoinKind::Semi, JoinKind::Anti] {
            let (spill, dir) = fresh_dir_budget(&format!("{kind:?}-scattered"), budget);
            let broker = spill.broker.clone();
            let mut join = join_of(kind, spill, &bs, &ps);
            let mut out = Pages::new();
            for page in &build {
                join.on_page(0, page, &mut out).expect("build page");
            }
            join.on_close(0, &mut out).expect("end of build");
            let spilled = spilled_builds(&join);
            assert!(!spilled.is_empty(), "{kind:?}: nothing spilled");
            for file in spilled {
                assert_eq!(file.schema().fields().len(), 1, "{kind:?}: a key column");
                assert_eq!(file.bytes(), file.rows() * KEY_BYTES as u64, "{kind:?}");
            }
            for page in &probe {
                join.on_page(1, page, &mut out).expect("probe page");
            }
            join.on_close(1, &mut out).expect("end of probe");
            while !join.drain(&mut out).expect("spilled pairs").last {}
            let want = existence(kind, 1000, &probe_rows());
            assert_eq!(by_key(page_rows(&out)), by_key(want), "{kind:?}");
            assert!(broker.peak() <= budget, "{kind:?}: peak {}", broker.peak());
            assert_eq!(broker.used(), 0, "{kind:?}");
            let left = std::fs::read_dir(&dir).expect("spill dir").count();
            assert_eq!(left, 0, "{kind:?}: spill files left behind");
            std::fs::remove_dir(&dir).expect("empty spill dir");
        }
    }

    #[test]
    fn a_one_page_budget_repartitions_a_key_file() {
        // 8 000 scattered keys are 62.5 KiB in two partitions against a
        // 4 KiB budget: neither key file fits when its pair starts, so
        // each is split by the next level's hash, as key files again.
        let (bs, _) = build_side();
        let (ps, _) = probe_side();
        let build = pages_of(&bs, &scattered(&clustered_rows(8000, 1)));
        let probe = pages_of(&ps, &probe_rows());
        let spill = SpillContext::with_budget(PAGE_SIZE);
        let broker = spill.broker.clone();
        let mut join = join_of(JoinKind::Semi, spill, &bs, &ps);
        let mut out = Pages::new();
        for (port, pages) in [&build, &probe].into_iter().enumerate() {
            for page in pages {
                join.on_page(port, page, &mut out).expect("input page");
            }
            join.on_close(port, &mut out).expect("end of input");
        }
        let mut split_key_files = 0;
        while !join.drain(&mut out).expect("spilled pairs").last {
            let split = join.pending.iter().filter(|pair| pair.level > 1);
            let key_files = split.filter_map(|pair| pair.build.as_ref());
            split_key_files += key_files
                .filter(|file| file.schema().row_width() == KEY_BYTES)
                .count();
        }
        assert!(split_key_files > 0, "no key file was repartitioned");
        let want = existence(JoinKind::Semi, 8000, &probe_rows());
        assert_eq!(by_key(page_rows(&out)), by_key(want));
        assert_eq!(broker.used(), 0);
    }
}
