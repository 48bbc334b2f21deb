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
//! to a one-column `Int` schema, and a later pass, which reads a build
//! partition back, reads that stored schema and its key column 0.
//!
//! # Live columns
//!
//! The join carries only what its consumer reads: its probe rows keep
//! the probe columns read plus the key, its build rows the build
//! columns read plus the key (the wiring decides which;
//! [`HashJoinKernel::new`] carries them all). Each input page is
//! compacted as it arrives, so the arena, the output rows and every
//! spilled build and probe row are narrow, and later passes read the
//! same narrow schemas back. An inner or left outer join whose consumer
//! reads no build column keeps keys alone, in the existence joins'
//! key-only table, but without their run collapse: there every
//! duplicate build key is one more match. Output pages hold as many
//! rows as pages of unnarrowed rows would, so a narrowed join charges
//! the same virtual time as a whole one.
//!
//! # Out-of-core operation (dynamic hybrid hash join)
//!
//! With a budgeted [`MemoryBroker`] the join follows the dynamic hybrid
//! design of Jahangiri et al. at every level. A **pass** routes its
//! build rows into partitions, each starting memory-resident. When a
//! grant is refused, the largest resident partition is the **spill
//! victim**: its table is dumped to a spill stream and further rows for
//! it stream to disk. Probe rows for resident partitions are joined at
//! once; probe rows for spilled partitions are spilled beside them, and
//! each such (build, probe) pair is queued for a pass of its own at the
//! next level.
//!
//! The level-0 pass reads the two ports. Every later pass reads one
//! pair's build file and then its probe file, a page per `drain` step,
//! through the same page functions, routing with a hash seeded by its
//! level. A pair whose build side fits the budget is granted it up
//! front and joined by a pass of one partition: it is reloaded. A pair
//! that does not fit is split into enough partitions for each to fill
//! half the budget, and those that fit stay resident. A pair still over
//! the budget at level `MAX_RECURSION` (4) fails the query with a typed
//! [`ExecError::BudgetExhausted`].
//! With an unbounded broker (the default) the one pass has a single
//! resident partition and behaviour is unchanged from the in-memory
//! join.
//!
//! Every open stream holds its frame, granted where it is opened
//! (`QueryResources::io`) for as long as it is open. A pass sizes the
//! frames of the streams it opens when it starts, for one stream per
//! partition in each of its two phases; at a later level the cursor of
//! the file it reads fits beside them. The resident partitions share
//! what those frames leave, with one frame of headroom for the next
//! victim, so the tracked peak stays inside the budget with the streams
//! counted.
//!
//! What is here is the kernel — the open pass, the pending pairs and the
//! page functions of the build and probe phases — with
//! [`Kernel::release`] its one teardown: every grant the state holds is
//! returned there, whatever phase a failure interrupts.
//! [`crate::ops::shell`] runs it as a task.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::memory::{MemoryBroker, QueryResources, SpillCursor, SpillIo, SpillStream};
use crate::ops::shell::{Drained, Kernel, PageWork, Pages, Port, PortClosed};
use crate::ops::{int_key, page_builder, zero_row, Carry};
use crate::plan::JoinKind;
use cordoba_sim::VTime;
use cordoba_storage::spill::SpillFile;
use cordoba_storage::{NumCell, Page, PageBuilder, Schema, PAGE_SIZE};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// The operator's name in faults.
const OP: &str = "hash join";

/// The level at which a pass over a still-oversized pair fails the
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
    fn bytes(&self) -> usize {
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
            .try_for_each(|key| io.push(stream, &key.to_cell()))
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
/// so each pass redistributes keys that collided at the level before.
/// Uses a splitmix64 finalizer rather than FxHash: the routing takes
/// `hash % parts`, and FxHash's low bits are too weak for that (its
/// low bit tracks key parity at every level, which would make every
/// later pass route a pair as the one before it did).
fn partition_of(key: i64, level: u32, parts: usize) -> usize {
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

/// The fan-out of a pass, from the budget and, for a spilled pair, its
/// build side's bytes. One partition where nothing can spill: an
/// unbounded join, or a pair whose build side `broker` grants here, up
/// front. Otherwise, within `[2, MAX_PARTITIONS]`: at level 0, where
/// the build size is unknown, ⌈√(budget pages)⌉ — the classic
/// hybrid-hash sizing (Jahangiri et al.), balancing the resident tables
/// against one stream frame per partition — and for a pair, enough
/// partitions for each to fill half the budget.
fn fan_out(broker: &MemoryBroker, build: Option<usize>) -> usize {
    let Some(budget) = broker.budget() else {
        return 1;
    };
    let fan = match build {
        None => ((budget / PAGE_SIZE).max(1) as f64).sqrt().ceil() as usize,
        Some(bytes) if bytes == 0 || broker.try_grant(bytes) => return 1,
        Some(bytes) => bytes.div_ceil((budget / 2).max(PAGE_SIZE)),
    };
    fan.clamp(2, MAX_PARTITIONS)
}

/// One partition of a pass: memory-resident until it is chosen as a
/// spill victim, on disk from then on.
enum Part {
    Resident {
        table: BuildTable,
        /// Bytes granted for `table`: what it holds, or, in a pass of
        /// one partition over a spilled pair, that pair's build side.
        granted: usize,
    },
    Spilled {
        /// Where the rows routed here go: the build rows while the
        /// build input lasts, then the probe rows, opened by the first
        /// of them ...
        stream: Option<SpillStream>,
        /// ... and the build rows, sealed when the build input ended.
        build: Option<SpillFile>,
    },
}

/// One partitioning pass. Level 0 reads the two ports; each later level
/// reads one spilled pair's build file and then its probe file.
#[derive(Default)]
struct Pass {
    /// Seeds the routing hash; the pairs the pass spills are the next
    /// level's.
    level: u32,
    /// Pages in the frame of each stream the pass opens, sized when the
    /// pass opens as for two per partition, one in each phase. That
    /// leaves three quarters of the budget to the partitions still
    /// resident — what they hold is what the probe side need not spill.
    frame: usize,
    /// Routed to by `partition_of(key, level, parts.len())`.
    parts: Vec<Part>,
    /// The last build key an existence join kept.
    last_key: Option<i64>,
}

/// A spilled (build, probe) pair awaiting its pass. `build: None`
/// means the build side was empty — Anti and LeftOuter still emit for
/// such pairs, so the probe file is joined against an empty table.
struct SpillPair {
    build: Option<SpillFile>,
    probe: SpillFile,
    level: u32,
}

/// What a later pass reads next, a page per `drain` step.
enum Reading {
    /// Its pair's build file (no cursor when the side is empty), and
    /// the probe file to open after it.
    Build(Option<SpillCursor>, SpillFile),
    /// Its pair's probe file.
    Probe(SpillCursor),
}

/// What `drain` does next.
enum Tail {
    /// Run a pass over each spilled pair, a page per call.
    Pairs,
    /// Emit the partly filled last page.
    Flush,
    Done,
}

/// Hash-join kernel.
pub struct HashJoinKernel {
    /// The key column of the build input's pages.
    build_key: usize,
    kind: JoinKind,
    build_cost: OpCost,
    probe_cost: OpCost,
    /// The build columns the join carries: the key alone when it keeps
    /// keys alone.
    build: Carry,
    /// Whether the build side keeps keys alone, so the join emits no
    /// build column: an existence join, or one whose consumers read
    /// none.
    keys_only: bool,
    /// The probe columns it carries.
    probe: Carry,
    /// What the build side keeps, spills and reloads: the carried build
    /// rows — the keys, as one `Int` column, when it keeps keys alone
    /// ...
    stored: Arc<Schema>,
    /// ... keyed by this column of it.
    stored_key: usize,
    /// The key column of a carried probe row, what the probe side
    /// spills and reloads.
    probe_stored_key: usize,
    build_defaults: Vec<u8>,
    builder: PageBuilder,
    tail: Tail,
    /// The join keys of the page in hand.
    keys: Vec<i64>,
    /// Rows of the build page in hand routed to each partition.
    routed: Vec<usize>,
    spill: QueryResources,
    /// The open pass: level 0's until the probe input ends, then each
    /// pending pair's in turn.
    pass: Pass,
    /// What the open pass reads, when it is a later one.
    reading: Option<Reading>,
    pending: VecDeque<SpillPair>,
}

impl HashJoinKernel {
    /// Creates a hash join.
    ///
    /// `out_schema` must be the plan-derived schema for `kind`
    /// (probe ++ build for Inner/LeftOuter, probe only for Semi/Anti);
    /// `build_schema` / `probe_schema` are the input schemas (default
    /// fill for outer joins, key-column validation). `spill` is the
    /// query's context, its memory account and spill directory;
    /// [`QueryResources::default`] reproduces the fully in-memory
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
        spill: QueryResources,
    ) -> Result<Self, ExecError> {
        int_key("hash join build", &build_schema, build_key)?;
        let keys_only = matches!(kind, JoinKind::Semi | JoinKind::Anti);
        let build = match keys_only {
            true => Carry::new(&build_schema, vec![build_key])?,
            false => Carry::all(&build_schema),
        };
        let probe = Carry::all(&probe_schema);
        let width = out_schema.row_width();
        let costs = (build_cost, probe_cost);
        let sides = [(build, build_key), (probe, probe_key)];
        Self::carrying(kind, sides, keys_only, out_schema, width, costs, spill)
    }

    /// A hash join that carries the columns `.0` of each of its inputs,
    /// `[build, probe]`, keyed by their column `.1`, which each carries.
    /// With `keys_only` the build side keeps its keys alone (and carries
    /// nothing else). The join emits rows of `out_schema` — the carried
    /// probe columns, then, for an inner or left outer join that keeps
    /// build rows, the carried build columns — on pages that hold as
    /// many rows as pages of `width`-byte rows would.
    pub(crate) fn carrying(
        kind: JoinKind,
        [(build, build_key), (probe, probe_key)]: [(Carry, usize); 2],
        keys_only: bool,
        out_schema: Arc<Schema>,
        width: usize,
        (build_cost, probe_cost): (OpCost, OpCost),
        spill: QueryResources,
    ) -> Result<Self, ExecError> {
        int_key("hash join build", build.input(), build_key)?;
        int_key("hash join probe", probe.input(), probe_key)?;
        let carried = |carry: &Carry, key: usize, side: &str| {
            let missing = || ExecError::plan(format!("a hash join's {side} side carries its key"));
            carry.position(key).ok_or_else(missing)
        };
        let stored_key = carried(&build, build_key, "build")?;
        let stored = build.schema().clone();
        let build_defaults = match keys_only {
            true => Vec::new(),
            false => zero_row(&stored).map_err(ExecError::plan)?,
        };
        let mut join = Self {
            build_key,
            kind,
            build_cost,
            probe_cost,
            build_defaults,
            probe_stored_key: carried(&probe, probe_key, "probe")?,
            keys_only,
            build,
            probe,
            stored,
            stored_key,
            builder: page_builder(out_schema, width),
            tail: Tail::Flush,
            keys: Vec::new(),
            routed: Vec::new(),
            spill,
            pass: Pass::default(),
            reading: None,
            pending: VecDeque::new(),
        };
        join.pass = join.new_pass(0, None)?;
        Ok(join)
    }

    /// Whether the join only asks if a build key exists, so a run of
    /// one build key keeps its first.
    fn collapses(&self) -> bool {
        matches!(self.kind, JoinKind::Semi | JoinKind::Anti)
    }

    /// An empty build table: key-only when the join keeps keys alone.
    fn new_table(&self) -> BuildTable {
        BuildTable::new(if self.keys_only {
            0
        } else {
            self.stored.row_width()
        })
    }

    /// A pass at `level` of [`fan_out`] resident partitions, over a
    /// build side of `build` bytes when that is known (a spilled
    /// pair's). A pair still over the budget at the recursion cap fails
    /// the query instead.
    fn new_pass(&self, level: u32, build: Option<usize>) -> Result<Pass, ExecError> {
        let fan = fan_out(&self.spill.broker, build);
        let bytes = build.unwrap_or(0);
        if fan > 1 && level >= MAX_RECURSION {
            return Err(ExecError::BudgetExhausted {
                op: OP,
                detail: format!(
                    "build partition of {bytes} B still exceeds the budget after {level} \
                     repartitioning levels (skewed key?)"
                ),
            });
        }
        // A lone partition holds what `fan_out` granted for it.
        let granted = if fan == 1 { bytes } else { 0 };
        let table = || Part::Resident {
            table: self.new_table(),
            granted,
        };
        Ok(Pass {
            level,
            frame: self.spill.frame_pages(2 * fan),
            parts: (0..fan).map(|_| table()).collect(),
            last_key: None,
        })
    }

    /// Routes one build page of the open pass, keyed by its column
    /// `key_col`, into the partitions, spilling victims until the
    /// resident demand fits the budget: a page of stored rows, or when
    /// the join keeps keys alone any page with the key. An existence
    /// join first drops each key equal to the one kept before it.
    fn build_page(&mut self, page: &Page, key_col: usize) -> Result<(), ExecError> {
        let keys_only = self.keys_only;
        let lone = matches!(self.pass.parts[..], [Part::Resident { .. }]);
        if keys_only || !lone {
            page.gather_i64(key_col, &mut self.keys);
        }
        if self.collapses() {
            let last = &mut self.pass.last_key;
            self.keys.retain(|&key| last.replace(key) != Some(key));
        }
        if let [Part::Resident { table, granted }] = &mut self.pass.parts[..] {
            // A lone partition never spills: the join is unbounded, or
            // its pair's build side was granted up front. A row table
            // takes the page in one arena append, and the grant is
            // topped up to what the table holds.
            if keys_only {
                self.keys.iter().for_each(|&key| table.insert_row(key, &[]));
            } else {
                table.insert_page(page, key_col);
            }
            let more = table.bytes().saturating_sub(*granted);
            self.spill.broker.grant(more);
            *granted += more;
            return Ok(());
        }
        let w = self.stored.row_width();
        let (level, fan, frame) = (self.pass.level, self.pass.parts.len(), self.pass.frame);
        self.routed.clear();
        self.routed.resize(fan, 0);
        for &key in &self.keys {
            self.routed[partition_of(key, level, fan)] += 1;
        }
        loop {
            // Bytes this page adds to *resident* partitions.
            let resident = self.pass.parts.iter().zip(&self.routed);
            let demand: usize = resident
                .filter(|(part, _)| matches!(part, Part::Resident { .. }))
                .map(|(_, &rows)| rows * w)
                .sum();
            // Room is kept for the frame the next victim's stream takes
            // before its table is released.
            if demand == 0 || self.spill.grant_beside(demand, &self.stored, frame) {
                break;
            }
            self.spill_victim()?;
        }
        // The grant is the partitions' from here on, so that a failed
        // write below leaves nothing unaccounted for.
        for (part, &rows) in self.pass.parts.iter_mut().zip(&self.routed) {
            if let Part::Resident { granted, .. } = part {
                *granted += rows * w;
            }
        }
        let io = self.spill.io(OP);
        let parts = &mut self.pass.parts;
        if keys_only {
            for &key in &self.keys {
                match &mut parts[partition_of(key, level, fan)] {
                    Part::Resident { table, .. } => table.insert_row(key, &[]),
                    Part::Spilled { stream, .. } => {
                        spill_row(&io, stream, &self.stored, frame, &key.to_cell())?
                    }
                }
            }
            return Ok(());
        }
        for (raw, &key) in page.raw_rows().zip(&self.keys) {
            match &mut parts[partition_of(key, level, fan)] {
                Part::Resident { table, .. } => table.insert_row(key, raw),
                Part::Spilled { stream, .. } => spill_row(&io, stream, &self.stored, frame, raw)?,
            }
        }
        Ok(())
    }

    /// Spills the resident partition holding the most granted memory:
    /// its table goes to a new stream, and so do the rows routed to it
    /// from here on. (There is one while a page's demand is resident.)
    fn spill_victim(&mut self) -> Result<(), ExecError> {
        let residents = self.pass.parts.iter_mut().filter_map(|part| match part {
            Part::Resident { granted, .. } => Some((*granted, part)),
            Part::Spilled { .. } => None,
        });
        let Some((granted, victim)) = residents.max_by_key(|&(granted, _)| granted) else {
            return Ok(());
        };
        let io = self.spill.io(OP);
        let mut stream = io.create(self.stored.clone(), self.pass.frame)?;
        if let Part::Resident { table, .. } = victim {
            table.spill_to(&io, &mut stream)?;
        }
        self.spill.broker.release(granted);
        *victim = Part::Spilled {
            stream: Some(stream),
            build: None,
        };
        Ok(())
    }

    /// End of a pass's build input: seal every spilled partition's
    /// build stream.
    fn finish_build(&mut self) -> Result<(), ExecError> {
        let io = self.spill.io(OP);
        for part in &mut self.pass.parts {
            if let Part::Spilled { stream, build } = part {
                *build = stream.take().map(|rows| io.finish(rows)).transpose()?;
            }
        }
        Ok(())
    }

    /// Probes one page of carried probe rows in the open pass: resident
    /// partitions join it at once, spilled partitions stream its rows to
    /// disk.
    fn probe_page(&mut self, page: &Page, out: &mut Pages) -> Result<(), ExecError> {
        page.gather_i64(self.probe_stored_key, &mut self.keys);
        let pass = &mut self.pass;
        let fan = pass.parts.len();
        let io = self.spill.io(OP);
        for (probe_raw, &key) in page.raw_rows().zip(&self.keys) {
            match &mut pass.parts[partition_of(key, pass.level, fan)] {
                Part::Resident { table, .. } => probe_row(
                    self.kind,
                    table,
                    key,
                    probe_raw,
                    &mut self.builder,
                    out,
                    &self.build_defaults,
                ),
                Part::Spilled { stream, .. } => {
                    spill_row(&io, stream, self.probe.schema(), pass.frame, probe_raw)?
                }
            }
        }
        Ok(())
    }

    /// Hands over the open pass's partitions with the resident tables'
    /// grants returned (an open stream carries its own).
    fn take_parts(&mut self) -> Vec<Part> {
        let parts = std::mem::take(&mut self.pass.parts);
        for part in &parts {
            if let Part::Resident { granted, .. } = part {
                self.spill.broker.release(*granted);
            }
        }
        parts
    }

    /// End of a pass's probe input: release its resident partitions,
    /// seal the probe streams and queue each spilled partition a probe
    /// row ever routed to as a pair of the next level — every join kind
    /// is probe-driven, so a probe-less partition produces no output.
    fn finish_probe(&mut self) -> Result<(), ExecError> {
        let level = self.pass.level + 1;
        for part in self.take_parts() {
            if let Part::Spilled {
                stream: Some(probe),
                build,
            } = part
            {
                self.pending.push_back(SpillPair {
                    build: build.filter(|f| f.rows() > 0),
                    probe: self.spill.io(OP).finish(probe)?,
                    level,
                });
            }
        }
        Ok(())
    }

    /// One step of the later passes: open the next pending pair's pass,
    /// or feed the open one a page of its build file, then of its probe
    /// file. Returns the step's virtual cost.
    fn pair_step(&mut self, out: &mut Pages) -> Result<VTime, ExecError> {
        let io = self.spill.io(OP);
        let (cursor, building) = match &mut self.reading {
            Some(Reading::Build(cursor, _)) => (cursor.as_mut(), true),
            Some(Reading::Probe(cursor)) => (Some(cursor), false),
            None => {
                match self.pending.pop_front() {
                    Some(pair) => self.start_pass(pair)?,
                    None => self.tail = Tail::Flush,
                }
                return Ok(1);
            }
        };
        let page = cursor.map(|cursor| io.next_page(cursor)).transpose()?;
        if let Some(page) = page.flatten() {
            let cost = if building {
                self.build_page(&page, self.stored_key)?;
                self.build_cost
            } else {
                self.probe_page(&page, out)?;
                self.probe_cost
            };
            return Ok(cost.input_cost(page.rows()).max(1));
        }
        match self.reading.take() {
            Some(Reading::Build(cursor, probe)) => {
                // The build file's frame goes back before the probe
                // file's is granted.
                drop(cursor);
                self.finish_build()?;
                let cursor = self.spill.io(OP).open(probe, self.pass.frame)?;
                self.reading = Some(Reading::Probe(cursor));
            }
            _ => self.finish_probe()?,
        }
        Ok(1)
    }

    /// Opens the pass over a spilled pair, reading its build file first.
    fn start_pass(&mut self, pair: SpillPair) -> Result<(), ExecError> {
        let bytes = pair.build.as_ref().map_or(0, |f| f.bytes() as usize);
        self.pass = self.new_pass(pair.level, Some(bytes))?;
        let io = self.spill.io(OP);
        let build = pair.build.map(|file| io.open(file, self.pass.frame));
        self.reading = Some(Reading::Build(build.transpose()?, pair.probe));
        Ok(())
    }
}

/// Appends `row` to a spilled partition's `stream`, first opening it
/// for rows of `schema` with a `frame`-page frame when there is none.
fn spill_row(
    io: &SpillIo<'_>,
    stream: &mut Option<SpillStream>,
    schema: &Arc<Schema>,
    frame: usize,
    row: &[u8],
) -> Result<(), ExecError> {
    let stream = match stream {
        Some(stream) => stream,
        None => stream.insert(io.create(schema.clone(), frame)?),
    };
    io.push(stream, row)
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
            ("build input", Some(self.build.input().clone())),
            ("probe input", Some(self.probe.input().clone())),
        ]
    }

    /// Takes the columns the join carries of an input page.
    fn on_page(
        &mut self,
        port: usize,
        page: &Arc<Page>,
        out: &mut Pages,
    ) -> Result<PageWork, ExecError> {
        let cost = if port == 0 {
            match self.keys_only {
                true => self.build_page(page, self.build_key)?,
                false => self.build_page(&self.build.apply(page), self.stored_key)?,
            }
            self.build_cost
        } else {
            self.probe_page(&self.probe.apply(page), out)?;
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
                self.tail = Tail::Pairs;
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
            Tail::Pairs => Ok(Drained::batch(self.pair_step(out)?)),
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

    /// The open pass's resident grants, the pending pairs and what a
    /// later pass reads. (Open streams return their frames as they
    /// drop.)
    fn release(&mut self) {
        drop(self.take_parts());
        self.pending.clear();
        self.reading = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{drive, pages_of, run_shell};
    use crate::plan::concat_schemas;
    use crate::wiring::page_rows;
    use cordoba_storage::{DataType, Field, TableBuilder, Value};
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
            .map(|raw| i64::from_cell(raw[8..16].try_into().unwrap()))
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
        let level_0 = |budget: usize| fan_out(&MemoryBroker::with_budget(budget), None);
        assert_eq!(fan_out(&MemoryBroker::unbounded(), None), 1);
        // 16 pages -> √16 = 4 partitions.
        assert_eq!(level_0(16 * PAGE_SIZE), 4);
        // Tiny budgets still get the minimum split.
        assert_eq!(level_0(1), 2);
        // The cap wins for huge budgets (√262144 pages = 512).
        assert_eq!(level_0(1 << 30), MAX_PARTITIONS);
        // A pair whose build side fits is granted it: one partition.
        let broker = MemoryBroker::with_budget(16 * PAGE_SIZE);
        assert_eq!(fan_out(&broker, Some(10 * PAGE_SIZE)), 1);
        assert_eq!(broker.used(), 10 * PAGE_SIZE);
        // One that does not gets partitions of half the budget each.
        assert_eq!(fan_out(&broker, Some(20 * PAGE_SIZE)), 3);
        assert_eq!(broker.used(), 10 * PAGE_SIZE, "nothing granted");
    }

    fn run_join_with(kind: JoinKind, spill: QueryResources) -> Vec<Vec<Value>> {
        let (bs, brows) = build_side();
        let (ps, prows) = probe_side();
        run_join_rows(kind, spill, (bs, brows), (ps, prows))
    }

    /// An inner/outer/semi/anti join of `ps` rows with `bs` rows on
    /// their first columns, at the default costs.
    fn join_of(
        kind: JoinKind,
        spill: QueryResources,
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
        spill: QueryResources,
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
        run_join_with(kind, QueryResources::default())
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
                QueryResources::default(),
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
                QueryResources::default(),
                (build.0.clone(), build.1.clone()),
                (probe.0.clone(), probe.1.clone()),
            );
            let spill = QueryResources::with_budget(8 * PAGE_SIZE);
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
            QueryResources::default(),
            (build.0.clone(), build.1.clone()),
            (probe.0.clone(), probe.1.clone()),
        );
        let spill = QueryResources::with_budget(PAGE_SIZE);
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
        let spill = QueryResources::with_budget(4 * PAGE_SIZE);
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
        let spill = QueryResources::default();
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
        let spill = QueryResources::with_budget(budget);
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
    fn fresh_dir_budget(tag: &str, budget: usize) -> (QueryResources, PathBuf) {
        let name = format!("cordoba-hash-join-{tag}-{}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let mut spill = QueryResources::with_budget(budget);
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

    /// An inner or left outer join of `ps` probe rows with `bs` build
    /// rows on their first columns that carries probe column 0 alone
    /// and keeps build keys alone, its pages sized for whole rows.
    fn key_only_join(kind: JoinKind, bs: &Arc<Schema>, ps: &Arc<Schema>) -> HashJoinKernel {
        let probe = Carry::new(ps, vec![0]).expect("in range");
        let build = Carry::new(bs, vec![0]).expect("in range");
        let width = ps.row_width() + bs.row_width();
        let costs = (OpCost::default(), OpCost::default());
        let (out, spill) = (probe.schema().clone(), QueryResources::default());
        let sides = [(build, 0), (probe, 0)];
        HashJoinKernel::carrying(kind, sides, true, out, width, costs, spill).expect("valid")
    }

    #[test]
    fn joins_that_read_no_build_column_keep_every_duplicate_build_key() {
        // Build keys in runs of 3 — clustered, as an existence join
        // would collapse them — matched 3 times per probe row, and an
        // unmatched probe key once by the outer join.
        let (bs, _) = build_side();
        let (ps, _) = probe_side();
        let build = pages_of(&bs, &clustered_rows(30, 3));
        let probe_keys = [4, 12, 0, 9, 4];
        let probe: Vec<Vec<Value>> = probe_keys
            .iter()
            .map(|&k| vec![Value::Int(k), Value::Int(-k)])
            .collect();
        for (kind, per_key) in [(JoinKind::Inner, [3, 0]), (JoinKind::LeftOuter, [3, 1])] {
            let mut join = key_only_join(kind, &bs, &ps);
            let got = drive(&mut join, &[&build, &pages_of(&ps, &probe)]).expect("joins");
            let want: Vec<Vec<Value>> = probe_keys
                .iter()
                .flat_map(|&k| vec![vec![Value::Int(k)]; per_key[usize::from(k >= 10)]])
                .collect();
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn a_narrowed_join_emits_the_pages_of_its_whole_rows() {
        // 8 B rows carried of 32 B joined rows: every page holds the
        // 128 rows a 32 B page would, the tail excepted.
        let (build, probe) = spill_fixture();
        let inputs = [pages_of(&build.0, &build.1), pages_of(&probe.0, &probe.1)];
        let pages = |join: &mut HashJoinKernel| {
            let mut out = Pages::new();
            for (port, pages) in inputs.iter().enumerate() {
                for page in pages {
                    join.on_page(port, page, &mut out).expect("input page");
                }
                join.on_close(port, &mut out).expect("end of input");
            }
            while !join.drain(&mut out).expect("flush").last {}
            out.iter().map(|page| page.rows()).collect::<Vec<_>>()
        };
        let (bs, ps) = (&build.0, &probe.0);
        let spill = QueryResources::default();
        let whole = pages(&mut join_of(JoinKind::Inner, spill, bs, ps));
        let narrow = pages(&mut key_only_join(JoinKind::Inner, bs, ps));
        assert_eq!(narrow, whole);
        assert!(whole.len() > 2 && whole[0] == PAGE_SIZE / 32, "{whole:?}");
    }

    /// The sealed ([`SpillFile`]) build sides of the open pass's
    /// partitions that spilled.
    fn spilled_builds(join: &HashJoinKernel) -> Vec<&SpillFile> {
        let spilled = join.pass.parts.iter().filter_map(|part| match part {
            Part::Spilled { build, .. } => build.as_ref(),
            Part::Resident { .. } => None,
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
        // 4 KiB budget: neither key file fits when its pair's pass
        // starts, so the pass splits it by the next level's hash and
        // spills the parts as key files again.
        let (bs, _) = build_side();
        let (ps, _) = probe_side();
        let build = pages_of(&bs, &scattered(&clustered_rows(8000, 1)));
        let probe = pages_of(&ps, &probe_rows());
        let spill = QueryResources::with_budget(PAGE_SIZE);
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
            if join.pass.level > 0 {
                split_key_files += spilled_builds(&join)
                    .into_iter()
                    .filter(|file| file.schema().row_width() == KEY_BYTES)
                    .count();
            }
        }
        assert!(split_key_files > 0, "no key file was repartitioned");
        let want = existence(JoinKind::Semi, 8000, &probe_rows());
        assert_eq!(by_key(page_rows(&out)), by_key(want));
        assert_eq!(broker.used(), 0);
    }

    #[test]
    fn a_pass_over_a_pair_under_twice_the_budget_keeps_a_part_resident() {
        // 375 KiB of build rows in four level-0 partitions against a
        // 16-page (64 KiB) budget: each spilled pair's build side is
        // over the budget and under twice it, so its pass splits it in
        // three, keeps what fits and joins those probe rows at once.
        let (mut build, probe) = spill_fixture();
        build.1 = (0..24_000)
            .map(|i| vec![Value::Int(i % 6000), Value::Int(i)])
            .collect();
        let budget = 16 * PAGE_SIZE;
        let inputs = [pages_of(&build.0, &build.1), pages_of(&probe.0, &probe.1)];
        let spill = QueryResources::with_budget(budget);
        let broker = spill.broker.clone();
        let mut join = join_of(JoinKind::Inner, spill, &build.0, &probe.0);
        let mut out = Pages::new();
        for (port, pages) in inputs.iter().enumerate() {
            for page in pages {
                join.on_page(port, page, &mut out).expect("input page");
            }
            join.on_close(port, &mut out).expect("end of input");
        }
        let pair = join.pending.front().expect("a spilled pair");
        let read = pair.build.as_ref().map_or(0, |file| file.bytes());
        assert_eq!(pair.level, 1);
        assert!(read > budget as u64 && read < 2 * budget as u64, "{read} B");
        while !matches!(join.reading, Some(Reading::Probe(_))) {
            join.drain(&mut out).expect("the pair's build file");
        }
        assert_eq!(join.pass.level, 1);
        let resident = join.pass.parts.iter();
        let resident = resident.filter(|part| matches!(part, Part::Resident { .. }));
        assert!(resident.count() > 0, "every part spilled");
        let written: u64 = spilled_builds(&join).iter().map(|file| file.bytes()).sum();
        assert!(written < read, "wrote {written} B of {read}");
        while !join.drain(&mut out).expect("spilled pairs").last {}
        let want = run_join_rows(JoinKind::Inner, QueryResources::default(), build, probe);
        assert_eq!(sorted(page_rows(&out)), sorted(want));
        assert_eq!(broker.used(), 0);
    }
}
