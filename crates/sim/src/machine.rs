//! The event-driven multi-core machine.
//!
//! One [`spice_ir::interp::ThreadState`] runs per core over the pre-decoded
//! program form ([`spice_ir::DecodedProgram`]). At every *active* cycle,
//! each core that is not stalled retires at most one issue group; loads and
//! stores walk the [`crate::cache::MemoryHierarchy`] and stall the core for
//! the resulting latency, scalar sends become visible to the receiving core
//! after the configured inter-core latency, and speculative stores land in
//! the per-core [`crate::specbuf::SpecBuffer`] until the thread commits or
//! is squashed. This is the substrate on which both the Spice-transformed
//! code and the baseline TLS schemes are timed (paper §5).
//!
//! **Simulated time advances by events, not by ticks.** Each core advertises
//! when it can next do something — its `busy_until` horizon, or, when
//! blocked on a receive, the arrival time of the next message on the channel
//! it is waiting for — and [`Machine::run`] jumps the clock straight to the
//! minimum of those times, crediting the skipped interval's stall and idle
//! cycles arithmetically. A skipped cycle is, by construction, one in which
//! the cycle-stepped machine would only have incremented those same
//! counters, so the event-driven run retires the identical instruction
//! sequence at the identical cycles and produces **bit-identical**
//! [`RunSummary`]s — it only spends less host time doing so. When exactly
//! one core is runnable (every sequential baseline; the serial phases of a
//! Spice invocation) the scheduler drops into a scan-free single-core loop
//! with the same guarantee. See `DESIGN.md`, "harness performance
//! architecture", for the invariant and its boundary conditions.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use spice_ir::exec::AccessSet;
use spice_ir::interp::{
    ChannelTable, FlatMemory, MemPort, StepEvent, SysPort, ThreadState, ThreadStatus,
};
use spice_ir::{
    BlockId, DecodedProgram, FuncId, InstClass, MisspeculationCause, Program, SquashForensics,
    TraceEvent, TraceRecorder, TraceSink, TrapKind,
};

use crate::cache::{HitLevel, MemAccessStats, MemoryHierarchy};
use crate::config::MachineConfig;
use crate::specbuf::SpecBuffer;

/// A message travelling between cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Message {
    ready_at: u64,
    value: i64,
}

/// The set of inter-core scalar channels, kept in a dense table indexed by
/// the small integer channel ids the transformation allocates (no hashing on
/// the send/receive path).
#[derive(Debug, Clone, Default)]
pub struct ChannelNet {
    queues: ChannelTable<Message>,
    /// Running message count, so [`ChannelNet::pending`] — consulted every
    /// scheduling round — is O(1) instead of a walk over every queue.
    in_flight: usize,
}

impl ChannelNet {
    /// Enqueues `value` on `chan`, visible to receivers at `ready_at`.
    pub fn send(&mut self, chan: i64, value: i64, ready_at: u64) {
        self.queues
            .queue_mut(chan)
            .push_back(Message { ready_at, value });
        self.in_flight += 1;
    }

    /// Dequeues the oldest message on `chan` if it has arrived by `now`.
    pub fn try_recv(&mut self, chan: i64, now: u64) -> Option<i64> {
        let q = self.queues.existing_mut(chan)?;
        match q.front() {
            Some(m) if m.ready_at <= now => {
                self.in_flight -= 1;
                Some(q.pop_front().expect("front exists").value)
            }
            _ => None,
        }
    }

    /// Arrival time of the oldest message queued on `chan`, if any — the
    /// wake-up event for a core blocked receiving on it. (Send times are
    /// monotone, so the queue front is the earliest arrival.)
    #[must_use]
    pub fn earliest_on(&self, chan: i64) -> Option<u64> {
        self.queues.queue(chan)?.front().map(|m| m.ready_at)
    }

    /// Total messages currently queued (arrived or still in flight).
    #[must_use]
    pub fn pending(&self) -> usize {
        debug_assert_eq!(
            self.in_flight,
            self.queues.queues().map(VecDeque::len).sum::<usize>()
        );
        self.in_flight
    }

    /// Empties every queue while keeping their allocations for the next
    /// invocation.
    pub fn clear(&mut self) {
        self.queues.clear_queues();
        self.in_flight = 0;
    }
}

/// The memory system's cross-chunk conflict detection (paper §3, "Conflict
/// Detection"): per-core speculative read sets mirrored at word granularity
/// into [`AccessSet`]s, plus the union of every write committed during the
/// current loop invocation ("epoch") — the main thread's direct stores and
/// the buffers of committed speculative chunks. A `spec.check` instruction
/// asks whether a core's read set intersects the epoch's committed writes;
/// a positive verdict is sticky for the epoch so it can be attributed in the
/// per-core report. Interior mutability because the query runs inside
/// another core's instruction step (the machine is single-threaded; every
/// borrow is short-lived).
///
/// The tracker mirrors the read stream instead of consuming
/// [`SpecBuffer::read_set`] because a `spec.check` executed by core 0 needs
/// core *k*'s read set while core 0's own `SpecBuffer` is mutably borrowed
/// by its memory port — the per-core buffers are unreachable from there.
/// Both recorders share one semantics (store-forwarded loads are excluded);
/// see [`SpecBuffer::load`] for the rule and keep the two in sync. (The
/// machine turns the buffer-local recording *off* — this tracker is the one
/// copy it consults.)
/// Origin of the most recent architectural write to one word this epoch —
/// forensic metadata only, consulted when a squash needs explaining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WriteOrigin {
    core: u32,
    /// Chunk id the writer was inside when the word became architectural
    /// (`None` for the non-speculative main chunk).
    chunk: Option<u64>,
    func: FuncId,
    block: BlockId,
    at: u64,
}

/// Optional per-address attribution kept alongside the conflict sets while
/// tracing is on: which site last wrote each word this epoch, where each
/// core's speculative reads came from, and *word-granular* shadows of the
/// (possibly coarser-grained) detection sets so a squash can be classified
/// as a true RAW or a false conflict the coarsening invented. Forensics are
/// an observer — they never feed back into verdicts.
#[derive(Debug, Clone)]
struct Forensics {
    /// Monotone chunk-id allocator (never reset, so ids are unique within a
    /// traced machine's lifetime).
    next_chunk: u64,
    /// Chunk id currently active per core, if any.
    cur_chunk: Vec<Option<u64>>,
    /// Last architectural writer per word address this epoch.
    writers: HashMap<i64, WriteOrigin>,
    /// Per core: site and cycle of the first speculative read of each word.
    read_sites: Vec<HashMap<i64, (FuncId, BlockId, u64)>>,
    /// Word-granular shadow of `epoch_writes`.
    epoch_writes_words: AccessSet,
    /// Word-granular shadows of `read_sets`.
    read_sets_words: Vec<AccessSet>,
}

impl Forensics {
    fn new(cores: usize) -> Self {
        Forensics {
            next_chunk: 0,
            cur_chunk: vec![None; cores],
            writers: HashMap::new(),
            read_sites: vec![HashMap::new(); cores],
            epoch_writes_words: AccessSet::new(),
            read_sets_words: vec![AccessSet::new(); cores],
        }
    }
}

#[derive(Debug, Clone)]
struct ConflictTracker {
    enabled: bool,
    granularity_log2: u8,
    /// Half-open address range `[lo, hi)` excluded from tracking: the value
    /// predictor's shared arrays (`sva`/`svat`/`svai`/`work`/…). They are
    /// runtime metadata whose accesses are ordered by the `new_invocation`
    /// token protocol, not program data — the centralized step rewrites them
    /// on core 0 at the start of every invocation, and without the exemption
    /// each worker's in-loop threshold loads would read as RAW violations.
    exempt: Option<(i64, i64)>,
    /// Number of cores currently inside a speculative chunk (between
    /// `spec.begin` and its commit/abort). While this is zero, architectural
    /// writes are *not* recorded into the epoch's committed-write set: a
    /// write that precedes every active (and therefore every future)
    /// speculative read of the epoch cannot be the earlier half of a RAW
    /// violation — the reader observes the post-write value. This is what
    /// lets a miniature application's serial phases (e.g. `mcf_app`'s arc
    /// scan and tree relink, which store to the very links the speculative
    /// walk later traverses) run before the workers are released without
    /// poisoning every chunk.
    active_chunks: Cell<usize>,
    epoch_writes: RefCell<AccessSet>,
    read_sets: RefCell<Vec<AccessSet>>,
    /// First conflicting word address found per core this epoch, if any.
    verdicts: RefCell<Vec<Option<i64>>>,
    /// Squash-forensics attribution, present only while tracing is on.
    forensics: RefCell<Option<Box<Forensics>>>,
}

impl ConflictTracker {
    fn new(cores: usize, enabled: bool, granularity_log2: u8) -> Self {
        ConflictTracker {
            enabled,
            granularity_log2,
            exempt: None,
            active_chunks: Cell::new(0),
            epoch_writes: RefCell::new(AccessSet::with_granularity(granularity_log2)),
            read_sets: RefCell::new(vec![AccessSet::with_granularity(granularity_log2); cores]),
            verdicts: RefCell::new(vec![None; cores]),
            forensics: RefCell::new(None),
        }
    }

    /// Turns on squash forensics (idempotent; chunk ids keep counting).
    fn enable_forensics(&self) {
        let mut guard = self.forensics.borrow_mut();
        if guard.is_none() {
            let cores = self.read_sets.borrow().len();
            *guard = Some(Box::new(Forensics::new(cores)));
        }
    }

    fn is_exempt(&self, addr: i64) -> bool {
        self.exempt.is_some_and(|(lo, hi)| addr >= lo && addr < hi)
    }

    /// Records a speculative load that missed the core's own store buffer.
    fn record_read(&self, core: usize, addr: i64) {
        if self.enabled && !self.is_exempt(addr) {
            self.read_sets.borrow_mut()[core].insert(addr);
        }
    }

    /// Records a write that became architectural (a non-speculative store or
    /// one address of a committed speculative buffer). Skipped while no core
    /// is speculating — see [`ConflictTracker::active_chunks`]; the skip is
    /// exact, not merely safe.
    fn record_write(&self, addr: i64) {
        if self.enabled && self.active_chunks.get() > 0 && !self.is_exempt(addr) {
            self.epoch_writes.borrow_mut().insert(addr);
        }
    }

    /// Forensic twin of [`ConflictTracker::record_read`], called by the port
    /// on the same gating path when tracing is on: remembers the word-exact
    /// read and its first site.
    fn note_read(&self, core: usize, addr: i64, func: FuncId, block: BlockId, at: u64) {
        if !self.enabled || self.is_exempt(addr) {
            return;
        }
        if let Some(f) = self.forensics.borrow_mut().as_mut() {
            f.read_sets_words[core].insert(addr);
            f.read_sites[core].entry(addr).or_insert((func, block, at));
        }
    }

    /// Forensic twin of [`ConflictTracker::record_write`]: remembers the
    /// word-exact write and its origin (core, active chunk, site, cycle).
    fn note_write(&self, core: usize, addr: i64, func: FuncId, block: BlockId, at: u64) {
        if !self.enabled || self.active_chunks.get() == 0 || self.is_exempt(addr) {
            return;
        }
        if let Some(f) = self.forensics.borrow_mut().as_mut() {
            f.epoch_writes_words.insert(addr);
            let chunk = f.cur_chunk[core];
            f.writers.insert(
                addr,
                WriteOrigin {
                    core: core as u32,
                    chunk,
                    func,
                    block,
                    at,
                },
            );
        }
    }

    /// Starts a core's speculative chunk (`spec.begin` retired). Returns the
    /// forensic chunk id, if forensics are on.
    fn start_chunk(&self, core: usize) -> Option<u64> {
        if self.enabled {
            self.active_chunks.set(self.active_chunks.get() + 1);
        }
        self.forensics.borrow_mut().as_mut().map(|f| {
            let id = f.next_chunk;
            f.next_chunk += 1;
            f.cur_chunk[core] = Some(id);
            id
        })
    }

    /// The forensic chunk id currently active on `core`, if any.
    fn current_chunk(&self, core: usize) -> Option<u64> {
        self.forensics
            .borrow()
            .as_ref()
            .and_then(|f| f.cur_chunk[core])
    }

    /// Reconstructs the RAW chain behind `core`'s pending conflict verdict.
    /// Must run *before* [`ConflictTracker::end_chunk`] consumes the read
    /// set. Returns `None` when forensics are off or no overlap exists.
    fn squash_forensics(&self, core: usize) -> Option<SquashForensics> {
        let guard = self.forensics.borrow();
        let f = guard.as_ref()?;
        let grain_reads = self.read_sets.borrow();
        let grain_writes = self.epoch_writes.borrow();
        let addr = grain_reads.get(core)?.first_overlap(&grain_writes)?;
        let word_addr = f.read_sets_words[core].first_overlap(&f.epoch_writes_words);
        let grain_overlaps = grain_reads[core].overlap_count(&grain_writes) as u64;
        let word_overlaps = f.read_sets_words[core].overlap_count(&f.epoch_writes_words) as u64;
        let span = 1i64 << self.granularity_log2;
        // Word-exact overlap first; for a pure false conflict, fall back to
        // whichever word of the guilty grain each side actually touched.
        let writer = word_addr
            .and_then(|w| f.writers.get(&w))
            .or_else(|| (addr..addr + span).find_map(|w| f.writers.get(&w)));
        let reader = word_addr
            .and_then(|w| f.read_sites[core].get(&w))
            .or_else(|| (addr..addr + span).find_map(|w| f.read_sites[core].get(&w)));
        Some(SquashForensics {
            addr,
            word_addr,
            writer_core: writer.map(|w| w.core),
            writer_chunk: writer.and_then(|w| w.chunk),
            writer_site: writer.map(|w| (w.func, w.block)),
            writer_at: writer.map(|w| w.at),
            reader_site: reader.map(|&(func, block, _)| (func, block)),
            false_conflicts: grain_overlaps.saturating_sub(word_overlaps),
            granularity_log2: self.granularity_log2,
        })
    }

    /// Ends a core's speculative chunk (commit or abort): its read set is
    /// consumed; the verdict, if any, stays for reporting.
    fn end_chunk(&self, core: usize) {
        if self.enabled {
            self.read_sets.borrow_mut()[core].clear();
            self.active_chunks
                .set(self.active_chunks.get().saturating_sub(1));
        }
        if let Some(f) = self.forensics.borrow_mut().as_mut() {
            f.read_sets_words[core].clear();
            f.read_sites[core].clear();
            f.cur_chunk[core] = None;
        }
    }

    /// Answers a `spec.check`: 1 if `core`'s read set intersects the writes
    /// committed so far this epoch.
    fn query(&self, core: i64) -> i64 {
        if !self.enabled {
            return 0;
        }
        let Ok(idx) = usize::try_from(core) else {
            return 0;
        };
        let reads = self.read_sets.borrow();
        let Some(set) = reads.get(idx) else { return 0 };
        match set.first_overlap(&self.epoch_writes.borrow()) {
            Some(addr) => {
                self.verdicts.borrow_mut()[idx].get_or_insert(addr);
                1
            }
            None => 0,
        }
    }

    fn verdict(&self, core: usize) -> Option<i64> {
        self.verdicts.borrow().get(core).copied().flatten()
    }

    /// Starts a new epoch (loop invocation): all sets and verdicts reset.
    /// Forensic chunk ids stay monotone across epochs.
    fn clear_epoch(&self) {
        self.active_chunks.set(0);
        self.epoch_writes.borrow_mut().clear();
        for s in self.read_sets.borrow_mut().iter_mut() {
            s.clear();
        }
        for v in self.verdicts.borrow_mut().iter_mut() {
            *v = None;
        }
        if let Some(f) = self.forensics.borrow_mut().as_mut() {
            f.writers.clear();
            f.epoch_writes_words.clear();
            for s in f.read_sets_words.iter_mut() {
                s.clear();
            }
            for m in f.read_sites.iter_mut() {
                m.clear();
            }
            for c in f.cur_chunk.iter_mut() {
                *c = None;
            }
        }
    }
}

/// Why a core spent a cycle without retiring an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallKind {
    None,
    Memory,
    Recv,
}

/// Per-core statistics of one run.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct CoreReport {
    /// Instructions retired.
    pub retired: u64,
    /// Cycles spent waiting on the memory hierarchy.
    pub mem_stall_cycles: u64,
    /// Cycles spent waiting on an empty channel.
    pub recv_stall_cycles: u64,
    /// Cycles with no thread or a finished thread.
    pub idle_cycles: u64,
    /// Cycle at which the thread finished or halted (if it did).
    pub finished_at: Option<u64>,
    /// Return value of the thread's outermost function, if it returned one.
    pub return_value: Option<i64>,
    /// Whether the thread ended in a trapped state.
    pub trapped: Option<TrapKind>,
    /// Speculative commits executed.
    pub spec_commits: u64,
    /// Speculative aborts (squashes) executed.
    pub spec_aborts: u64,
    /// Cross-chunk dependence conflicts this core's read set was found
    /// guilty of by a `spec.check` during the last invocation (0 or 1 per
    /// invocation; the check verdict is sticky per epoch).
    pub spec_conflicts: u64,
    /// Smallest conflicting word address behind `spec_conflicts`, if any.
    pub spec_conflict_addr: Option<i64>,
    /// Loads/stores classified by the level that served them.
    pub mem: MemAccessStats,
    /// Retired-instruction counts by class.
    pub retired_by_class: Vec<(String, u64)>,
}

/// Outcome of [`Machine::run`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct RunSummary {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Per-core reports.
    pub cores: Vec<CoreReport>,
}

impl RunSummary {
    /// Total instructions retired across all cores.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.retired).sum()
    }
}

/// Reasons a simulation can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No core can ever make progress again.
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
    },
    /// The configured cycle budget was exhausted.
    MaxCyclesExceeded {
        /// The budget that was exceeded.
        limit: u64,
    },
    /// Execution ended with at least one thread trapped and never recovered.
    UnrecoveredTrap {
        /// Core whose thread trapped.
        core: usize,
        /// The trap.
        trap: TrapKind,
    },
    /// A thread was spawned on a core that does not exist.
    NoSuchCore {
        /// The requested core index.
        core: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { cycle } => write!(f, "deadlock detected at cycle {cycle}"),
            SimError::MaxCyclesExceeded { limit } => {
                write!(f, "simulation exceeded {limit} cycles")
            }
            SimError::UnrecoveredTrap { core, trap } => {
                write!(
                    f,
                    "thread on core {core} trapped and was never recovered: {trap}"
                )
            }
            SimError::NoSuchCore { core } => write!(f, "no such core: {core}"),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecAction {
    Begin,
    Commit,
    Abort,
}

/// What ended one core's issue group for the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreCycleEnd {
    /// Instructions retired; the core is busy until its new horizon.
    Ran,
    /// The core blocked on an empty channel.
    Blocked,
    /// The thread finished or halted.
    Done,
    /// The thread trapped.
    Trapped,
}

/// One memory access observed by the tracing layer (recorded, not replayed:
/// purely an event payload).
#[derive(Debug, Clone, Copy)]
struct MemAccess {
    addr: i64,
    value: i64,
    is_store: bool,
    /// Whether the access missed every cache level.
    missed: bool,
}

struct CoreMemPort<'a> {
    mem: &'a mut FlatMemory,
    hier: &'a mut MemoryHierarchy,
    spec: &'a mut SpecBuffer,
    conflicts: &'a ConflictTracker,
    core: usize,
    latency: u64,
    /// Tracing support, all inert unless `record` is set: the issuing
    /// instruction's site and cycle, and the access the current step made.
    record: bool,
    site: (FuncId, BlockId),
    now: u64,
    accessed: Option<MemAccess>,
}

impl MemPort for CoreMemPort<'_> {
    fn load(&mut self, addr: i64) -> Result<i64, TrapKind> {
        let (lat, level) = self.hier.load(self.core, addr);
        self.latency += lat;
        let value = if let Some(v) = self.spec.load(addr) {
            v
        } else {
            if self.spec.is_active() {
                // A speculative load that missed the store buffer may observe
                // a stale word: it joins the conflict detector's read set.
                self.conflicts.record_read(self.core, addr);
                if self.record {
                    self.conflicts
                        .note_read(self.core, addr, self.site.0, self.site.1, self.now);
                }
            }
            self.mem.read(addr)?
        };
        if self.record {
            self.accessed = Some(MemAccess {
                addr,
                value,
                is_store: false,
                missed: level == HitLevel::Memory,
            });
        }
        Ok(value)
    }

    fn store(&mut self, addr: i64, value: i64) -> Result<(), TrapKind> {
        let (lat, level) = self.hier.store(self.core, addr);
        self.latency += lat;
        if self.record {
            self.accessed = Some(MemAccess {
                addr,
                value,
                is_store: true,
                missed: level == HitLevel::Memory,
            });
        }
        if self.spec.is_active() {
            // Validate the address eagerly so that wild speculative stores
            // trap like real ones would (the squash path recovers them).
            if addr < 0 || addr as usize >= self.mem.size() {
                return Err(TrapKind::OutOfBoundsAccess { addr });
            }
            self.spec.store(addr, value);
            Ok(())
        } else {
            // Non-speculative stores are architectural immediately; they are
            // the epoch's committed-write set as far as later chunks are
            // concerned (the main thread's chunk 0 in a Spice loop).
            self.conflicts.record_write(addr);
            if self.record {
                self.conflicts
                    .note_write(self.core, addr, self.site.0, self.site.1, self.now);
            }
            self.mem.write(addr, value)
        }
    }

    fn alloc(&mut self, words: i64) -> Result<i64, TrapKind> {
        self.mem.alloc(words)
    }
}

struct CoreSysPort<'a> {
    channels: &'a mut ChannelNet,
    resteers: &'a mut Vec<(i64, BlockId)>,
    conflicts: &'a ConflictTracker,
    now: u64,
    comm_latency: u64,
    spec_action: Option<SpecAction>,
    /// The channel of the last `try_recv` that came back empty — recorded so
    /// a blocking receive advertises which arrival would wake it (the
    /// event-driven scheduler's wake-up condition for blocked cores).
    recv_failed_chan: Option<i64>,
    /// Tracing support, inert unless `record` is set: what the current step
    /// sent, received, or conflict-checked.
    record: bool,
    sent: Option<(i64, i64)>,
    received: Option<(i64, i64)>,
    /// `(queried core, verdict)` of a `spec.check` this step.
    checked: Option<(i64, i64)>,
}

impl SysPort for CoreSysPort<'_> {
    fn send(&mut self, chan: i64, value: i64) {
        if self.record {
            self.sent = Some((chan, value));
        }
        self.channels
            .send(chan, value, self.now + self.comm_latency);
    }

    fn try_recv(&mut self, chan: i64) -> Option<i64> {
        let got = self.channels.try_recv(chan, self.now);
        match got {
            None => self.recv_failed_chan = Some(chan),
            Some(v) if self.record => self.received = Some((chan, v)),
            Some(_) => {}
        }
        got
    }

    fn spec_begin(&mut self) {
        self.spec_action = Some(SpecAction::Begin);
    }

    fn spec_commit(&mut self) {
        self.spec_action = Some(SpecAction::Commit);
    }

    fn spec_abort(&mut self) {
        self.spec_action = Some(SpecAction::Abort);
    }

    fn spec_conflict(&mut self, core: i64) -> i64 {
        let verdict = self.conflicts.query(core);
        if self.record {
            self.checked = Some((core, verdict));
        }
        verdict
    }

    fn resteer(&mut self, core: i64, target: BlockId) {
        self.resteers.push((core, target));
    }
}

#[derive(Debug, Clone)]
struct CoreState {
    thread: Option<ThreadState>,
    spec: SpecBuffer,
    busy_until: u64,
    stall: StallKind,
    blocked: bool,
    /// The channel the thread's pending `Recv` found empty, while `blocked`:
    /// the core's wake-up event is the next arrival on this channel.
    waiting_chan: Option<i64>,
    report: CoreReport,
    /// Retired-instruction counts, dense by [`InstClass::index`].
    class_counts: [u64; InstClass::COUNT],
    done: bool,
}

impl CoreState {
    fn new() -> Self {
        CoreState {
            thread: None,
            spec: SpecBuffer::new(),
            busy_until: 0,
            stall: StallKind::None,
            blocked: false,
            waiting_chan: None,
            report: CoreReport::default(),
            class_counts: [0; InstClass::COUNT],
            done: false,
        }
    }
}

/// One core's execution context, split-borrowed out of the [`Machine`]: the
/// thread, its memory/system ports, and the core's bookkeeping fields. Built
/// once per scheduling episode — the lockstep path constructs it per core
/// per cycle, the single-active fast loop holds one across its whole run so
/// the ports are not reconstructed on every cycle.
struct CoreRun<'a> {
    i: usize,
    issue_width: u64,
    config: &'a MachineConfig,
    decoded: &'a DecodedProgram,
    activity: &'a mut Option<ActivityTrace>,
    attribution: &'a mut Option<CycleAttribution>,
    trace: &'a mut Option<TraceRecorder>,
    conflicts: &'a ConflictTracker,
    cycle: &'a mut u64,
    thread: &'a mut ThreadState,
    mem_port: CoreMemPort<'a>,
    sys_port: CoreSysPort<'a>,
    busy_until: &'a mut u64,
    stall: &'a mut StallKind,
    blocked: &'a mut bool,
    waiting_chan: &'a mut Option<i64>,
    report: &'a mut CoreReport,
    class_counts: &'a mut [u64; InstClass::COUNT],
    done: &'a mut bool,
}

impl<'a> CoreRun<'a> {
    fn new(m: &'a mut Machine, i: usize) -> Self {
        let Machine {
            config,
            mem,
            hier,
            cores,
            channels,
            resteer_requests,
            conflicts,
            decoded,
            cycle,
            activity,
            attribution,
            trace,
            ..
        } = m;
        let CoreState {
            thread,
            spec,
            busy_until,
            stall,
            blocked,
            waiting_chan,
            report,
            class_counts,
            done,
        } = &mut cores[i];
        let thread = thread.as_mut().expect("core has a runnable thread");
        let record = trace.is_some();
        CoreRun {
            i,
            issue_width: config.core.issue_width.max(1),
            config,
            decoded,
            activity,
            attribution,
            trace,
            conflicts,
            cycle,
            thread,
            mem_port: CoreMemPort {
                mem,
                hier,
                spec,
                conflicts,
                core: i,
                latency: 0,
                record,
                site: (FuncId(0), BlockId(0)),
                now: 0,
                accessed: None,
            },
            sys_port: CoreSysPort {
                channels,
                resteers: resteer_requests,
                conflicts,
                now: 0,
                comm_latency: config.inter_core_latency,
                spec_action: None,
                recv_failed_chan: None,
                record,
                sent: None,
                received: None,
                checked: None,
            },
            busy_until,
            stall,
            blocked,
            waiting_chan,
            report,
            class_counts,
            done,
        }
    }

    /// One cycle's issue group at `now` (see [`Machine::step_core`]).
    fn issue_group(&mut self, now: u64) -> CoreCycleEnd {
        self.sys_port.now = now;
        let mut issued_this_cycle = 0u64;
        // Source location of the instruction about to retire, captured only
        // when an observer (attribution or tracing) is on: the group's whole
        // busy interval is charged to the location of the instruction that
        // *ends* the group.
        let attributing = self.attribution.is_some();
        let tracing = self.trace.is_some();
        let observing = attributing || tracing;
        let mut src = (FuncId(0), BlockId(0));
        let mut group_retired = 0u32;
        loop {
            self.mem_port.latency = 0;
            self.sys_port.spec_action = None;
            self.sys_port.recv_failed_chan = None;
            if tracing {
                self.mem_port.accessed = None;
                self.sys_port.sent = None;
                self.sys_port.received = None;
                self.sys_port.checked = None;
            }
            if observing {
                src = (self.thread.current_func(), self.thread.current_block());
                self.mem_port.site = src;
                self.mem_port.now = now;
            }
            let result = self
                .thread
                .step(self.decoded, &mut self.mem_port, &mut self.sys_port);

            match result {
                Ok(StepEvent::Executed(info)) => {
                    self.report.retired += 1;
                    group_retired += 1;
                    self.class_counts[info.class().index()] += 1;
                    if let Some(a) = self.activity {
                        a.record(self.i, now);
                    }
                    let co_issuable = matches!(info.class(), InstClass::IntAlu | InstClass::Other)
                        && self.mem_port.latency == 0;
                    if co_issuable {
                        issued_this_cycle += 1;
                        if issued_this_cycle < self.issue_width {
                            // Keep filling this cycle's issue group. (ALU
                            // operations never carry a spec action, so the
                            // horizon/stall writes are deferred to the
                            // instruction that ends the group — they would
                            // only be overwritten.)
                            if tracing {
                                self.emit_port_events(now, src);
                            }
                            continue;
                        }
                        *self.busy_until = now + 1;
                        *self.stall = StallKind::None;
                        *self.blocked = false;
                        *self.waiting_chan = None;
                        if let Some(a) = self.attribution.as_mut() {
                            a.add(src.0, src.1, 1);
                        }
                        if tracing {
                            self.emit_port_events(now, src);
                            self.emit_retire(now, src, group_retired);
                        }
                        return CoreCycleEnd::Ran;
                    }
                    let mem_latency = self.mem_port.latency;
                    let cost = self.config.core.latency_of(info.class()).max(1) + mem_latency;
                    *self.busy_until = now + cost;
                    *self.stall = if mem_latency > 0 {
                        StallKind::Memory
                    } else {
                        StallKind::None
                    };
                    *self.blocked = false;
                    *self.waiting_chan = None;
                    match self.sys_port.spec_action {
                        Some(SpecAction::Begin) => {
                            self.mem_port.spec.begin();
                            let chunk = self.conflicts.start_chunk(self.i);
                            if let (Some(t), Some(chunk)) = (self.trace.as_mut(), chunk) {
                                t.emit(TraceEvent::ChunkBegin {
                                    at: now,
                                    core: self.i as u32,
                                    chunk,
                                });
                            }
                        }
                        Some(SpecAction::Commit) => {
                            let writes = self.mem_port.spec.take_commit();
                            self.report.spec_commits += 1;
                            let chunk = self.conflicts.current_chunk(self.i);
                            let drained = writes.len() as u64;
                            let mut extra = 0;
                            for (addr, value) in writes {
                                // Committed writes drain through the
                                // hierarchy like ordinary stores, and join
                                // the epoch's committed-write set for later
                                // chunks' conflict checks.
                                let (lat, _) = self.mem_port.hier.store(self.i, addr);
                                extra += lat.min(self.config.l2.hit_latency);
                                self.conflicts.record_write(addr);
                                if self.mem_port.record {
                                    self.conflicts.note_write(self.i, addr, src.0, src.1, now);
                                }
                                let _ = self.mem_port.mem.write(addr, value);
                            }
                            self.conflicts.end_chunk(self.i);
                            *self.busy_until += extra;
                            if let Some(t) = self.trace.as_mut() {
                                t.emit(TraceEvent::ChunkCommit {
                                    at: now,
                                    core: self.i as u32,
                                    chunk,
                                    writes: drained,
                                });
                            }
                        }
                        Some(SpecAction::Abort) => {
                            // Forensics must be read out before `end_chunk`
                            // consumes the read set they explain.
                            let chunk = self.conflicts.current_chunk(self.i);
                            let forensics = if tracing {
                                self.conflicts.squash_forensics(self.i)
                            } else {
                                None
                            };
                            self.mem_port.spec.abort();
                            self.report.spec_aborts += 1;
                            self.conflicts.end_chunk(self.i);
                            if let Some(t) = self.trace.as_mut() {
                                let cause = match self.conflicts.verdict(self.i) {
                                    Some(addr) => MisspeculationCause::DependenceViolation { addr },
                                    None => MisspeculationCause::StalePrediction,
                                };
                                t.emit(TraceEvent::ChunkSquash {
                                    at: now,
                                    core: self.i as u32,
                                    chunk,
                                    cause,
                                    forensics,
                                });
                            }
                        }
                        None => {}
                    }
                    if let Some(a) = self.attribution.as_mut() {
                        a.add(src.0, src.1, *self.busy_until - now);
                    }
                    if tracing {
                        self.emit_port_events(now, src);
                        self.emit_retire(now, src, group_retired);
                    }
                    return CoreCycleEnd::Ran;
                }
                Ok(StepEvent::Blocked) => {
                    *self.busy_until = now + 1;
                    *self.stall = StallKind::Recv;
                    *self.blocked = true;
                    *self.waiting_chan = self.sys_port.recv_failed_chan;
                    self.report.recv_stall_cycles += 1;
                    return CoreCycleEnd::Blocked;
                }
                Ok(StepEvent::Halted) | Ok(StepEvent::Finished(_)) => {
                    *self.done = true;
                    *self.blocked = false;
                    self.report.finished_at = Some(now);
                    if let Ok(StepEvent::Finished(v)) = result {
                        self.report.return_value = v;
                    }
                    return CoreCycleEnd::Done;
                }
                Err(_trap) => {
                    // The thread stays trapped until (possibly) resteered
                    // by another thread. It re-checks every cycle so that
                    // an incoming resteer takes effect promptly.
                    *self.busy_until = now + 1;
                    *self.stall = StallKind::None;
                    *self.blocked = false;
                    return CoreCycleEnd::Trapped;
                }
            }
        }
    }

    /// Drains the ports' per-step recordings into trace events. Only called
    /// while tracing; purely observational.
    fn emit_port_events(&mut self, now: u64, src: (FuncId, BlockId)) {
        let core = self.i as u32;
        if let Some((chan, value)) = self.sys_port.sent.take() {
            if let Some(t) = self.trace.as_mut() {
                t.emit(TraceEvent::ChannelSend {
                    at: now,
                    core,
                    chan,
                    value,
                });
            }
        }
        if let Some((chan, value)) = self.sys_port.received.take() {
            if let Some(t) = self.trace.as_mut() {
                t.emit(TraceEvent::ChannelRecv {
                    at: now,
                    core,
                    chan,
                    value,
                });
            }
        }
        if let Some((queried, verdict)) = self.sys_port.checked.take() {
            let idx = usize::try_from(queried).ok();
            let chunk = idx.and_then(|q| self.conflicts.current_chunk(q));
            let conflict = if verdict != 0 {
                idx.and_then(|q| self.conflicts.verdict(q))
            } else {
                None
            };
            if let Some(t) = self.trace.as_mut() {
                t.emit(TraceEvent::ChunkValidate {
                    at: now,
                    core: u32::try_from(queried).unwrap_or(u32::MAX),
                    chunk,
                    conflict,
                });
            }
        }
        if let Some(a) = self.mem_port.accessed.take() {
            let Some(t) = self.trace.as_mut() else { return };
            if a.missed {
                t.emit(TraceEvent::CacheMiss {
                    at: now,
                    core,
                    addr: a.addr,
                    is_store: a.is_store,
                });
            }
            if t.is_watched(a.addr) {
                t.emit(TraceEvent::Watch {
                    at: now,
                    core,
                    func: src.0,
                    block: src.1,
                    addr: a.addr,
                    value: a.value,
                    is_store: a.is_store,
                });
            }
        }
    }

    /// Emits the group-end retire marker. Only called while tracing.
    fn emit_retire(&mut self, now: u64, src: (FuncId, BlockId), retired: u32) {
        let core = self.i as u32;
        if let Some(t) = self.trace.as_mut() {
            t.emit(TraceEvent::Retire {
                at: now,
                core,
                func: src.0,
                block: src.1,
                retired,
            });
        }
    }
}

/// Cycle attribution by source location: every busy interval a retired
/// issue group causes (functional-unit latency, memory stalls, commit
/// drains) is charged to the `(function, block)` of the instruction that
/// ended the group. Summed per function this is whole-program profile data —
/// the measured analogue of Table 2's "fraction of execution time" column —
/// and summed over a loop's blocks it is the loop's measured hotness.
/// Attribution is an *observer*: enabling it never changes simulated time,
/// and it accumulates across invocations until the machine is dropped.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct CycleAttribution {
    /// `cycles[func][block]` — busy cycles charged to that block.
    cycles: Vec<Vec<u64>>,
}

impl CycleAttribution {
    fn add(&mut self, func: FuncId, block: BlockId, dt: u64) {
        if dt == 0 {
            return;
        }
        let f = func.index();
        if self.cycles.len() <= f {
            self.cycles.resize_with(f + 1, Vec::new);
        }
        let row = &mut self.cycles[f];
        let b = block.index();
        if row.len() <= b {
            row.resize(b + 1, 0);
        }
        row[b] += dt;
    }

    /// Cycles attributed to one block of `func`.
    #[must_use]
    pub fn block_cycles(&self, func: FuncId, block: BlockId) -> u64 {
        self.cycles
            .get(func.index())
            .and_then(|row| row.get(block.index()))
            .copied()
            .unwrap_or(0)
    }

    /// Cycles attributed to `func` as a whole.
    #[must_use]
    pub fn func_cycles(&self, func: FuncId) -> u64 {
        self.cycles
            .get(func.index())
            .map(|row| row.iter().sum())
            .unwrap_or(0)
    }

    /// All attributed cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().flatten().sum()
    }
}

/// Records, per core, how many instructions retired in each window of
/// `window` cycles — enough to reconstruct the execution-schedule figures
/// (paper Figures 2, 3 and 5) as a timeline.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct ActivityTrace {
    /// Window size in cycles.
    pub window: u64,
    /// `samples[core][w]` = instructions retired by `core` in window `w`.
    pub samples: Vec<Vec<u64>>,
}

impl ActivityTrace {
    fn new(cores: usize, window: u64) -> Self {
        ActivityTrace {
            window,
            samples: vec![Vec::new(); cores],
        }
    }

    fn record(&mut self, core: usize, cycle: u64) {
        let w = (cycle / self.window) as usize;
        let v = &mut self.samples[core];
        if v.len() <= w {
            v.resize(w + 1, 0);
        }
        v[w] += 1;
    }

    /// Renders one line per core, one character per window: `#` busy,
    /// `.` idle.
    #[must_use]
    pub fn ascii(&self) -> String {
        let width = self.samples.iter().map(Vec::len).max().unwrap_or(0);
        let mut out = String::new();
        for (i, row) in self.samples.iter().enumerate() {
            out.push_str(&format!("core {i}: "));
            for w in 0..width {
                let busy = row.get(w).copied().unwrap_or(0);
                out.push(if busy > 0 { '#' } else { '.' });
            }
            out.push('\n');
        }
        out
    }
}

/// The multi-core machine.
///
/// The program and its decoded execution form live behind [`Arc`]s: they are
/// immutable once built, so a sweep running the same workload under many
/// configurations decodes once and every machine shares the result
/// ([`Machine::from_shared`]). Per-machine state — memory, caches, cores,
/// conflict sets — stays owned and private.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    program: Arc<Program>,
    /// The pre-decoded execution form of `program`, built once at load.
    decoded: Arc<DecodedProgram>,
    mem: FlatMemory,
    hier: MemoryHierarchy,
    cores: Vec<CoreState>,
    channels: ChannelNet,
    resteer_requests: Vec<(i64, BlockId)>,
    conflicts: ConflictTracker,
    cycle: u64,
    activity: Option<ActivityTrace>,
    attribution: Option<CycleAttribution>,
    trace: Option<TraceRecorder>,
    snapshots: Option<SnapshotRecorder>,
}

/// Periodic checkpointing state: the baseline memory image snapshots are
/// diffed against, the configured interval, and every snapshot taken so far.
#[derive(Debug, Clone)]
struct SnapshotRecorder {
    interval: u64,
    next_at: u64,
    baseline: Arc<FlatMemory>,
    taken: Vec<MachineSnapshot>,
}

/// A complete machine checkpoint: every piece of mutable simulation state —
/// cores (threads, spec buffers, reports), channels, resteer queue, conflict
/// tracker, cache hierarchy, cycle — plus the memory image as a delta
/// against a shared baseline. [`Machine::resume_from`] reconstructs a
/// machine whose continuation is bit-identical to the run the snapshot was
/// taken from: same future [`RunSummary`]s, same memory, same trace tail.
/// (The replay observers `ActivityTrace`/`CycleAttribution` are *not*
/// captured; the [`TraceRecorder`] is, so a resumed trace continues exactly.)
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    config: MachineConfig,
    program: Arc<Program>,
    decoded: Arc<DecodedProgram>,
    cycle: u64,
    cores: Vec<CoreState>,
    channels: ChannelNet,
    resteer_requests: Vec<(i64, BlockId)>,
    conflicts: ConflictTracker,
    hier: MemoryHierarchy,
    trace: Option<TraceRecorder>,
    baseline: Arc<FlatMemory>,
    /// `(word index, value)` for every word differing from the baseline.
    delta: Vec<(usize, i64)>,
    heap_next: i64,
}

impl MachineSnapshot {
    /// Simulated cycle the snapshot was taken at.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of memory words that differ from the baseline image.
    #[must_use]
    pub fn delta_words(&self) -> usize {
        self.delta.len()
    }
}

impl Machine {
    /// Creates a machine loaded with `program`: globals are materialized,
    /// the heap sized from the configuration, and the program decoded once
    /// into its dense execution form.
    #[must_use]
    pub fn new(config: MachineConfig, program: Program) -> Self {
        let decoded = Arc::new(DecodedProgram::new(&program));
        Machine::from_shared(config, Arc::new(program), decoded)
    }

    /// Creates a machine from already-shared immutable state: the program
    /// and its decoded form. This is the decode-once path a parallel sweep
    /// uses — N machines over one `Arc<DecodedProgram>` instead of N
    /// decodes. Memory is built here with [`FlatMemory::for_program`]: a
    /// zeroed allocation the OS backs with demand-zero pages, with only the
    /// globals written, so a page becomes resident only once the workload
    /// touches it.
    #[must_use]
    pub fn from_shared(
        config: MachineConfig,
        program: Arc<Program>,
        decoded: Arc<DecodedProgram>,
    ) -> Self {
        let mem = FlatMemory::for_program(&program, config.heap_words);
        let hier = MemoryHierarchy::new(&config);
        let cores: Vec<CoreState> = (0..config.cores)
            .map(|_| {
                let mut c = CoreState::new();
                // The ConflictTracker mirrors every speculative read this
                // machine cares about; the buffer-local read set would be a
                // second copy nobody consults.
                c.spec.set_read_tracking(false);
                c
            })
            .collect();
        let conflicts = ConflictTracker::new(
            config.cores,
            config.conflict_detection,
            config.conflict_granularity_log2,
        );
        Machine {
            config,
            program,
            decoded,
            mem,
            hier,
            cores,
            channels: ChannelNet::default(),
            resteer_requests: Vec::new(),
            conflicts,
            cycle: 0,
            activity: None,
            attribution: None,
            trace: None,
            snapshots: None,
        }
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The loaded program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Shared memory (read access, e.g. for checking results).
    #[must_use]
    pub fn mem(&self) -> &FlatMemory {
        &self.mem
    }

    /// Shared memory (write access, e.g. for building data structures before
    /// a run or mutating them between loop invocations).
    pub fn mem_mut(&mut self) -> &mut FlatMemory {
        &mut self.mem
    }

    /// Current simulated cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Excludes the half-open address range `[lo, hi)` from conflict
    /// detection. Used for the value predictor's shared arrays: their
    /// accesses are ordered by the `new_invocation` token protocol, so a
    /// conflict on them is a false positive by construction (the paper's
    /// hardware watches program data, not the software predictor's state).
    pub fn set_conflict_exempt(&mut self, lo: i64, hi: i64) {
        self.conflicts.exempt = Some((lo, hi));
    }

    /// Enables activity tracing with the given window (in cycles).
    pub fn enable_activity_trace(&mut self, window: u64) {
        self.activity = Some(ActivityTrace::new(self.config.cores, window.max(1)));
    }

    /// Enables per-`(function, block)` cycle attribution (see
    /// [`CycleAttribution`]). Purely observational; accumulates across
    /// invocations (`clear_threads`/`reset_cycle_counter` do not reset it).
    pub fn enable_cycle_attribution(&mut self) {
        self.attribution = Some(CycleAttribution::default());
    }

    /// The accumulated cycle attribution, if enabled.
    #[must_use]
    pub fn cycle_attribution(&self) -> Option<&CycleAttribution> {
        self.attribution.as_ref()
    }

    /// Returns the recorded activity trace, if tracing was enabled.
    #[must_use]
    pub fn activity_trace(&self) -> Option<&ActivityTrace> {
        self.activity.as_ref()
    }

    /// Enables structured event tracing into a ring buffer of `capacity`
    /// events, and turns on squash forensics in the conflict tracker.
    /// Observational only: an enabled trace never changes simulated time or
    /// any architectural outcome, and it accumulates across invocations.
    pub fn enable_trace(&mut self, capacity: usize) {
        if self.trace.is_none() {
            self.trace = Some(TraceRecorder::new(capacity));
        }
        self.conflicts.enable_forensics();
    }

    /// Adds `addr` to the watch list: every load/store of it becomes a
    /// [`TraceEvent::Watch`]. Requires [`Machine::enable_trace`] first
    /// (no-op otherwise).
    pub fn watch_address(&mut self, addr: i64) {
        if let Some(t) = self.trace.as_mut() {
            t.watch(addr);
        }
    }

    /// The recorded event trace, if tracing is enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_ref()
    }

    /// Emits one event into the machine's trace (used by drivers to mark
    /// invocation boundaries and predictor decisions). No-op when tracing is
    /// off.
    pub fn trace_emit(&mut self, event: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.emit(event);
        }
    }

    /// Enables periodic checkpointing: [`Machine::run`] takes a
    /// [`MachineSnapshot`] at the first scheduling round at or after every
    /// multiple of `interval` cycles. The current memory image becomes the
    /// baseline that snapshots are diffed against.
    pub fn enable_snapshots(&mut self, interval: u64) {
        let interval = interval.max(1);
        self.snapshots = Some(SnapshotRecorder {
            interval,
            next_at: self.cycle + interval,
            baseline: Arc::new(self.mem.clone()),
            taken: Vec::new(),
        });
    }

    /// Takes a snapshot of the machine right now. Uses the periodic
    /// recorder's baseline when one exists; otherwise the snapshot carries a
    /// full copy of memory as its own baseline (empty delta).
    #[must_use]
    pub fn snapshot(&self) -> MachineSnapshot {
        match self.snapshots.as_ref() {
            Some(s) => self.snapshot_against(Arc::clone(&s.baseline)),
            None => {
                let mut snap = self.snapshot_against(Arc::new(self.mem.clone()));
                snap.delta.clear();
                snap
            }
        }
    }

    fn snapshot_against(&self, baseline: Arc<FlatMemory>) -> MachineSnapshot {
        debug_assert_eq!(baseline.words().len(), self.mem.words().len());
        let delta: Vec<(usize, i64)> = self
            .mem
            .words()
            .iter()
            .zip(baseline.words())
            .enumerate()
            .filter(|(_, (cur, base))| cur != base)
            .map(|(i, (cur, _))| (i, *cur))
            .collect();
        MachineSnapshot {
            config: self.config.clone(),
            program: Arc::clone(&self.program),
            decoded: Arc::clone(&self.decoded),
            cycle: self.cycle,
            cores: self.cores.clone(),
            channels: self.channels.clone(),
            resteer_requests: self.resteer_requests.clone(),
            conflicts: self.conflicts.clone(),
            hier: self.hier.clone(),
            trace: self.trace.clone(),
            baseline,
            delta,
            heap_next: self.mem.heap_next(),
        }
    }

    /// Snapshots taken by the periodic recorder so far, oldest first.
    #[must_use]
    pub fn snapshots_taken(&self) -> &[MachineSnapshot] {
        self.snapshots.as_ref().map_or(&[], |s| &s.taken)
    }

    /// Reconstructs a machine from a snapshot. The continuation is
    /// bit-identical to the original run from the snapshot point: identical
    /// future summaries, memory words, and trace tail (the snapshot's trace
    /// state is restored; activity/attribution observers start disabled).
    #[must_use]
    pub fn resume_from(snapshot: &MachineSnapshot) -> Machine {
        let mut mem = (*snapshot.baseline).clone();
        for &(i, v) in &snapshot.delta {
            mem.words_mut()[i] = v;
        }
        mem.set_heap_next(snapshot.heap_next);
        Machine {
            config: snapshot.config.clone(),
            program: Arc::clone(&snapshot.program),
            decoded: Arc::clone(&snapshot.decoded),
            mem,
            hier: snapshot.hier.clone(),
            cores: snapshot.cores.clone(),
            channels: snapshot.channels.clone(),
            resteer_requests: snapshot.resteer_requests.clone(),
            conflicts: snapshot.conflicts.clone(),
            cycle: snapshot.cycle,
            activity: None,
            attribution: None,
            trace: snapshot.trace.clone(),
            snapshots: None,
        }
    }

    /// Runs until completion or until the clock reaches `target`, whichever
    /// comes first. `Ok(Some(summary))` means the run finished before
    /// `target`; `Ok(None)` means it paused at `target` with all state
    /// intact — calling [`Machine::run`] (or `run_until` again) continues
    /// bit-identically, because the scheduler only ever pauses on cycle
    /// boundaries where stall/idle credit is linear in elapsed time.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] other than the pause itself (the
    /// configured `max_cycles` budget still applies and still reports
    /// [`SimError::MaxCyclesExceeded`]).
    pub fn run_until(&mut self, target: u64) -> Result<Option<RunSummary>, SimError> {
        let saved = self.config.max_cycles;
        let effective = target.min(saved);
        self.config.max_cycles = effective;
        let out = self.run();
        self.config.max_cycles = saved;
        match out {
            Ok(summary) => Ok(Some(summary)),
            Err(SimError::MaxCyclesExceeded { limit })
                if limit == effective && effective < saved =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Human-readable dump of per-core scheduler state at the current cycle
    /// (the `inspect` CLI's `break` view).
    #[must_use]
    pub fn state_dump(&self) -> String {
        let mut out = format!("cycle {}\n", self.cycle);
        for (i, c) in self.cores.iter().enumerate() {
            let status = match &c.thread {
                None => "idle (no thread)".to_string(),
                Some(t) => match t.status() {
                    ThreadStatus::Trapped(k) => format!("trapped: {k}"),
                    _ if c.done => "done".to_string(),
                    _ if c.blocked => {
                        format!("blocked on chan {:?}", c.waiting_chan)
                    }
                    _ => format!("runnable at {:?}:{:?}", t.current_func(), t.current_block()),
                },
            };
            out.push_str(&format!(
                "core {i}: {status}; busy_until {}, retired {}, spec {}\n",
                c.busy_until,
                c.report.retired,
                if c.spec.is_active() { "active" } else { "off" },
            ));
        }
        out
    }

    /// Places a new thread on `core`, starting at `func` with `args`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchCore`] if the core index is out of range.
    pub fn spawn(&mut self, core: usize, func: FuncId, args: &[i64]) -> Result<(), SimError> {
        if core >= self.cores.len() {
            return Err(SimError::NoSuchCore { core });
        }
        let state = &mut self.cores[core];
        state.thread = Some(ThreadState::new(&self.decoded, func, args));
        state.busy_until = self.cycle;
        state.done = false;
        state.blocked = false;
        state.waiting_chan = None;
        state.report = CoreReport::default();
        state.class_counts = [0; InstClass::COUNT];
        Ok(())
    }

    /// Removes every thread and clears channels, keeping memory and caches.
    /// Used by multi-invocation drivers between loop invocations.
    pub fn clear_threads(&mut self) {
        for c in &mut self.cores {
            c.thread = None;
            c.spec.reset();
            c.busy_until = self.cycle;
            c.done = false;
            c.blocked = false;
            c.waiting_chan = None;
        }
        self.channels.clear();
        self.resteer_requests.clear();
        // A fresh set of threads is a fresh loop invocation: the conflict
        // epoch (committed writes, read sets, verdicts) starts over.
        self.conflicts.clear_epoch();
    }

    /// Resets the cycle counter to zero (per-invocation timing).
    pub fn reset_cycle_counter(&mut self) {
        self.cycle = 0;
        for c in &mut self.cores {
            c.busy_until = 0;
        }
        // Re-arm the periodic snapshot recorder onto the new clock: one
        // checkpoint at the invocation's first scheduling round (cycle 0),
        // then every `interval` cycles. Without this the mark would drift
        // past every later invocation's per-invocation clock and recording
        // would stop after the first invocation.
        if let Some(s) = self.snapshots.as_mut() {
            s.next_at = 0;
        }
    }

    /// Advances the machine by one cycle.
    pub fn step_cycle(&mut self) {
        let now = self.cycle;
        for i in 0..self.cores.len() {
            // Skip cores that are stalled, idle or done.
            {
                let c = &mut self.cores[i];
                if c.done || c.thread.is_none() {
                    c.report.idle_cycles += 1;
                    continue;
                }
                if c.busy_until > now {
                    match c.stall {
                        StallKind::Memory => c.report.mem_stall_cycles += 1,
                        StallKind::Recv => c.report.recv_stall_cycles += 1,
                        StallKind::None => {}
                    }
                    continue;
                }
            }
            let _ = self.step_core(i, now);
        }

        // Deliver resteer requests at end of cycle.
        if !self.resteer_requests.is_empty() {
            self.deliver_resteers(now);
        }

        self.cycle += 1;
    }

    /// Executes one cycle's issue group on a single (ready) core: up to
    /// `issue_width` co-issuable ALU operations (Table 1: 6-issue), ended by
    /// any memory access, long-latency operation, communication or control
    /// transfer. Returns what ended the group, so a caller driving one core
    /// alone knows whether the schedule could have changed.
    fn step_core(&mut self, i: usize, now: u64) -> CoreCycleEnd {
        CoreRun::new(self, i).issue_group(now)
    }

    /// Applies queued remote resteers (end-of-cycle semantics).
    fn deliver_resteers(&mut self, now: u64) {
        let requests = std::mem::take(&mut self.resteer_requests);
        for (core, target) in requests {
            let idx = core as usize;
            if idx < self.cores.len() {
                if let Some(t) = self.cores[idx].thread.as_mut() {
                    t.resteer_to(target);
                    self.cores[idx].done = false;
                    self.cores[idx].blocked = false;
                    self.cores[idx].waiting_chan = None;
                    self.cores[idx].busy_until = now + self.config.inter_core_latency;
                }
            }
        }
    }

    /// Jumps the clock from `self.cycle` to `target`, crediting each core
    /// with exactly the stall/idle cycles the cycle-stepped machine would
    /// have accumulated over the skipped interval — by the event invariant,
    /// those counter bumps are the *only* effect the skipped cycles could
    /// have had.
    fn skip_to(&mut self, target: u64) {
        let dt = target.saturating_sub(self.cycle);
        if dt == 0 {
            return;
        }
        for c in &mut self.cores {
            if c.done || c.thread.is_none() {
                // Idle cores tick their idle counter every scanned cycle.
                c.report.idle_cycles += dt;
                continue;
            }
            let status = c.thread.as_ref().expect("checked above").status();
            if matches!(status, ThreadStatus::Trapped(_)) {
                // A trapped thread re-checks every cycle without touching
                // any counter; skipping is free.
                continue;
            }
            if c.blocked {
                // A blocked thread retries its receive every cycle; each
                // empty retry is one recv-stall cycle.
                c.report.recv_stall_cycles += dt;
                continue;
            }
            // Busy core: `target` never exceeds any busy core's horizon, so
            // every skipped cycle is a stall cycle of the recorded kind.
            debug_assert!(c.busy_until >= target, "skipped past a ready core");
            match c.stall {
                StallKind::Memory => c.report.mem_stall_cycles += dt,
                StallKind::Recv => c.report.recv_stall_cycles += dt,
                StallKind::None => {}
            }
        }
        self.cycle = target;
    }

    /// Drives a lone runnable core without the per-cycle scheduling scans —
    /// the common regime of every sequential baseline and of a Spice run's
    /// serial phases (workers parked on their channels). The loop stays
    /// cycle-exact: the core's own stall intervals are credited
    /// arithmetically, and control returns to the general scheduler the
    /// moment anything could change another core's schedule (a send, a
    /// resteer, this core blocking, finishing or trapping, or the cycle
    /// budget). The parked cores' idle/stall counters are settled in bulk on
    /// exit for the whole interval — exactly what per-cycle ticking would
    /// have accumulated.
    fn run_single_active(&mut self, i: usize, limit: u64) {
        let entry = self.cycle;
        let mut deliver_at = None;
        {
            // One CoreRun for the whole episode: the ports and split borrows
            // are built once, not once per cycle.
            let mut run = CoreRun::new(self, i);
            loop {
                // Jump this core's own stall interval.
                let bu = *run.busy_until;
                if bu > *run.cycle {
                    let target = bu.min(limit);
                    let dt = target - *run.cycle;
                    match *run.stall {
                        StallKind::Memory => run.report.mem_stall_cycles += dt,
                        StallKind::Recv => run.report.recv_stall_cycles += dt,
                        StallKind::None => {}
                    }
                    *run.cycle = target;
                }
                if *run.cycle >= limit {
                    break;
                }
                let now = *run.cycle;
                let pending_before = run.sys_port.channels.pending();
                let end = run.issue_group(now);
                let sent = run.sys_port.channels.pending() > pending_before;
                let resteered = !run.sys_port.resteers.is_empty();
                *run.cycle = now + 1;
                if sent || resteered || !matches!(end, CoreCycleEnd::Ran) {
                    if resteered {
                        // Delivery happens outside, once the split borrows
                        // are released — at the same point in simulated
                        // time (end of cycle `now`, before anything else
                        // steps), so the semantics are unchanged.
                        deliver_at = Some(now);
                    }
                    break;
                }
            }
        }
        // Settle the parked cores' counters for the elapsed interval: every
        // cycle of it, a done/idle core would have ticked `idle_cycles` and
        // a blocked core would have retried its receive into one more
        // recv-stall cycle (their channels stayed empty by construction —
        // the loop exits on the first send). This must happen BEFORE any
        // pending resteer is delivered: delivery clears the target's
        // blocked/done flags, but in the cycle-stepped machine the target
        // still earned its stall/idle tick for the delivery cycle itself
        // (cores are scanned before end-of-cycle delivery).
        let dt = self.cycle - entry;
        if dt > 0 {
            for (k, c) in self.cores.iter_mut().enumerate() {
                if k == i {
                    continue;
                }
                if c.done || c.thread.is_none() {
                    c.report.idle_cycles += dt;
                } else if c.blocked {
                    c.report.recv_stall_cycles += dt;
                }
                // Trapped cores tick nothing; other states cannot occur
                // while this core is the only active one.
            }
        }
        if let Some(now) = deliver_at {
            self.deliver_resteers(now);
        }
    }

    /// Runs until every spawned thread has finished or halted, advancing the
    /// clock event-to-event (see the module documentation; the result is
    /// bit-identical to stepping every cycle).
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] if no thread can ever make progress again
    ///   (e.g. everyone blocked on empty channels),
    /// * [`SimError::UnrecoveredTrap`] if execution ends with a trapped
    ///   thread that was never resteered,
    /// * [`SimError::MaxCyclesExceeded`] if the configured cycle budget runs
    ///   out.
    pub fn run(&mut self) -> Result<RunSummary, SimError> {
        let limit = self.config.max_cycles;
        loop {
            // Periodic checkpoint: taken at the first scheduling round at or
            // after the recorder's next mark. Observational — snapshotting
            // reads state but never advances or perturbs it.
            let snapshot_due = self
                .snapshots
                .as_ref()
                .is_some_and(|s| self.cycle >= s.next_at);
            if snapshot_due {
                let baseline = {
                    let s = self.snapshots.as_ref().expect("checked above");
                    Arc::clone(&s.baseline)
                };
                let snap = self.snapshot_against(baseline);
                let s = self.snapshots.as_mut().expect("checked above");
                s.taken.push(snap);
                s.next_at = self.cycle + s.interval;
            }
            // One pass over the cores gives the scheduler everything it
            // needs: completion, runnability, and the earliest wake-up. A
            // busy core wakes at `busy_until`; a core blocked on a receive
            // wakes when the next message on its channel arrives (none in
            // flight → no bounded wake-up: only another core's future send,
            // itself an event, can rouse it); trapped cores wake only via a
            // resteer delivered by another core's event.
            let have_msgs = self.channels.pending() > 0;
            let mut all_done = true;
            let mut active = 0usize;
            let mut active_idx = 0usize;
            let mut blocked_wake_bounded = false;
            let mut next: Option<u64> = None;
            for (i, c) in self.cores.iter().enumerate() {
                let Some(t) = &c.thread else { continue };
                if c.done {
                    continue;
                }
                all_done = false;
                if matches!(t.status(), ThreadStatus::Trapped(_)) {
                    continue;
                }
                let wake = if c.blocked {
                    if !have_msgs {
                        // Nothing in flight anywhere: this receive cannot
                        // complete until someone sends, which is itself an
                        // event.
                        continue;
                    }
                    match c.waiting_chan.and_then(|ch| self.channels.earliest_on(ch)) {
                        Some(arrival) => {
                            blocked_wake_bounded = true;
                            arrival.max(c.busy_until)
                        }
                        None => continue,
                    }
                } else {
                    active += 1;
                    active_idx = i;
                    c.busy_until
                };
                next = Some(next.map_or(wake, |n| n.min(wake)));
            }
            if all_done {
                return Ok(self.summary());
            }
            if self.cycle >= limit {
                return Err(SimError::MaxCyclesExceeded { limit });
            }
            if active == 1 && !blocked_wake_bounded {
                // The whole schedule hinges on one core: run it in the
                // scan-free fast loop until anything could change that.
                self.run_single_active(active_idx, limit);
                continue;
            }
            // Progress is possible if some core is runnable or busy, or a
            // blocked core's message will eventually arrive.
            if active == 0 && !have_msgs {
                // Distinguish trap-wedges from pure deadlocks.
                for (i, c) in self.cores.iter().enumerate() {
                    if let Some(t) = &c.thread {
                        if let ThreadStatus::Trapped(k) = t.status() {
                            if !c.done {
                                return Err(SimError::UnrecoveredTrap { core: i, trap: k });
                            }
                        }
                    }
                }
                return Err(SimError::Deadlock { cycle: self.cycle });
            }
            match next.map(|n| n.max(self.cycle)) {
                Some(target) if target > self.cycle => {
                    // Nothing can happen before `target`: account the
                    // skipped interval and land on the event (or on the
                    // cycle budget, whichever is nearer).
                    self.skip_to(target.min(limit));
                }
                Some(_) => self.step_cycle(),
                None => {
                    // Progress is "possible" only through messages nobody is
                    // positioned to receive: the cycle-stepped machine would
                    // idle forward to its budget, so jump straight there.
                    self.skip_to(limit);
                }
            }
        }
    }

    /// Builds the per-core report without running.
    #[must_use]
    pub fn summary(&self) -> RunSummary {
        let cores = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut report = c.report.clone();
                report.mem = self.hier.stats(i);
                report.spec_conflict_addr = self.conflicts.verdict(i);
                report.spec_conflicts = u64::from(report.spec_conflict_addr.is_some());
                report.trapped = c.thread.as_ref().and_then(|t| match t.status() {
                    ThreadStatus::Trapped(k) => Some(k),
                    _ => None,
                });
                let mut classes: Vec<(String, u64)> = InstClass::ALL
                    .iter()
                    .map(|k| (format!("{k:?}"), c.class_counts[k.index()]))
                    .filter(|&(_, v)| v > 0)
                    .collect();
                classes.sort();
                report.retired_by_class = classes;
                report
            })
            .collect();
        RunSummary {
            cycles: self.cycle,
            cores,
        }
    }

    /// Return value of the thread on `core`, if it finished with one.
    #[must_use]
    pub fn return_value(&self, core: usize) -> Option<i64> {
        self.cores.get(core).and_then(|c| c.report.return_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_ir::builder::FunctionBuilder;
    use spice_ir::{BinOp, Inst, Operand};

    fn tiny(cores: usize) -> MachineConfig {
        MachineConfig::test_tiny(cores)
    }

    #[test]
    fn single_thread_program_runs_to_completion() {
        let mut b = FunctionBuilder::new("main");
        let x = b.binop(BinOp::Add, 40i64, 2i64);
        b.ret(Some(Operand::Reg(x)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        let mut m = Machine::new(tiny(1), p);
        m.spawn(0, f, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(m.return_value(0), Some(42));
        assert!(summary.cycles >= 1);
        assert_eq!(summary.cores[0].retired, 1);
    }

    #[test]
    fn memory_latency_is_charged() {
        // Two loads of the same address: first misses everywhere, second hits L1.
        let mut b = FunctionBuilder::new("loads");
        let a = b.load(2000i64, 0);
        let c = b.load(2000i64, 0);
        let s = b.binop(BinOp::Add, a, c);
        b.ret(Some(Operand::Reg(s)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        let cfg = tiny(1);
        let expected_min =
            cfg.l1d.hit_latency + cfg.l2.hit_latency + cfg.l3.hit_latency + cfg.memory_latency;
        let mut m = Machine::new(cfg, p);
        m.spawn(0, f, &[]).unwrap();
        let summary = m.run().unwrap();
        assert!(summary.cycles > expected_min);
        assert_eq!(summary.cores[0].mem.loads, 2);
        assert_eq!(summary.cores[0].mem.l1_hits, 1);
    }

    #[test]
    fn two_threads_communicate_with_latency() {
        // Thread 0 sends 7 on channel 0; thread 1 receives and returns it.
        let mut p = Program::new();
        let mut sender = FunctionBuilder::new("sender");
        sender.send(0i64, 7i64);
        sender.ret(None);
        let sf = p.add_func(sender.finish());

        let mut receiver = FunctionBuilder::new("receiver");
        let v = receiver.recv(0i64);
        receiver.ret(Some(Operand::Reg(v)));
        let rf = p.add_func(receiver.finish());

        let cfg = tiny(2);
        let comm = cfg.inter_core_latency;
        let mut m = Machine::new(cfg, p);
        m.spawn(0, sf, &[]).unwrap();
        m.spawn(1, rf, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(m.return_value(1), Some(7));
        // The receiver cannot finish before the message's flight time.
        assert!(summary.cores[1].finished_at.unwrap() >= comm);
        assert!(summary.cores[1].recv_stall_cycles > 0);
    }

    #[test]
    fn speculative_stores_commit_or_vanish() {
        // Speculative thread stores 5 to @g, then either commits or aborts
        // based on its argument.
        let mut p = Program::new();
        let g = p.add_global("g", 1);
        let mut b = FunctionBuilder::new("spec");
        let do_commit = b.param();
        let commit_bb = b.new_block();
        let abort_bb = b.new_block();
        let done = b.new_block();
        b.push(Inst::SpecBegin);
        b.store(5i64, g, 0);
        b.cond_br(do_commit, commit_bb, abort_bb);
        b.switch_to(commit_bb);
        b.push(Inst::SpecCommit);
        b.br(done);
        b.switch_to(abort_bb);
        b.push(Inst::SpecAbort);
        b.br(done);
        b.switch_to(done);
        b.ret(None);
        let f = p.add_func(b.finish());

        // Commit case.
        let mut m = Machine::new(tiny(1), p.clone());
        m.spawn(0, f, &[1]).unwrap();
        let s = m.run().unwrap();
        assert_eq!(m.mem().read(g).unwrap(), 5);
        assert_eq!(s.cores[0].spec_commits, 1);

        // Abort case.
        let mut m = Machine::new(tiny(1), p);
        m.spawn(0, f, &[0]).unwrap();
        let s = m.run().unwrap();
        assert_eq!(m.mem().read(g).unwrap(), 0);
        assert_eq!(s.cores[0].spec_aborts, 1);
    }

    #[test]
    fn speculative_stores_invisible_to_other_core_until_commit() {
        // Core 0: spec-store 9 to @flag, wait for token, commit, send done.
        // Core 1: read @flag before and after.
        let mut p = Program::new();
        let flag = p.add_global("flag", 1);
        let result = p.add_global("result", 2);

        let mut w = FunctionBuilder::new("writer");
        w.push(Inst::SpecBegin);
        w.store(9i64, flag, 0);
        // Tell the reader the speculative store happened.
        w.send(0i64, 1i64);
        // Wait for permission to commit.
        let _ = w.recv(1i64);
        w.push(Inst::SpecCommit);
        w.send(2i64, 1i64);
        w.ret(None);
        let wf = p.add_func(w.finish());

        let mut r = FunctionBuilder::new("reader");
        let _ = r.recv(0i64);
        let before = r.load(flag, 0);
        r.store(before, result, 0);
        r.send(1i64, 1i64);
        let _ = r.recv(2i64);
        let after = r.load(flag, 0);
        r.store(after, result, 1);
        r.ret(None);
        let rf = p.add_func(r.finish());

        let mut m = Machine::new(tiny(2), p);
        m.spawn(0, wf, &[]).unwrap();
        m.spawn(1, rf, &[]).unwrap();
        m.run().unwrap();
        assert_eq!(m.mem().read(result).unwrap(), 0, "spec store leaked");
        assert_eq!(m.mem().read(result + 1).unwrap(), 9, "commit not visible");
    }

    /// Core 1 speculatively reads `g`; core 0 stores `g` non-speculatively
    /// and then asks the conflict detector about core 1 — the RAW violation
    /// must be reported, attributed to core 1 with the conflicting address.
    fn conflict_check_program() -> (Program, i64, i64, FuncId, FuncId) {
        let mut p = Program::new();
        let g = p.add_global("g", 1);
        let verdict = p.add_global("verdict", 1);

        let mut reader = FunctionBuilder::new("reader");
        reader.push(Inst::SpecBegin);
        let v = reader.load(g, 0);
        reader.send(0i64, v);
        let _ = reader.recv(1i64);
        reader.push(Inst::SpecAbort);
        reader.ret(None);
        let rf = p.add_func(reader.finish());

        let mut checker = FunctionBuilder::new("checker");
        let _ = checker.recv(0i64);
        checker.store(7i64, g, 0);
        let c = checker.spec_check(1i64);
        checker.store(c, verdict, 0);
        checker.send(1i64, 1i64);
        checker.ret(None);
        let cf = p.add_func(checker.finish());
        (p, g, verdict, rf, cf)
    }

    #[test]
    fn spec_check_reports_cross_core_raw_conflicts() {
        let (p, g, verdict, rf, cf) = conflict_check_program();
        let mut m = Machine::new(tiny(2), p);
        m.spawn(0, cf, &[]).unwrap();
        m.spawn(1, rf, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(m.mem().read(verdict).unwrap(), 1, "conflict must be seen");
        assert_eq!(summary.cores[1].spec_conflicts, 1);
        assert_eq!(summary.cores[1].spec_conflict_addr, Some(g));
        assert_eq!(summary.cores[0].spec_conflicts, 0);

        // A fresh invocation epoch forgets the verdict and the sets.
        m.clear_threads();
        assert_eq!(m.summary().cores[1].spec_conflicts, 0);
    }

    #[test]
    fn exempt_range_is_invisible_to_conflict_detection() {
        // Same RAW pattern as above, but `g` sits inside the exempt range —
        // the predictor-array case: ordered by protocol, never a conflict.
        let (p, g, verdict, rf, cf) = conflict_check_program();
        let mut m = Machine::new(tiny(2), p);
        m.set_conflict_exempt(g, g + 1);
        m.spawn(0, cf, &[]).unwrap();
        m.spawn(1, rf, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(m.mem().read(verdict).unwrap(), 0);
        assert_eq!(summary.cores[1].spec_conflicts, 0);
    }

    #[test]
    fn spec_check_is_inert_when_detection_disabled() {
        let (p, _, verdict, rf, cf) = conflict_check_program();
        let mut cfg = tiny(2);
        cfg.conflict_detection = false;
        let mut m = Machine::new(cfg, p);
        m.spawn(0, cf, &[]).unwrap();
        m.spawn(1, rf, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(m.mem().read(verdict).unwrap(), 0);
        assert_eq!(summary.cores[1].spec_conflicts, 0);
    }

    #[test]
    fn resteer_redirects_other_core() {
        // Core 1 spins forever; core 0 resteers it to its exit block.
        let mut p = Program::new();
        let mut spin = FunctionBuilder::new("spin");
        let spin_bb = spin.new_block();
        let exit_bb = spin.new_block();
        spin.br(spin_bb);
        spin.switch_to(spin_bb);
        spin.br(spin_bb);
        spin.switch_to(exit_bb);
        spin.ret(Some(Operand::Imm(123)));
        let spin_f = p.add_func(spin.finish());

        let mut boss = FunctionBuilder::new("boss");
        boss.push(Inst::Resteer {
            core: Operand::Imm(1),
            target: exit_bb,
        });
        boss.ret(None);
        let boss_f = p.add_func(boss.finish());

        let mut m = Machine::new(tiny(2), p);
        m.spawn(0, boss_f, &[]).unwrap();
        m.spawn(1, spin_f, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(m.return_value(1), Some(123));
        assert!(summary.cycles < 1000);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("waiter");
        let v = b.recv(5i64);
        b.ret(Some(Operand::Reg(v)));
        let f = p.add_func(b.finish());
        let mut m = Machine::new(tiny(1), p);
        m.spawn(0, f, &[]).unwrap();
        match m.run() {
            Err(SimError::Deadlock { .. }) => {}
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn unrecovered_trap_is_reported() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("wild");
        let v = b.load(-5i64, 0);
        b.ret(Some(Operand::Reg(v)));
        let f = p.add_func(b.finish());
        let mut m = Machine::new(tiny(1), p);
        m.spawn(0, f, &[]).unwrap();
        match m.run() {
            Err(SimError::UnrecoveredTrap { core: 0, .. }) => {}
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn spawn_on_missing_core_fails() {
        let p = Program::new();
        let mut m = Machine::new(tiny(1), p);
        assert_eq!(
            m.spawn(3, FuncId(0), &[]),
            Err(SimError::NoSuchCore { core: 3 })
        );
    }

    #[test]
    fn activity_trace_shows_busy_windows() {
        let mut b = FunctionBuilder::new("busy");
        let mut acc = b.copy(0i64);
        for _ in 0..20 {
            acc = b.binop(BinOp::Add, acc, 1i64);
        }
        b.ret(Some(Operand::Reg(acc)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        let mut m = Machine::new(tiny(1), p);
        m.enable_activity_trace(5);
        m.spawn(0, f, &[]).unwrap();
        m.run().unwrap();
        let trace = m.activity_trace().unwrap();
        assert!(trace.ascii().contains('#'));
        assert!(trace.samples[0].iter().sum::<u64>() >= 20);
    }

    #[test]
    fn clear_threads_keeps_memory() {
        let mut p = Program::new();
        let g = p.add_global("g", 1);
        let mut b = FunctionBuilder::new("w");
        b.store(7i64, g, 0);
        b.ret(None);
        let f = p.add_func(b.finish());
        let mut m = Machine::new(tiny(1), p);
        m.spawn(0, f, &[]).unwrap();
        m.run().unwrap();
        m.clear_threads();
        m.reset_cycle_counter();
        assert_eq!(m.cycle(), 0);
        assert_eq!(m.mem().read(g).unwrap(), 7);
    }

    #[test]
    fn max_cycles_is_enforced() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("spin");
        let l = b.new_block();
        b.br(l);
        b.switch_to(l);
        b.br(l);
        let f = p.add_func(b.finish());
        let mut cfg = tiny(1);
        cfg.max_cycles = 500;
        let mut m = Machine::new(cfg, p);
        m.spawn(0, f, &[]).unwrap();
        assert_eq!(m.run(), Err(SimError::MaxCyclesExceeded { limit: 500 }));
    }

    /// The event scheduler must be observationally identical to stepping
    /// every cycle: drive one machine with `run()` and a twin cycle-by-cycle
    /// with `step_cycle()`, and compare the full summaries.
    #[test]
    fn event_scheduling_matches_cycle_stepping() {
        let build = || {
            // Two threads with staggered stalls and channel traffic: thread 0
            // sends a sequence; thread 1 receives and chases memory.
            let mut p = Program::new();
            let data = p.add_global("data", 64);
            let mut s = FunctionBuilder::new("producer");
            let mut acc = s.copy(0i64);
            for k in 0..6 {
                acc = s.binop(BinOp::Add, acc, 3i64);
                s.send(0i64, acc);
                let _ = s.load(data + k, 0);
            }
            s.ret(Some(Operand::Reg(acc)));
            let pf = p.add_func(s.finish());
            let mut r = FunctionBuilder::new("consumer");
            let mut sum = r.copy(0i64);
            for k in 0..6 {
                let v = r.recv(0i64);
                let w = r.load(data + 2 * k, 0);
                let t = r.binop(BinOp::Add, v, w);
                let t2 = r.binop(BinOp::Add, sum, t);
                sum = t2;
                r.store(t2, data + 30 + k, 0);
            }
            r.ret(Some(Operand::Reg(sum)));
            let rf = p.add_func(r.finish());
            (p, pf, rf)
        };

        let (p, pf, rf) = build();
        let mut event_m = Machine::new(tiny(2), p);
        event_m.spawn(0, pf, &[]).unwrap();
        event_m.spawn(1, rf, &[]).unwrap();
        let event_summary = event_m.run().unwrap();

        let (p, pf, rf) = build();
        let mut tick_m = Machine::new(tiny(2), p);
        tick_m.spawn(0, pf, &[]).unwrap();
        tick_m.spawn(1, rf, &[]).unwrap();
        let mut guard = 0;
        while !tick_m.cores.iter().all(|c| c.thread.is_none() || c.done) {
            tick_m.step_cycle();
            guard += 1;
            assert!(guard < 100_000, "tick twin diverged");
        }
        let tick_summary = tick_m.summary();

        assert_eq!(event_summary, tick_summary);
        assert_eq!(event_m.mem().words(), tick_m.mem().words());
    }

    /// Regression: a resteer issued from the single-active fast loop toward
    /// a parked (blocked) core must not cost that core its stall credit for
    /// the episode — the cycle-stepped machine ticks the blocked core every
    /// cycle up to and including the delivery cycle, so the event-driven
    /// settle must run before delivery clears the blocked flag.
    #[test]
    fn resteer_from_single_active_loop_matches_cycle_stepping() {
        let build = || {
            let mut p = Program::new();
            // Core 1 blocks forever on a channel nobody sends to; its only
            // exit is the remote resteer.
            let mut w = FunctionBuilder::new("waiter");
            let exit_bb = w.new_block();
            let v = w.recv(9i64);
            w.ret(Some(Operand::Reg(v)));
            w.switch_to(exit_bb);
            w.ret(Some(Operand::Imm(-1)));
            let wf = p.add_func(w.finish());
            // Core 0 computes alone for a while (single-active fast loop),
            // then resteers core 1 to its exit block.
            let mut boss = FunctionBuilder::new("boss");
            let mut acc = boss.copy(0i64);
            for _ in 0..40 {
                acc = boss.binop(BinOp::Add, acc, 1i64);
            }
            boss.push(Inst::Resteer {
                core: Operand::Imm(1),
                target: exit_bb,
            });
            boss.ret(Some(Operand::Reg(acc)));
            let bf = p.add_func(boss.finish());
            (p, bf, wf)
        };

        let (p, bf, wf) = build();
        let mut event_m = Machine::new(tiny(2), p);
        event_m.spawn(0, bf, &[]).unwrap();
        event_m.spawn(1, wf, &[]).unwrap();
        let event_summary = event_m.run().unwrap();
        assert_eq!(event_m.return_value(1), Some(-1));

        let (p, bf, wf) = build();
        let mut tick_m = Machine::new(tiny(2), p);
        tick_m.spawn(0, bf, &[]).unwrap();
        tick_m.spawn(1, wf, &[]).unwrap();
        let mut guard = 0;
        while !tick_m.cores.iter().all(|c| c.thread.is_none() || c.done) {
            tick_m.step_cycle();
            guard += 1;
            assert!(guard < 100_000, "tick twin diverged");
        }
        assert_eq!(event_summary, tick_m.summary());
    }

    /// Tracing is an observer: a traced run must produce exactly the same
    /// summary and memory as an untraced twin, while actually recording
    /// events.
    #[test]
    fn tracing_never_changes_simulated_time() {
        let (p, g, _, rf, cf) = conflict_check_program();
        let mut plain = Machine::new(tiny(2), p.clone());
        plain.spawn(0, cf, &[]).unwrap();
        plain.spawn(1, rf, &[]).unwrap();
        let plain_summary = plain.run().unwrap();

        let mut traced = Machine::new(tiny(2), p);
        traced.enable_trace(1024);
        traced.watch_address(g);
        traced.spawn(0, cf, &[]).unwrap();
        traced.spawn(1, rf, &[]).unwrap();
        let traced_summary = traced.run().unwrap();

        assert_eq!(plain_summary, traced_summary);
        assert_eq!(plain.mem().words(), traced.mem().words());
        let t = traced.trace().unwrap();
        assert!(t.total() > 0, "events were recorded");
        assert_eq!(t.squashes(), 1, "the abort became a squash event");
        let kinds: Vec<&str> = t.events().map(TraceEvent::kind).collect();
        for needed in [
            "retire",
            "send",
            "recv",
            "chunk_begin",
            "chunk_validate",
            "chunk_squash",
            "watch",
        ] {
            assert!(kinds.contains(&needed), "missing {needed} in {kinds:?}");
        }
    }

    /// The squash event on the conflict program carries full forensics: the
    /// violating address, the writer's core/site, the reader's site, and no
    /// false conflicts at word granularity.
    #[test]
    fn squash_forensics_reconstruct_the_raw_chain() {
        let (p, g, _, rf, cf) = conflict_check_program();
        let mut m = Machine::new(tiny(2), p);
        m.enable_trace(1024);
        m.spawn(0, cf, &[]).unwrap();
        m.spawn(1, rf, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(summary.cores[1].spec_conflict_addr, Some(g));

        let squash = m
            .trace()
            .unwrap()
            .events()
            .find_map(|e| match e {
                TraceEvent::ChunkSquash {
                    core,
                    chunk,
                    cause,
                    forensics,
                    ..
                } => Some((*core, *chunk, *cause, *forensics)),
                _ => None,
            })
            .expect("a squash event");
        let (core, chunk, cause, forensics) = squash;
        assert_eq!(core, 1, "the reader's chunk squashed");
        assert!(chunk.is_some(), "forensic chunk id tracked");
        assert_eq!(cause, MisspeculationCause::DependenceViolation { addr: g });
        let f = forensics.expect("forensics attached");
        assert_eq!(f.addr, g);
        assert_eq!(f.word_addr, Some(g), "true conflict, word-exact");
        assert_eq!(f.writer_core, Some(0), "the checker wrote g");
        assert_eq!(f.writer_chunk, None, "writer was non-speculative");
        assert!(f.writer_site.is_some() && f.reader_site.is_some());
        assert_eq!(f.false_conflicts, 0);
        assert_eq!(f.granularity_log2, 0);
    }

    /// At a coarse detection granularity, a reader and writer touching
    /// *different* words of the same grain squash with `word_addr: None` and
    /// a positive false-conflict count — the satellite's word-vs-grain
    /// classification.
    #[test]
    fn squash_forensics_classify_false_conflicts() {
        // Like conflict_check_program, but reader loads g+1 while the
        // checker stores g — same 8-word grain, different words.
        let mut p = Program::new();
        let g = p.add_global("g", 8);
        let mut reader = FunctionBuilder::new("reader");
        reader.push(Inst::SpecBegin);
        let v = reader.load(g + 1, 0);
        reader.send(0i64, v);
        let _ = reader.recv(1i64);
        reader.push(Inst::SpecAbort);
        reader.ret(None);
        let rf = p.add_func(reader.finish());
        let mut checker = FunctionBuilder::new("checker");
        let _ = checker.recv(0i64);
        checker.store(7i64, g, 0);
        let c = checker.spec_check(1i64);
        checker.send(1i64, c);
        checker.ret(None);
        let cf = p.add_func(checker.finish());

        let mut cfg = tiny(2);
        cfg.conflict_granularity_log2 = 3;
        let mut m = Machine::new(cfg, p);
        m.enable_trace(1024);
        m.spawn(0, cf, &[]).unwrap();
        m.spawn(1, rf, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(summary.cores[1].spec_conflicts, 1, "grain aliasing fired");

        let f = m
            .trace()
            .unwrap()
            .events()
            .find_map(|e| match e {
                TraceEvent::ChunkSquash { forensics, .. } => *forensics,
                _ => None,
            })
            .expect("squash with forensics");
        assert_eq!(f.word_addr, None, "no word-level overlap");
        assert_eq!(f.false_conflicts, 1);
        assert_eq!(f.granularity_log2, 3);
        assert_eq!(f.writer_core, Some(0), "grain-scan still finds the writer");
        assert!(f.reader_site.is_some(), "and the reader's site");
    }

    /// Snapshot at a mid-run cycle, resume, and finish: summary, memory and
    /// trace tail must be bit-identical to the uninterrupted run — on the
    /// multi-core event path (this program keeps both cores live).
    #[test]
    fn snapshot_resume_is_bit_identical() {
        let (p, _, _, rf, cf) = conflict_check_program();
        let mut full = Machine::new(tiny(2), p.clone());
        full.enable_trace(1024);
        full.spawn(0, cf, &[]).unwrap();
        full.spawn(1, rf, &[]).unwrap();
        let full_summary = full.run().unwrap();
        assert!(full_summary.cycles > 40, "enough room to pause mid-run");

        for pause_at in [1u64, 17, full_summary.cycles / 2, full_summary.cycles - 1] {
            let mut m = Machine::new(tiny(2), p.clone());
            m.enable_trace(1024);
            m.spawn(0, cf, &[]).unwrap();
            m.spawn(1, rf, &[]).unwrap();
            let paused = m.run_until(pause_at).unwrap();
            assert!(paused.is_none(), "run must pause at {pause_at}");
            let snap = m.snapshot();
            assert_eq!(snap.cycle(), pause_at);
            let mut resumed = Machine::resume_from(&snap);
            let resumed_summary = resumed.run().unwrap();
            assert_eq!(resumed_summary, full_summary, "paused at {pause_at}");
            assert_eq!(resumed.mem().words(), full.mem().words());
            assert_eq!(
                resumed.trace().unwrap(),
                full.trace().unwrap(),
                "trace tail diverged after pausing at {pause_at}"
            );
        }
    }

    /// Same bit-identity through the single-active-core fast path, and via
    /// the periodic recorder instead of a manual snapshot.
    #[test]
    fn periodic_snapshots_resume_single_core_runs() {
        let mut b = FunctionBuilder::new("chase");
        let data = 64i64;
        let mut acc = b.copy(0i64);
        for k in 0..12 {
            let w = b.load(data + k, 0);
            let t = b.binop(BinOp::Add, acc, w);
            acc = b.binop(BinOp::Add, t, 1i64);
        }
        b.ret(Some(Operand::Reg(acc)));
        let mut p = Program::new();
        let _g = p.add_global("data", 64);
        let f = p.add_func(b.finish());

        let mut full = Machine::new(tiny(1), p.clone());
        full.spawn(0, f, &[]).unwrap();
        let full_summary = full.run().unwrap();

        let mut m = Machine::new(tiny(1), p.clone());
        m.enable_snapshots(25);
        m.spawn(0, f, &[]).unwrap();
        let _ = m.run().unwrap();
        let taken = m.snapshots_taken();
        assert!(!taken.is_empty(), "periodic snapshots were taken");
        for snap in taken {
            let mut resumed = Machine::resume_from(snap);
            let resumed_summary = resumed.run().unwrap();
            assert_eq!(resumed_summary, full_summary, "from cycle {}", snap.cycle());
        }

        // And a pause landing *inside* the single-active fast loop: the
        // break-at-limit path must leave resumable state mid-stall.
        assert!(full_summary.cycles > 30);
        let mut m = Machine::new(tiny(1), p);
        m.spawn(0, f, &[]).unwrap();
        let paused = m.run_until(30).unwrap();
        assert!(paused.is_none(), "paused mid single-active episode");
        let mut resumed = Machine::resume_from(&m.snapshot());
        assert_eq!(resumed.run().unwrap(), full_summary);
    }
}
