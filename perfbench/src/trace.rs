//! Spans recorded from outside the program: an in-memory recorder plus the
//! two timing wrappers the traced run hands to the library — a
//! [`TargetAccess`] decorator and a [`Vfs`] over [`RealFs`].
//!
//! Every span carries a name, a layer, start and end (nanoseconds since the
//! recorder's epoch), its parent span and the id of the campaign it belongs
//! to. Spans stay in memory until the run ends; the ledger computes each
//! layer's self time from them.

use goofi::core::campaign::WorkloadImage;
use goofi::core::preinject::StepAccess;
use goofi::core::trigger::Trigger;
use goofi::core::vfs::{RealFs, Vfs, VfsFile};
use goofi::core::{Result, RunBudget, RunEvent, TargetAccess, TargetSnapshot};
use goofi::scanchain::{BitVec, ChainLayout};
use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Campaign the span belongs to (shared by all its spans).
    pub campaign: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span: instructions for CPU calls, bits for
    /// scan reads, bytes for file writes.
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An open span; closed by [`Tracer::exit`].
pub struct Open {
    id: u64,
    parent: u64,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    campaign: AtomicU64,
    /// Parent for spans opened on a thread with no open span of its own —
    /// the executor call whose worker threads make the target calls.
    fallback_parent: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Tracer")
    }
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            campaign: AtomicU64::new(0),
            fallback_parent: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    pub fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new campaign: later spans carry the returned id.
    pub fn begin_campaign(&self) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.campaign.store(id, Ordering::Relaxed);
        id
    }

    pub fn enter(&self) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open
                .last()
                .copied()
                .unwrap_or_else(|| self.fallback_parent.load(Ordering::Relaxed));
            open.push(id);
            parent
        });
        Open {
            id,
            parent,
            start_ns: self.now_ns(),
        }
    }

    pub fn exit(&self, open: Open, layer: &'static str, name: &'static str, work: u64) {
        let end_ns = self.now_ns();
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|id| *id == open.id) {
                stack.truncate(pos);
            }
        });
        let span = Span {
            id: open.id,
            parent: open.parent,
            campaign: self.campaign.load(Ordering::Relaxed),
            layer,
            name,
            start_ns: open.start_ns,
            end_ns,
            work,
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Times `f` as one span.
    pub fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter();
        let r = f();
        self.exit(open, layer, name, 0);
        r
    }

    /// Times `f` as one span and makes it the parent of spans opened on
    /// threads that have none open (the runner's worker threads).
    pub fn executor_span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.enter();
        self.fallback_parent.store(open.id, Ordering::Relaxed);
        let r = f();
        self.fallback_parent.store(0, Ordering::Relaxed);
        self.exit(open, layer, name, 0);
        r
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Times `f` when a tracer is given; a plain call otherwise.
pub fn timed<R>(
    tracer: Option<&Tracer>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(layer, name, f),
        None => f(),
    }
}

/// A [`TargetAccess`] decorator that times every call which does work on
/// the target. It forwards all 27 trait methods, the provided ones too: a
/// wrapper that fell back to a default `supports_snapshot() == false` or a
/// default `memory_digest` would run a different, slower program.
pub struct Timed<T> {
    inner: T,
    tracer: Arc<Tracer>,
    /// Layer name of the simulated CPU (`thor` or `riscv`).
    core: &'static str,
}

impl<T: TargetAccess> Timed<T> {
    pub fn new(inner: T, tracer: Arc<Tracer>, core: &'static str) -> Timed<T> {
        Timed {
            inner,
            tracer,
            core,
        }
    }

    fn port<R>(&mut self, name: &'static str, f: impl FnOnce(&mut T) -> R) -> R {
        let open = self.tracer.enter();
        let r = f(&mut self.inner);
        self.tracer.exit(open, "port", name, 0);
        r
    }

    fn cpu<R>(&mut self, name: &'static str, f: impl FnOnce(&mut T) -> R) -> R {
        let before = self.inner.instructions_executed();
        let open = self.tracer.enter();
        let r = f(&mut self.inner);
        let work = self.inner.instructions_executed().saturating_sub(before);
        self.tracer.exit(open, self.core, name, work);
        r
    }
}

impl<T: TargetAccess> TargetAccess for Timed<T> {
    fn target_name(&self) -> &str {
        self.inner.target_name()
    }

    fn init_test_card(&mut self) -> Result<()> {
        self.port("init_test_card", |t| t.init_test_card())
    }

    fn load_workload(&mut self, image: &WorkloadImage) -> Result<()> {
        self.port("load_workload", |t| t.load_workload(image))
    }

    fn reset_target(&mut self) -> Result<()> {
        self.port("reset_target", |t| t.reset_target())
    }

    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        self.port("write_memory", |t| t.write_memory(addr, data))
    }

    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        self.port("read_memory", |t| t.read_memory(addr, len))
    }

    fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> Result<()> {
        self.port("flip_memory_bit", |t| t.flip_memory_bit(addr, bit))
    }

    fn memory_size(&self) -> u32 {
        self.inner.memory_size()
    }

    fn set_breakpoint(&mut self, trigger: Trigger) -> Result<()> {
        self.port("set_breakpoint", |t| t.set_breakpoint(trigger))
    }

    fn clear_breakpoints(&mut self) -> Result<()> {
        self.port("clear_breakpoints", |t| t.clear_breakpoints())
    }

    fn run_workload(&mut self, budget: RunBudget) -> Result<RunEvent> {
        self.cpu("run_workload", |t| t.run_workload(budget))
    }

    fn step_instruction(&mut self) -> Result<Option<RunEvent>> {
        self.cpu("step_instruction", |t| t.step_instruction())
    }

    fn chain_layouts(&self) -> Vec<ChainLayout> {
        self.inner.chain_layouts()
    }

    fn read_scan_chain(&mut self, chain: &str) -> Result<BitVec> {
        let open = self.tracer.enter();
        let r = self.inner.read_scan_chain(chain);
        let bits = r.as_ref().map_or(0, |b| b.len() as u64);
        self.tracer.exit(open, "scanchain", "read_scan_chain", bits);
        r
    }

    fn write_scan_chain(&mut self, chain: &str, bits: &BitVec) -> Result<()> {
        let open = self.tracer.enter();
        let r = self.inner.write_scan_chain(chain, bits);
        self.tracer
            .exit(open, "scanchain", "write_scan_chain", bits.len() as u64);
        r
    }

    fn write_input_ports(&mut self, inputs: &[u32]) -> Result<()> {
        self.port("write_input_ports", |t| t.write_input_ports(inputs))
    }

    fn read_output_ports(&mut self) -> Result<Vec<u32>> {
        self.port("read_output_ports", |t| t.read_output_ports())
    }

    fn instructions_executed(&self) -> u64 {
        self.inner.instructions_executed()
    }

    fn cycles_executed(&self) -> u64 {
        self.inner.cycles_executed()
    }

    fn iterations_completed(&self) -> u64 {
        self.inner.iterations_completed()
    }

    fn step_traced(&mut self) -> Result<(Option<RunEvent>, StepAccess)> {
        self.cpu("step_traced", |t| t.step_traced())
    }

    fn power_cycle(&mut self) -> Result<()> {
        self.port("power_cycle", |t| t.power_cycle())
    }

    fn snapshot(&mut self) -> Result<TargetSnapshot> {
        self.port("snapshot", |t| t.snapshot())
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) -> Result<()> {
        self.port("restore", |t| t.restore(snapshot))
    }

    fn supports_snapshot(&self) -> bool {
        self.inner.supports_snapshot()
    }

    fn prefix_restore_safe(&self) -> bool {
        self.inner.prefix_restore_safe()
    }

    fn memory_digest(&mut self, len: usize) -> Result<u64> {
        self.port("memory_digest", |t| t.memory_digest(len))
    }
}

/// A [`Vfs`] over [`RealFs`] that times every filesystem operation.
#[derive(Debug)]
pub struct TimedVfs {
    tracer: Arc<Tracer>,
}

impl TimedVfs {
    pub fn new(tracer: Arc<Tracer>) -> TimedVfs {
        TimedVfs { tracer }
    }

    fn op<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.span("vfs", name, f)
    }
}

struct TimedFile {
    inner: Box<dyn VfsFile>,
    tracer: Arc<Tracer>,
}

impl VfsFile for TimedFile {
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        let open = self.tracer.enter();
        let r = self.inner.write_all(data);
        self.tracer.exit(open, "vfs", "write", data.len() as u64);
        r
    }

    fn sync(&mut self) -> io::Result<()> {
        let open = self.tracer.enter();
        let r = self.inner.sync();
        self.tracer.exit(open, "vfs", "sync", 0);
        r
    }
}

impl Vfs for TimedVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let open = self.tracer.enter();
        let r = RealFs.read_to_string(path);
        let bytes = r.as_ref().map_or(0, |s| s.len() as u64);
        self.tracer.exit(open, "vfs", "read", bytes);
        r
    }

    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
        let open = self.tracer.enter();
        let r = RealFs.read_bytes(path);
        let bytes = r.as_ref().map_or(0, |b| b.len() as u64);
        self.tracer.exit(open, "vfs", "read", bytes);
        r
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.op("create", || RealFs.create(path))?;
        Ok(Box::new(TimedFile {
            inner,
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.op("open_append", || RealFs.open_append(path))?;
        Ok(Box::new(TimedFile {
            inner,
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.op("rename", || RealFs.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.op("remove_file", || RealFs.remove_file(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.op("create_dir_all", || RealFs.create_dir_all(path))
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.op("read_dir", || RealFs.read_dir(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.op("exists", || RealFs.exists(path))
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.op("sync_dir", || RealFs.sync_dir(path))
    }
}
