//! Keyed iteration draws, drawn ahead on scoped worker threads.
//!
//! Iteration `i` of a run draws its lookups from the stream keyed by
//! `(seed, i)` through [`IterationWorkload::sample_iteration_keyed`]. How
//! many RNG words a lookup consumes does not depend on the placement, so an
//! iteration's per-GPU counters are a function of its key, the installed
//! model and the installed plan only: not of the thread that drew them, nor
//! of the iterations drawn before.
//!
//! [`IterationDraws`] hands the simulator each iteration's counters, strictly
//! by iteration index, from chunks of [`CHUNK`] iterations drawn into reused
//! counter buffers. [`DrawPool::drive`] runs the simulation inside a
//! `thread::scope` whose workers draw chunks ahead, up to [`WINDOW_CHUNKS`]
//! chunks past the chunk being read. When the chunk it needs is not ready,
//! the simulator's thread draws one itself (that chunk, or a later one while
//! a worker finishes it) rather than wait for a worker to wake; with no
//! workers it draws every chunk that way, and no scope is created. Either way
//! the simulator sees the same counters in the same order, so the run is
//! bit-identical for any worker count.
//!
//! Installs: a new model (scenario shifts) or plan (re-shards) bumps
//! an epoch. Chunks drawn under an older epoch are discarded and their
//! iterations are drawn again under the new model or plan, which keyed
//! streams make exact. The workload sits behind a `RwLock` and is never
//! cloned: workers draw under read guards, and an install takes the write
//! guard while it holds the pool lock, so no chunk of the new epoch can be
//! claimed before the install lands.

use recshard_data::{default_workers, ModelSpec};
use recshard_memsim::{AccessCounters, IterationWorkload};
use recshard_sharding::ShardingPlan;
use recshard_stats::DatasetProfile;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

/// Iterations per hand-off between a draw worker and the simulator.
const CHUNK: u64 = 64;
/// Chunks the workers may draw past the chunk the simulator is reading.
const WINDOW_CHUNKS: u64 = 2;
/// Iterations the workers may draw past the chunk being read.
const WINDOW: u64 = WINDOW_CHUNKS * CHUNK;

/// The simulator's side of the draws: the chunk being read and the next
/// iteration to hand out.
#[derive(Debug)]
pub(crate) struct IterationDraws {
    pool: Arc<DrawPool>,
    workers: usize,
    /// The chunk being read, if any.
    current: Option<Chunk>,
    /// The next iteration the simulator asks for.
    next: u64,
    /// The shared-stream reference: when set, iterations are drawn in order
    /// from this one RNG instead of from their keys.
    #[cfg(test)]
    serial: Option<rand::rngs::StdRng>,
}

/// State shared between the simulator and its draw workers.
#[derive(Debug)]
pub(crate) struct DrawPool {
    workload: RwLock<IterationWorkload>,
    seed: u64,
    batch: usize,
    iterations: u64,
    state: Mutex<PoolState>,
    /// Signalled when chunks become claimable or the pool closes.
    claimable: Condvar,
    /// Signalled when a chunk is delivered or the pool closes.
    delivered: Condvar,
}

#[derive(Debug, Default)]
struct PoolState {
    epoch: u64,
    /// The first iteration not yet claimed under `epoch`.
    next: u64,
    /// Iterations from here on may not be claimed yet (the window's end).
    limit: u64,
    /// Chunks delivered under `epoch` and not yet taken.
    done: Vec<Chunk>,
    /// Counter buffers free for reuse.
    spare: Vec<Vec<AccessCounters>>,
    closed: bool,
}

/// Consecutive iterations' counters, `gpus` entries per iteration.
#[derive(Debug)]
struct Chunk {
    start: u64,
    gpus: usize,
    counters: Vec<AccessCounters>,
}

impl Chunk {
    fn get(&self, iter: u64) -> Option<&[AccessCounters]> {
        let offset = usize::try_from(iter.checked_sub(self.start)?).ok()?;
        self.counters
            .get(offset * self.gpus..(offset + 1) * self.gpus)
    }
}

impl IterationDraws {
    /// Draws for `iterations` iterations of `batch` samples, keyed by
    /// `seed`, with the [default](default_workers) number of workers.
    pub(crate) fn new(
        workload: IterationWorkload,
        seed: u64,
        batch: usize,
        iterations: u64,
    ) -> Self {
        let pool = DrawPool {
            workload: RwLock::new(workload),
            seed,
            batch,
            iterations,
            state: Mutex::new(PoolState::default()),
            claimable: Condvar::new(),
            delivered: Condvar::new(),
        };
        let draws = Self {
            pool: Arc::new(pool),
            workers: 0,
            current: None,
            next: 0,
            #[cfg(test)]
            serial: None,
        };
        draws.with_workers(default_workers())
    }

    /// Sets the number of draw workers before the run starts. Every counter
    /// buffer the run can need is allocated here, on the simulator's thread,
    /// so workers never allocate: the chunk being read, the window's chunks,
    /// and one chunk per worker that an install leaves drawing under the old
    /// epoch.
    pub(crate) fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        let capacity = CHUNK as usize * self.pool.read().num_gpus();
        let buffers = 1 + WINDOW_CHUNKS + workers as u64;
        let mut state = self.pool.lock();
        state.limit = WINDOW;
        state.spare = (0..buffers).map(|_| Vec::with_capacity(capacity)).collect();
        drop(state);
        self
    }

    /// Draws the iterations in order from one RNG seeded by `seed`, the way
    /// the simulator drew them before iterations were keyed.
    #[cfg(test)]
    pub(crate) fn serial_reference(mut self, seed: u64) -> Self {
        use rand::SeedableRng;
        self.serial = Some(rand::rngs::StdRng::seed_from_u64(seed));
        self.workers = 0;
        self
    }

    /// The shared pool, for [`DrawPool::drive`].
    pub(crate) fn pool(&self) -> Arc<DrawPool> {
        Arc::clone(&self.pool)
    }

    /// The number of draw workers.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// The installed workload.
    pub(crate) fn workload(&self) -> RwLockReadGuard<'_, IterationWorkload> {
        self.pool.read()
    }

    /// Swaps in a drifted model; see [`IterationWorkload::install_model`].
    pub(crate) fn install_model(&mut self, model: &ModelSpec) {
        self.install(|w| w.install_model(model));
    }

    /// Swaps in a new plan; see [`IterationWorkload::install_plan`].
    pub(crate) fn install_plan(&mut self, plan: &ShardingPlan, profile: &DatasetProfile) {
        self.install(|w| w.install_plan(plan, profile));
    }

    /// Bumps the epoch, returns every drawn-ahead chunk's buffer, and
    /// installs while holding the pool lock. Workers resume from the next
    /// iteration the simulator asks for.
    fn install(&mut self, install: impl FnOnce(&mut IterationWorkload)) {
        let mut state = self.pool.lock();
        state.epoch += 1;
        state.next = self.next;
        state.limit = self.next + WINDOW;
        let PoolState { done, spare, .. } = &mut *state;
        let stale = done.drain(..).chain(self.current.take());
        spare.extend(stale.map(|chunk| chunk.counters));
        install(
            &mut self
                .pool
                .workload
                .write()
                .unwrap_or_else(PoisonError::into_inner),
        );
        drop(state);
        self.pool.claimable.notify_all();
    }

    /// Writes iteration `iter`'s per-GPU counters into `out`.
    ///
    /// # Panics
    ///
    /// Panics unless iterations are asked for in order from 0 and within the
    /// run, if a draw worker stopped, or if the chunk taken does not hold
    /// `iter`.
    pub(crate) fn draw(&mut self, iter: u64, out: &mut [AccessCounters]) {
        assert_eq!(iter, self.next, "iterations are drawn in order");
        assert!(
            iter < self.pool.iterations,
            "iteration {iter} is past the run"
        );
        self.next = iter + 1;
        #[cfg(test)]
        if let Some(rng) = &mut self.serial {
            let drawn = self.pool.read().sample_iteration(self.pool.batch, rng);
            out.copy_from_slice(&drawn);
            return;
        }
        if let Some(counters) = self.current.as_ref().and_then(|c| c.get(iter)) {
            out.copy_from_slice(counters);
            return;
        }
        let chunk = self.take(iter);
        assert_eq!(chunk.start, iter, "take returns the chunk starting at iter");
        out.copy_from_slice(&chunk.counters[..chunk.gpus]);
        self.current = Some(chunk);
    }

    /// The chunk starting at `iter`, returning the exhausted chunk's buffer
    /// and moving the window on. Rather than wait for a worker, this thread
    /// draws the chunk itself if no worker has claimed it, or a later one
    /// while a worker finishes it.
    fn take(&mut self, iter: u64) -> Chunk {
        let mut state = self.pool.lock();
        if let Some(used) = self.current.take() {
            state.spare.push(used.counters);
        }
        state.limit = iter + CHUNK + WINDOW;
        self.pool.claimable.notify_one();
        loop {
            if let Some(i) = state.done.iter().position(|c| c.start == iter) {
                return state.done.swap_remove(i);
            }
            if self.pool.can_claim(&state) {
                // Only this thread installs, so the epoch cannot move on
                // while it draws.
                let (start, len, _, mut counters) = self.pool.claim(&mut state);
                drop(state);
                let gpus = self.pool.draw_chunk(start, len, &mut counters);
                let chunk = Chunk {
                    start,
                    gpus,
                    counters,
                };
                if start == iter {
                    return chunk;
                }
                state = self.pool.lock();
                state.done.push(chunk);
                continue;
            }
            assert!(!state.closed, "a draw worker stopped");
            state = self
                .pool
                .delivered
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl DrawPool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn read(&self) -> RwLockReadGuard<'_, IterationWorkload> {
        self.workload.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `body` (the simulation) with `workers` draw workers drawing
    /// ahead. With none, `body` runs without a scope and the simulator's
    /// thread draws every chunk itself. The pool closes when `body` returns or
    /// unwinds, so the workers always exit and the scope always joins.
    pub(crate) fn drive<R>(&self, workers: usize, body: impl FnOnce() -> R) -> R {
        if workers == 0 {
            return body();
        }
        std::thread::scope(|scope| {
            for _ in 0..workers {
                // recshard-lint: allow(thread-fanin) -- workers only produce
                // keyed chunks; the simulator consumes them by iteration
                // index and discards any drawn under an older epoch.
                scope.spawn(|| self.work());
            }
            let _close = CloseOnDrop(self);
            body()
        })
    }

    /// A worker: claims the next chunk inside the window, draws it, and
    /// delivers it if no install happened meanwhile.
    fn work(&self) {
        let _close = CloseOnDrop(self);
        let mut state = self.lock();
        while !state.closed {
            if !self.can_claim(&state) {
                state = self
                    .claimable
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            let (start, len, epoch, mut counters) = self.claim(&mut state);
            drop(state);
            let gpus = self.draw_chunk(start, len, &mut counters);
            state = self.lock();
            if state.epoch == epoch {
                state.done.push(Chunk {
                    start,
                    gpus,
                    counters,
                });
                self.delivered.notify_one();
            } else {
                state.spare.push(counters);
            }
        }
    }

    /// Whether the next chunk is inside the window and the run.
    fn can_claim(&self, state: &PoolState) -> bool {
        state.next < state.limit.min(self.iterations)
    }

    /// Claims the next chunk: its start, length and epoch, and a buffer.
    fn claim(&self, state: &mut PoolState) -> (u64, u64, u64, Vec<AccessCounters>) {
        let start = state.next;
        let len = CHUNK.min(self.iterations - start);
        state.next = start + len;
        let counters = state.spare.pop().unwrap_or_default();
        (start, len, state.epoch, counters)
    }

    /// Draws iterations `start..start + len` into `counters`; returns the
    /// GPU count (entries per iteration).
    fn draw_chunk(&self, start: u64, len: u64, counters: &mut Vec<AccessCounters>) -> usize {
        let workload = self.read();
        let gpus = workload.num_gpus();
        counters.clear();
        counters.resize(len as usize * gpus, AccessCounters::new());
        for (iter, out) in (start..).zip(counters.chunks_exact_mut(gpus.max(1))) {
            workload.sample_iteration_keyed(self.batch, &[self.seed, iter], out);
        }
        gpus
    }

    fn close(&self) {
        self.lock().closed = true;
        self.claimable.notify_all();
        self.delivered.notify_all();
    }
}

/// Closes the pool when dropped, on return or unwind: idle workers exit,
/// and a simulator waiting on a worker that panicked stops waiting.
struct CloseOnDrop<'a>(&'a DrawPool);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}
