"""Lockstep batch execution: per-thread private segments between sync points.

The reference interpreter (:meth:`repro.simx.machine.Machine.run_reference`)
pays a scheduler pass — a runnable scan plus a ``min`` over thread clocks —
a coherence-stats snapshot and Python dispatch per operation.  Most cycles
in the paper's workloads come from long runs of *thread-private* work (a
thread streaming its own point partition and partial buffers between
synchronisation points) where none of that machinery can observe
anything.  This module removes the scheduler from private work entirely:
each thread's trace is compiled into a structure-of-arrays sequence of
**segments** (maximal runs of thread-private ``Compute`` / ``Load`` /
``Store``, with op kinds and arguments unpacked into parallel tuples,
pure-compute runs additionally as a numpy array) separated by **sync
points** (shared accesses, barriers, locks; phase markers are segment
boundaries handled inline).  A line is *private* when exactly one thread
accesses it anywhere in the program, *shared* otherwise.  Execution then
alternates two regimes:

* **eager epochs** — every runnable thread advances through its segments
  back-to-back with no scheduler involvement, charging busy cycles,
  cache state and coherence counters through an inlined private-line
  copy of the protocol, until it parks at its next sync point (or bails
  on an eviction hazard);
* **global order** — among parked threads, sync ops execute one at a
  time in ``(clock, tid)`` order — exactly the reference scheduler's
  earliest-runnable-first order — through the full protocol paths.

Why this is cycle- and stats-identical to the reference interleaving:

* for a private line the directory can never name a remote owner or
  sharer, so the remote-M transfer, silent-downgrade and invalidation
  branches of :meth:`~repro.simx.coherence.CoherenceController.read` /
  ``write`` are dead code and an access collapses to: L1 hit, or L1 miss
  filled from L2 or memory;
* a private line enters core C's L1 only through C's own accesses
  (remote ops invalidate/downgrade, never install; prefetching is gated
  off), so executing C's private ops *early* sees identical L1 state
  unless the fill's target set is full and holds a valid shared line.
  There both the victim choice and whether an eviction happens at all
  depend on concurrent remote invalidations (a remote write may free the
  way first in the reference interleaving), so the segment bails *before*
  that op: it is parked and executed at its exact global position;
* ``DirectoryEntry.in_l2`` is sticky, so L2-structural effects of
  reordered fills are unobservable in any reported counter.  Stronger:
  every ``l2.insert`` call site in the protocol also sets ``in_l2``, so
  ``l2.touch(line) is not None`` implies ``e.in_l2`` and the reference
  condition ``l2.touch(line) is not None or e.in_l2`` is equivalent to
  ``e.in_l2`` alone.  The batch private path therefore skips the L2
  arrays entirely and consults/sets only the directory flag — L2 LRU
  order and the L2 ``Cache`` object's hit/miss tallies (which no result
  field reports) are the only state that diverges;
* :class:`~repro.simx.coherence.CoherenceStats` are sums and
  :class:`~repro.simx.stats.PhaseStats` spans are min/max over per-thread
  clocks that themselves evolve identically, so attribution is
  order-independent;
* sync ops execute in the reference global order by construction: when
  every thread is parked, each parked clock equals its reference value
  (private timing is counter-exact), and the reference scheduler would
  pick the minimum-clock thread (ties to the lowest tid) next.

The argument needs execution order to be unobservable outside the L1s
and the directory, so :func:`batch_fallback` gates the engine off under
non-pinned dispatch, banked DRAM, next-line prefetch, a contended bus or
a cycle watchdog; equivalence with the reference interpreter is enforced
by ``tests/differential/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.simx.cache import CacheLine, MesiState
from repro.simx.coherence import CoherenceController, CoherenceStats, DirectoryEntry
from repro.simx.interconnect import BusInterconnect
from repro.simx.config import MachineConfig
from repro.simx.core_model import CoreModel
from repro.simx.stats import PhaseStats
from repro.simx.trace import (
    Barrier,
    Compute,
    Load,
    Lock,
    PhaseBegin,
    PhaseEnd,
    Store,
    TraceProgram,
    Unlock,
)

__all__ = [
    "batch_fallback", "compile_batch", "run_batch",
    "BatchProgram",
]

#: vectorise the compute-cycle sum only past this run length — below it the
#: numpy call costs more than the scalar loop.
_VEC_MIN = 8

_COMPUTE, _LOAD, _STORE = 0, 1, 2


def batch_fallback(config: MachineConfig, max_cycles: "int | None" = None) -> "str | None":
    """The first gate that rules the batch engine out, or ``None``.

    Each gate names state that would make execution order observable:

    * ``"scheduler"`` — a time-multiplexing policy interleaves threads on
      shared cores (:func:`repro.simx.sched.supports_scheduling`);
    * ``"dram"`` — the banked model's open-row state couples cores;
    * ``"prefetch"`` — a next-line prefetch reaches into lines the
      privacy analysis attributed to another thread;
    * ``"bus_occupancy"`` — a contended bus serialises transactions in
      global arrival order;
    * ``"max_cycles"`` — the watchdog checks clocks between single ops,
      which the eager epochs overshoot.
    """
    from repro.simx.sched import supports_scheduling

    if not supports_scheduling(config):
        return "scheduler"
    if config.dram != "flat":
        return "dram"
    if config.prefetch_next_line:
        return "prefetch"
    if config.interconnect == "bus" and config.bus_occupancy > 0:
        return "bus_occupancy"
    if max_cycles is not None:
        return "max_cycles"
    return None


class _Seg:
    """A maximal run of private ops in structure-of-arrays form.

    ``kinds[j]`` / ``args[j]`` drive the hot loop without isinstance
    dispatch; ``ops`` is kept only to rebuild the tail after a hazard
    bail.  Pure-compute segments carry their instruction counts as a
    numpy array (``carr``) so the whole run prices as one vectorised
    ceil-sum.
    """

    __slots__ = ("kinds", "args", "ops", "n_mem", "carr", "total_instr")

    def __init__(self, kinds: tuple, args: tuple, ops: tuple, n_mem: int):
        self.kinds = kinds
        self.args = args
        self.ops = ops
        self.n_mem = n_mem
        if n_mem == 0 and len(args) >= _VEC_MIN:
            self.carr = np.asarray(args, dtype=np.float64)
            self.total_instr = int(sum(args))
        else:
            self.carr = None
            self.total_instr = 0


@dataclass(frozen=True)
class BatchProgram:
    """A program lowered for batch execution.

    ``thread_entries[tid]`` mixes :class:`_Seg` runs with phase markers
    and sync ops; ``shared_lines`` is the eviction bail-out set.  A
    multi-op segment counts as one burst (``n_bursts`` / ``n_fused_ops``).
    """

    thread_entries: tuple
    shared_lines: frozenset
    n_bursts: int
    n_fused_ops: int


def compile_batch(program: TraceProgram, line_size: int) -> BatchProgram:
    """Lower a program into per-thread segment/sync streams."""
    op_lists = [list(t.ops) for t in program.threads]

    # accessor analysis: who touches each line?
    owner: dict[int, int] = {}
    _SHARED = -1
    for tid, ops in enumerate(op_lists):
        for op in ops:
            t = type(op)
            if t is Load or t is Store:
                line = op.addr // line_size
                prev = owner.setdefault(line, tid)
                if prev != tid:
                    owner[line] = _SHARED
    shared_lines = frozenset(line for line, o in owner.items() if o == _SHARED)

    n_bursts = 0
    n_fused = 0
    entries: list[tuple] = []
    for ops in op_lists:
        out: list = []
        kinds: list = []
        args: list = []
        run: list = []
        n_mem = 0

        def flush() -> None:
            nonlocal n_mem, n_bursts, n_fused, kinds, args, run
            if run:
                out.append(_Seg(tuple(kinds), tuple(args), tuple(run), n_mem))
                if len(run) >= 2:
                    n_bursts += 1
                    n_fused += len(run)
            kinds, args, run, n_mem = [], [], [], 0

        for op in ops:
            t = type(op)
            if t is Compute:
                kinds.append(_COMPUTE)
                args.append(op.instructions)
                run.append(op)
            elif (t is Load or t is Store) and op.addr // line_size not in shared_lines:
                kinds.append(_LOAD if t is Load else _STORE)
                args.append(op.addr)
                run.append(op)
                n_mem += 1
            else:
                flush()
                out.append(op)
        flush()
        entries.append(tuple(out))

    return BatchProgram(
        thread_entries=tuple(entries),
        shared_lines=shared_lines,
        n_bursts=n_bursts,
        n_fused_ops=n_fused,
    )


# thread states: parked threads hold their next sync op in ``pending``
_RUNNABLE, _PENDING, _AT_BARRIER, _WAIT_LOCK, _DONE = range(5)


@dataclass
class _Thread:
    """Batch-scheduler bookkeeping for one thread."""

    tid: int
    entries: list
    ip: int = 0
    clock: int = 0
    state: int = _RUNNABLE
    pending: object = None
    phase_stack: list = field(default_factory=list)
    held_locks: set = field(default_factory=set)

    def current_phase(self) -> str:
        return self.phase_stack[-1] if self.phase_stack else "(unattributed)"


def run_batch(config: MachineConfig, program: TraceProgram):
    """Execute a program on the batch engine; returns a SimulationResult
    cycle- and stats-identical to the reference interpreter's."""
    from repro.simx.machine import DeadlockError, SimulationResult, TraceError

    coherence = CoherenceController(config)
    cores = [
        CoreModel(i, config.core, coherence, perf_factor=config.perf_factor(i))
        for i in range(program.n_threads)
    ]
    compiled = compile_batch(program, config.line_size)
    shared_lines = compiled.shared_lines
    threads = [
        _Thread(tid=t.thread_id, entries=list(compiled.thread_entries[i]))
        for i, t in enumerate(program.threads)
    ]

    stats = PhaseStats()
    phase_coherence: dict[str, CoherenceStats] = {}
    barrier_arrivals: dict[int, dict[int, int]] = {}
    lock_holder: dict[int, int] = {}
    lock_waiters: dict[int, list[int]] = {}
    ops_executed = 0
    burst_fallbacks = 0

    st = coherence.stats
    np_ceil = np.ceil
    ceil = math.ceil

    # hoisted machine facts for the inlined private-access path
    directory = coherence.directory
    interconnect = coherence.interconnect
    msi = config.coherence_protocol == "msi"
    hit_lat = config.l1d.hit_latency
    l2_lat = config.l2.hit_latency
    mem_lat = config.memory_latency
    line_size = config.line_size
    # uncontended bus: every request costs the same; mesh: deterministic
    # per (core, line), memoised per core (ContendedBus is gated upstream)
    bus_lat = interconnect.latency if type(interconnect) is BusInterconnect else None
    req_memos: list = [{} for _ in range(program.n_threads)]
    mesh_req = interconnect.request_latency
    M_ST, E_ST, S_ST, INV = (
        MesiState.MODIFIED, MesiState.EXCLUSIVE, MesiState.SHARED, MesiState.INVALID,
    )
    # L1 set indices that could ever hold a shared line: fills elsewhere
    # can skip the eviction-hazard scan with one membership test
    shared_set_idx = frozenset(l % config.l1d.n_sets for l in shared_lines)

    def snap() -> tuple:
        return (st.reads, st.writes, st.l1_hits, st.l1_misses, st.l2_hits,
                st.memory_fetches, st.cache_to_cache, st.invalidations,
                st.upgrades, st.writebacks)

    def charge(phase: str, before: tuple) -> None:
        """Attribute protocol-event deltas since ``before`` to a phase."""
        after = snap()
        if after == before:
            return
        b = phase_coherence.setdefault(phase, CoherenceStats())
        b.reads += after[0] - before[0]
        b.writes += after[1] - before[1]
        b.l1_hits += after[2] - before[2]
        b.l1_misses += after[3] - before[3]
        b.l2_hits += after[4] - before[4]
        b.memory_fetches += after[5] - before[5]
        b.cache_to_cache += after[6] - before[6]
        b.invalidations += after[7] - before[7]
        b.upgrades += after[8] - before[8]
        b.writebacks += after[9] - before[9]

    def advance(ctx: _Thread) -> None:
        """Eagerly run a thread's segments until it parks or finishes."""
        nonlocal ops_executed, burst_fallbacks
        entries = ctx.entries
        n_entries = len(entries)
        core = cores[ctx.tid]
        tid = ctx.tid
        denom = core.config.effective_ipc * core.perf_factor
        l1 = coherence.l1s[tid]
        l1_sets = l1._sets
        n_sets = l1.n_sets
        ways = l1.ways
        req_memo = req_memos[tid]
        i = ctx.ip
        while i < n_entries:
            e = entries[i]
            t = type(e)
            if t is _Seg:
                if e.carr is not None:
                    # pure compute, long enough to price as one ceil-sum
                    busy = int(np_ceil(e.carr / denom).sum())
                    core.instructions_retired += e.total_instr
                    stats.add_busy(ctx.current_phase(), tid, busy)
                    ctx.clock += busy
                    ops_executed += len(e.args)
                    i += 1
                    continue
                phase = ctx.current_phase()
                before = snap() if e.n_mem else None
                busy = 0
                n_loads = 0
                n_stores = 0
                instr = 0
                executed = 0
                bailed = False
                # per-segment tallies, flushed to the shared counters once
                d_l1h = d_l1m = d_l2h = d_mem = d_upg = d_wb = d_ev = 0
                for k, a in zip(e.kinds, e.args):
                    if k == _COMPUTE:
                        instr += a
                        busy += ceil(a / denom)
                        executed += 1
                        continue
                    # the protocol's read/write specialised to a private
                    # line (see module docstring): identical decisions and
                    # latencies on the same L1 + directory state, minus
                    # the (unobservable) L2 arrays
                    line = a // line_size
                    set_idx = line % n_sets
                    s = l1_sets[set_idx]
                    ent = s.get(line)
                    hit = ent is not None and ent.state is not INV
                    if hit and k == _LOAD:
                        s.move_to_end(line)
                        d_l1h += 1
                        n_loads += 1
                        busy += hit_lat
                        executed += 1
                        continue
                    if hit:  # store hit: M silent, E upgrades, S (MSI) pays
                        s.move_to_end(line)
                        d_l1h += 1
                        n_stores += 1
                        state = ent.state
                        if state is M_ST:
                            busy += hit_lat
                        elif state is E_ST:
                            ent.state = M_ST
                            de = directory[line]
                            de.owner = tid
                            sh = de.sharers
                            sh.clear()
                            sh.add(tid)
                            busy += hit_lat
                        else:
                            # SHARED → upgrade; a private line has no
                            # remote sharers, so nothing to invalidate
                            d_upg += 1
                            if bus_lat is not None:
                                busy += hit_lat + bus_lat
                            else:
                                rl = req_memo.get(line)
                                if rl is None:
                                    rl = req_memo[line] = mesh_req(tid, line)
                                busy += hit_lat + rl
                            ent.state = M_ST
                            de = directory[line]
                            de.owner = tid
                            sh = de.sharers
                            sh.clear()
                            sh.add(tid)
                        executed += 1
                        continue
                    # miss: bail if the fill could evict a shared line
                    if (
                        len(s) - (ent is not None) >= ways
                        and set_idx in shared_set_idx
                        and any(
                            la != line and ln.state is not INV and la in shared_lines
                            for la, ln in s.items()
                        )
                    ):
                        bailed = True
                        break
                    d_l1m += 1
                    de = directory.get(line)
                    if de is None:
                        de = directory[line] = DirectoryEntry()
                    if bus_lat is not None:
                        lat = hit_lat + bus_lat
                    else:
                        rl = req_memo.get(line)
                        if rl is None:
                            rl = req_memo[line] = mesh_req(tid, line)
                        lat = hit_lat + rl
                    if de.in_l2:
                        d_l2h += 1
                        lat += l2_lat
                    else:
                        d_mem += 1
                        lat += l2_lat + mem_lat
                        de.in_l2 = True
                    if k == _LOAD:
                        n_loads += 1
                        if de.sharers or msi:
                            new_state = S_ST
                            de.owner = None
                            de.sharers.add(tid)
                        else:
                            new_state = E_ST
                            de.owner = tid
                            sh = de.sharers
                            sh.clear()
                            sh.add(tid)
                    else:
                        n_stores += 1
                        new_state = M_ST
                        de.owner = tid
                        sh = de.sharers
                        sh.clear()
                        sh.add(tid)
                    # install, evicting the set's LRU valid line if full;
                    # the victim is private (a shared victim bails above),
                    # so its CacheLine object can be reused for the fill
                    if ent is not None:
                        del s[line]
                    victim = None
                    while len(s) >= ways:
                        _, old = s.popitem(last=False)
                        if old.state is not INV:
                            victim = old
                            break
                    if victim is not None:
                        d_ev += 1
                        vline = victim.line_addr
                        ve = directory.get(vline)
                        if ve is None:
                            ve = directory[vline] = DirectoryEntry()
                        if victim.state is M_ST:
                            d_wb += 1
                            ve.in_l2 = True
                            if bus_lat is not None:
                                lat += bus_lat
                            else:
                                rl = req_memo.get(vline)
                                if rl is None:
                                    rl = req_memo[vline] = mesh_req(tid, vline)
                                lat += rl
                        if ve.owner == tid:
                            ve.owner = None
                        ve.sharers.discard(tid)
                        victim.line_addr = line
                        victim.state = new_state
                        s[line] = victim
                    else:
                        s[line] = CacheLine(line, new_state)
                    busy += lat
                    executed += 1
                core.instructions_retired += instr + n_loads + n_stores
                core.loads += n_loads
                core.stores += n_stores
                if busy:
                    stats.add_busy(phase, tid, busy)
                    ctx.clock += busy
                if n_loads or n_stores:
                    l1.hits += d_l1h
                    l1.misses += d_l1m
                    l1.evictions += d_ev
                    st.reads += n_loads
                    st.writes += n_stores
                    st.l1_hits += d_l1h
                    st.l1_misses += d_l1m
                    st.l2_hits += d_l2h
                    st.memory_fetches += d_mem
                    st.upgrades += d_upg
                    st.writebacks += d_wb
                    charge(phase, before)
                ops_executed += executed
                if bailed:
                    # park: the offending op must run at its global order
                    # through the full protocol path; the rest of the
                    # segment resumes eagerly afterwards
                    burst_fallbacks += 1
                    ctx.pending = e.ops[executed]
                    tail = executed + 1
                    if tail < len(e.ops):
                        entries[i] = _Seg(
                            e.kinds[tail:], e.args[tail:], e.ops[tail:],
                            sum(1 for k in e.kinds[tail:] if k != _COMPUTE),
                        )
                    else:
                        i += 1
                    ctx.ip = i
                    ctx.state = _PENDING
                    return
                i += 1
            elif t is PhaseBegin:
                ops_executed += 1
                ctx.phase_stack.append(e.phase)
                stats.note_begin(e.phase, ctx.clock)
                i += 1
            elif t is PhaseEnd:
                ops_executed += 1
                if not ctx.phase_stack or ctx.phase_stack[-1] != e.phase:
                    raise TraceError(
                        f"thread {tid}: PhaseEnd({e.phase!r}) does not match "
                        f"open phases {ctx.phase_stack}"
                    )
                ctx.phase_stack.pop()
                stats.note_end(e.phase, ctx.clock)
                i += 1
            else:
                # sync point: shared access, barrier, lock or unlock
                ctx.pending = e
                ctx.ip = i + 1
                ctx.state = _PENDING
                return
        ctx.ip = i
        if ctx.held_locks:
            raise TraceError(
                f"thread {tid} finished holding locks {sorted(ctx.held_locks)}"
            )
        if ctx.phase_stack:
            raise TraceError(
                f"thread {tid} finished inside phases {ctx.phase_stack}"
            )
        ctx.state = _DONE

    def release_barrier(bid: int) -> None:
        arrivals = barrier_arrivals.pop(bid)
        release = max(arrivals.values()) + config.barrier_release_latency
        for tid, arrived_at in arrivals.items():
            ctx = threads[tid]
            stats.add_wait(ctx.current_phase(), tid, release - arrived_at)
            ctx.clock = release
            ctx.state = _RUNNABLE

    def dispatch_sync(ctx: _Thread, op) -> None:
        """One globally-ordered op through the full protocol path —
        semantics identical to the reference scheduler's ``step``."""
        nonlocal ops_executed
        ops_executed += 1
        t = type(op)
        if t is Load or t is Store:
            phase = ctx.current_phase()
            before = snap()
            core = cores[ctx.tid]
            if t is Load:
                cycles = core.load_cycles(op.addr, ctx.clock)
            else:
                cycles = core.store_cycles(op.addr, ctx.clock)
            charge(phase, before)
            stats.add_busy(phase, ctx.tid, cycles)
            ctx.clock += cycles
            ctx.state = _RUNNABLE
        elif t is Barrier:
            arrivals = barrier_arrivals.setdefault(op.barrier_id, {})
            if ctx.tid in arrivals:
                raise TraceError(
                    f"thread {ctx.tid} hit barrier {op.barrier_id} twice "
                    "before release"
                )
            arrivals[ctx.tid] = ctx.clock
            ctx.state = _AT_BARRIER
            if len(arrivals) == program.n_threads:
                release_barrier(op.barrier_id)
        elif t is Lock:
            if op.lock_id not in lock_holder:
                lock_holder[op.lock_id] = ctx.tid
                ctx.held_locks.add(op.lock_id)
                cycles = config.lock_acquire_latency
                stats.add_busy(ctx.current_phase(), ctx.tid, cycles)
                ctx.clock += cycles
                ctx.state = _RUNNABLE
            else:
                lock_waiters.setdefault(op.lock_id, []).append(ctx.tid)
                ctx.state = _WAIT_LOCK
        elif t is Unlock:
            if lock_holder.get(op.lock_id) != ctx.tid:
                raise TraceError(
                    f"thread {ctx.tid} unlocked lock {op.lock_id} it does not hold"
                )
            del lock_holder[op.lock_id]
            ctx.held_locks.discard(op.lock_id)
            ctx.state = _RUNNABLE
            waiters = lock_waiters.get(op.lock_id)
            if waiters:
                next_tid = waiters.pop(0)
                w = threads[next_tid]
                wait = max(w.clock, ctx.clock) - w.clock
                stats.add_wait(w.current_phase(), next_tid, wait)
                w.clock = max(w.clock, ctx.clock)
                lock_holder[op.lock_id] = next_tid
                w.held_locks.add(op.lock_id)
                cycles = config.lock_acquire_latency
                stats.add_busy(w.current_phase(), next_tid, cycles)
                w.clock += cycles
                w.state = _RUNNABLE
        else:  # pragma: no cover - exhaustive over sync ops
            raise TraceError(f"unknown op {op!r}")

    # epoch loop: eager-advance everyone, then drain sync ops in the
    # reference global order, re-advancing threads as they unblock
    for ctx in threads:
        advance(ctx)
    while True:
        pending = [t for t in threads if t.state == _PENDING]
        if not pending:
            if all(t.state == _DONE for t in threads):
                break
            states = {0: "runnable", 1: "pending", 2: "barrier", 3: "lock", 4: "done"}
            stuck = {
                t.tid: states[t.state] for t in threads if t.state != _DONE
            }
            raise DeadlockError(
                f"no runnable threads; blocked: {stuck} "
                f"(pending barriers: {list(barrier_arrivals)}, "
                f"held locks: {lock_holder})"
            )
        nxt = min(pending, key=lambda t: (t.clock, t.tid))
        op = nxt.pending
        nxt.pending = None
        dispatch_sync(nxt, op)
        for ctx in threads:
            if ctx.state == _RUNNABLE:
                advance(ctx)

    return SimulationResult(
        program_name=program.name,
        n_threads=program.n_threads,
        n_cores=config.n_cores,
        total_cycles=max(t.clock for t in threads),
        thread_cycles=tuple(t.clock for t in threads),
        phase_stats=stats,
        coherence=coherence.stats,
        instructions=tuple(c.instructions_retired for c in cores),
        coherence_by_phase=phase_coherence,
        engine="batch",
        n_ops=ops_executed,
        n_bursts=compiled.n_bursts,
        n_fused_ops=compiled.n_fused_ops,
        n_burst_fallbacks=burst_fallbacks,
    )
