"""Generic online-batch to worst-case scheduler.

A data structure with batch preprocessing/update routines is wrapped in a
pipeline of 2^(xi+2)-2 copies, indexed by binary strings of length 1 to
xi+1.  Level-i snapshots are rebuilt every d_i = s^(xi-i) updates with the
work spread over half a period, so every incoming update pays a bounded
number of primitive steps while the instance served at time j always equals
the lattice state D_{xi,j}: level 0 re-initializes from scratch, and level
i > 0 applies one update batch of at most w operations on top of a level
i-1 snapshot.  Each served instance has absorbed at most xi batches.

Background work is cooperative: a task's cost (instrumented primitive
steps) is measured when its window opens and charged to the window's ticks
at ceil(total/len) per tick; results install when the window closes.
Snapshots are shared, never mutated: a closing task installs its result by
reference into every target copy, and "reverse back" clones the parent
snapshot's instance only for the batch update that starts from it.

The scheduler is the one place that applies an update to a graph.  Each
step applies the new update once, to a copy of the previous step's graph,
and that graph G_now is never written again: copies share adjacency until
they write it (see multigraph), so a step copies only the dicts its update
writes.  A batch update gets its post-batch graph from this one lineage
instead of re-applying its batch: a serve gets G_now, and the window of
state (i, j) gets G at t(i, j), which the scheduler keeps from step
t(i, j) until the window opens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from .errors import RejectedOp, RejectedSchedule
from .multigraph import (MultiGraph, UpdateOp, UpdateSeq, apply_seq,
                         apply_update)


class BatchableDS(Protocol):
    """Deterministic batch-updatable structure with instrumented work.

    `steps` is a monotone primitive-step counter bumped by initialize and
    batch_update; the scheduler charges cost by reading its deltas.
    initialize must leave `g` unchanged, and batch_update may consume
    `inst` (the scheduler hands it a clone) but must leave `g_before`
    unchanged: snapshots share their graphs.  A caller may not change `g`
    after initialize either, since the instance may read it later: the
    scheduler initializes from its own pinned copy, never from the graph
    its caller handed it.

    batch_update also gets the post-batch graph: `g_after` equals
    apply_seq(g_before.copy(), seq), so the callee need not apply `seq`
    to any graph.  The callee may hold `g_after`, and nobody writes it
    afterwards; the callee must not write it either.  So every graph the
    callee is handed stays as it was handed, and the callee may bound
    what differs between two of them by the write log of a copy (see
    MultiGraph.log_since).
    """
    steps: int

    def initialize(self, g: MultiGraph): ...

    def batch_update(self, inst, g_before: MultiGraph, seq: UpdateSeq,
                     g_after: MultiGraph): ...

    def clone(self, inst): ...


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def batch_index(i: int, j: int, s: int) -> Tuple[int, ...]:
    """b_{i,j}: the copy prefix responsible for lattice state (i, j)."""
    if i == 0:
        return (j % 2,)
    return batch_index(i - 1, _ceil_div(j, s) - 2, s) + (j % 2,)


def lattice_parent(j: int, s: int) -> int:
    """The level-(i-1) index feeding state (i, j)."""
    return _ceil_div(j, s) - 2


def dependency_chain(xi: int, j: int, s: int) -> List[Tuple[int, int]]:
    """Test oracle: [(xi, j), (xi-1, j'), ...] down to level 0 per the
    lattice."""
    chain = [(xi, j)]
    for i in range(xi, 0, -1):
        j = lattice_parent(j, s)
        chain.append((i - 1, j))
    return chain


def dependency_audit(xi: int, w: int, j: int) -> bool:
    """Test oracle: every realized dependency satisfies
    t_{i,j} <= t_{i',j'+2} + d_{i'}/2."""
    s = _scale(xi, w)
    d = [s ** (xi - i) for i in range(xi + 1)]
    chain = dependency_chain(xi, j, s)
    for a in range(len(chain)):
        i, ja = chain[a]
        for b in range(a + 1, len(chain)):
            ip, jb = chain[b]
            t_ij = max(ja, 0) * d[i]
            t_p2 = max(jb + 2, 0) * d[ip]
            if not 2 * t_ij <= 2 * t_p2 + d[ip]:
                return False
    return True


def _scale(xi: int, w: int) -> int:
    # s = floor((w/2)^{1/xi}): largest s with 2 s^xi <= w
    s = 1
    while 2 * (s + 1) ** xi <= w:
        s += 1
    return s


# -- reference executor ----------------------------------------------------

class ReferenceExecutor:
    """Test oracle: direct, memoized evaluation of the snapshot lattice, the
    ground truth the scheduler must reproduce at every time step."""

    def __init__(self, impl: BatchableDS, g: MultiGraph, xi: int, w: int):
        self.impl = impl
        self.g0 = g.copy()
        self.xi = xi
        self.s = _scale(xi, w)
        self.d = [self.s ** (xi - i) for i in range(xi + 1)]
        self.updates: List[UpdateOp] = []
        self._memo: Dict[Tuple[int, int], Tuple[MultiGraph, object]] = {}

    def push(self, op: UpdateOp) -> None:
        self.updates.append(op)

    def _t(self, i: int, j: int) -> int:
        return max(j, 0) * self.d[i]

    def state(self, i: int, j: int) -> Tuple[MultiGraph, object]:
        """(G_{i,j}, D_{i,j}), computed per the lattice definition."""
        j = max(j, 0)
        key = (i, j)
        if key in self._memo:
            return self._memo[key]
        if i == 0 or j == 0:
            g = apply_seq(self.g0.copy(), self.updates[:self._t(0, j)])
            inst = self.impl.initialize(g)
            out = (g, inst)
        else:
            jp = lattice_parent(j, self.s)
            pg, pinst = self.state(i - 1, jp)
            seq = self.updates[self._t(i - 1, jp):self._t(i, j)]
            g = apply_seq(pg.copy(), seq)
            out = (g, self.impl.batch_update(self.impl.clone(pinst), pg,
                                             seq, g))
        self._memo[key] = out
        return out

    def served(self, j: int) -> object:
        """D_{xi,j}: what the scheduler must output at time j."""
        self._memo.pop((self.xi, j), None)
        return self.state(self.xi, j)[1]


# -- the production scheduler ----------------------------------------------

@dataclass
class _State:
    g: MultiGraph
    inst: object
    batches: Tuple[int, ...]          # update-batch sizes since initialize


@dataclass
class _Task:
    level: int
    j: int
    start: int
    end: int
    total: int                        # measured primitive steps
    charged: int = 0
    result: Optional[_State] = None
    targets: Tuple[Tuple[int, ...], ...] = ()

    def tick(self, now: int) -> int:
        if now == self.end:
            steps = self.total - self.charged
        else:
            length = self.end - self.start + 1
            steps = min(_ceil_div(self.total, length),
                        self.total - self.charged)
        self.charged += steps
        return steps


class Scheduler:
    def __init__(self, impl: BatchableDS, g: MultiGraph, xi: int, w: int):
        if xi < 1:
            raise RejectedSchedule("xi must be at least 1")
        if w < 2 * 6 ** xi:
            raise RejectedSchedule(f"w = {w} < 2*6^xi = {2 * 6 ** xi}")
        self.impl = impl
        self.xi = xi
        self.w = w
        self.s = _scale(xi, w)
        self.d = [self.s ** (xi - i) for i in range(xi + 1)]
        # the updates a future window or serve may still read; the first
        # `dropped` updates are gone (see _trim)
        self.updates: List[UpdateOp] = []
        self.dropped = 0
        self.now = 0
        # the caller may write g after this (engine_preprocess hands over
        # the reduction image, which every engine update writes), so
        # initialize reads the pinned copy, which nobody writes
        pinned = g.copy()
        before = impl.steps
        base = impl.initialize(pinned)
        self.preprocess_steps = impl.steps - before
        self._pinned = _State(pinned, base, ())
        # G_now, the graph after every update so far; each step replaces
        # it with a written copy and never writes it again
        self.g = self._pinned.g
        # level i -> G at t(i, j), kept until the window of (i, j) opens
        self._window_g: Dict[int, MultiGraph] = {}
        # copy beta -> its level snapshots {level: state}
        self.copies: Dict[Tuple[int, ...], Dict[int, _State]] = {}
        for length in range(1, xi + 2):
            for idx in range(2 ** length):
                beta = tuple((idx >> (length - 1 - b)) & 1
                             for b in range(length))
                self.copies[beta] = {}
        self.tasks: List[_Task] = []
        self.steps_per_update: List[int] = []
        # batch_count_audit's running values, over every serve so far
        self.serves = 0
        self.max_batches = 0
        self.max_batch_size = 0

    def copy_count(self) -> int:
        return len(self.copies)

    # -- internals ---------------------------------------------------------

    def _t(self, i: int, j: int) -> int:
        return max(j, 0) * self.d[i]

    def _updates(self, a: int, b: int) -> List[UpdateOp]:
        """Updates a+1 .. b, the slice [a:b] of every update so far."""
        if a < self.dropped:
            raise RejectedOp("scheduler", f"update {a + 1} already dropped")
        return self.updates[a - self.dropped:b - self.dropped]

    def _trim(self) -> None:
        """Drop the updates no later window or serve reads.  A read at time
        tau > now starts at or after tau - lookback: a level-i window opens
        at tau = j d_i + d_i/2 + 1 and reads from (ceil(j/s) - 2) d_{i-1}
        >= j d_i - 2 d_{i-1} (level 0 from (j - 2) d_0), and a serve reads
        from (ceil(tau/s) - 2) s >= tau - 2s; d_{i-1} <= d_0 and s <= d_0."""
        lookback = 2 * self.d[0] + self.d[0] // 2 + 1
        drop = self.now + 1 - lookback - self.dropped
        if drop > 0:
            del self.updates[:drop]
            self.dropped += drop

    def _parent_state(self, i: int, j: int) -> _State:
        """The level-(i-1) snapshot feeding state (i, j); j' <= 0 is pinned
        to the preprocessing state."""
        jp = lattice_parent(j, self.s)
        if jp <= 0:
            return self._pinned
        prefix = batch_index(i, j, self.s)
        snap = self.copies[prefix].get(i - 1)
        if snap is None:
            raise RejectedOp("scheduler", f"missing snapshot for {prefix}")
        return snap

    def _measure(self, fn):
        before = self.impl.steps
        out = fn()
        return out, self.impl.steps - before

    def _open(self, i: int, j: int) -> None:
        start = self._t(i, j) + self.d[i] // 2 + 1
        end = self._t(i, j + 1)
        g_new = self._window_g.pop(i)       # G at t(i, j)
        if i == 0:
            parity = j % 2
            targets = tuple(sorted(b for b in self.copies if b[0] == parity))
            seq = self._updates(self._t(0, j - 2), self._t(0, j))
            (inst, cost) = self._measure(
                lambda: self.impl.initialize(g_new))
            result = _State(g_new, inst, ())
            total = (cost + len(seq)) * len(targets)
        else:
            prefix = batch_index(i, j, self.s)
            targets = tuple(sorted(
                b for b in self.copies
                if len(b) >= i + 1 and b[:i + 1] == prefix))
            parent = self._parent_state(i, j)
            jp = lattice_parent(j, self.s)
            seq = self._updates(self._t(i - 1, jp), self._t(i, j))
            inst = self.impl.clone(parent.inst)
            (inst, cost) = self._measure(
                lambda: self.impl.batch_update(inst, parent.g, seq, g_new))
            result = _State(g_new, inst, parent.batches + (len(seq),))
            total = (cost + len(seq)) * len(targets)
        self.tasks.append(_Task(i, j, start, end, total,
                                result=result, targets=targets))

    def _close(self, task: _Task) -> None:
        for beta in task.targets:
            self.copies[beta][task.level] = task.result

    def step(self, op: UpdateOp):
        """Consume one update; return the instance equal to D_{xi, now}."""
        self.g = g = apply_update(self.g.copy(), op)
        self.updates.append(op)
        self.now += 1
        tau = self.now
        charged = 0
        # open the windows starting now (one candidate j per level)
        for i in range(self.xi):
            num = tau - self.d[i] // 2 - 1
            if num > 0 and num % self.d[i] == 0:
                self._open(i, num // self.d[i])
        # charge active windows, install the ones that end now
        remaining = []
        for task in self.tasks:
            charged += task.tick(tau)
            if task.end == tau:
                self._close(task)
            else:
                remaining.append(task)
        self.tasks = remaining
        # keep G_now for the windows of the states (i, j) at t(i, j) = now
        for i in range(self.xi):
            if tau % self.d[i] == 0:
                self._window_g[i] = g
        # serve level xi: batch the tail onto a clone of the parent
        # snapshot, with G_now as the post-batch graph
        parent = self._parent_state(self.xi, tau)
        jp = lattice_parent(tau, self.s)
        seq = self._updates(self._t(self.xi - 1, jp), tau)
        inst = self.impl.clone(parent.inst)
        (inst, cost) = self._measure(
            lambda: self.impl.batch_update(inst, parent.g, seq, g))
        charged += cost + len(seq)
        batches = parent.batches + (len(seq),)
        self.steps_per_update.append(charged)
        self.serves += 1
        self.max_batches = max(self.max_batches, len(batches))
        self.max_batch_size = max(self.max_batch_size, *batches)
        self._trim()
        return inst

    # -- statistics --------------------------------------------------------

    def batch_count_audit(self) -> Dict[str, int]:
        """Batches absorbed by each served instance (Lemma 1.2 bounds)."""
        return {"max_batches": self.max_batches,
                "max_batch_size": self.max_batch_size,
                "serves": self.serves}

    def work_stats(self) -> Dict[str, int]:
        spu = self.steps_per_update
        return {
            "max_steps_per_update": max(spu) if spu else 0,
            "total_steps": sum(spu),
            "preprocess_steps": self.preprocess_steps,
        }
