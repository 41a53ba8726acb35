"""Outside-in layer timing: wrap public functions of the pipeline modules.

The benchmark does not change the program to measure it. A
:class:`LayerProbe` replaces selected module functions and class methods
with timing wrappers for the length of a traced hunt and restores the
originals afterwards. Each wrapper records its call count, its inclusive
time (outermost call only, so recursion is not counted twice) and its
self time: its duration minus the time of the wrapped calls nested
inside it.

The wrappers only see the benchmark process. On a sharded run the
shard-side work appears as the coordinator waiting in
``TcpTransport.recv``.
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro.achilles import client_analysis, core, difference
from repro.achilles.difference import DifferentFrom
from repro.achilles.server_analysis import TrojanSearchObserver
from repro.explore import scheduler
from repro.explore.scheduler import ShardScheduler
from repro.explore.tcp import TcpTransport
from repro.solver.cache import QueryCache
from repro.solver.incremental import IncrementalSolver
from repro.solver.service import SolverService
from repro.solver.solver import Solver
from repro.symex.engine import Engine

#: (layer name, owner, attribute). Module functions are patched where
#: their caller looks them up; methods are patched on their class.
TARGETS = (
    ("achilles.extract", core, "extract_client_predicates"),
    ("achilles.preprocess", core, "preprocess"),
    ("achilles.search", core, "search_server"),
    ("achilles.negate", client_analysis, "negate_predicate"),
    ("achilles.negate", difference, "negate_predicate"),
    ("achilles.different_from", DifferentFrom, "__init__"),
    ("achilles.observer", TrojanSearchObserver, "on_constraint"),
    ("solver.scratch", Solver, "check"),
    ("solver.service", SolverService, "probe_batch"),
    ("solver.service", SolverService, "check_batch"),
    ("solver.cache.key", QueryCache, "key"),
    ("solver.incremental.align", IncrementalSolver, "align"),
    ("solver.incremental.check", IncrementalSolver, "check"),
    ("symex.feasible", Engine, "is_feasible"),
    ("symex.explore", Engine, "explore"),
    ("explore.start", TcpTransport, "start"),
    ("explore.assign", TcpTransport, "assign"),
    ("explore.steal", TcpTransport, "request_steal"),
    ("explore.recv", TcpTransport, "recv"),
    ("explore.merge", scheduler, "merge_outcomes"),
    ("explore.scheduler", ShardScheduler, "run"),
)

#: Reported per-layer metric -> (layer, statistic, unit): the layer's
#: ``calls``, inclusive ``total`` or ``self`` seconds, as a mean per
#: traced hunt.
METRICS = {
    "achilles.extract.s": ("achilles.extract", "total", "s"),
    "achilles.preprocess.s": ("achilles.preprocess", "total", "s"),
    "achilles.search.s": ("achilles.search", "total", "s"),
    "achilles.negate.calls": ("achilles.negate", "calls", "count"),
    "achilles.negate.s": ("achilles.negate", "total", "s"),
    "achilles.different_from.s": ("achilles.different_from", "total", "s"),
    "achilles.observer.calls": ("achilles.observer", "calls", "count"),
    "achilles.observer.self_s": ("achilles.observer", "self", "s"),
    "solver.scratch.calls": ("solver.scratch", "calls", "count"),
    "solver.scratch.self_s": ("solver.scratch", "self", "s"),
    "solver.service.batches": ("solver.service", "calls", "count"),
    "solver.service.self_s": ("solver.service", "self", "s"),
    "solver.cache.key.calls": ("solver.cache.key", "calls", "count"),
    "solver.cache.key.self_s": ("solver.cache.key", "self", "s"),
    "solver.incremental.align.calls":
        ("solver.incremental.align", "calls", "count"),
    "solver.incremental.align.self_s":
        ("solver.incremental.align", "self", "s"),
    "solver.incremental.check.self_s":
        ("solver.incremental.check", "self", "s"),
    "symex.feasible.calls": ("symex.feasible", "calls", "count"),
    "symex.explore.self_s": ("symex.explore", "self", "s"),
    "explore.start.s": ("explore.start", "total", "s"),
    "explore.assign.calls": ("explore.assign", "calls", "count"),
    "explore.steal.calls": ("explore.steal", "calls", "count"),
    "explore.recv.wait_s": ("explore.recv", "total", "s"),
    "explore.merge.s": ("explore.merge", "total", "s"),
    "explore.scheduler.self_s": ("explore.scheduler", "self", "s"),
}


class LayerProbe:
    """Call counts, inclusive and self time of the :data:`TARGETS`."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        # One [child seconds] cell per active wrapped call, innermost last.
        self._stack: list[list[float]] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, original):
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth

        def timed(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            depth[name] += 1
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_time[name] += elapsed - cell[0]
                if not depth[name]:
                    self.total[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed

        timed.__wrapped__ = original
        return timed

    def install(self) -> None:
        """Swap every target for its timing wrapper."""
        if self._originals:
            raise RuntimeError("LayerProbe is already installed")
        for name, owner, attr in TARGETS:
            original = vars(owner)[attr]  # KeyError: target moved or renamed
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def remove(self) -> None:
        """Put every original back."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
