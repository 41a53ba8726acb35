"""Batched solver dispatch: the serial batch surface of the query pipeline.

Two Achilles pre-processing loops pose *independent* queries in bulk
against one shared prefix: each row of the pairwise ``differentFrom``
matrix and each predicate's per-field negation overlap probes (§3.3,
§4.1). :class:`SolverService` gives them one batched surface:

* :meth:`SolverService.probe_batch` — feasibility of ``prefix + probe_i``
  for many probes against one shared prefix (the push/pop shape); a
  probe that the batch's last SAT model already satisfies is answered
  from that model without touching the frame stack;
* :meth:`SolverService.check_batch` — full :class:`SatResult` (including a
  model) for each of many independent constraint conjunctions.

Everything runs in-process on one shared
:class:`~repro.solver.incremental.IncrementalSolver`, so callers that
probe the same prefix (the negate overlap checks and the
``differentFrom`` matrix) ride the same propagation frames. Results are
returned in input order.

Parallelism lives one layer up: ``shards`` partitions the server's path
tree across processes (:mod:`repro.explore`), which is where a hunt
spends its time.
"""

from __future__ import annotations

from typing import Sequence

from repro.solver.ast import Expr
from repro.solver.evalmodel import satisfies
from repro.solver.incremental import IncrementalSolver
from repro.solver.solver import SatResult, Solver


class SolverService:
    """Batched satisfiability dispatch over one shared frame stack.

    Args:
        solver: satisfiability fallback of the shared frame stack; sharing
            a caller's solver keeps the batch counters on its
            :class:`~repro.solver.solver.SolverStats`.
    """

    def __init__(self, solver: Solver | None = None):
        self.solver = solver or Solver()
        # Every caller of this service probes through one
        # IncrementalSolver, which is how the negate overlap checks and the
        # differentFrom matrix end up riding the same prefix frames.
        self.incremental = IncrementalSolver(solver=self.solver)

    def probe_batch(self, prefix: Sequence[Expr],
                    probes: Sequence[Sequence[Expr]]) -> list[bool]:
        """Feasibility of ``prefix + probe`` for every probe, in order.

        Each probe is a tuple of extra conjuncts pushed/popped against the
        shared prefix frames. Every model the stack returns in this batch
        satisfies ``prefix``, so a probe whose own conjuncts the batch's
        last SAT model satisfies is SAT without a stack check
        (``SolverStats.model_reuses`` counts these). UNSAT answers always
        come from the stack.
        """
        prefix = tuple(prefix)
        answers = []
        model = None
        for probe in probes:
            if model is not None and satisfies(probe, model):
                self.solver.stats.model_reuses += 1
                answers.append(True)
                continue
            result = self.incremental.check(prefix + tuple(probe))
            if result.is_sat:
                model = result.model
            answers.append(result.is_sat)
        return answers

    def check_batch(self, queries: Sequence[Sequence[Expr]]) -> list[SatResult]:
        """Full results (with models) for independent queries, in order."""
        return [self.incremental.check(tuple(query)) for query in queries]


__all__ = ["SolverService"]
