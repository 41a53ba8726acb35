"""Tests for the batched solver service.

The load-bearing properties:

* **agreement** — every batched answer equals what a from-scratch
  ``Solver().check`` returns for the same query;
* **order** — results come back in input order;
* **stats** — :class:`SolverStats` aggregation is a plain field-wise sum.
"""

import random

import pytest

from repro.solver import ast
from repro.solver.ast import bv_const, bv_var, eq, ne
from repro.solver.evalmodel import all_hold
from repro.solver.incremental import IncrementalSolver
from repro.solver.interval import Interval
from repro.solver.service import SolverService
from repro.solver.solver import Solver, SolverStats

X = bv_var("x", 8)
Y = bv_var("y", 8)
Z = bv_var("z", 8)


def _random_query(rng: random.Random) -> tuple:
    """A small random conjunction spanning sat, unsat and fallback shapes."""
    variables = [X, Y, Z]
    conjuncts = []
    for _ in range(rng.randint(1, 4)):
        var = rng.choice(variables)
        value = bv_const(rng.randint(0, 255), 8)
        kind = rng.randrange(5)
        if kind == 0:
            conjuncts.append(eq(var, value))
        elif kind == 1:
            conjuncts.append(ne(var, value))
        elif kind == 2:
            conjuncts.append(ast.ult(var, value))
        elif kind == 3:
            conjuncts.append(ast.ugt(var, value))
        else:
            other = rng.choice([v for v in variables if v is not var])
            conjuncts.append(eq(var, other + rng.randint(0, 255)))
    return tuple(conjuncts)


class TestSerialBackend:
    def test_check_batch_matches_scratch(self):
        service = SolverService()
        queries = [(ast.ult(X, bv_const(4, 8)),),
                   (ast.ult(X, bv_const(4, 8)), ast.ugt(X, bv_const(9, 8))),
                   (eq(Y, X + 1), ast.ugt(X, bv_const(250, 8)))]
        results = service.check_batch(queries)
        assert [r.status for r in results] == [
            Solver().check(list(q)).status for q in queries]

    def test_probe_batch_feasibility(self):
        service = SolverService()
        prefix = (ast.ult(X, bv_const(10, 8)),)
        probes = [(eq(X, bv_const(3, 8)),),
                  (eq(X, bv_const(30, 8)),),
                  (ne(X, bv_const(200, 8)),)]
        assert service.probe_batch(prefix, probes) == [True, False, True]

    def test_serial_probes_share_one_frame_stack(self):
        """Satellite property: all serial callers ride one IncrementalSolver."""
        service = SolverService()
        prefix = (ast.ult(X, bv_const(10, 8)),)
        service.probe_batch(prefix, [(eq(X, bv_const(1, 8)),)])
        before = service.solver.stats.frames_reused
        service.probe_batch(prefix, [(eq(X, bv_const(2, 8)),)])
        # The second batch re-poses the same prefix: its frame is reused,
        # not re-propagated.
        assert service.solver.stats.frames_reused > before

    def test_empty_batches(self):
        service = SolverService()
        assert service.check_batch([]) == []
        assert service.probe_batch((ast.ult(X, bv_const(4, 8)),), []) == []

    def test_random_check_batch_matches_scratch(self):
        rng = random.Random(20140301)
        queries = [_random_query(rng) for _ in range(24)]
        results = SolverService().check_batch(queries)
        for query, result in zip(queries, results):
            scratch = Solver().check(list(query))
            assert result.status == scratch.status, query
            if result.is_sat:
                # The model is complete and actually satisfies the query.
                assert all_hold(list(query), dict(result.model))

    def test_results_in_input_order(self):
        # Alternate sat/unsat so any reordering flips an answer.
        queries = []
        for i in range(17):
            if i % 2 == 0:
                queries.append((eq(X, bv_const(i, 8)),))
            else:
                queries.append((eq(X, bv_const(i, 8)),
                                ne(X, bv_const(i, 8))))
        statuses = [r.is_sat for r in SolverService().check_batch(queries)]
        assert statuses == [i % 2 == 0 for i in range(17)]

    def test_probe_batch_matches_check_batch(self):
        service = SolverService()
        prefix = (ast.ult(X, bv_const(50, 8)), ast.ugt(Y, bv_const(5, 8)))
        probes = [(eq(X, bv_const(v, 8)),) for v in (0, 49, 50, 120, 3)]
        checked = SolverService().check_batch(
            [prefix + probe for probe in probes])
        assert service.probe_batch(prefix, probes) == \
            [r.is_sat for r in checked]
        assert service.probe_batch(prefix, probes) == \
            [True, True, False, False, True]

    def test_models_never_served_from_canonical_cache(self):
        # Two canonically-equal but raw-distinct queries: each gets a model
        # computed from its own stack, so a witness cannot depend on which
        # query happened to be posed first.
        q1 = (ast.ult(X, bv_const(10, 8)), eq(Y, bv_const(3, 8)))
        q2 = (eq(Y, bv_const(3, 8)), ast.ult(X, bv_const(10, 8)))
        r1, r2 = SolverService().check_batch([q1, q2])
        assert r1.model == r2.model  # pure function of the constraint set

    def test_batch_counters_land_on_the_shared_solver(self):
        solver = Solver()
        service = SolverService(solver=solver)
        service.check_batch([(eq(X, bv_const(i, 8)),) for i in range(8)])
        assert solver.stats.queries == 8
        assert solver.stats.sat_answers == 8
        assert solver.stats.frames_pushed > 0

    def test_repeat_batches_agree(self):
        queries = [(eq(X, bv_const(v, 8)),) for v in (3, 9, 250)]
        queries.append((ast.ult(X, bv_const(3, 8)),
                        ast.ugt(X, bv_const(7, 8))))
        service = SolverService()
        first = service.check_batch(queries)
        again = service.check_batch(queries)
        fresh = SolverService().check_batch(queries)
        for other in (again, fresh):
            assert [r.status for r in other] == [r.status for r in first]
            assert [r.model for r in other] == [r.model for r in first]

    def test_unsat_probe_leaves_the_prefix_usable(self):
        service = SolverService()
        prefix = (ast.ult(X, bv_const(10, 8)),)
        assert service.probe_batch(prefix, [(eq(X, bv_const(20, 8)),),
                                            (),
                                            (eq(X, bv_const(9, 8)),)]) == \
            [False, True, True]

    def test_empty_prefix_probe(self):
        assert SolverService().probe_batch(
            (), [(eq(X, bv_const(5, 8)),)]) == [True]

    def test_probe_answered_by_the_last_sat_model(self):
        service = SolverService()
        prefix = (ast.ult(X, bv_const(10, 8)), eq(Y, bv_const(3, 8)))
        stats = service.solver.stats
        answers = service.probe_batch(prefix, [(ne(X, bv_const(200, 8)),),
                                               (ast.ult(X, bv_const(5, 8)),
                                                ne(Y, bv_const(9, 8))),
                                               ()])
        assert answers == [True, True, True]
        # Only the first probe reached the stack: the prefix plus its one
        # conjunct were pushed, and its model answered the other two.
        assert stats.frames_pushed == len(prefix) + 1
        assert stats.queries == 1
        assert stats.model_reuses == 2

    def test_probe_on_an_unassigned_variable_goes_to_the_stack(self):
        service = SolverService()
        prefix = (ast.ult(X, bv_const(10, 8)),)
        stats = service.solver.stats
        answers = service.probe_batch(prefix, [(ne(X, bv_const(200, 8)),),
                                               (ast.ult(Z, bv_const(9, 8)),)])
        assert answers == [True, True]
        # z is absent from the first model: no default of 0, a real check.
        assert stats.model_reuses == 0
        assert stats.queries == 2

    def test_unsat_probe_never_answered_from_a_model(self):
        service = SolverService()
        prefix = (ast.ult(X, bv_const(10, 8)),)
        stats = service.solver.stats
        answers = service.probe_batch(prefix, [(),
                                               (eq(X, bv_const(20, 8)),),
                                               (ast.ugt(X, bv_const(9, 8)),),
                                               ()])
        assert answers == [True, False, False, True]
        assert stats.unsat_answers == 2
        assert stats.model_reuses == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_batches_agree_with_scratch(self, seed):
        rng = random.Random(seed)
        service = SolverService()
        for _ in range(12):
            prefix = _random_query(rng)[:rng.randint(0, 2)]
            probes = [_random_query(rng)[:rng.randint(0, 2)]
                      for _ in range(rng.randint(1, 8))]
            answers = service.probe_batch(prefix, probes)
            assert answers == [
                Solver().is_satisfiable(list(prefix + probe))
                for probe in probes], (prefix, probes)
        assert service.solver.stats.model_reuses > 0

    def test_batch_methods_defined_on_the_class(self):
        # Layer-timing probes patch these by name on the class itself.
        assert callable(vars(SolverService)["probe_batch"])
        assert callable(vars(SolverService)["check_batch"])


class TestSolverStatsAggregation:
    def test_merge_sums_every_field(self):
        a = SolverStats(queries=3, cache_hits=5, cache_misses=1,
                        propagation_seconds=0.25, frames_pushed=7)
        b = SolverStats(queries=2, cache_hits=1, cache_misses=3,
                        propagation_seconds=0.5, frames_pushed=2)
        a += b
        assert a.queries == 5
        assert a.cache_hits == 6
        assert a.cache_misses == 4
        assert a.frames_pushed == 9
        assert a.propagation_seconds == pytest.approx(0.75)
        # hit rate stays consistent with the merged counters
        assert a.cache_hit_rate == pytest.approx(0.6)

    def test_merge_order_independent_for_counters(self):
        parts = [SolverStats(queries=i, cache_hits=2 * i) for i in range(5)]
        forward = SolverStats()
        for part in parts:
            forward += part
        backward = SolverStats()
        for part in reversed(parts):
            backward += part
        assert forward == backward

    def test_hit_rate_zero_when_unused(self):
        assert SolverStats().cache_hit_rate == 0.0


class TestSeededFallback:
    """The from-scratch fallback starts from the frame stack's fixpoint."""

    def test_seed_domains_narrow_the_model(self):
        constraints = [ast.ult(X, bv_const(100, 8))]
        seeded = Solver().check(constraints,
                                seed_domains={X: Interval(40, 60)})
        assert seeded.is_sat
        assert 40 <= seeded.model[X] <= 60

    def test_seeds_for_absent_variables_are_ignored(self):
        result = Solver().check([eq(X, bv_const(3, 8))],
                                seed_domains={Y: Interval(1, 2)})
        assert result.is_sat
        assert result.model[X] == 3

    def test_incremental_fallback_agrees_with_scratch(self):
        # A disjunction over two variables defeats the quick-sat candidate
        # (lower bounds violate it), forcing the seeded fallback path.
        rng = random.Random(7)
        for _ in range(50):
            stack = [_random_query(rng) for _ in range(rng.randint(1, 3))]
            flat = tuple(c for q in stack for c in q)
            disjunct = ast.or_(eq(X, bv_const(rng.randint(1, 255), 8)),
                               eq(Y, bv_const(rng.randint(1, 255), 8)))
            query = flat + (disjunct,)
            inc = IncrementalSolver()
            result = inc.check(query)
            scratch = Solver().check(list(query))
            assert result.status == scratch.status, query
