"""Tests for the differentFrom matrix (§3.3)."""

import pytest

from repro.achilles import Achilles, AchillesConfig
from repro.achilles.difference import DifferentFrom
from repro.achilles.mask import FieldMask
from repro.achilles.predicates import ClientPathPredicate
from repro.bench.experiments import FSP_SESSION_MASK
from repro.corpus import generate_corpus
from repro.corpus.templates import TEMPLATES
from repro.messages.layout import Field, MessageLayout
from repro.messages.symbolic import message_vars
from repro.solver import ast
from repro.solver.solver import Solver
from repro.systems import fsp

LAYOUT = MessageLayout("t", [Field("x", 1), Field("y", 1)])
MSG = message_vars(LAYOUT, "m")

Y = ast.bv_var("y", 8)


def _pred(index, x_value, y_payload, constraints=()):
    payload = (ast.bv_const(x_value, 8), y_payload)
    return ClientPathPredicate(
        index=index, client="c", source_path_id=index, layout=LAYOUT,
        payload=payload, constraints=tuple(constraints))


class TestMatrixEntries:
    def test_paper_example_shape(self):
        """Figure 5 analogue: same x ranges, different concrete y values.

        differentFrom[0][1][y] is True (pred0 has y=2 which pred1 lacks)
        and symmetric; on x both predicates admit exactly the same values
        so both directions are False.
        """
        pred0 = _pred(0, 1, ast.bv_const(2, 8))
        pred1 = _pred(1, 1, ast.bv_const(7, 8))
        diff = DifferentFrom([pred0, pred1], MSG)
        assert diff.different(0, 1, "y")
        assert diff.different(1, 0, "y")
        assert not diff.different(0, 1, "x")
        assert not diff.different(1, 0, "x")

    def test_subset_ranges_are_asymmetric(self):
        # pred0 admits y in [0,50), pred1 admits y in [0,100): pred1 has
        # extra values, pred0 does not.
        pred0 = _pred(0, 1, Y, [Y < 50])
        pred1 = _pred(1, 1, Y, [Y < 100])
        diff = DifferentFrom([pred0, pred1], MSG)
        assert not diff.different(0, 1, "y")
        assert diff.different(1, 0, "y")

    def test_self_comparison_is_false(self):
        pred0 = _pred(0, 1, ast.bv_const(2, 8))
        diff = DifferentFrom([pred0], MSG)
        assert not diff.different(0, 0, "y")

    def test_missing_entries_default_true(self):
        pred0 = _pred(0, 1, ast.bv_const(2, 8))
        pred1 = _pred(1, 1, ast.bv_const(7, 8))
        diff = DifferentFrom([pred0, pred1], MSG)
        # Unknown field: conservative default disables the shortcut.
        assert diff.different(0, 1, "nonexistent")


class TestDroppable:
    def test_droppable_lists_equal_valued_peers(self):
        pred0 = _pred(0, 1, Y, [Y < 50])
        pred1 = _pred(1, 1, Y, [Y < 100])
        diff = DifferentFrom([pred0, pred1], MSG)
        # If pred1 dies from a y-constraint, pred0 (subset on y) dies too.
        assert diff.droppable_with(1, "y") == [0]
        # The converse does not hold.
        assert diff.droppable_with(0, "y") == []

    def test_mask_skips_hidden_fields(self):
        pred0 = _pred(0, 1, ast.bv_const(2, 8))
        pred1 = _pred(1, 1, ast.bv_const(7, 8))
        diff = DifferentFrom([pred0, pred1], MSG, mask=FieldMask.hide("y"))
        # Hidden field entries were never computed: default True.
        assert diff.stats.solver_queries > 0
        assert diff.different(0, 1, "y")

    def test_dependent_fields_skipped(self):
        # y's variable also feeds x: not independent, no entry computed.
        shared = Y
        payload0 = (shared, shared)
        pred0 = ClientPathPredicate(
            index=0, client="c", source_path_id=0, layout=LAYOUT,
            payload=payload0, constraints=(Y < 10,))
        pred1 = _pred(1, 1, ast.bv_const(7, 8))
        diff = DifferentFrom([pred0, pred1], MSG)
        assert not diff.is_independent(0, "y")
        assert diff.stats.fields_skipped_dependent > 0


def _preprocessed(clients, **config):
    config = AchillesConfig(**config)
    with Achilles(config) as achilles:
        return (achilles.extract_clients(clients), achilles.server_msg,
                config.mask)


#: Real predicate sets: Table-1 FSP, the §6.3 wildcard clients and one
#: corpus variant per template.
MATRIX_WORKLOADS = {
    "fsp": lambda: _preprocessed(
        fsp.literal_clients(), layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK),
    "fsp-wildcard": lambda: _preprocessed(
        fsp.globbing_clients(("f1", "f2", "doc")), layout=fsp.FSP_LAYOUT,
        mask=FSP_SESSION_MASK),
}
MATRIX_WORKLOADS.update({
    f"corpus-{variant.token}": (lambda v=variant: _preprocessed(
        v.clients, layout=v.layout, destination=v.destination))
    for variant in generate_corpus(0, len(TEMPLATES))})


class TestMatchesScratch:
    """The batched build equals an entry-by-entry from-scratch table.

    Each row goes out as one probe batch whose later probes may be
    answered from the row's last SAT model; every entry must still be
    what a fresh ``Solver`` says about ``combined_i + (negation_j,)``.
    """

    @pytest.mark.parametrize("workload", sorted(MATRIX_WORKLOADS))
    def test_table_equals_per_entry_scratch(self, workload):
        clients, server_msg, mask = MATRIX_WORKLOADS[workload]()
        diff = clients.different_from
        negation = {(n.pred_index, d.field): d.expr
                    for n in clients.negations for d in n.disjuncts}
        fields = mask.visible_fields(clients.layout)
        expected = {}
        for i_pred in clients.predicates:
            combined = i_pred.combined(server_msg)
            for j_pred in clients.predicates:
                if i_pred.index == j_pred.index:
                    continue
                for field in fields:
                    negation_j = negation.get((j_pred.index, field))
                    if (negation_j is None
                            or not diff.is_independent(i_pred.index, field)
                            or not diff.is_independent(j_pred.index, field)):
                        continue
                    expected[(i_pred.index, j_pred.index, field)] = (
                        Solver().is_satisfiable(combined + (negation_j,)))
        assert expected, "an empty matrix proves little"
        for (i, j, field), entry in expected.items():
            assert diff.different(i, j, field) == entry, (i, j, field)
        stats = diff.stats
        assert stats.entries_true + stats.entries_false == len(expected)
        assert stats.solver_queries + stats.model_reuses == len(expected)
