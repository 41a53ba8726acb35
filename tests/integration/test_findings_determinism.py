"""Findings are a pure function of the inputs, and every witness is real.

Pre-processing batches its independent queries through the serial
:class:`~repro.solver.service.SolverService`; the server search asks the
engine for feasibility per live predicate and for a model per Trojan
path. Two fresh runs of the FSP and PBFT analyses (and of the
explore-first baseline) must therefore agree byte for byte — same order,
same witnesses, same live-predicate sets, same ``differentFrom`` matrix
and negations — and each witness must extend to a solution of the path
condition plus the negation it was solved from.
"""

import itertools

import pytest

from repro.achilles import Achilles, AchillesConfig
from repro.achilles.server_analysis import a_posteriori_search
from repro.bench.experiments import FSP_SESSION_MASK
from repro.messages.symbolic import message_vars
from repro.solver import ast
from repro.solver.solver import Solver
from repro.systems import fsp
from repro.systems.pbft import REQUEST_LAYOUT, pbft_client, pbft_replica

RUNS = 2


def _finding_signature(report):
    """Everything observable about the findings, in discovery order."""
    return [
        (f.server_path_id, f.decisions, f.path_condition, f.negation,
         f.witness, f.live_predicates, f.labels)
        for f in report.findings
    ]


def _assert_witnesses_solve_their_queries(report, layout):
    """Pinning the message bytes to the witness keeps the path condition
    plus negation satisfiable (other variables — server state, client
    inputs — stay free)."""
    server_msg = message_vars(layout, "msg")
    for finding in report.findings:
        pinned = [ast.eq(var, ast.bv_const(byte, 8))
                  for var, byte in zip(server_msg, finding.witness)]
        query = list(finding.path_condition + finding.negation) + pinned
        assert Solver().is_satisfiable(query), (
            f"witness of path {finding.server_path_id} misses its query")


def _run_fsp():
    commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        report = achilles.search(fsp.fsp_server, predicates)
    return predicates, report


def _run_pbft():
    config = AchillesConfig(layout=REQUEST_LAYOUT, destination="replica0")
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients({"pbft-client": pbft_client})
        report = achilles.search(pbft_replica, predicates)
    return predicates, report


@pytest.fixture(scope="module")
def fsp_runs():
    return [_run_fsp() for _ in range(RUNS)]


@pytest.fixture(scope="module")
def pbft_runs():
    return [_run_pbft() for _ in range(RUNS)]


class TestFspDeterminism:
    def test_findings_identical_across_runs(self, fsp_runs):
        baseline = _finding_signature(fsp_runs[0][1])
        assert baseline  # the run must actually find Trojans
        for _, report in fsp_runs[1:]:
            assert _finding_signature(report) == baseline

    def test_different_from_matrix_identical_across_runs(self, fsp_runs):
        baseline = fsp_runs[0][0].different_from._table
        assert baseline
        for predicates, _ in fsp_runs[1:]:
            assert predicates.different_from._table == baseline

    def test_negations_identical_across_runs(self, fsp_runs):
        baseline = [n.disjuncts for n in fsp_runs[0][0].negations]
        for predicates, _ in fsp_runs[1:]:
            assert [n.disjuncts for n in predicates.negations] == baseline

    def test_witnesses_solve_their_queries(self, fsp_runs):
        _assert_witnesses_solve_their_queries(fsp_runs[0][1], fsp.FSP_LAYOUT)


class TestAPosterioriDeterminism:
    """The explore-first baseline solves one model per accepting path;
    its witnesses must be just as reproducible."""

    @pytest.fixture(scope="class")
    def reports(self, fsp_runs):
        predicates = fsp_runs[0][0]
        server_msg = message_vars(fsp.FSP_LAYOUT)
        return [a_posteriori_search(fsp.fsp_server, predicates, server_msg)
                for _ in range(RUNS)]

    def test_findings_identical_across_runs(self, reports):
        baseline = _finding_signature(reports[0])
        assert baseline
        for report in reports[1:]:
            assert _finding_signature(report) == baseline

    def test_witnesses_solve_their_queries(self, reports):
        _assert_witnesses_solve_their_queries(reports[0], fsp.FSP_LAYOUT)


class TestPbftDeterminism:
    def test_findings_identical_across_runs(self, pbft_runs):
        baseline = _finding_signature(pbft_runs[0][1])
        assert len(baseline) == 2  # read-only reply + pre-prepare paths
        for _, report in pbft_runs[1:]:
            assert _finding_signature(report) == baseline

    def test_witnesses_stay_trojan(self, pbft_runs):
        from repro.messages.concrete import decode
        from repro.systems.pbft import MAC_STUB

        for _, report in pbft_runs:
            for finding in report.findings:
                mac = decode(REQUEST_LAYOUT, finding.witness)["mac"]
                assert mac != MAC_STUB

    def test_witnesses_solve_their_queries(self, pbft_runs):
        _assert_witnesses_solve_their_queries(pbft_runs[0][1], REQUEST_LAYOUT)
