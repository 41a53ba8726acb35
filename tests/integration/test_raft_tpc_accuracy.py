"""End-to-end Achilles on the Raft and two-phase-commit workloads.

The executable form of the acceptance bar for the new systems: every
seeded Trojan class is found (recall 1.0), nothing benign is flagged
(precision 1.0), and the witnesses are genuine members of ``PS \\ PC``
under the independent concrete oracles.
"""

import pytest

from repro.bench.experiments import run_raft_accuracy, run_tpc_accuracy
from repro.corpus.templates import (
    EMPTY_OP,
    SKIP_WAL,
    STALE_APPEND,
    VOTE_OFF_BY_ONE,
)
from repro.messages.concrete import decode_ints
from repro.systems import raft, tpc


def _bug_of(variant, trojan_class: str) -> str:
    """The seeded bug a class string belongs to."""
    return next(bug for bug in variant.bugs if bug in trojan_class)


@pytest.fixture(scope="module")
def raft_outcome():
    return run_raft_accuracy()


@pytest.fixture(scope="module")
def tpc_outcome():
    return run_tpc_accuracy()


class TestRaftAccuracy:
    def test_perfect_precision_and_recall(self, raft_outcome):
        assert raft_outcome.true_positives == 9
        assert raft_outcome.false_positives == 0
        assert raft_outcome.classes_found == raft_outcome.classes_total == 9
        assert raft_outcome.precision == 1.0
        assert raft_outcome.recall == 1.0

    def test_every_witness_is_accepted_and_ungenerable(self, raft_outcome):
        for witness in raft_outcome.report.witnesses():
            assert raft.CANONICAL.accepts(witness)
            assert not raft.CANONICAL.generable(witness)

    def test_both_seeded_bugs_are_represented(self, raft_outcome):
        kinds = {_bug_of(raft.CANONICAL, raft.CANONICAL.classify(w))
                 for w in raft_outcome.report.witnesses()}
        assert kinds == {STALE_APPEND, VOTE_OFF_BY_ONE}

    def test_committed_truncation_labelled(self, raft_outcome):
        # The stale appends probing below the commit point carry the
        # label the follower program records at the truncate step.
        for finding in raft_outcome.report.findings:
            trojan = raft.CANONICAL.classify(finding.witness)
            index = decode_ints(raft.RAFT_LAYOUT, finding.witness)["idx"]
            truncates = (trojan.startswith(STALE_APPEND)
                         and index < raft.COMMIT_INDEX)
            assert ("truncates-committed" in finding.labels) == truncates

    def test_benign_accepting_paths_yield_no_findings(self, raft_outcome):
        # Current-term appends (4 paths) + the up-to-date vote grant:
        # all accepting, none Trojan — the search must prune them all.
        assert raft_outcome.report.server_paths_pruned >= 5


class TestTpcAccuracy:
    def test_perfect_precision_and_recall(self, tpc_outcome):
        assert tpc_outcome.true_positives == 2
        assert tpc_outcome.false_positives == 0
        assert tpc_outcome.classes_found == tpc_outcome.classes_total == 2
        assert tpc_outcome.precision == 1.0
        assert tpc_outcome.recall == 1.0

    def test_every_witness_is_accepted_and_ungenerable(self, tpc_outcome):
        for witness in tpc_outcome.report.witnesses():
            assert tpc.CANONICAL.accepts(witness)
            assert not tpc.CANONICAL.generable(witness)

    def test_both_seeded_classes_found(self, tpc_outcome):
        kinds = {_bug_of(tpc.CANONICAL, tpc.CANONICAL.classify(w))
                 for w in tpc_outcome.report.witnesses()}
        assert kinds == {SKIP_WAL, EMPTY_OP}

    def test_skip_wal_witness_rides_the_unlogged_path(self, tpc_outcome):
        labels = {tpc.CANONICAL.classify(f.witness): f.labels
                  for f in tpc_outcome.report.findings}
        assert "prepare:ack-without-wal" in labels[SKIP_WAL]
        assert "prepare:logged" in labels[EMPTY_OP]
