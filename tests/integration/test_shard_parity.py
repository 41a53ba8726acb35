"""Shard-parity: exploration shard count must never change what Achilles finds.

The FSP and PBFT end-to-end analyses, and every protocol-family template
(Raft, two-phase commit, Bracha broadcast) at its canonical point and at
one seeded corpus draw, must produce *identical* findings (same order,
same path ids, same witnesses, same live-predicate sets) at shards = 1,
2 and 4 — shards=1 being the plain in-process walk, so this also pins
the sharded pipeline against the classic serial engine. The canonical
ordering is the same pinned prefix order for every system.
"""

import itertools

import pytest

from repro.achilles import Achilles, AchillesConfig
from repro.bench.experiments import FSP_SESSION_MASK
from repro.corpus import TEMPLATES, build_variant, variant_seed
from repro.systems import broadcast, fsp, raft, tpc
from repro.systems.pbft import REQUEST_LAYOUT, pbft_client, pbft_replica

SHARD_COUNTS = (1, 2, 4)


def _finding_signature(report):
    """Everything observable about the findings, in discovery order."""
    return [
        (f.server_path_id, f.decisions, f.path_condition, f.negation,
         f.witness, f.live_predicates, f.labels)
        for f in report.findings
    ]


def _run_fsp(shards: int):
    commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
                            shards=shards)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        report = achilles.search(fsp.fsp_server, predicates)
    return report


def _run_pbft(shards: int):
    config = AchillesConfig(layout=REQUEST_LAYOUT, destination="replica0",
                            shards=shards)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients({"pbft-client": pbft_client})
        report = achilles.search(pbft_replica, predicates)
    return report


def _run_template(variant, shards: int):
    config = AchillesConfig(layout=variant.layout,
                            destination=variant.destination, shards=shards)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(variant.clients)
        report = achilles.search(variant.server, predicates)
    return report


#: (id, system, findings expected): each canonical point finds one
#: witness per seeded class — Raft 8 stale appends + the off-by-one
#: vote, 2PC ack-without-wal + empty-op prepare, Bracha forged sender +
#: 6 thin certificates — and so does each template's first corpus draw.
TEMPLATE_SYSTEMS = [
    ("raft-canonical", raft.CANONICAL, 9),
    ("tpc-canonical", tpc.CANONICAL, 2),
    ("broadcast-canonical", broadcast.CANONICAL, 7),
    *((f"{template}-seeded", variant, len(variant.classes))
      for template in TEMPLATES
      for variant in [build_variant(template,
                                    variant_seed(0, template, 0))]),
]


@pytest.fixture(scope="module")
def fsp_runs():
    return {shards: _run_fsp(shards) for shards in SHARD_COUNTS}


@pytest.fixture(scope="module")
def pbft_runs():
    return {shards: _run_pbft(shards) for shards in SHARD_COUNTS}


class TestFspShardParity:
    def test_findings_identical_at_every_shard_count(self, fsp_runs):
        baseline = _finding_signature(fsp_runs[1])
        assert baseline  # the serial run must actually find Trojans
        for shards in SHARD_COUNTS[1:]:
            assert _finding_signature(fsp_runs[shards]) == baseline, (
                f"shards={shards} diverged from serial")

    def test_exploration_counters_identical(self, fsp_runs):
        baseline = fsp_runs[1]
        for shards in SHARD_COUNTS[1:]:
            report = fsp_runs[shards]
            assert report.server_paths_explored == \
                baseline.server_paths_explored
            assert report.server_paths_pruned == baseline.server_paths_pruned
            assert report.predicate_samples == baseline.predicate_samples

    def test_report_records_shard_count(self, fsp_runs):
        for shards in SHARD_COUNTS:
            assert fsp_runs[shards].shards == shards


@pytest.fixture(scope="module", params=TEMPLATE_SYSTEMS,
                ids=[name for name, _, _ in TEMPLATE_SYSTEMS])
def template_runs(request):
    _, variant, expected = request.param
    runs = {shards: _run_template(variant, shards)
            for shards in SHARD_COUNTS}
    return variant, expected, runs


class TestTemplateShardParity:
    def test_findings_identical_at_every_shard_count(self, template_runs):
        _, expected, runs = template_runs
        baseline = _finding_signature(runs[1])
        assert len(baseline) == expected
        for shards in SHARD_COUNTS[1:]:
            assert _finding_signature(runs[shards]) == baseline, (
                f"shards={shards} diverged from serial")

    def test_exploration_counters_identical(self, template_runs):
        _, _, runs = template_runs
        baseline = runs[1]
        for shards in SHARD_COUNTS[1:]:
            report = runs[shards]
            assert report.server_paths_explored == \
                baseline.server_paths_explored
            assert report.server_paths_pruned == baseline.server_paths_pruned

    def test_witnesses_stay_trojan(self, template_runs):
        variant, _, runs = template_runs
        for shards in SHARD_COUNTS:
            for finding in runs[shards].findings:
                assert variant.classify(finding.witness) is not None

    def test_report_records_shard_count(self, template_runs):
        _, _, runs = template_runs
        for shards in SHARD_COUNTS:
            assert runs[shards].shards == shards


class TestPbftShardParity:
    def test_findings_identical_at_every_shard_count(self, pbft_runs):
        baseline = _finding_signature(pbft_runs[1])
        assert len(baseline) == 2  # read-only reply + pre-prepare paths
        for shards in SHARD_COUNTS[1:]:
            assert _finding_signature(pbft_runs[shards]) == baseline, (
                f"shards={shards} diverged from serial")

    def test_witnesses_stay_trojan(self, pbft_runs):
        from repro.messages.concrete import decode
        from repro.systems.pbft import MAC_STUB

        for shards in SHARD_COUNTS:
            for finding in pbft_runs[shards].findings:
                mac = decode(REQUEST_LAYOUT, finding.witness)["mac"]
                assert mac != MAC_STUB

    def test_exploration_counters_identical(self, pbft_runs):
        baseline = pbft_runs[1]
        for shards in SHARD_COUNTS[1:]:
            report = pbft_runs[shards]
            assert report.server_paths_explored == \
                baseline.server_paths_explored
            assert report.server_paths_pruned == baseline.server_paths_pruned

    def test_report_records_shard_count(self, pbft_runs):
        for shards in SHARD_COUNTS:
            assert pbft_runs[shards].shards == shards
