"""The hunt workloads: their inputs, one cold hunt, and an oracle per hunt.

Why these three:

* ``fsp`` — the Table-1 FSP hunt with literal clients. The server search
  dominates and the query cache answers almost every lookup, so work in
  the cache, the frame stack and the search observer shows here.
* ``wildcard-tcp2`` — the §6.3 globbing-client FSP hunt split over two
  ``python -m repro worker`` daemons on localhost. Pre-processing is
  half the hunt, and it is the only workload that runs the sharded
  scheduler and the TCP transport.
* ``corpus`` — generated 2PC, Raft and Bracha variants, each a small hunt
  of its own. The fixed cost per hunt shows, and the query cache mostly
  fills instead of answering.

Every hunt is a fresh :class:`~repro.achilles.Achilles` with an empty
query cache and no cache directory, as one ``python -m repro`` run is,
and ``workers=1`` throughout. Each oracle is independent of the
pipeline: it classifies the reported witnesses with the systems'
reference models and returns a description of what is wrong, or None.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from repro.achilles import Achilles, AchillesConfig
from repro.achilles.report import AchillesReport
from repro.bench.experiments import FSP_SESSION_MASK
from repro.corpus import bound_ground_truth, generate_corpus
from repro.systems import fsp

#: Directory listing the globbing clients expand against (the §6.3 run).
WILDCARD_LISTING = ("f1", "f2", "doc")
#: Variants per corpus draw: 100 per template. Variants differ in cost,
#: so the draw moves the median hunt; with 90 variants the median moved by
#: 14% between seeds. One pass takes 10-20 s on a 2-core Xeon VM.
CORPUS_VARIANTS = 300
#: Report counters compared exactly between hunts of one input.
REPORT_COUNTERS = ("achilles.predicates", "achilles.paths",
                   "achilles.paths_pruned", "achilles.findings",
                   "solver.cache.lookups", "solver.cache.misses",
                   "solver.incremental.frames_reused")


@dataclass
class HuntInput:
    """One input of a workload: what a single hunt analyses."""

    label: str
    config: dict
    clients: dict
    server: Callable
    oracle: Callable[[AchillesReport], str | None]


@dataclass
class Workload:
    """A named set of inputs, hunted round after round.

    ``build(seed)`` makes the inputs; ``shards`` > 1 runs each hunt over
    that many TCP daemons. ``exact`` names the :data:`COUNTERS` that
    repeat exactly for one input; the others depend on where sharded
    work lands and are reported but never compared.
    """

    name: str
    build: Callable[[int], list[HuntInput]]
    exact: tuple[str, ...]
    shards: int = 1


def hunt(item: HuntInput, hosts: tuple[str, ...] = ()) -> AchillesReport:
    """One cold hunt of ``item``; ``hosts`` are the shard daemons."""
    config = dict(item.config)
    if hosts:
        config.update(shards=len(hosts), transport="tcp", hosts=hosts)
    with Achilles(AchillesConfig(**config)) as achilles:
        predicates = achilles.extract_clients(item.clients)
        return achilles.search(item.server, predicates)


def findings_digest(report: AchillesReport) -> str:
    """A digest of the findings' decision vectors and witnesses, in order."""
    digest = hashlib.sha256()
    for finding in report.findings:
        digest.update(repr((tuple(int(d) for d in finding.decisions),
                            finding.witness)).encode())
    return digest.hexdigest()[:16]


def report_counters(report: AchillesReport) -> dict[str, int]:
    """The :data:`REPORT_COUNTERS` of one hunt."""
    return {
        "achilles.predicates": report.client_predicate_count,
        "achilles.paths": report.server_paths_explored,
        "achilles.paths_pruned": report.server_paths_pruned,
        "achilles.findings": report.trojan_count,
        "solver.cache.lookups": report.cache_hits + report.cache_misses,
        "solver.cache.misses": report.cache_misses,
        "solver.incremental.frames_reused": report.frames_reused,
    }


# -- oracles -------------------------------------------------------------------


def _fsp_oracle(report: AchillesReport) -> str | None:
    score = fsp.GroundTruth.score(report.witnesses())
    total = len(fsp.all_trojan_classes())
    if score.false_positives or len(score.classes_found) != total:
        return (f"{len(score.classes_found)}/{total} classes, "
                f"{score.false_positives} false positives")
    return None


def _wildcard_oracle(report: AchillesReport) -> str | None:
    witnesses = report.witnesses()
    bad = [w for w in witnesses
           if not fsp.is_server_accepted(w)
           or fsp.is_client_generable(w, allow_wildcards=False)]
    classes = {fsp.classify_message(w) for w in witnesses} - {None}
    total = len(fsp.all_trojan_classes())
    buf = fsp.FSP_LAYOUT.view("buf")
    wildcard = sum(1 for w in witnesses
                   if any(b in b"*?" for b in w[buf.offset:buf.end]))
    if bad or len(classes) != total or not wildcard:
        return (f"{len(bad)} witnesses not Trojan, {len(classes)}/{total} "
                f"length classes, {wildcard} wildcard witnesses")
    return None


def _variant_oracle(variant) -> Callable[[AchillesReport], str | None]:
    truth = bound_ground_truth(variant)

    def oracle(report: AchillesReport) -> str | None:
        score = truth.score(report.witnesses())
        if (score.false_positives or not score.true_positives
                or len(score.classes_found) != len(variant.classes)):
            return (f"{score.true_positives} true / "
                    f"{score.false_positives} false positives, "
                    f"{len(score.classes_found)}/{len(variant.classes)} "
                    "classes")
        return None

    return oracle


# -- inputs --------------------------------------------------------------------


def _fsp_inputs(seed: int) -> list[HuntInput]:
    return [HuntInput("fsp", dict(layout=fsp.FSP_LAYOUT,
                                  mask=FSP_SESSION_MASK),
                      fsp.literal_clients(), fsp.fsp_server, _fsp_oracle)]


def _wildcard_inputs(seed: int) -> list[HuntInput]:
    return [HuntInput("fsp-wildcard", dict(layout=fsp.FSP_LAYOUT,
                                           mask=FSP_SESSION_MASK),
                      fsp.globbing_clients(WILDCARD_LISTING),
                      fsp.fsp_server, _wildcard_oracle)]


def _corpus_inputs(seed: int) -> list[HuntInput]:
    return [HuntInput(variant.token,
                      dict(layout=variant.layout,
                           destination=variant.destination),
                      variant.clients, variant.server,
                      _variant_oracle(variant))
            for variant in generate_corpus(seed, CORPUS_VARIANTS)]


#: Every counter a hunt reports: the report's, and the layer call counts
#: of a traced hunt.
COUNTERS = REPORT_COUNTERS + (
    "achilles.negate.calls", "achilles.observer.calls",
    "solver.scratch.calls", "solver.service.batches",
    "solver.cache.key.calls", "solver.incremental.align.calls",
    "symex.feasible.calls", "explore.assign.calls", "explore.steal.calls")

#: On two shards the coordinator's phase-1 and pre-processing counters and
#: the findings repeat; the search-side solver counters and the transport
#: calls depend on which shard takes which subtree.
_SHARD_EXACT = ("achilles.predicates", "achilles.paths",
                "achilles.paths_pruned", "achilles.findings",
                "achilles.negate.calls")

WORKLOADS = {
    "fsp": Workload("fsp", _fsp_inputs, exact=COUNTERS),
    "wildcard-tcp2": Workload("wildcard-tcp2", _wildcard_inputs,
                              exact=_SHARD_EXACT, shards=2),
    "corpus": Workload("corpus", _corpus_inputs, exact=COUNTERS),
}
