"""Scenario-matrix corpus — randomized seeded-bug systems at scale.

:mod:`repro.corpus.templates` holds the one implementation of each
protocol family (two-phase commit, Raft, Bracha broadcast): a parameter
record derives the symbolic programs and the exact ground-truth oracle.
The hand-built workloads (:mod:`repro.systems.tpc`,
:mod:`repro.systems.raft`, :mod:`repro.systems.broadcast`) are each
template at one canonical record. This package also *draws* records: a
deterministic, seed-driven generator perturbs the message layout (field
order, widths, reserved fields), the protocol constants and the
injected bug subset, so precision and recall stay exactly scorable
across the whole matrix (``python -m repro corpus run``).
"""

from repro.corpus.generate import (
    build_variant,
    generate_corpus,
    parse_variant_token,
    variant_seed,
)
from repro.corpus.report import (
    CorpusOutcome,
    VariantOutcome,
    corpus_payload,
    dump_payload,
    render_payload,
    variant_row,
)
from repro.corpus.templates import (
    TEMPLATES,
    BroadcastParams,
    RaftParams,
    SystemVariant,
    TpcParams,
    bound_ground_truth,
    build_broadcast_variant,
    build_raft_variant,
    build_tpc_variant,
)

__all__ = [
    "BroadcastParams",
    "CorpusOutcome",
    "RaftParams",
    "SystemVariant",
    "TEMPLATES",
    "TpcParams",
    "VariantOutcome",
    "bound_ground_truth",
    "build_broadcast_variant",
    "build_raft_variant",
    "build_tpc_variant",
    "build_variant",
    "corpus_payload",
    "dump_payload",
    "generate_corpus",
    "parse_variant_token",
    "render_payload",
    "variant_row",
]
