"""The Trojan search's prefix trie is an exact memo of its per-hook verdicts.

:class:`TrojanSearchObserver` answers a replayed path-condition prefix
from a trie node instead of re-deriving the live predicates and the
Trojan verdict. :class:`ReferenceObserver` below re-derives both on
every hook, with no memo at all; the two must agree on every output —
findings (decisions and witnesses), the Figure 11 samples and the
pruned-path count — under every optimization setting, serially and
sharded. The replay-cost tests pin what the trie saves: a replayed
prefix asks the engine nothing, and the serial FSP hunt's cache traffic
shrinks to first visits that the models carried down the trie cannot
answer.
"""

import json
from dataclasses import dataclass, field

import pytest

from repro.achilles import Achilles, AchillesConfig, server_analysis
from repro.achilles.client_analysis import extract_client_predicates, preprocess
from repro.achilles.negate import single_field_of
from repro.achilles.render import report_to_dict
from repro.achilles.report import TrojanFinding
from repro.achilles.server_analysis import OptimizationFlags, TrojanSearchObserver
from repro.bench.experiments import run_corpus, run_fsp_accuracy
from repro.corpus import bound_ground_truth, corpus_payload, generate_corpus
from repro.corpus.templates import TEMPLATES
from repro.messages.layout import Field, MessageLayout
from repro.messages.symbolic import field_expr, message_vars
from repro.obs.trace import TRACE_FILE_NAME, read_trace
from repro.solver import ast
from repro.symex.engine import Engine
from repro.symex.state import ACCEPTED
from repro.systems.toy import TOY_LAYOUT, toy_client, toy_server

FLAG_SETTINGS = {
    "default": OptimizationFlags(),
    "all-off": OptimizationFlags.all_off(),
    "no-incremental-drop": OptimizationFlags(incremental_drop=False),
    "no-different-from": OptimizationFlags(use_different_from=False),
    "no-pruning": OptimizationFlags(prune_unreachable=False),
}


@dataclass
class _ReferenceSlot:
    live: set[int]
    samples: list[tuple[int, int]] = field(default_factory=list)


class ReferenceObserver(TrojanSearchObserver):
    """The Trojan search without a prefix memo.

    Every hook recomputes the live-predicate set from the path's own
    constraint sequence and re-asks the engine for the Trojan verdict,
    as the search did before the trie.
    """

    def on_path_start(self, ctx):
        self.paths_seen += 1
        ctx.state.observer_slot = _ReferenceSlot(
            live=set(range(len(self._clients.predicates))))

    def on_constraint(self, ctx, constraint):
        slot = ctx.state.observer_slot
        pc = tuple(ctx.state.constraints)
        if self._flags.incremental_drop:
            dropped = [index for index in sorted(slot.live)
                       if not self._engine.is_feasible(
                           pc + self._combined[index])]
            slot.live.difference_update(dropped)
            if self._flags.use_different_from and dropped:
                constraint_field = single_field_of(
                    constraint, self._server_msg, self._clients.layout)
                if constraint_field is not None:
                    for index in dropped:
                        slot.live.difference_update(
                            self._clients.different_from.droppable_with(
                                index, constraint_field))
        sample = (len(pc), len(slot.live))
        if self._record_delta:
            slot.samples.append(sample)
        self.samples.append(sample)
        if self._flags.prune_unreachable and not self._reference_trojan(
                pc, slot.live):
            self.paths_pruned += 1
            return False
        return True

    def on_path_end(self, ctx, result):
        slot = ctx.state.observer_slot
        finding = None
        live = frozenset(slot.live)
        if (result.verdict == ACCEPTED
                and self._reference_trojan(result.constraints, live)):
            negation = self._negation_query(live)
            model = self._engine.solve(result.constraints + negation)
            finding = TrojanFinding(
                server_path_id=result.path_id,
                decisions=result.decisions,
                path_condition=result.constraints,
                negation=negation,
                witness=bytes(model.get(var, 0) for var in self._server_msg),
                live_predicates=tuple(sorted(live)),
                elapsed_seconds=0.0,
                labels=result.labels,
            )
            self.findings.append(finding)
        if self._record_delta:
            self._per_path.append((result.decisions, tuple(slot.samples),
                                   finding))

    def _reference_trojan(self, pc, live):
        return self._engine.is_feasible(pc + self._negation_query(live))


def _outputs(report):
    """Everything the search reports that must not depend on the memo."""
    findings = [(f.server_path_id, f.decisions, f.path_condition,
                 f.negation, f.witness, f.live_predicates, f.labels)
                for f in report.findings]
    return findings, report.predicate_samples, report.server_paths_pruned


def _with_reference(hunt):
    """Run ``hunt()`` with the reference observer in the search."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_analysis, "TrojanSearchObserver",
                      ReferenceObserver)
        return hunt()


def _toy(flags, **run):
    config = AchillesConfig(layout=TOY_LAYOUT, optimizations=flags, **run)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients({"toy": toy_client})
        return achilles.search(toy_server, predicates)


def _fsp(flags, **run):
    return run_fsp_accuracy(optimizations=flags, **run).report


def _variant_hunt(variant):
    def hunt(flags, **run):
        config = AchillesConfig(layout=variant.layout,
                                destination=variant.destination,
                                optimizations=flags, **run)
        with Achilles(config) as achilles:
            predicates = achilles.extract_clients(variant.clients)
            report = achilles.search(variant.server, predicates)
        score = bound_ground_truth(variant).score(report.witnesses())
        assert score.false_positives == 0
        return report
    return hunt


# One corpus variant per template (round-robin generation).
CORPUS_VARIANTS = generate_corpus(0, len(TEMPLATES))
WORKLOADS = {"toy": _toy, "fsp": _fsp}
WORKLOADS.update({f"corpus-{v.token}": _variant_hunt(v)
                  for v in CORPUS_VARIANTS})


@pytest.fixture(scope="module")
def sharded_fsp():
    return _fsp(OptimizationFlags(), shards=2, transport="local")


class TestReferenceParity:
    @pytest.mark.parametrize("setting", sorted(FLAG_SETTINGS))
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_trie_matches_reference(self, workload, setting):
        hunt, flags = WORKLOADS[workload], FLAG_SETTINGS[setting]
        trie = hunt(flags)
        reference = _with_reference(lambda: hunt(flags))
        assert _outputs(trie) == _outputs(reference)
        assert trie.findings, "parity on an empty hunt proves little"

    def test_sharded_fsp_matches_serial_reference(self, sharded_fsp):
        sharded = sharded_fsp
        reference = _with_reference(lambda: _fsp(OptimizationFlags()))
        assert sharded.shards == 2
        assert _outputs(sharded) == _outputs(reference)


class TestReplayCost:
    def test_serial_fsp_lookups_shrink_to_first_visits(self):
        report = _fsp(OptimizationFlags())
        assert report.cache_misses == 1544
        assert report.frames_reused == 19002
        assert report.cache_hits + report.cache_misses == 1768
        assert len(report.predicate_samples) == 4930
        assert report.prefix_reuses == 4298

    def test_sharded_prefix_reuses_fold_through_the_delta(self,
                                                          sharded_fsp):
        report = sharded_fsp
        # Each shard assignment starts an empty trie, so the sharded
        # count depends on the split; it never exceeds the hook count.
        assert 0 < report.prefix_reuses < len(report.predicate_samples)

    def test_replayed_prefix_asks_the_engine_nothing(self):
        layout = MessageLayout("t", [Field("kind", 1), Field("v", 1)])
        msg = message_vars(layout, "msg")

        def client(ctx):
            value = ctx.fresh_byte("value")
            if ctx.branch(value < 50):
                ctx.send("server", [1, value])

        def server(ctx, wire):
            kind = field_expr(wire, layout.view("kind"))
            value = field_expr(wire, layout.view("v"))
            if not ctx.branch(ast.eq(kind, ast.bv_const(1, 8))):
                ctx.reject()
            low = ctx.branch(value < 20)
            if ctx.branch(value < 100):
                ctx.accept("low" if low else "mid")
            ctx.reject()

        predicates, stats = extract_client_predicates({"c": client}, layout)
        clients = preprocess(predicates, layout, msg, stats=stats)

        class CountingEngine(Engine):
            calls = 0

            def feasible_model(self, constraints):
                self.calls += 1
                return super().feasible_model(constraints)

        class HookTally(TrojanSearchObserver):
            """Records the engine calls each constraint hook made."""

            def __init__(self, *args):
                super().__init__(*args)
                self.tally = []

            def on_constraint(self, ctx, constraint):
                before = self._engine.calls
                keep = super().on_constraint(ctx, constraint)
                self.tally.append((tuple(ctx.state.constraints),
                                   self._engine.calls - before))
                return keep

        engine = CountingEngine()
        observer = HookTally(engine, clients, msg)
        engine.explore(lambda ctx: server(
            ctx, tuple(ctx.fresh_bytes("msg", len(msg)))), observer)

        seen = set()
        first_visit_calls = replayed_hooks = 0
        for prefix, calls in observer.tally:
            if prefix in seen:
                replayed_hooks += 1
                assert calls == 0, f"replayed prefix asked the engine {calls}x"
            else:
                seen.add(prefix)
                first_visit_calls += calls
        assert replayed_hooks > 0
        assert first_visit_calls > 0
        assert observer.prefix_reuses == replayed_hooks


class TestPrefixReusesReporting:
    def test_trace_trailer_counts_prefix_reuses(self, tmp_path):
        report = _toy(OptimizationFlags(), trace_dir=str(tmp_path))
        assert report.prefix_reuses > 0
        records = read_trace(tmp_path / TRACE_FILE_NAME).records
        trailer = next(r for r in records if r["kind"] == "metrics")
        counters = trailer["attrs"]["counters"]
        assert counters["observer.prefix_reuses"] == report.prefix_reuses

    def test_json_views_leave_it_out(self):
        # Its sharded value depends on the split, and the corpus report
        # must be byte-identical at any shard count.
        corpus = run_corpus(only=(CORPUS_VARIANTS[0].token,))
        assert "prefix_reuses" not in json.dumps(corpus_payload(corpus))
        report = corpus.results[0].outcome.report
        assert report.prefix_reuses > 0
        assert "prefix_reuses" not in json.dumps(report_to_dict(report))


class TestModelReuses:
    def test_serial_fsp_count(self):
        # 512 live-predicate re-checks and 312 Trojan verdicts answered
        # by a model the parent node held.
        assert _fsp(OptimizationFlags()).model_reuses == 824

    def test_sharded_count_folds_worker_stats(self, sharded_fsp):
        assert sharded_fsp.model_reuses > 0

    def test_no_reuse_without_incremental_drop_or_pruning(self):
        # Both reuse sites need a parent node's models: the drop probes
        # and the first-visit Trojan verdicts are where they come from.
        report = _toy(OptimizationFlags.all_off())
        assert report.findings
        assert report.model_reuses == 0

    def test_trace_trailer_counts_model_reuses(self, tmp_path):
        report = _toy(OptimizationFlags(), trace_dir=str(tmp_path))
        assert report.model_reuses > 0
        records = read_trace(tmp_path / TRACE_FILE_NAME).records
        trailer = next(r for r in records if r["kind"] == "metrics")
        counters = trailer["attrs"]["counters"]
        assert counters["solver.model_reuses"] == report.model_reuses

    def test_json_views_leave_it_out(self):
        # Like prefix_reuses, the sharded value depends on the split.
        corpus = run_corpus(only=(CORPUS_VARIANTS[0].token,))
        assert "model_reuses" not in json.dumps(corpus_payload(corpus))
        report = corpus.results[0].outcome.report
        assert report.model_reuses > 0
        assert "model_reuses" not in json.dumps(report_to_dict(report))
