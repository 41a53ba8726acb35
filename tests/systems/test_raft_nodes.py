"""Unit tests for the Raft system: oracles, concrete follower, attack."""

from itertools import product

from repro.corpus.templates import STALE_APPEND, VOTE_OFF_BY_ONE
from repro.messages.concrete import decode_ints, encode
from repro.systems.raft import (
    CANONICAL,
    COMMIT_INDEX,
    CURRENT_TERM,
    LAST_INDEX,
    RAFT_LAYOUT,
    RaftFollowerNode,
    TERM_LEADERS,
    append_message,
    run_truncation_attack,
)
from repro.net.network import Network, Node


def _message(msg_type, term, sender, idx, logterm, cmd):
    return encode(RAFT_LAYOUT, {
        "type": msg_type, "term": term, "sender": sender,
        "idx": idx, "logterm": logterm, "cmd": cmd,
    })


def _small_message_space():
    """A brute-force slice of the wire space covering every branch."""
    for fields in product((0xA1, 0xB2, 0x00),      # type
                          range(0, CURRENT_TERM + 2),  # term
                          range(0, 5),              # sender
                          range(0, LAST_INDEX + 2),  # idx
                          range(0, 5),              # logterm
                          (0, 1)):                  # cmd
        yield _message(*fields)


class TestGroundTruthOracles:
    def test_generable_implies_not_trojan(self):
        for message in _small_message_space():
            if CANONICAL.generable(message):
                assert CANONICAL.classify(message) is None

    def test_classification_matches_predicates(self):
        for message in _small_message_space():
            trojan = CANONICAL.classify(message)
            expected = (CANONICAL.accepts(message)
                        and not CANONICAL.generable(message))
            assert (trojan is not None) == expected, message.hex()

    def test_brute_force_covers_exactly_the_seeded_classes(self):
        found = {CANONICAL.classify(m) for m in _small_message_space()}
        found.discard(None)
        assert found == set(CANONICAL.classes)

    def test_nine_classes(self):
        classes = CANONICAL.classes
        assert len(classes) == 9
        assert sum(1 for c in classes if c.startswith(STALE_APPEND)) == 8
        assert sum(1 for c in classes if c.startswith(VOTE_OFF_BY_ONE)) == 1

    def test_committed_truncation_marking(self):
        # A stale append truncates committed entries when it probes
        # below the commit point: one class per stale term and index.
        truncating = {CANONICAL.classify(m) for m in _small_message_space()
                      if CANONICAL.classify(m) is not None
                      and decode_ints(RAFT_LAYOUT, m)["idx"] < COMMIT_INDEX}
        assert all(c.startswith(STALE_APPEND) for c in truncating)
        assert len(truncating) == 2 * COMMIT_INDEX

    def test_stale_append_trojan_wire_shape(self):
        trojan = _message(0xA1, 1, TERM_LEADERS[1], 0, 0, 0x99)
        assert CANONICAL.accepts(trojan)
        assert not CANONICAL.generable(trojan)
        assert CANONICAL.classify(trojan).startswith(STALE_APPEND)

    def test_current_term_append_is_benign(self):
        benign = _message(0xA1, CURRENT_TERM, TERM_LEADERS[CURRENT_TERM],
                          LAST_INDEX, CURRENT_TERM, 0x42)
        assert CANONICAL.accepts(benign)
        assert CANONICAL.generable(benign)
        assert CANONICAL.classify(benign) is None


class _Sink(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def handle(self, source, payload, network):
        self.received.append(payload)


class TestConcreteFollower:
    def test_truncation_attack_erases_committed_entries(self):
        outcome = run_truncation_attack()
        assert outcome.acked
        assert outcome.committed_lost == COMMIT_INDEX
        assert len(outcome.log_terms_after) < len(outcome.log_terms_before)

    def test_correct_append_preserves_committed_prefix(self):
        network = Network()
        follower = RaftFollowerNode()
        leader = _Sink("leader")
        network.attach(follower)
        network.attach(leader)
        network.send("leader", follower.name,
                     append_message(CURRENT_TERM, LAST_INDEX, cmd=0x07))
        network.run()
        assert follower.committed_lost == 0
        assert follower.appends_acked == 1
        assert follower.log_terms[:COMMIT_INDEX] == \
            list(range(1, COMMIT_INDEX + 1))

    def test_vote_off_by_one_grants_to_short_log(self):
        network = Network()
        follower = RaftFollowerNode()
        candidate = _Sink("candidate")
        network.attach(follower)
        network.attach(candidate)
        short_log = _message(0xB2, CURRENT_TERM, 2, LAST_INDEX - 1,
                             CURRENT_TERM, 0)
        network.send("candidate", follower.name, short_log)
        network.run()
        assert follower.votes_granted == [(2, LAST_INDEX - 1)]
        assert candidate.received  # the vote went out on the wire

    def test_vote_rejected_for_two_entry_gap(self):
        network = Network()
        follower = RaftFollowerNode()
        candidate = _Sink("candidate")
        network.attach(follower)
        network.attach(candidate)
        behind = _message(0xB2, CURRENT_TERM, 2, LAST_INDEX - 2,
                          CURRENT_TERM, 0)
        network.send("candidate", follower.name, behind)
        network.run()
        assert follower.votes_granted == []
