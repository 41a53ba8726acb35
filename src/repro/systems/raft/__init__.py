"""Raft — leader election and log replication under test.

A three-node Raft-style replicated key-value store, analyzed at one
follower's RPC ingress. Two Trojan families are seeded:

* **Stale-term AppendEntries** — the follower forgets the
  ``term >= currentTerm`` rejection, so a deposed leader's AppendEntries
  is accepted; because acceptance truncates the log after prevLogIndex,
  the Trojans with ``prevLogIndex < COMMIT_INDEX`` erase *committed*
  entries (8 classes over ``(stale term, prevLogIndex)``);
* **Vote off-by-one** — the up-to-date check grants votes at
  ``lastLogIndex + 1 >= LAST_INDEX``, electing a candidate whose log is
  one entry short of the follower's (1 class).

The symbolic programs and the exact oracle are the raft template of
:mod:`repro.corpus.templates` at this system's protocol constants
(:data:`CANONICAL`); the concrete follower (for the simulated network)
is built from the same constants, so findings transfer between the two.
"""

from repro.corpus.templates import (
    STALE_APPEND,
    VOTE_OFF_BY_ONE,
    RaftParams,
    raft_variant,
)
from repro.systems.raft.protocol import (
    CANDIDATE_LOGS,
    COMMIT_INDEX,
    CURRENT_TERM,
    LAST_INDEX,
    LAST_TERM,
    LOG_TERMS,
    MSG_APPEND,
    MSG_VOTE,
    NODE_IDS,
    RAFT_LAYOUT,
    TERM_LEADERS,
    VOTE_PADDING,
)
from repro.systems.raft.cluster import (
    LogEntry,
    RaftFollowerNode,
    TruncationOutcome,
    append_message,
    run_truncation_attack,
)

#: The follower under test: the raft template at this system's
#: constants with both bugs seeded — 9 Trojan classes.
CANONICAL = raft_variant(RaftParams(
    field_order=RAFT_LAYOUT.field_names,
    pad_size=0,
    msg_append=MSG_APPEND,
    msg_vote=MSG_VOTE,
    node_ids=NODE_IDS,
    current_term=CURRENT_TERM,
    log_terms=LOG_TERMS,
    term_leaders=tuple(TERM_LEADERS[term]
                       for term in range(1, CURRENT_TERM + 1)),
    commit_index=COMMIT_INDEX,
    bugs=(STALE_APPEND, VOTE_OFF_BY_ONE),
))

__all__ = [
    "CANDIDATE_LOGS",
    "CANONICAL",
    "COMMIT_INDEX",
    "CURRENT_TERM",
    "LAST_INDEX",
    "LAST_TERM",
    "LOG_TERMS",
    "LogEntry",
    "MSG_APPEND",
    "MSG_VOTE",
    "NODE_IDS",
    "RAFT_LAYOUT",
    "RaftFollowerNode",
    "TERM_LEADERS",
    "TruncationOutcome",
    "VOTE_PADDING",
    "append_message",
    "run_truncation_attack",
]
