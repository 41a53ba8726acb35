"""Systems under test: the paper's working example and evaluation targets.

Each subpackage models one distributed system at the protocol-grammar
level the Achilles analysis operates on:

* :mod:`~repro.systems.toy` — the §2.1 READ/WRITE working example with
  the forgotten ``address < 0`` check;
* :mod:`~repro.systems.fsp` — the FSP file transfer protocol (wildcard
  and mismatched-length Trojans, §6.3);
* :mod:`~repro.systems.pbft` — PBFT request ingress and a simulated
  replica cluster (the MAC attack, §6.3);
* :mod:`~repro.systems.paxos` — a single-decree Paxos acceptor used to
  demonstrate the local-state modes (§3.4);
* :mod:`~repro.systems.raft` — a Raft-style leader-election +
  log-replication follower (stale-term AppendEntries truncation and a
  vote-granting off-by-one, both seeded);
* :mod:`~repro.systems.tpc` — a two-phase-commit participant (malformed
  PREPARE acked without its write-ahead record, empty-op prepare, both
  seeded);
* :mod:`~repro.systems.broadcast` — a Bracha reliable-broadcast node
  (forged-sender SEND and a thin-quorum READY certificate, both
  seeded).

The toy, FSP, PBFT and Paxos packages ship their own symbolic *node
programs* (for Achilles) next to *concrete nodes* (for the simulated
network). Raft, 2PC and Bracha broadcast have one implementation per
protocol family in :mod:`repro.corpus.templates`: each package builds
its template at a canonical parameter record from its ``protocol.py``
constants and exposes it as ``CANONICAL`` (programs plus exact oracle),
and keeps only those constants, its concrete nodes and its impact demo.
Symbolic and concrete sides read the same constants, so findings
transfer between the two.
"""
