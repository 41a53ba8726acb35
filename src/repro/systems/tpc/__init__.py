"""Two-phase commit — atomic commitment under test.

A coordinator prepares, commits and aborts transactions across
participants. The seeded vulnerability family lives on the participant's
``PREPARE`` path:

* **ack-without-WAL** — a malformed PREPARE with the durable flag clear
  is acked exactly like a well-formed one but never reaches the
  write-ahead log; a crash after the ack silently loses the prepared
  write (commit atomicity broken);
* **empty-op** — the operation payload is never validated, so the empty
  operation (which no correct coordinator prepares) is logged and acked.

The symbolic programs and the exact oracle are the tpc template of
:mod:`repro.corpus.templates` at this system's protocol constants
(:data:`CANONICAL`); the concrete participant (for the simulated
network) is built from the same constants.
"""

from repro.corpus.templates import EMPTY_OP, SKIP_WAL, TpcParams, tpc_variant
from repro.systems.tpc.protocol import (
    ABORT,
    ACK_PREPARED,
    COMMIT,
    FLAG_DURABLE,
    FLAG_NONE,
    NO_OP,
    PREPARE,
    TPC_LAYOUT,
)
from repro.systems.tpc.nodes import (
    LostWriteOutcome,
    TpcParticipantNode,
    WalRecord,
    prepare_message,
    run_lost_write_demo,
)

#: The participant under test: the tpc template at this system's
#: constants with both bugs seeded — 2 Trojan classes.
CANONICAL = tpc_variant(TpcParams(
    field_order=TPC_LAYOUT.field_names,
    txid_size=TPC_LAYOUT.view("txid").size,
    pad_size=0,
    prepare=PREPARE,
    commit=COMMIT,
    abort=ABORT,
    flag_durable=FLAG_DURABLE,
    no_op=NO_OP,
    bugs=(SKIP_WAL, EMPTY_OP),
))

__all__ = [
    "ABORT",
    "ACK_PREPARED",
    "CANONICAL",
    "COMMIT",
    "FLAG_DURABLE",
    "FLAG_NONE",
    "LostWriteOutcome",
    "NO_OP",
    "PREPARE",
    "TPC_LAYOUT",
    "TpcParticipantNode",
    "WalRecord",
    "prepare_message",
    "run_lost_write_demo",
]
