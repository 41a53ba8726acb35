"""Bracha reliable broadcast — byzantine dissemination under test.

A four-node (``n = 3f + 1``) witnessed Bracha broadcast, analyzed at one
node's message ingress for a pinned slot. Two Trojan families are
seeded:

* **Forged-sender SEND** — the broadcaster-identity check is weakened
  to cluster membership, so any member can initiate a slot it does not
  own and trigger the node's echo (1 class);
* **Thin-quorum READY** — the echo-certificate quorum test is off by
  one (``2f`` instead of ``2f + 1``), so a ``READY`` one echo short of
  a valid quorum is counted toward delivery (6 classes, one per thin
  certificate).

The symbolic programs and the exact oracle are the broadcast template
of :mod:`repro.corpus.templates` at this system's protocol constants
(:data:`CANONICAL`); the concrete node (for the simulated network) is
built from the same constants, so findings transfer between the two.
"""

from repro.corpus.templates import (
    FORGED_SENDER,
    THIN_QUORUM,
    BroadcastParams,
    broadcast_variant,
)
from repro.systems.broadcast.protocol import (
    BROADCASTER,
    BROADCAST_LAYOUT,
    BROADCAST_VALUE,
    BUGGY_ECHO_THRESHOLD,
    ECHO_THRESHOLD,
    FAULTY,
    FULL_CERTS,
    MSG_ECHO,
    MSG_READY,
    MSG_SEND,
    N_NODES,
    NODE_IDS,
    NODE_MASK,
    NO_CERT,
    READY_THRESHOLD,
    THIN_CERTS,
)
from repro.systems.broadcast.nodes import (
    BroadcastNode,
    ForgedDeliveryOutcome,
    broadcast_message,
    run_forged_delivery_demo,
)

#: The node under test: the broadcast template at this system's
#: constants with both bugs seeded — 7 Trojan classes.
CANONICAL = broadcast_variant(BroadcastParams(
    field_order=BROADCAST_LAYOUT.field_names,
    pad_size=0,
    value_size=BROADCAST_LAYOUT.view("value").size,
    msg_send=MSG_SEND,
    msg_echo=MSG_ECHO,
    msg_ready=MSG_READY,
    node_ids=NODE_IDS,
    broadcaster=BROADCASTER,
    broadcast_value=BROADCAST_VALUE,
    bugs=(FORGED_SENDER, THIN_QUORUM),
))

__all__ = [
    "BROADCASTER",
    "BROADCAST_LAYOUT",
    "BROADCAST_VALUE",
    "BUGGY_ECHO_THRESHOLD",
    "BroadcastNode",
    "CANONICAL",
    "ECHO_THRESHOLD",
    "FAULTY",
    "FULL_CERTS",
    "ForgedDeliveryOutcome",
    "MSG_ECHO",
    "MSG_READY",
    "MSG_SEND",
    "N_NODES",
    "NODE_IDS",
    "NODE_MASK",
    "NO_CERT",
    "READY_THRESHOLD",
    "THIN_CERTS",
    "broadcast_message",
    "run_forged_delivery_demo",
]
