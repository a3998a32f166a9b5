"""Collision-resolution engines for the binary splitting-tree protocols.

One engine core executes a single collision-resolution interval (CRI)
under any of five rule sets:

  bta        basic tree algorithm: every tree node costs one slot.
  mta        after an idle left child, the right sibling is a definite
             collision and its root slot is skipped.
  sicta      the receiver stores every received collision signal and
             cancels decoded packets out of them, so every right
             sibling's composite is derivable and its root slot is
             skipped; fully drained subtrees are skipped via the
             announced jump count.
  atic       sicta plus a broadcast of the received signal on collisions
             and of the most recent unresolved remainder on successes;
             users who can reduce a broadcast to "me plus one other"
             resolve degree-2 groups by id arbitration, making n = 2
             cost exactly two slots.
  atic_left  atic, except the broadcast accompanies collisions only, so
             the arbitration shortcut is available for received
             collisions but not for derived groups.

Each protocol is one ``RULES`` row of four independent :class:`Rules`
flags.  The pair shortcut follows from the broadcasts: users resolve a
degree-2 group by id arbitration when they saw it broadcast, so received
pairs qualify under ``z_on_collision`` and derived pairs under
``z_on_success``.

The engine is receiver-centric: it tracks the split tree explicitly
(a stack of not-yet-visited right siblings plus the group currently on
air, each group a flat ``[members, known, depth, node]`` list) and keeps
one set of decoded packets.  Split coins come from a :class:`CoinSource`;
given an integer seed, the engine builds it only when a group first
splits, so an interval of zero or one packet builds none.  At that first
split the engine takes the interval's split function from
``CoinSource.splitter``, which alone decides how the coins are computed.
Cancellation scans the stored remainders directly: the live ones lie on
the current root path, each a subset of the one above it, so there are
never more of them than the tree is deep.  Slot feedback (idle, success
with its jump count, or collision, plus the broadcast members ``z``) is
decided on int sets; ``record=True`` keeps it as :class:`SlotRecord` rows
along with the split tree as :class:`TreeNode` rows.  No per-user model
is kept: the feedback-replay test
(``tests/test_engines.py::TestFeedbackReplay``) checks every recorded
decode, memory size and broadcast against an independent cancellation
oracle, and checks that users who see a pair broadcast could arbitrate
it: the higher id alone transmits next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Union

from .rng import CoinSource

# Slots an interval may consume per packet (an empty interval counts as
# one packet) before the engine declares a rule-table bug; every protocol
# averages under 3 slots per packet.
SLOT_CAP_PER_PACKET = 1_000_000


class ProtocolKind(str, Enum):
    BTA = "bta"
    MTA = "mta"
    SICTA = "sicta"
    ATIC = "atic"
    ATIC_LEFT = "atic_left"


class Rules(NamedTuple):
    """Static per-protocol behaviour switches (see module docstring)."""

    saves_collisions: bool   # store collisions for cancellation: right siblings derivable
    skips_definite: bool     # definite-collision root slots are skipped
    z_on_collision: bool     # broadcast received collisions: received pairs arbitrate
    z_on_success: bool       # broadcast the freshest remainder: derived pairs arbitrate


RULES: dict[ProtocolKind, Rules] = {
    ProtocolKind.BTA: Rules(False, False, False, False),
    ProtocolKind.MTA: Rules(False, True, False, False),
    ProtocolKind.SICTA: Rules(True, True, False, False),
    ProtocolKind.ATIC: Rules(True, True, True, True),
    ProtocolKind.ATIC_LEFT: Rules(True, True, True, False),
}

# Protocol name (or member) -> member, without the cost of an Enum call.
_KINDS: dict = {kind.value: kind for kind in ProtocolKind}


class NonTerminationError(RuntimeError):
    """An interval of n packets consumed more than
    ``SLOT_CAP_PER_PACKET * max(1, n)`` slots; indicates a rule-table bug."""


class EngineInvariantError(RuntimeError):
    """Internal bookkeeping violated an engine invariant (always a bug)."""


class TreeNode(NamedTuple):
    """One realized node of the split tree, for rendering."""

    node_id: int
    parent: Optional[int]
    members: tuple
    style: str  # "slot" (consumed, labeled), "derived" or "pruned" (skipped)
    slot: Optional[int]


class SlotRecord(NamedTuple):
    """One consumed slot and the feedback the receiver sent for it.

    ``kind`` is ``idle``, ``success`` or ``collision``; ``skip_k`` is the
    announced jump count on successes under cancellation (the number of
    scheduled subtree positions to advance past, counting the success
    itself), else 0; ``z`` holds the sorted broadcast members, ``()``
    when nothing is broadcast; ``memory_size`` counts the stored
    remainders after the slot.
    """

    index: int
    transmitters: tuple
    kind: str
    skip_k: int
    z: tuple
    memory_size: int


@dataclass
class CriTrace:
    """Complete record of one collision-resolution interval."""

    protocol: ProtocolKind
    p: float
    initial: tuple
    length: int = 0
    collisions: int = 0
    successes: int = 0
    skipped_slots: int = 0
    memory_highwater: int = 0
    decoded_order: list = field(default_factory=list)   # (pid, slot) pairs
    k_values: list = field(default_factory=list)        # announced k per success
    collision_degrees: list = field(default_factory=list)
    z_success_slots: int = 0                             # successes with non-null z
    slots: list = field(default_factory=list)            # SlotRecord, if recorded
    nodes: list = field(default_factory=list)            # TreeNode, if recorded

    @property
    def idles(self) -> int:
        return self.length - self.collisions - self.successes


def arbitrate(a: int, b: int) -> int:
    """Tie-break a degree-2 group: the higher id transmits first."""
    if a == b:
        raise ValueError(f"arbitration needs distinct ids, got {a} twice")
    return a if a > b else b


def _split_bias(p) -> float:
    """``p`` as a float; ValueError unless it lies in (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"split probability must lie in (0,1), got {p}")
    return p


def _cancel(memory: list, pid: int, done: set) -> list:
    """Cancel decoded ``pid`` out of the stored remainders and cascade,
    adding every resolved packet to ``done``; returns the packets newly
    resolved *beyond* pid itself, in resolution order.

    ``memory`` holds the non-empty remainders as int sets in save order.
    They lie on the current root path, each a subset of the one saved
    before it, so there are never more of them than the tree is deep and
    a decode simply scans them; drained ones are dropped in place.
    """
    cascaded: list = []
    done.add(pid)
    stack = [pid]
    while stack:
        x = stack.pop()
        for rem in memory:
            if x in rem:
                rem.remove(x)
                if len(rem) == 1:
                    y = rem.pop()  # remainder drains: y is decodable
                    # Two stored signals can expose the same packet (equal
                    # groups at different depths); resolve it only once.
                    if y not in done:
                        done.add(y)
                        cascaded.append(y)
                        stack.append(y)
    memory[:] = [rem for rem in memory if rem]
    return cascaded


def _add_node(nodes: list, parent, members) -> int:
    """Append a ``slot`` row for a new tree group; return its node id."""
    nodes.append([len(nodes), parent, tuple(members), "slot", None])
    return len(nodes) - 1


def run_cri(
    protocol: Union[ProtocolKind, str],
    initial: Iterable[int],
    p: float,
    rng: Union[int, CoinSource],
    *,
    record: bool = False,
) -> CriTrace:
    """Resolve one interval and return its trace.

    ``initial`` holds distinct packet (user) ids; a repeated id raises
    ValueError.  ``rng`` is either an integer seed or a prepared
    :class:`CoinSource`; split coins are keyed by (user id, depth), so
    two protocols driven from the same seed see identical split
    sequences.  An integer seed builds its coin source only when a group
    first splits, so an interval that never splits (zero or one packet)
    builds none.  Splits go through the source's ``splitter``, which
    picks how the coins are computed.  ``record=True`` also fills the
    trace's ``slots`` (one :class:`SlotRecord` per consumed slot) and
    ``nodes`` (the realized split tree); the scalar statistics are always
    filled in.

    Each tree group is a flat list ``[members, known, depth, node]``: its
    sorted ids, whether everyone can derive its composition, its depth
    and its ``nodes`` row (None unless the trace is recorded).

    Raises :class:`NonTerminationError` when an interval of n packets
    consumes more than ``SLOT_CAP_PER_PACKET * max(1, n)`` slots, which
    can only happen through a rule-table bug.
    """
    try:
        kind = _KINDS[protocol]
    except (KeyError, TypeError):
        raise ValueError(f"{protocol!r} is not a valid ProtocolKind") from None
    saves_collisions, skips_definite, z_on_collision, z_on_success = RULES[kind]
    p = _split_bias(p)
    coins, seed = (rng, None) if isinstance(rng, CoinSource) else (None, int(rng))

    ids = sorted(map(int, initial))
    if len(set(ids)) < len(ids):
        repeat = next(a for a, b in zip(ids, ids[1:]) if a == b)
        raise ValueError(f"interval ids must be distinct, got {repeat} more than once")
    cap = SLOT_CAP_PER_PACKET * max(1, len(ids))
    memory: list = []          # stored collision remainders (cancellation protocols)
    pending: list = []         # stack of parked right siblings
    done: set = set()          # packets decoded so far (cancellation protocols)
    nodes: list = []           # [node_id, parent, members, style, slot] rows
    slots: list = []
    decoded_order: list = []
    k_values: list = []
    collision_degrees: list = []
    collisions = successes = skipped = highwater = z_successes = consumed = 0
    current = [ids, False, 0, _add_node(nodes, None, ids) if record else None]
    split = None               # the interval's split function, set at the first split
    left = False               # ``current`` is a left child, its sibling just parked

    while True:
        if current is None:
            if not pending:
                break
            current = pending.pop()
            members, known, depth, node = current
            if not done.isdisjoint(members):
                raise EngineInvariantError(
                    "popped a partially resolved group; prune accounting is broken"
                )
            if not (known and skips_definite):
                left = False
                continue
            # Root slot of a derivable/definite group is skipped.
            skipped += 1
            if record:
                nodes[node][3] = "derived"
            if len(members) == 1:
                raise EngineInvariantError(
                    "derived singletons must drain via cancellation, never pop"
                )
            shortcut = z_on_success
        else:
            # ``current`` occupies the channel for one slot.
            consumed += 1
            if consumed > cap:
                raise NonTerminationError(
                    f"{kind.value} interval over {len(ids)} packets exceeded "
                    f"{cap} slots; rule table is inconsistent"
                )
            t = consumed
            members, _, depth, node = current
            current = None
            n_here = len(members)
            if record:
                nodes[node][4] = t

            if n_here == 0:
                fb_kind, skip_k, z = "idle", 0, ()
                if left and skips_definite:
                    # An idle left child makes the freshly parked sibling a
                    # definite collision; its root slot will be skipped.
                    pending[-1][1] = True
            elif n_here == 1:
                pid = members[0]
                fb_kind, skip_k, z = "success", 0, ()
                successes += 1
                decoded_order.append((pid, t))
                if saves_collisions:
                    for y in _cancel(memory, pid, done):
                        decoded_order.append((y, t))
                    skip_k = 1
                    while pending and done.issuperset(pending[-1][0]):
                        drained = pending.pop()
                        skipped += 1
                        skip_k += 1
                        if record:
                            nodes[drained[3]][3] = "pruned"
                    k_values.append(skip_k)
                    if z_on_success and memory:
                        z = memory[-1]        # the freshest stored remainder
                        z_successes += 1
            else:
                fb_kind, skip_k, z = "collision", 0, members if z_on_collision else ()
                collisions += 1
                collision_degrees.append(n_here)
                if saves_collisions:
                    memory.append(set(members))
                    if len(memory) > highwater:
                        highwater = len(memory)

            if record:
                slots.append(SlotRecord(t, tuple(members), fb_kind, skip_k, tuple(sorted(z)),
                                        len(memory)))
            if n_here < 2:
                continue
            shortcut = z_on_collision

        # ``members`` collided, received or derived.  Users who saw it
        # broadcast resolve a pair by arbitration: the winner transmits next
        # and the loser is exposed by cancelling the winner.  Otherwise split:
        # park the right child and put the left one on air.
        if len(members) == 2 and shortcut:
            winner = arbitrate(members[0], members[1])
            current = [[winner], False, depth + 1,
                       _add_node(nodes, node, (winner,)) if record else None]
            left = False
            continue
        if split is None:
            split = (coins or CoinSource(seed, p)).splitter(ids)
        lm, rm = split(members, depth)
        rnode = _add_node(nodes, node, rm) if record else None
        pending.append([rm, saves_collisions, depth + 1, rnode])
        current = [lm, False, depth + 1, _add_node(nodes, node, lm) if record else None]
        left = True

    decoded = sorted([pid for pid, _ in decoded_order])
    if decoded != ids:
        raise EngineInvariantError(
            f"interval decoded {decoded}, expected each of {ids} exactly once"
        )
    # In field order: passing fields by keyword costs about 1 us more.
    return CriTrace(kind, p, tuple(ids), consumed, collisions, successes, skipped,
                    highwater, decoded_order, k_values, collision_degrees,
                    z_successes, slots, [TreeNode(*row) for row in nodes])


def _node_label(members: tuple, slot: Optional[int]) -> str:
    body = "{" + ",".join(str(m) for m in members) + "}" if members else "empty"
    if slot is not None:
        return f"{body}\\nslot {slot}"
    return body


def export_tree(trace: CriTrace) -> str:
    """Render the realized split tree as DOT text.

    Consumed nodes are solid and carry their slot number; derived and
    pruned nodes (skipped slots) are dashed.  Requires a trace produced
    with ``record=True``.
    """
    if not trace.nodes:
        raise ValueError("trace has no tree nodes; rerun with record=True")
    out = ["digraph cri {", '  node [shape=ellipse, fontname="monospace"];']
    for node in trace.nodes:
        attrs = [f'label="{_node_label(node.members, node.slot)}"']
        if node.style != "slot":
            attrs.append('style="dashed"')
        out.append(f"  n{node.node_id} [{', '.join(attrs)}];")
    for node in trace.nodes:
        if node.parent is not None:
            out.append(f"  n{node.parent} -> n{node.node_id};")
    out.append("}")
    return "\n".join(out) + "\n"
