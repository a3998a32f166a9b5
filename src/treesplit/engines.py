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

``RULES``, keyed by protocol name, is the one registry of protocols:
each is one row of four independent :class:`Rules` flags.  The pair
shortcut follows from the broadcasts: users resolve a degree-2 group by
id arbitration when they saw it broadcast, so received pairs qualify
under ``z_on_collision`` and derived pairs under ``z_on_success``.

The engine is receiver-centric: it tracks the split tree explicitly (a
stack of not-yet-visited right siblings plus the group currently on
air), each group a range of one list of the interval's ids in the trie
order of the users' coins (Knuth, TAOCP vol. 3, 6.3), so a split only
finds its split point.  The tree is walked left first, so the decoded
packets are a prefix of that list and a stored collision is just the end
of its range (see :func:`run_cri`).  Split coins come from a
:class:`CoinSource`; given an integer seed, the engine builds it only
when a group first splits, so an interval of zero or one packet builds
none.  At that first split it takes the interval's order and trie keys
from ``CoinSource.trie``, which alone decides how keys are computed; the
engine makes every split, by one bisection of the keys above their depth
and by ``CoinSource.flip`` below it.  The group on air lives in locals,
and a parked group is one tuple.  Slot feedback (idle, success with its
jump count, or collision, plus the broadcast members ``z``) is read off
the ranges; ``record=True`` keeps it as :class:`SlotRecord` rows along
with the split tree as :class:`TreeNode` rows.  No per-user model is
kept: ``tests/test_engines.py::TestFeedbackReplay`` checks every recorded
decode, memory size and broadcast against an independent cancellation
oracle, and that users who see a pair broadcast could arbitrate it: the
higher id alone transmits next.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Union

from .rng import CoinSource, _integer, _real

# Slots an interval may consume per packet (an empty interval counts as
# one packet) at split bias 1/2 before the engine declares a rule-table
# bug (every protocol averages under 3); a bias p stretches trees, and the
# cap, by about 1/(2 min(p, 1 - p)): two packets take about 1/(2p) slots.
SLOT_CAP_PER_PACKET = 1_000_000


class Rules(NamedTuple):
    """Static per-protocol behaviour switches (see module docstring)."""

    saves_collisions: bool   # store collisions for cancellation: right siblings derivable
    skips_definite: bool     # definite-collision root slots are skipped
    z_on_collision: bool     # broadcast received collisions: received pairs arbitrate
    z_on_success: bool       # broadcast the freshest remainder: derived pairs arbitrate


RULES: dict[str, Rules] = {
    "bta": Rules(False, False, False, False),
    "mta": Rules(False, True, False, False),
    "sicta": Rules(True, True, False, False),
    "atic": Rules(True, True, True, True),
    "atic_left": Rules(True, True, True, False),
}


class NonTerminationError(RuntimeError):
    """An interval of n packets at split bias p consumed more than
    ``SLOT_CAP_PER_PACKET * max(1, n) / (2 min(p, 1 - p))`` slots: a rule-table bug."""


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
    """Complete record of one collision-resolution interval; ``protocol``
    is its ``RULES`` name."""

    protocol: str
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


def _rules(protocol) -> Rules:
    """The ``RULES`` row of a protocol name; ValueError for any other key."""
    try:
        return RULES[protocol]
    except (KeyError, TypeError):
        raise ValueError(f"unknown protocol {protocol!r}; choices: {tuple(RULES)}") from None


def _split_bias(p) -> float:
    """``p`` as a float; ValueError unless it is a real (never converted
    from a bool or string) with 2^-53 <= p < 1.  The coins
    realize p rounded up to a multiple of 2^-53 (``rng.coin_words``
    compares with that bound), so a smaller p would split as if it were
    2^-53."""
    p = _real(p, "split probability")
    if not 2.0 ** -53 <= p < 1.0:
        raise ValueError(f"split probability must lie in [2^-53, 1), got {p}")
    return p


def _add_node(nodes: list, parent, members) -> int:
    """Append a ``slot`` row for a new tree group; return its node id."""
    nodes.append([len(nodes), parent, tuple(sorted(members)), "slot", None])
    return len(nodes) - 1


def run_cri(
    protocol: str,
    initial: Iterable[int],
    p: float,
    rng: Union[int, CoinSource],
    *,
    record: bool = False,
) -> CriTrace:
    """Resolve one interval of a ``RULES`` protocol and return its trace.

    ``initial`` holds distinct integer packet (user) ids.  ``rng`` is
    either an integer seed or a prepared :class:`CoinSource` of bias
    ``p``; split coins are keyed by (user id, depth), so two protocols
    driven from the same seed see identical split sequences.  A repeated
    id, or an id, seed or ``p`` of the wrong kind, raises ValueError:
    none is converted.  An integer seed builds its coin source only when
    a group first splits, so an interval that never splits (zero or one
    packet) builds none.  ``record=True`` also fills the trace's
    ``slots`` (one :class:`SlotRecord` per consumed slot) and ``nodes``
    (the realized split tree); the scalar statistics are always filled in.

    The group on air is the range ``order[a:b]`` at tree depth ``depth``,
    whose ``nodes`` row is ``node`` (None unless the trace is recorded),
    held in locals; ``order`` starts as the sorted ids and is
    ``CoinSource.trie``'s order from the first split on, so a recorded
    trace sorts its transmitters and node members.  Above the keys' depth
    a split is one bisection of the keys; deeper, where keys tie, it
    partitions the range stably by ``flip``, heads then tails.  A split
    parks the right child as an ``(a, b, depth, node)`` tuple.  A parked
    group is a definite collision, its root slot skipped under
    ``skips_definite``, when the receiver saves collisions (everyone can
    derive it) or when its left sibling was idle.  A pair's arbitration
    may swap it out of trie order, but a pair never splits.  The tree is
    walked left first, so the decoded packets are always the prefix
    ``order[:pos]``: a stored collision ``[a, b)`` needs only its end, its
    remainder being ``order[pos:b]``.

    Raises :class:`NonTerminationError` when an interval exceeds its slot
    cap, which can only happen through a rule-table bug.
    """
    saves_collisions, skips_definite, z_on_collision, z_on_success = _rules(protocol)
    derives = saves_collisions and skips_definite
    p = _split_bias(p)
    coins, seed = (rng, None) if isinstance(rng, CoinSource) else (None, _integer(rng, "seed"))
    if coins is not None and coins.p != p:
        raise ValueError(f"coin source bias {coins.p} differs from the split bias {p}")

    try:
        ids = tuple(sorted(map(operator.index, initial)))
    except TypeError as err:
        raise ValueError(f"interval ids must be integers: {err}") from None
    if len(set(ids)) < len(ids):
        repeat = next(a for a, b in zip(ids, ids[1:]) if a == b)
        raise ValueError(f"interval ids must be distinct, got {repeat} more than once")
    # A slot count passes the real cap iff it passes its int floor; divisor min(2p, 2 - 2p).
    cap = int(SLOT_CAP_PER_PACKET * (len(ids) or 1) / (2 * p if p <= 0.5 else 2 - 2 * p))
    order = list(ids)          # every group is a range of this list
    pos = 0                    # order[:pos] is decoded
    memory: list = []          # ends of the stored collisions (cancellation protocols)
    pending: list = []         # stack of parked right siblings
    nodes: list = []           # [node_id, parent, members, style, slot] rows
    slots: list = []
    decoded_order: list = []
    k_values: list = []
    collision_degrees: list = []
    collisions = successes = skipped = highwater = z_successes = consumed = 0
    a, b, depth = 0, len(order), 0
    node = _add_node(nodes, None, ids) if record else None
    flip = None                # the coins' flip, bound with the trie keys at the first split
    left = False               # the group on air is a left child, its sibling just parked

    while True:
        # ``order[a:b]`` occupies the channel for one slot.
        consumed += 1
        if consumed > cap:
            raise NonTerminationError(f"{protocol} interval over {len(ids)} packets exceeded "
                                      f"{cap} slots; rule table is inconsistent")
        n_here = b - a
        if n_here == 0:
            fb_kind, skip_k, z = "idle", 0, ()
        elif n_here == 1:
            fb_kind, skip_k, z = "success", 0, ()
            successes += 1
            decoded_order.append((order[a], consumed))
            pos = b
            if saves_collisions:
                # Cancel the decode out of the stored collisions: the
                # deepest has the nearest end, and one with a single
                # packet left exposes it (equal ends expose it once).
                while memory and memory[-1] - pos <= 1:
                    if memory.pop() > pos:
                        decoded_order.append((order[pos], consumed))
                        pos += 1
                skip_k = 1
                while pending and pending[-1][1] <= pos:
                    drained = pending.pop()
                    skipped += 1
                    skip_k += 1
                    if record:
                        nodes[drained[3]][3] = "pruned"
                k_values.append(skip_k)
                if z_on_success and memory:
                    z_successes += 1      # broadcast the freshest remainder
                    if record:
                        z = order[pos:memory[-1]]
        else:
            fb_kind, skip_k = "collision", 0
            z = order[a:b] if z_on_collision and record else ()
            collisions += 1
            collision_degrees.append(n_here)
            if saves_collisions:
                memory.append(b)
                if len(memory) > highwater:
                    highwater = len(memory)

        if record:
            nodes[node][4] = consumed
            slots.append(SlotRecord(consumed, tuple(sorted(order[a:b])), fb_kind, skip_k,
                                    tuple(sorted(z)), len(memory)))
        if n_here > 1:
            shortcut = z_on_collision
        else:
            # Next on air is the freshest parked group, unless its root
            # slot is skipped: an idle left child makes its sibling, parked
            # just before it, a definite collision.
            if not pending:
                break
            known = derives or (n_here == 0 and left and skips_definite)
            a, b, depth, node = pending.pop()
            if a < pos:
                raise EngineInvariantError(
                    "popped a partially resolved group; prune accounting is broken"
                )
            if not known:
                left = False
                continue
            skipped += 1
            if record:
                nodes[node][3] = "derived"
            if b - a == 1:
                raise EngineInvariantError(
                    "derived singletons must drain via cancellation, never pop"
                )
            shortcut = z_on_success

        # ``order[a:b]`` collided, received or derived.  Users who saw it
        # broadcast resolve a pair by arbitration: the winner transmits next
        # and the loser is exposed by cancelling the winner.  Otherwise split:
        # park the right child and put the left one on air.
        if b - a == 2 and shortcut:
            winner = arbitrate(order[a], order[a + 1])
            if winner != order[a]:
                order[a], order[a + 1] = winner, order[a]
            b = a + 1
            depth += 1
            if record:
                node = _add_node(nodes, node, (winner,))
            left = False
            continue
        if flip is None:
            coins = coins or CoinSource(seed, p)
            flip = coins.flip
            order, keys, key_depths = coins.trie(order)
        if depth < key_depths:
            # Tails start at the first key past the group's depth-bit prefix.
            shift = key_depths - depth
            m = bisect_left(keys, keys[a] >> shift << shift | 1 << shift - 1, a, b)
        else:
            heads, tails = [], []
            for uid in order[a:b]:
                (heads if flip(uid, depth) else tails).append(uid)
            m = a + len(heads)
            order[a:b] = heads + tails
        depth += 1
        if record:
            pending.append((m, b, depth, _add_node(nodes, node, order[m:b])))
            node = _add_node(nodes, node, order[a:m])
        else:
            pending.append((m, b, depth, None))
        b = m
        left = True

    decoded = tuple(sorted([pid for pid, _ in decoded_order]))
    if decoded != ids:
        raise EngineInvariantError(
            f"interval decoded {decoded}, expected each of {ids} exactly once"
        )
    # In field order: passing fields by keyword costs about 1 us more.
    return CriTrace(protocol, p, ids, consumed, collisions, successes, skipped,
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
