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
air) and keeps one set of decoded packets.  Cancellation scans the
stored remainders directly: the live ones lie on the current root path,
each a subset of the one above it, so there are never more of them than
the tree is deep.  The per-user decision rule is exposed separately as
:func:`user_react` and checked against the engine in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Union

from .rng import CoinSource
from .signals import NULL_SIGNAL, PacketId, Signal, SlotOutcome, cancel, classify

DEFAULT_SLOT_CAP = 1_000_000


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


class NonTerminationError(RuntimeError):
    """An interval exceeded the slot cap; indicates a rule-table bug."""


class EngineInvariantError(RuntimeError):
    """Internal bookkeeping violated an engine invariant (always a bug)."""


class FeedbackMsg(NamedTuple):
    """Per-slot receiver broadcast.

    ``kind`` is one of ``idle`` / ``success`` / ``collision``; ``skip_k``
    is the announced jump count on successes (the number of scheduled
    subtree positions to advance past, counting the success itself);
    ``z`` is the broadcast signal, null unless the protocol broadcasts.
    """

    kind: str
    skip_k: int = 0
    z: Signal = NULL_SIGNAL


class TreeNode(NamedTuple):
    """One realized node of the split tree, for rendering."""

    node_id: int
    parent: Optional[int]
    members: tuple
    style: str  # "slot" (consumed, labeled), "derived" or "pruned" (skipped)
    slot: Optional[int]


class SlotRecord(NamedTuple):
    index: int
    transmitters: tuple
    outcome: SlotOutcome
    feedback: FeedbackMsg
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
    slots: list = field(default_factory=list)            # SlotRecord, optional
    nodes: list = field(default_factory=list)            # TreeNode, optional

    @property
    def idles(self) -> int:
        return self.length - self.collisions - self.successes


@dataclass(frozen=True)
class ApState:
    """Receiver-side cancellation state: stored remainders plus decoded set."""

    memory: tuple = ()          # ((slot index, Signal remainder), ...)
    resolved: frozenset = frozenset()

    def freshest_remainder(self) -> Signal:
        return self.memory[-1][1] if self.memory else NULL_SIGNAL


def arbitrate(a: PacketId, b: PacketId) -> PacketId:
    """Tie-break a degree-2 group: the higher id transmits first."""
    if a == b:
        raise ValueError(f"arbitration needs distinct ids, got {a} twice")
    return a if a > b else b


class _SicCore:
    """Cancellation over stored collision remainders.

    Remainders are plain int sets in save order.  The non-empty ones lie
    on the current root path, each a subset of the one saved before it,
    so ``entries`` never holds more of them than the tree is deep and a
    decode simply scans it.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list = []          # (slot index, set remainder), non-empty

    def save(self, slot: int, members) -> None:
        self.entries.append((slot, set(members)))

    def decode(self, pid: int, done: set) -> list:
        """Cancel ``pid`` everywhere and cascade, adding every resolved
        packet to ``done``; returns packets newly resolved *beyond* pid
        itself (in resolution order)."""
        cascaded: list = []
        done.add(pid)
        stack = [pid]
        entries = self.entries
        while stack:
            x = stack.pop()
            for _, rem in entries:
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
        self.entries = [entry for entry in entries if entry[1]]
        return cascaded

    def freshest(self) -> Optional[set]:
        return self.entries[-1][1] if self.entries else None

    def snapshot(self) -> tuple:
        return tuple((slot, Signal(rem)) for slot, rem in self.entries)


def ap_sic_step(state: ApState, decoded: Signal) -> tuple:
    """Apply one decoded singleton to the stored remainders, to fixpoint.

    Returns ``(newly_resolved, updated_state)`` where ``newly_resolved``
    contains the decoded packet plus everything the cancellation cascade
    exposed.  The jump count k that the success announces (1 for the
    success itself plus one per pending group the cascade emptied) depends
    on the tree schedule, which the stored remainders do not carry; the
    engine's ``SlotRecord.feedback.skip_k`` holds it.
    """
    out = classify(decoded)
    if not out.is_singleton:
        raise ValueError(f"ap_sic_step needs a singleton signal, got {decoded!r}")
    pid = out.packet
    core = _SicCore()
    for slot, sig in state.memory:
        core.save(slot, sig.components)
    done: set = set()
    core.decode(pid, done)
    newly = frozenset(done)
    new_state = ApState(
        memory=core.snapshot(),
        resolved=state.resolved | newly,
    )
    return newly, new_state


class _Group:
    """A tree group: either on air now or parked as a pending right sibling."""

    __slots__ = ("members", "known", "depth", "node", "left_child")

    def __init__(self, members, known, depth, node, left_child):
        self.members = members        # sorted list of ids
        self.known = known            # composition derivable by everyone
        self.depth = depth
        self.node = node              # TreeNode id or None
        self.left_child = left_child  # True when this group has a fresh right sibling


def _validate_p(p: float) -> float:
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"split probability must lie in (0,1), got {p}")
    return p


def _broadcast(rules: Rules, kind: str, received, remainder):
    """Members a slot's feedback broadcasts, or None: the ``received``
    signal on collisions under ``z_on_collision``, the freshest stored
    ``remainder`` (if any) on successes under ``z_on_success``."""
    if kind == "collision":
        return received if rules.z_on_collision else None
    if kind == "success" and rules.z_on_success and remainder:
        return remainder
    return None


def run_cri(
    protocol: Union[ProtocolKind, str],
    initial: Iterable[PacketId],
    p: float,
    rng: Union[int, CoinSource],
    *,
    cap: int = DEFAULT_SLOT_CAP,
    record_slots: bool = True,
    record_tree: bool = False,
) -> CriTrace:
    """Resolve one interval and return its trace.

    ``rng`` is either an integer seed or a prepared :class:`CoinSource`;
    split coins are keyed by (user id, depth), so two protocols driven
    from the same seed see identical split sequences.  ``record_slots``
    and ``record_tree`` control how much of the trace is materialized;
    the scalar statistics are always filled in.

    Raises :class:`NonTerminationError` when the interval exceeds ``cap``
    consumed slots, which can only happen through a rule-table bug.
    """
    kind = ProtocolKind(protocol)
    rules = RULES[kind]
    p = _validate_p(p)
    coin = rng if isinstance(rng, CoinSource) else CoinSource(int(rng), p)

    ids = sorted(set(int(x) for x in initial))
    trace = CriTrace(protocol=kind, p=p, initial=tuple(ids))

    sic = _SicCore() if rules.saves_collisions else None
    pending: list = []         # stack of _Group right siblings
    done: set = set()          # packets decoded so far (cancellation protocols)

    nodes: list = trace.nodes

    def new_node(parent, members) -> Optional[int]:
        if not record_tree:
            return None
        nid = len(nodes)
        nodes.append([nid, parent, tuple(members), "slot", None])
        return nid

    def split_group(group: _Group) -> _Group:
        """Flip coins for ``group``; park the right child, return the left."""
        left: list = []
        right: list = []
        d = group.depth
        for uid in group.members:
            (left if coin.flip(uid, d) else right).append(uid)
        r = _Group(right, rules.saves_collisions, d + 1, new_node(group.node, right), False)
        pending.append(r)
        return _Group(left, False, d + 1, new_node(group.node, left), True)

    current: Optional[_Group] = _Group(ids, False, 0, new_node(None, ids), False)
    consumed = 0

    while True:
        if current is None:
            if not pending:
                break
            g = pending.pop()
            if not done.isdisjoint(g.members):
                raise EngineInvariantError(
                    "popped a partially resolved group; prune accounting is broken"
                )
            if g.known and rules.skips_definite:
                # Root slot of a derivable/definite group is skipped.
                trace.skipped_slots += 1
                if record_tree:
                    nodes[g.node][3] = "derived"
                if len(g.members) == 1:
                    raise EngineInvariantError(
                        "derived singletons must drain via cancellation, never pop"
                    )
                if len(g.members) == 2 and rules.z_on_success:
                    # Users saw this pair in the freshest broadcast remainder:
                    # the arbitration winner transmits, the loser is cancelled.
                    winner = arbitrate(g.members[0], g.members[1])
                    current = _Group([winner], False, g.depth + 1,
                                     new_node(g.node, [winner]), False)
                else:
                    current = split_group(g)
            else:
                current = g
            continue

        # ``current`` occupies the channel for one slot.
        consumed += 1
        if consumed > cap:
            raise NonTerminationError(
                f"{kind.value} interval over {len(ids)} packets exceeded "
                f"{cap} slots; rule table is inconsistent"
            )
        t = consumed
        members = current.members
        n_here = len(members)

        if n_here == 0:
            fb_kind, skip_k, z = "idle", 0, None
            if current.left_child and pending and rules.skips_definite:
                # An idle left child makes the freshly parked sibling a
                # definite collision; its root slot will be skipped.
                pending[-1].known = True
            next_current = None
        elif n_here == 1:
            pid = members[0]
            fb_kind, skip_k, z = "success", 0, None
            trace.successes += 1
            trace.decoded_order.append((pid, t))
            if sic is not None:
                for y in sic.decode(pid, done):
                    trace.decoded_order.append((y, t))
                skip_k = 1
                while pending and done.issuperset(pending[-1].members):
                    drained = pending.pop()
                    trace.skipped_slots += 1
                    skip_k += 1
                    if record_tree:
                        nodes[drained.node][3] = "pruned"
                trace.k_values.append(skip_k)
                z = _broadcast(rules, fb_kind, None, sic.freshest())
                if z is not None:
                    trace.z_success_slots += 1
            next_current = None
        else:
            fb_kind, skip_k = "collision", 0
            z = _broadcast(rules, fb_kind, members, None)
            trace.collisions += 1
            trace.collision_degrees.append(n_here)
            if sic is not None:
                sic.save(t, members)
                if len(sic.entries) > trace.memory_highwater:
                    trace.memory_highwater = len(sic.entries)
            if n_here == 2 and rules.z_on_collision:
                # Everyone saw the broadcast pair: winner transmits next,
                # the loser is exposed by cancelling the winner.
                winner = arbitrate(members[0], members[1])
                next_current = _Group([winner], False, current.depth + 1,
                                      new_node(current.node, [winner]), False)
            else:
                next_current = split_group(current)

        if record_tree and current.node is not None:
            nodes[current.node][4] = t
        if record_slots:
            fb = FeedbackMsg(fb_kind, skip_k, NULL_SIGNAL if z is None else Signal(z))
            trace.slots.append(
                SlotRecord(t, tuple(members), classify(Signal(members)), fb,
                           len(sic.entries) if sic is not None else 0)
            )
        current = next_current

    trace.length = consumed
    decoded = sorted(pid for pid, _ in trace.decoded_order)
    if decoded != ids:
        raise EngineInvariantError(
            f"interval decoded {decoded}, expected each of {ids} exactly once"
        )
    if record_tree:
        trace.nodes = [TreeNode(*row) for row in nodes]
    return trace


def build_feedback(
    protocol: Union[ProtocolKind, str],
    slot_signal: Signal,
    state: ApState,
    skip_k: Optional[int] = None,
) -> FeedbackMsg:
    """Construct the broadcast for one slot from the post-cancellation state.

    ``skip_k`` is the announced jump count for success slots; when not
    given it defaults to 1 (advance past the success itself) for the
    cancellation protocols and 0 otherwise.
    """
    rules = RULES[ProtocolKind(protocol)]
    out = classify(slot_signal)
    if out.is_idle:
        return FeedbackMsg("idle", 0, NULL_SIGNAL)
    if out.is_collision:
        fb_kind, skip_k = "collision", 0
    else:
        fb_kind = "success"
        if skip_k is None:
            skip_k = 1 if rules.saves_collisions else 0
    z = _broadcast(rules, fb_kind, slot_signal, state.freshest_remainder())
    return FeedbackMsg(fb_kind, skip_k, NULL_SIGNAL if z is None else z)


class UserAction(str, Enum):
    TRANSMIT_NEXT = "transmit_next"
    WAIT = "wait"
    DEFER_EXPECT_RESOLUTION = "defer_expect_resolution"
    SPLIT_AND_MAYBE_TRANSMIT = "split_and_maybe_transmit"


@dataclass
class UserState:
    """Per-user protocol view: own signal, last useful broadcast, position.

    ``counter`` is the classic group counter (how many groups are queued
    ahead of this user's); it stands in for an explicit stack.
    """

    own: Signal
    last_z: Signal = NULL_SIGNAL
    counter: int = 0
    status: str = "active"  # active | deferring | resolved


def user_react(
    protocol: Union[ProtocolKind, str],
    me: UserState,
    fb: FeedbackMsg,
    rng: Union[int, CoinSource, None] = None,
) -> UserAction:
    """Decision kernel for one user receiving one broadcast.

    Updates ``me.last_z`` on non-null broadcasts and ``me.status`` when
    the broadcast settles this user's fate.  The centralized engine in
    :func:`run_cri` implements the same rules in aggregated form; the
    test suite checks the two agree on the arbitration cases.
    """
    ProtocolKind(protocol)  # validate
    if fb.z.degree:
        me.last_z = fb.z
    if me.status == "resolved":
        return UserAction.WAIT
    own_id = me.own.components[0]
    if fb.z.degree and own_id in fb.z:
        rest = cancel(fb.z, me.own)
        if rest.degree == 1:
            other = rest.components[0]
            if arbitrate(own_id, other) == own_id:
                return UserAction.TRANSMIT_NEXT
            me.status = "deferring"
            return UserAction.DEFER_EXPECT_RESOLUTION
    if me.status == "deferring":
        if fb.kind == "success":
            # the winner got through; cancellation exposes this user
            me.status = "resolved"
        return UserAction.WAIT
    if fb.kind == "collision" and me.counter == 0:
        return UserAction.SPLIT_AND_MAYBE_TRANSMIT
    return UserAction.WAIT


def trace_jsonl(trace: CriTrace) -> str:
    """Serialize one trace as JSON lines, one consumed slot per line."""
    lines = []
    for rec in trace.slots:
        lines.append(json.dumps({
            "slot": rec.index,
            "transmitters": list(rec.transmitters),
            "outcome": rec.outcome.kind,
            "degree": rec.outcome.degree,
            "feedback": {
                "kind": rec.feedback.kind,
                "k": rec.feedback.skip_k,
                "z": list(rec.feedback.z.components),
            },
            "memory": rec.memory_size,
        }, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def _node_label(members: tuple, slot: Optional[int]) -> str:
    body = "{" + ",".join(str(m) for m in members) + "}" if members else "empty"
    if slot is not None:
        return f"{body}\\nslot {slot}"
    return body


def export_tree(trace: CriTrace) -> str:
    """Render the realized split tree as DOT text.

    Consumed nodes are solid and carry their slot number; derived and
    pruned nodes (skipped slots) are dashed.  Requires a trace produced
    with ``record_tree=True``.
    """
    if not trace.nodes:
        raise ValueError("trace has no tree nodes; rerun with record_tree=True")
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
