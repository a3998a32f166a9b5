"""Exact symbolic model of the collision channel.

A received waveform is represented as a multiset of packet identifiers.
Superposition is multiset union and interference cancellation is
multiset difference.  Because the channel is noiseless and cancellation
is exact, set algebra is a faithful model and every decode decision made
on top of it is deterministic; the engines therefore decide on plain int
sets, and the tests check this algebra with :class:`Signal`.

Slot signals produced by well-behaved protocols are plain sets (each
active user contributes its own id exactly once).  The multiset
generality exists so that over-subtraction -- a protocol-logic bug --
is detectable instead of silently clamping at zero.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

# Packet identifiers are plain non-negative integers, minted by a monotone
# counter at arrival time.  The integer order doubles as the arbitration
# order.
PacketId = int


class NotContainedError(ValueError):
    """Cancellation was asked to subtract a component that is not present.

    Under the exact-channel model this can only arise from a protocol
    implementation bug, so it is a hard error and must never be swallowed.
    """


class Signal:
    """Immutable multiset of packet ids; the empty signal is the null signal."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[PacketId] = ()):
        object.__setattr__(self, "components", tuple(sorted(components)))

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Signal is immutable")

    @classmethod
    def of(cls, *ids: PacketId) -> "Signal":
        return cls(ids)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __contains__(self, pid: PacketId) -> bool:
        return pid in self.components

    def __eq__(self, other) -> bool:
        return isinstance(other, Signal) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        if not self.components:
            return "Signal()"
        return f"Signal({list(self.components)!r})"


def superpose(components: Iterable[Signal]) -> Signal:
    """Channel sum of several signals: the multiset union.

    The empty list superposes to the null signal; superposition is
    commutative and associative by construction.
    """
    merged: list[PacketId] = []
    for sig in components:
        merged.extend(sig.components)
    return Signal(merged)


def cancel(minuend: Signal, subtrahend: Signal) -> Signal:
    """Exact interference cancellation: multiset difference.

    Raises :class:`NotContainedError` if ``subtrahend`` is not a
    sub-multiset of ``minuend``.
    """
    if not subtrahend.components:
        return minuend
    remaining = Counter(minuend.components)
    remaining.subtract(subtrahend.components)
    bad = [pid for pid, cnt in remaining.items() if cnt < 0]
    if bad:
        raise NotContainedError(
            f"cannot cancel {sorted(bad)}: not contained in minuend {minuend!r}"
        )
    return Signal(remaining.elements())
