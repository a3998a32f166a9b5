"""Exact and asymptotic performance math for splitting-tree protocols.

Every law takes the split bias p, the probability that a collider joins
the left group, as a float in [2^-53, 1), with q = 1 - p; an
out-of-range p raises ValueError, as in the engines and the simulator.

The length laws are reached through their tables: ``CriLengthTable``
grows the bottom-up probabilistic recursion (all-positive terms,
numerically stable) for one protocol and split bias, and the
Poisson mixtures and windowed stable rates read a table passed to them,
so they follow whichever protocol it was built for.  The
alternating-binomial closed form for the full-broadcast law is kept as
an independent validator; its alternating terms cancel catastrophically
in doubles as n grows, so it is summed in exact rational arithmetic.

Length laws, conditioning on the binomial split count i of n colliders
(left group size), with pi_i = C(n,i) p^i q^(n-i).  Each protocol's law
is read off its ``engines.RULES`` flags, one term per flag:

  (none)            L_n = 1 + sum_i pi_i (L_i + L_{n-i})            n >= 2
                    (bta: every tree node costs one slot)
  skips_definite    after an idle left child (i = 0) the right group is
                    a definite collision and its root slot is skipped:
                    the i = 0 term loses its 1 (mta)
  saves_collisions  every right root slot is derived by cancellation and
                    skipped, which cancels the row's own 1:
                    L_n = sum_i pi_i (L_i + L_{n-i}) (sicta)
  z_on_collision    a received pair resolves by id arbitration, so the
                    table starts from L_2 = 2 exactly (atic, atic_left)
  z_on_success      a derived pair arbitrates too (atic).  Under the two
                    flags above without it (atic_left) a derived pair
                    is split, at cost
                    D_2 = (q^2 L_0 + 2pq L_1 + p^2 L_2) / (1 - q^2)
                    instead of L_2 - 1, which adds pi_{n-2} (D_2 - L_2 + 1)

The collision-count tables follow the same flags with the weights of
received collision slots (see :class:`CollisionCountTable`).  Each
table is a ``_BASE`` plus ``_row_terms`` read off the flags, run by the
one recursion ``_SplitTable._extend``.

Each row sums only over the split counts 1 <= i <= n-1 with
|i - n p| <= t_n = sqrt(n ln(2/eps) / 2) + 1, eps = 2^-64, plus the
self terms i = 0 and i = n, which are kept exactly.  By Hoeffding's
bound the binomial mass left out is at most eps, so the dropped part of
a row's numerator is below 2^-62 relative to L_n (under one ulp), and a
table up to n costs O(n^{3/2}) instead of O(n^2).

Rows are built in blocks: rows whose windows read only finished rows,
those below the block's first.  A block's binomial weights and its
V_i + V_{n-i} terms are each one numpy pass over a rectangle of rows by
split counts, at most ``_BLOCK_CELLS`` cells, so numpy's fixed cost per
call, most of a lone row's cost, is paid once a block.  Each row then
takes its own dot product over exactly its window, which sums in the
order, and gives the bits, of the row built alone.

The binomial weights come from a table of ln Gamma(k) = ln((k-1)!) over
the integers, grown with the length table.  It reproduces cephes
``lgam`` (what ``scipy.special.gammaln`` evaluates) bit for bit, so the
package needs no scipy: ln of the exact factorial for k <= 12, and for
k >= 13 the Stirling series with cephes' coefficients, switch point at
1000 and operation order, taking ln k from libm through ``math.log``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from .engines import _rules, _split_bias
from .rng import _integer

# Poisson tail mass a mixture over the length table may leave out.
_POISSON_TOL = 1e-12
# Largest Poisson load a mixture accepts.  Above 2**53 doubles skip
# integers, so the cutoff search counts inexactly, and near 1e32 its steps
# vanish in the load's double spacing and it never ends.
_MAX_LOAD = 2.0 ** 53
# Binomial mass a recursion row may leave out.  Rows sum only over split
# counts with |i - n p| <= t_n = sqrt(n ln(2 / eps) / 2) + 1; Hoeffding
# bounds the mass outside by 2 exp(-2 t^2 / n) <= eps.
_TAIL_EPS = 2.0 ** -64
_WINDOW_LOG_TERM = 0.5 * math.log(2.0 / _TAIL_EPS)
# Most cells (rows x split counts) in a block's rectangle: 64 KiB for each
# of its two arrays.  On a 2-vCPU VM the windowed-scan tables (241 loads to
# 1e4) took 0.80 / 0.70 / 0.69 / 0.76 of the row-by-row time at 2^12 /
# 2^13 / 2^14 / 2^15 cells; 2^14 raised that scan's peak RSS by 0.4 MiB
# over 2^13, which matched 2^10 and 2^12.
_BLOCK_CELLS = 2 ** 13
# cephes lgam's Stirling series for x >= 13:
#   ln Gamma(x) = (x - 1/2) ln x - x + ln sqrt(2 pi) + S(1/x^2) / x,
# S a degree-4 polynomial below x = 1000 and a degree-2 one from there on.
# On the integers near 1000 both give the same doubles; the switch stays
# where cephes has it, so equality with gammaln does not rest on a range
# that was checked.
_LS2PI = 0.91893853320467274178
_STIRLING_SMALL = (
    8.11614167470508450300E-4, -5.95061904284301438324E-4,
    7.93650340457716943945E-4, -2.77777777730099687205E-3,
    8.33333333333331927722E-2,
)
_STIRLING_LARGE = (
    7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
    0.0833333333333333333333,
)
_STIRLING_SWITCH = 1000


def _horner(coefs: tuple, x: np.ndarray) -> np.ndarray:
    """The polynomial coefs[0] x^d + ... + coefs[d], in cephes polevl order."""
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _log_gamma(lo: int, hi: int) -> np.ndarray:
    """ln Gamma(k) for the integers lo <= k < hi; ln Gamma(0) is inf.

    Equal bit for bit to ``scipy.special.gammaln(np.arange(lo, hi))``
    for k below 1e8 (beyond it cephes lgam drops the series term; no
    table gets that long).  ln k comes from ``math.log``: numpy's
    vectorized log differs from libm's in the last bit on a few integers.
    """
    head = [math.log(math.factorial(k - 1)) if k else math.inf for k in range(lo, min(hi, 13))]
    lo = max(lo, 13)
    if hi <= lo:
        return np.array(head, dtype=float)
    x = np.arange(lo, hi, dtype=float)
    q = (x - 0.5) * np.fromiter(map(math.log, range(lo, hi)), float, hi - lo) - x + _LS2PI
    p = 1.0 / (x * x)
    cut = min(max(_STIRLING_SWITCH - lo, 0), hi - lo)
    series = np.concatenate((_horner(_STIRLING_SMALL, p[:cut]), _horner(_STIRLING_LARGE, p[cut:])))
    return np.concatenate((head, q + series / x))


def _toeplitz(seg: np.ndarray, rows: int) -> np.ndarray:
    """The (rows, len(seg) - rows + 1) view T[r, c] = seg[rows - 1 - r + c].

    Over a reversed slice a[j - cols + 1:j + rows][::-1] it is T[r, c] =
    a[j + r - c].  One row is ``seg`` itself; more rows view a contiguous
    copy of it, with a positive inner stride, so numpy's loops over it
    vectorize.  Its rows overlap in memory: never write into it.
    """
    if rows == 1:
        return seg[None]
    seg = np.ascontiguousarray(seg)
    step = seg.itemsize
    return np.ndarray((rows, len(seg) - rows + 1), seg.dtype, seg, (rows - 1) * step, (-step, step))


class _SplitTable:
    """Values over collider counts n, grown by a recursion over rows that
    conditions on the Binomial(n, p) split of the n colliders.

    The protocol's ``RULES`` flags pick the terms of each row (see the
    module docstring).  ``_values[:_size]`` holds the finished rows.  Its
    capacity grows by doubling, and with it grow the log-gamma table
    ``_gl`` (``_gl[k]`` = ln Gamma(k), one entry longer; only its new
    entries are computed), ``_ilp[k] = k ln p``, ``_ilq[k] = k ln q`` and
    the self-term probabilities ``_p_pow[k] = p^k``, ``_q_pow[k] = q^k``.
    Row n sums over the O(sqrt(n)) split counts ``_bounds`` gives it.
    :meth:`_extend` builds new rows in blocks (see the module docstring),
    and :meth:`_block` reads a block's terms off slices of these arrays,
    with Toeplitz views for the n - i side, so it builds no index arrays.

    Each subclass gives its base values V_0, V_1 and the received-pair
    value V_2 as ``_BASE`` (a table starts from V_2 only under
    ``z_on_collision``) and its law as ``_row_terms(rules)``, the row
    constants ``(toll, drop_0, keep_0, keep_n, derived)`` of the one
    recursion :meth:`_extend`: (1 - pi_0 - pi_n) V_n = toll - drop_0 pi_0
    + sum_i pi_i (V_i + V_{n-i} - derived) + keep_0 pi_0 + keep_n pi_n,
    where a right group of one is never derived, plus the derived-pair
    term.  ``protocol`` is the table's ``RULES`` name.
    """

    _BASE: tuple

    def __init__(self, p: float, protocol: str = "atic"):
        p = _split_bias(p)
        rules = _rules(protocol)
        self.p = p
        self.protocol = protocol
        self._terms = self._row_terms(rules)
        saves, _, z_on_collision, z_on_success = rules
        base = self._BASE if z_on_collision else self._BASE[:2]
        # Extra cost of a derived pair that cannot arbitrate and is split:
        # D_2 - (V_2 - 1), D_2 solving D_2 = q^2 (V_0 + D_2) + 2pq V_1 + p^2 V_2.
        self._pair = 0.0
        if saves and z_on_collision and not z_on_success:
            q = 1.0 - p
            v_0, v_1, v_2 = base
            d_2 = (q * q * v_0 + 2.0 * p * q * v_1 + p * p * v_2) / (1.0 - q * q)
            self._pair = d_2 - (v_2 - 1.0)
        self._values = self._gl = np.empty(0)
        self._size = 0
        self._reserve(len(base) - 1)
        self._values[: len(base)] = base
        self._size = len(base)

    def _reserve(self, n_max: int) -> None:
        if n_max < len(self._values):
            return
        capacity = max(n_max + 1, 2 * len(self._values))
        # zeros: a block's rectangle reads unfinished rows outside its rows'
        # windows, and they must stay finite
        values = np.zeros(capacity)
        values[: self._size] = self._values[: self._size]
        self._values = values
        self._gl = np.concatenate((self._gl, _log_gamma(len(self._gl), capacity + 1)))
        k = np.arange(capacity)
        self._ilp = k * math.log(self.p)
        self._ilq = k * math.log(1.0 - self.p)
        self._p_pow = np.exp(self._ilp)
        self._q_pow = np.exp(self._ilq)

    def _bounds(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's interior split counts lo..hi: 1 <= i <= n-1 with
        |i - n p| <= t_n, as integer arrays over the row numbers ``n``."""
        half_width = np.sqrt(n * _WINDOW_LOG_TERM) + 1.0
        # ceil(n p - t_n) taken exactly as -floor(t_n - n p)
        lo = -np.minimum(np.floor(half_width - n * self.p), -1.0).astype(np.intp)
        hi = np.minimum(np.floor(n * self.p + half_width), n - 1.0).astype(np.intp)
        return lo, hi

    def _block(self, n0: int, n1: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows n0..n1-1 of the recursion over the split counts lo..hi.

        Returns two (n1 - n0, hi - lo + 1) arrays: the Binomial(n, p)
        probability of i, and V_i + V_{n-i} - derived (V_{n-1} + V_1 at
        i = n - 1, a right group of one).  Cells outside a row's own window
        may read rows not yet finished; they are finite and unused.
        """
        rows = n1 - n0
        gl, V = self._gl, self._values
        a, b = n0 - hi, n1 - lo  # n - i runs over a..b-1
        # each cell's operations in the order a lone row takes them
        pmf = gl[n0 + 1:n1 + 1, None] - gl[lo + 1:hi + 2]
        pmf -= _toeplitz(gl[a + 1:b + 1][::-1], rows)
        pmf += self._ilp[lo:hi + 1]
        pmf += _toeplitz(self._ilq[a:b][::-1], rows)
        np.exp(pmf, out=pmf)
        sums = _toeplitz(V[a:b][::-1] - self._terms[-1], rows) + V[lo:hi + 1]
        # only row n0 can reach i = n - 1: the block's rows read only rows below n0
        if hi == n0 - 1:
            sums[0, -1] = V[n0 - 1] + V[1]
        return pmf, sums

    def _extend(self, n_max: int) -> None:
        if n_max < self._size:
            return
        self._reserve(n_max)
        V, start, pair = self._values, self._size, self._pair
        toll, drop_0, keep_0, keep_n, _ = self._terms
        rows = np.arange(start, n_max + 1)
        lo, hi = self._bounds(rows)
        # Row n reads rows lo..hi and n-hi..n-lo.  Both bounds never fall as
        # n grows and lo steps by at most 1, so neither does the last row read.
        last_read = np.maximum(hi, rows - lo).tolist()
        lo, hi = lo.tolist(), hi.tolist()
        pi_0s, pi_ns = self._q_pow[start:n_max + 1].tolist(), self._p_pow[start:n_max + 1].tolist()
        k = 0
        while k < len(lo):
            # Rows n0.. up to the first that reads row n0 read only finished
            # rows, so they form one block, cut to at most _BLOCK_CELLS cells:
            # first by the width of row n0, then by that of its last row.
            n0, first = start + k, lo[k]
            end = min(bisect_left(last_read, n0, k + 1),
                      k + max(1, _BLOCK_CELLS // (hi[k] - first + 1)))
            end = min(end, k + max(1, _BLOCK_CELLS // (hi[end - 1] - first + 1)))
            pmf, sums = self._block(n0, start + end, first, hi[end - 1])
            # one dot per row, over exactly its window
            for r, j in enumerate(range(k, end)):
                n, window = start + j, slice(lo[j] - first, hi[j] - first + 1)
                mid = float(pmf[r, window].dot(sums[r, window]))
                if pair and n - 2 <= hi[j]:
                    mid += pmf[r, n - 2 - first] * pair
                # the self terms i=0 and i=n hold V_n; solve the row for it
                pi_0, pi_n = pi_0s[j], pi_ns[j]
                num = (toll - drop_0 * pi_0) + mid + keep_0 * pi_0 + keep_n * pi_n
                V[n] = num / (1.0 - pi_0 - pi_n)
            k = end
        self._size = n_max + 1

    def expected(self, n: int) -> float:
        n = _integer(n, "n", 0)
        self._extend(n)
        return float(self._values[n])


class CriLengthTable(_SplitTable):
    """Lazily grown table of expected interval lengths L_n for one protocol.

    Building is O(n^{3/2}) total up to the largest requested n (each row
    sums over a window of O(sqrt(n)) split counts), so bulk consumers
    (throughput curves, Poisson mixtures) share one table.
    """

    _BASE = (1.0, 1.0, 2.0)

    @staticmethod
    def _row_terms(rules) -> tuple:
        saves, skips = rules.saves_collisions, rules.skips_definite
        return (0.0 if saves else 1.0, 0.0, 1.0 if saves or not skips else 0.0, 1.0, 0.0)

    def throughput(self, n: int) -> float:
        n = _integer(n, "n", 1)
        return n / self.expected(n)

    def lengths_up_to(self, n_max: int) -> np.ndarray:
        """L_0..L_n_max as a new array (the table keeps its own)."""
        n_max = _integer(n_max, "n_max", 0)
        self._extend(n_max)
        return self._values[: n_max + 1].copy()


def expected_cri_closed(n: int, p: float) -> float:
    """Closed-form expected interval length (full-broadcast law).

    The alternating binomial sum loses all double precision before n = 30,
    so it is evaluated in exact rational arithmetic over the binary value
    of p and rounded once; use a :class:`CriLengthTable` for large n.
    """
    n = _integer(n, "n", 0)
    pf = Fraction(_split_bias(p))
    qf = 1 - pf
    rf = 2 - 4 * pf * qf - 3 * (pf * pf + qf * qf)
    total = Fraction(1)
    for i in range(2, n + 1):
        total += (
            math.comb(n, i)
            * (-1) ** i
            * (i - 1 + rf * i * (i - 1) / 2)
            / (1 - pf ** i - qf ** i)
        )
    return float(total)


def asymptotic_throughput(p: float) -> float:
    """Limiting throughput of the full-broadcast protocol for a given p.

    With q = 1 - p and r = 2 - 4pq - 3(p^2 + q^2) (exactly -1/2 at
    p = 1/2), it equals (4/3) ln 2 at p = 1/2, where it is also maximized.
    """
    p = _split_bias(p)
    q = 1.0 - p
    r = 2.0 - 4.0 * p * q - 3.0 * (p * p + q * q)
    entropy = -p * math.log(p) - q * math.log(q)
    return entropy / (1.0 + r / 2.0)


def _poisson_truncation(load: float) -> int:
    """Smallest cutoff M whose Poisson tail bound P(N >= M) drops below
    ``_POISSON_TOL``.

    Chernoff bound: P(N >= M) <= exp(-load + M + M ln(load / M)) for M > load.
    """
    m = int(load) + 1
    step = max(int(4.0 * math.sqrt(load)) + 8, 8)
    while True:
        m += step
        log_tail = -load + m + m * math.log(load / m)
        if log_tail < math.log(_POISSON_TOL):
            return m


def poisson_expected_cri(load: float, table: CriLengthTable) -> float:
    """Expected interval length under ``table``'s protocol and split
    probability when the collider count is Poisson(load)."""
    if not (math.isfinite(load) and load >= 0.0):
        raise ValueError(f"load must be finite and non-negative, got {load}")
    if load > _MAX_LOAD:
        raise ValueError(f"load must be at most 2**53, got {load:g}")
    if load == 0.0:
        return table.expected(0)
    m = _poisson_truncation(load)
    lengths = table.lengths_up_to(m)
    n = np.arange(m + 1)
    # the table's log-gamma array holds ln(n!) at n + 1 once it reaches m
    log_pmf = n * math.log(load) - load - table._gl[1:m + 2]
    return float(np.dot(np.exp(log_pmf), lengths))


def windowed_stable_rate(load: float, table: CriLengthTable) -> float:
    """Supremum arrival rate (packets/slot) stable at the given window load.

    For window size delta and arrival rate lam, the batch load is
    lam * delta and stability requires the expected interval length to fit
    inside the window; the boundary rate is load / E[L(Poisson(load))],
    with L the lengths of ``table``'s protocol.  For atic the rate climbs
    towards the protocol's asymptote as the load grows; a small
    log-periodic ripple (order 1e-6 after Poisson smoothing) survives on
    top of that trend, so the climb is not strictly monotone at fine
    resolution.  atic_left's rate overshoots its limit (6/5) ln 2 = 0.832
    at small loads (0.843 near load 3.4), where the two-slot received
    pairs weigh most.
    """
    if not (math.isfinite(load) and load > 0.0):
        raise ValueError(f"load must be positive and finite, got {load}")
    return load / poisson_expected_cri(load, table)


class CollisionCountTable(_SplitTable):
    """Expected received-collision counts C_n per interval, given n colliders.

    Counts only collision slots actually consumed on the channel (derived
    or skipped collisions cost nothing).  The row is the length law's with
    collision weights: the root collision counts 1 for n >= 2;
    ``skips_definite`` drops the definite right root after an idle left
    child (-pi_0); ``saves_collisions`` drops the root collision of every
    derived right group of two or more; ``z_on_collision`` starts from
    C_2 = 1 (a received pair collides once, then arbitrates); and a
    derived pair that cannot arbitrate adds pi_{n-2} p^2 / (1 - q^2).
    """

    _BASE = (0.0, 0.0, 1.0)

    @staticmethod
    def _row_terms(rules) -> tuple:
        saves, skips = rules.saves_collisions, rules.skips_definite
        return (1.0, 1.0 if skips else 0.0, 0.0, 0.0, 1.0 if saves else 0.0)


def cri_table_rows(n_max: int, p: float, protocol: str = "atic"):
    """(n, L_n, T_n) rows for n = 1..n_max, suitable for CSV emission."""
    table = CriLengthTable(p, protocol)
    table.lengths_up_to(n_max)
    return [(n, table.expected(n), table.throughput(n)) for n in range(1, n_max + 1)]
