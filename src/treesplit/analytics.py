"""Exact and asymptotic performance math for splitting-tree protocols.

The canonical evaluator for expected interval lengths is the bottom-up
probabilistic recursion (all-positive terms, numerically stable).  The
alternating-binomial closed form is kept as an independent validator: it
suffers catastrophic cancellation as n grows, so it runs compensated
summation with a running error bound and escalates to exact rational
arithmetic when the bound exceeds the requested tolerance.

Length laws, conditioning on the binomial split count i of n colliders
(left group size), with pi_i = C(n,i) p^i q^(n-i):

  bta    L_n = 1 + sum_i pi_i (L_i + L_{n-i})           n >= 2
  mta    as bta, but after an idle left child the right group is a
          definite collision and its root slot is skipped
  sicta  L_n = sum_i pi_i (L_i + L_{n-i})               n >= 2
          (every right root slot is derived by cancellation)
  atic   as sicta for n >= 3, with L_2 = 2 exactly (degree-2 collisions
          resolve in one extra slot via the id-arbitration shortcut)

Each row sums only over the split counts 1 <= i <= n-1 with
|i - n p| <= t_n = sqrt(n ln(2/eps) / 2) + 1, eps = 2^-64, plus the
self terms i = 0 and i = n, which are kept exactly.  By Hoeffding's
bound the binomial mass left out is at most eps, so the dropped part of
a row's numerator is below 2^-62 relative to L_n (under one ulp), and a
table up to n costs O(n^{3/2}) instead of O(n^2).

There is no analytic length law here for the left-broadcast variant
(``atic_left``); its throughput constant is checked by simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

import numpy as np
from scipy.special import gammaln

_LENGTH_LAWS = ("bta", "mta", "sicta", "atic")
# Unit roundoff of IEEE doubles; the cancellation-error model multiplies
# the running absolute-term mass by a small constant times this.
_ULP = 2.0 ** -53
_ERROR_MODEL_CONSTANT = 8.0
# Binomial mass a recursion row may leave out.  Rows sum only over split
# counts with |i - n p| <= t_n = sqrt(n ln(2 / eps) / 2) + 1; Hoeffding
# bounds the mass outside by 2 exp(-2 t^2 / n) <= eps.
_TAIL_EPS = 2.0 ** -64
_WINDOW_LOG_TERM = 0.5 * math.log(2.0 / _TAIL_EPS)


class PrecisionLossError(ArithmeticError):
    """Closed-form evaluation lost more precision than the caller allows."""


@dataclass(frozen=True)
class SplitParams:
    """Splitting probability and the derived constants used by the math.

    ``q = 1 - p`` and ``r = 2 - 4pq - 3(p^2 + q^2)``; r is exactly -1/2
    at p = 1/2.
    """

    p: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"split probability must lie in (0,1), got {self.p}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def r(self) -> float:
        p, q = self.p, self.q
        return 2.0 - 4.0 * p * q - 3.0 * (p * p + q * q)


class _SplitTable:
    """Values over collider counts n, grown row by row by a recursion that
    conditions on the Binomial(n, p) split of the n colliders.

    ``_values[:_size]`` holds the finished rows; its capacity and the
    log-gamma table ``_gl`` grow together, doubling.  Each subclass
    writes its law as ``_extend(n_max)``, which fills rows up to n_max.
    """

    def __init__(self, params: SplitParams, protocol: str, base: list):
        self.params = params
        self.protocol = protocol
        self._log_p = math.log(params.p)
        self._log_q = math.log(params.q)
        self._values = np.array(base, dtype=float)
        self._size = len(base)
        self._gl: np.ndarray = gammaln(np.arange(len(base) + 1))

    def _reserve(self, n_max: int) -> None:
        if n_max < len(self._values):
            return
        capacity = max(n_max + 1, 2 * len(self._values))
        values = np.empty(capacity)
        values[: self._size] = self._values[: self._size]
        self._values = values
        self._gl = gammaln(np.arange(capacity + 1))

    def _window(self, n: int) -> tuple[int, np.ndarray, float, float]:
        """The Binomial(n, p) split probabilities row n of a recursion needs.

        Returns ``(lo, pmf, pi_0, pi_n)``: ``pmf[k]`` is P(i = lo + k) over
        the interior split counts 1 <= i <= n-1 with |i - n p| <= t_n, and
        ``pi_0 = q^n``, ``pi_n = p^n`` are the exact self-term probabilities.
        """
        log_p, log_q, gl = self._log_p, self._log_q, self._gl
        half_width = math.sqrt(n * _WINDOW_LOG_TERM) + 1.0
        lo = max(1, math.ceil(n * self.params.p - half_width))
        hi = min(n - 1, math.floor(n * self.params.p + half_width))
        i = np.arange(lo, hi + 1)
        pmf = np.exp(gl[n + 1] - gl[i + 1] - gl[n - i + 1] + i * log_p + (n - i) * log_q)
        return lo, pmf, float(np.exp(n * log_q)), float(np.exp(n * log_p))

    def expected(self, n: int) -> float:
        if n < 0:
            raise ValueError("n must be non-negative")
        self._extend(n)
        return float(self._values[n])


class CriLengthTable(_SplitTable):
    """Lazily grown table of expected interval lengths L_n for one protocol.

    Building is O(n^{3/2}) total up to the largest requested n (each row
    sums over a window of O(sqrt(n)) split counts), so bulk consumers
    (throughput curves, Poisson mixtures) should share one table instead
    of calling the one-shot helpers in a loop.
    """

    def __init__(self, params: SplitParams, protocol: str = "atic"):
        protocol = str(protocol)
        if protocol not in _LENGTH_LAWS:
            raise ValueError(
                f"no analytic length law for {protocol!r}; "
                f"choose one of {_LENGTH_LAWS} or estimate by simulation"
            )
        super().__init__(params, protocol, [1.0, 1.0, 2.0] if protocol == "atic" else [1.0, 1.0])

    def _extend(self, n_max: int) -> None:
        if n_max < self._size:
            return
        self._reserve(n_max)
        L = self._values
        for n in range(self._size, n_max + 1):
            lo, pmf, pi_0, pi_n = self._window(n)
            hi = lo + len(pmf) - 1
            mid = float(np.dot(pmf, L[lo:hi + 1] + L[n - hi:n - lo + 1][::-1]))
            if self.protocol in ("sicta", "atic"):
                # self terms i=0 and i=n contribute pi*(1 + L_n); extract L_n
                num = mid + pi_0 + pi_n
            elif self.protocol == "bta":
                num = 1.0 + mid + pi_0 + pi_n
            else:  # mta: i=0 leaves a definite right group, root slot skipped
                num = 1.0 + mid + pi_n
            L[n] = num / (1.0 - pi_0 - pi_n)
        self._size = n_max + 1

    def throughput(self, n: int) -> float:
        if n < 1:
            raise ValueError("conditional throughput needs n >= 1")
        return n / self.expected(n)

    def lengths_up_to(self, n_max: int) -> np.ndarray:
        """L_0..L_n_max as a new array (the table keeps its own)."""
        self._extend(n_max)
        return self._values[: n_max + 1].copy()


def _shared_table(table, cls, params: SplitParams, protocol: str):
    """``table`` when it was built for (params, protocol); a new one if None."""
    if table is None:
        return cls(params, protocol)
    if table.protocol != protocol or table.params != params:
        raise ValueError(
            f"table was built for {table.protocol!r} at p={table.params.p}, "
            f"not for {protocol!r} at p={params.p}"
        )
    return table


def expected_cri_recursive(
    n: int, params: SplitParams, protocol: str = "atic",
    table: Optional[CriLengthTable] = None,
) -> float:
    """Expected interval length via the stable bottom-up recursion.

    One-shot calls rebuild the table from scratch; pass a shared
    :class:`CriLengthTable` when evaluating many n.
    """
    return _shared_table(table, CriLengthTable, params, protocol).expected(n)


def conditional_throughput(
    n: int, params: SplitParams, protocol: str = "atic",
    table: Optional[CriLengthTable] = None,
) -> float:
    """T_n = n / L_n, the per-interval efficiency given n initial colliders."""
    if n < 1:
        raise ValueError("conditional throughput needs n >= 1")
    return n / expected_cri_recursive(n, params, protocol, table)


def _closed_sum_float(n: int, p: float) -> tuple[float, float]:
    """Kahan-compensated closed-form sum and its cancellation error bound."""
    q = 1.0 - p
    r = 2.0 - 4.0 * p * q - 3.0 * (p * p + q * q)
    total = 0.0
    comp = 0.0
    abs_mass = 0.0
    sign = 1.0
    for i in range(2, n + 1):
        term = (
            sign
            * math.comb(n, i)
            * (i - 1 + r * i * (i - 1) / 2.0)
            / (1.0 - p ** i - q ** i)
        )
        sign = -sign
        abs_mass += abs(term)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return 1.0 + total, _ERROR_MODEL_CONSTANT * _ULP * abs_mass


def _closed_sum_exact(n: int, p: float) -> float:
    """Closed form in exact rational arithmetic over the binary value of p."""
    pf = Fraction(p)
    qf = 1 - pf
    rf = 2 - 4 * pf * qf - 3 * (pf * pf + qf * qf)
    total = Fraction(0)
    for i in range(2, n + 1):
        total += (
            math.comb(n, i)
            * (-1) ** i
            * (i - 1 + rf * i * (i - 1) / 2)
            / (1 - pf ** i - qf ** i)
        )
    return float(1 + total)


def expected_cri_closed(
    n: int, params: SplitParams, tol: float = 1e-9, allow_exact: bool = True
) -> float:
    """Closed-form expected interval length (full-broadcast law).

    Starts with compensated double-precision summation; when the running
    cancellation bound exceeds ``tol`` (which happens well before n = 30),
    it escalates to exact rational arithmetic, or raises
    :class:`PrecisionLossError` when ``allow_exact`` is False.  Callers
    who need large n should use the recursion instead.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n <= 1:
        return 1.0
    value, err_bound = _closed_sum_float(n, params.p)
    if err_bound <= tol:
        return value
    if not allow_exact:
        raise PrecisionLossError(
            f"closed-form cancellation bound {err_bound:.3e} exceeds tol {tol:.1e} "
            f"at n={n}; use expected_cri_recursive or allow_exact=True"
        )
    return _closed_sum_exact(n, params.p)


def asymptotic_throughput(params: SplitParams) -> float:
    """Limiting throughput of the full-broadcast protocol for a given p.

    Equals (4/3) ln 2 at p = 1/2, where it is also maximized.
    """
    p, q, r = params.p, params.q, params.r
    entropy = -p * math.log(p) - q * math.log(q)
    return entropy / (1.0 + r / 2.0)


def _poisson_truncation(load: float, tol: float) -> int:
    """Smallest cutoff M whose Poisson tail bound P(N >= M) drops below tol.

    Chernoff bound: P(N >= M) <= exp(-load + M + M ln(load / M)) for M > load.
    """
    if load <= 0.0:
        return 0
    m = int(load) + 1
    step = max(int(4.0 * math.sqrt(load)) + 8, 8)
    while True:
        m += step
        log_tail = -load + m + m * math.log(load / m)
        if log_tail < math.log(tol):
            return m


def poisson_expected_cri(
    load: float, params: SplitParams, tol: float = 1e-12,
    protocol: str = "atic", table: Optional[CriLengthTable] = None,
) -> float:
    """Expected interval length when the collider count is Poisson(load)."""
    if load < 0.0:
        raise ValueError("load must be non-negative")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    table = _shared_table(table, CriLengthTable, params, protocol)
    if load == 0.0:
        return table.expected(0)
    m = _poisson_truncation(load, tol)
    lengths = table.lengths_up_to(m)
    n = np.arange(m + 1)
    # the table's log-gamma array holds ln(n!) at n + 1 once it reaches m
    log_pmf = n * math.log(load) - load - table._gl[1:m + 2]
    return float(np.dot(np.exp(log_pmf), lengths))


def windowed_stable_rate(
    load: float, params: SplitParams, tol: float = 1e-12,
    table: Optional[CriLengthTable] = None,
) -> float:
    """Supremum arrival rate (packets/slot) stable at the given window load.

    For window size delta and arrival rate lam, the batch load is
    lam * delta and stability requires the expected interval length to fit
    inside the window; the boundary rate is load / E[L(Poisson(load))].
    The rate climbs towards the full-broadcast asymptote as the load
    grows; a small log-periodic ripple (order 1e-6 after Poisson
    smoothing) survives on top of that trend, so the climb is not
    strictly monotone at fine resolution.
    """
    if load <= 0.0:
        raise ValueError("load must be positive")
    return load / poisson_expected_cri(load, params, tol, table=table)


class WindowedScan(NamedTuple):
    best_load: float
    rate: float


def scan_windowed_mst(grid: Iterable[float], params: SplitParams) -> WindowedScan:
    """Maximize the windowed stable rate over a grid of loads.

    Returns the argmax load and the supremum rate.  The supremum tracks
    the asymptote from below up to the residual ripple of a few 1e-6, so
    window tuning cannot beat unwindowed (gated) operation by more than
    that ripple at any finite window.
    """
    loads = [float(x) for x in grid]
    if not loads:
        raise ValueError("grid must be non-empty")
    if min(loads) <= 0.0:
        raise ValueError("grid loads must be positive")
    table = CriLengthTable(params, "atic")
    best_load, best_rate = loads[0], -math.inf
    for load in loads:
        rate = windowed_stable_rate(load, params, table=table)
        if rate > best_rate:
            best_load, best_rate = load, rate
    return WindowedScan(best_load, best_rate)


class CollisionCountTable(_SplitTable):
    """Expected received-collision counts per interval, given n colliders.

    Counts only collision slots actually consumed on the channel (derived
    or skipped collisions cost nothing).  Supported for the cancellation
    protocols where the count feeds memory sizing: sicta and atic.
    """

    def __init__(self, params: SplitParams, protocol: str = "atic"):
        protocol = str(protocol)
        if protocol not in ("sicta", "atic"):
            raise ValueError(f"collision-count law implemented for sicta/atic, got {protocol!r}")
        # an atic received pair is exactly one collision slot
        super().__init__(params, protocol, [0.0, 0.0, 1.0] if protocol == "atic" else [0.0, 0.0])

    def _extend(self, n_max: int) -> None:
        if n_max < self._size:
            return
        self._reserve(n_max)
        C = self._values
        for n in range(self._size, n_max + 1):
            lo, pmf, pi_0, pi_n = self._window(n)
            hi = lo + len(pmf) - 1
            right = np.arange(n - lo, n - hi - 1, -1)
            # A derived right group of size m >= 2 saves its root collision.
            derived = C[right] - (right >= 2)
            mid = float(np.dot(pmf, C[lo:hi + 1] + derived))
            C[n] = (1.0 - pi_0 + mid) / (1.0 - pi_0 - pi_n)
        self._size = n_max + 1


def expected_collisions(
    n: int, params: SplitParams, protocol: str = "atic",
    table: Optional[CollisionCountTable] = None,
) -> float:
    """Expected consumed collision slots in one interval with n colliders."""
    return _shared_table(table, CollisionCountTable, params, protocol).expected(n)


def cri_table_rows(n_max: int, params: SplitParams, protocol: str = "atic"):
    """(n, L_n, T_n) rows for n = 1..n_max, suitable for CSV emission."""
    table = CriLengthTable(params, protocol)
    table.lengths_up_to(n_max)
    return [(n, table.expected(n), table.throughput(n)) for n in range(1, n_max + 1)]
