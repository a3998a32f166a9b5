"""Tests for the expected-length recursions, closed form, and asymptotics."""

import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

import treesplit
from treesplit.analytics import (
    CollisionCountTable,
    CriLengthTable,
    asymptotic_throughput,
    cri_table_rows,
    expected_cri_closed,
    poisson_expected_cri,
    windowed_stable_rate,
    _WINDOW_LOG_TERM,
    _log_gamma,
    _poisson_truncation,
)
from treesplit.engines import RULES

HALF = 0.5

LIMIT = 4.0 * math.log(2.0) / 3.0  # 0.9241962407465937


class TestHandValues:
    """Small-n lengths derivable by direct conditioning on the first split."""

    @pytest.mark.parametrize(
        "protocol,n,expected",
        [
            ("atic", 2, 2.0),
            ("atic", 3, 10.0 / 3.0),
            ("sicta", 2, 3.0),
            ("sicta", 3, 13.0 / 3.0),
            ("bta", 2, 5.0),
            ("mta", 2, 4.5),
        ],
    )
    def test_expected_lengths(self, protocol, n, expected):
        got = CriLengthTable(HALF, protocol).expected(n)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_atic_left_lengths(self):
        """A derived pair is split under atic_left: L_3 = 11/3, L_4 = 101/21,
        and T_n tends to (6/5) ln 2."""
        table = CriLengthTable(HALF, "atic_left")
        assert table.expected(2) == 2.0
        assert table.expected(3) == pytest.approx(11.0 / 3.0, abs=1e-12)
        assert table.expected(4) == pytest.approx(101.0 / 21.0, abs=1e-12)
        assert abs(table.throughput(5000) - 1.2 * math.log(2.0)) < 1e-5

    def test_degenerate_cases(self):
        for protocol in ("bta", "mta", "sicta", "atic", "atic_left"):
            table = CriLengthTable(HALF, protocol)
            assert table.expected(0) == 1.0
            assert table.expected(1) == 1.0

    def test_protocol_length_ordering(self):
        """Skipping, SIC, and the pair shortcut each only shorten intervals."""
        table = {
            proto: CriLengthTable(HALF, proto)
            for proto in ("bta", "mta", "sicta", "atic_left", "atic")
        }
        for n in range(2, 40):
            bta = table["bta"].expected(n)
            mta = table["mta"].expected(n)
            sicta = table["sicta"].expected(n)
            atic_left = table["atic_left"].expected(n)
            atic = table["atic"].expected(n)
            assert bta >= mta >= sicta >= atic_left >= atic

    def test_biased_split_is_worse_at_half(self):
        for p in (0.3, 0.42, 0.61):
            assert asymptotic_throughput(p) < asymptotic_throughput(HALF)

    def test_bta_large_n_throughput(self):
        # binary tree algorithm without skipping settles near 0.3466
        t = CriLengthTable(HALF, "bta").throughput(2000)
        assert t == pytest.approx(0.34663, abs=5e-4)


class TestClosedForm:
    def test_matches_recursion_small_n(self):
        table = CriLengthTable(HALF, "atic")
        for n in range(0, 31):
            closed = expected_cri_closed(n, HALF)
            rec = table.expected(n)
            assert closed == pytest.approx(rec, abs=1e-9), f"n={n}"

    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_matches_recursion_biased(self, p):
        table = CriLengthTable(p, "atic")
        for n in range(2, 31):
            assert expected_cri_closed(n, p) == pytest.approx(
                table.expected(n), abs=1e-9
            )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            expected_cri_closed(-1, HALF)


class TestAsymptote:
    def test_limit_value_at_half(self):
        assert asymptotic_throughput(HALF) == pytest.approx(LIMIT, abs=1e-12)

    def test_recursion_approaches_limit(self):
        table = CriLengthTable(HALF, "atic")
        table.lengths_up_to(2000)
        for n in (100, 500, 1000, 2000):
            assert table.throughput(n) == pytest.approx(LIMIT, abs=2e-3)

    def test_argmax_is_balanced_split(self):
        grid = [0.40 + 0.005 * i for i in range(41)]
        best = max(grid, key=asymptotic_throughput)
        assert best == pytest.approx(0.5, abs=1e-12)

    def test_oscillation_amplitude_is_tiny(self):
        """T_n wiggles around the limit without converging to it."""
        table = CriLengthTable(HALF, "atic")
        table.lengths_up_to(2000)
        devs = [table.throughput(n) - LIMIT for n in range(1000, 2001)]
        assert max(devs) > 0 > min(devs)
        assert max(abs(d) for d in devs) < 1e-4


class TestPoissonAndWindowed:
    def test_poisson_mixture_interpolates(self):
        # tiny load: nearly always an empty or singleton interval
        table = CriLengthTable(HALF, "atic")
        assert poisson_expected_cri(1e-6, table) == pytest.approx(1.0, abs=1e-4)

    def test_mixture_at_zero_load_and_rejected_loads(self):
        table = CriLengthTable(HALF, "atic")
        assert poisson_expected_cri(0.0, table) == table.expected(0)
        for load in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="finite and non-negative"):
                poisson_expected_cri(load, table)

    def test_grown_table_gives_fresh_value(self):
        table = CriLengthTable(0.3, "sicta")
        table.expected(80)
        assert poisson_expected_cri(4.0, table) == (
            poisson_expected_cri(4.0, CriLengthTable(0.3, "sicta")))

    def test_windowed_rate_positive_and_bounded(self):
        table = CriLengthTable(HALF, "atic")
        for load in (0.5, 2.0, 20.0):
            rate = windowed_stable_rate(load, table)
            assert 0.0 < rate < 1.0

    def test_windowed_rate_rejects_nonpositive_load(self):
        with pytest.raises(ValueError):
            windowed_stable_rate(0.0, CriLengthTable(HALF, "atic"))

    @pytest.mark.parametrize("load", [math.inf, math.nan])
    def test_windowed_rate_rejects_non_finite_load(self, load):
        with pytest.raises(ValueError, match="finite"):
            windowed_stable_rate(load, CriLengthTable(HALF, "atic"))

    def test_windowed_rate_rejects_load_beyond_double_steps(self):
        """At a load of 1e100 the Poisson cutoff search would never end."""
        with pytest.raises(ValueError, match="at most"):
            windowed_stable_rate(1e100, CriLengthTable(HALF, "atic"))

    def test_scan_finds_interior_optimum(self):
        table = CriLengthTable(HALF, "atic")
        rate, best_load = max(
            (windowed_stable_rate(x, table), x) for x in np.geomspace(0.5, 100.0, 40))
        assert rate == pytest.approx(LIMIT, abs=5e-5)
        # the near-limit ripple peaks recur log-periodically, so the grid
        # argmax may land on any of them, but never at the grid edges
        assert 5.0 < best_load < 100.0

    def test_windowed_never_beats_limit_materially(self):
        """Window tuning tracks the asymptote from below up to a ripple
        of a few parts in 1e6 (it can exceed the limit by that ripple)."""
        table = CriLengthTable(HALF, "atic")
        rate = max(windowed_stable_rate(x, table) for x in np.geomspace(0.1, 1e3, 120))
        assert rate < LIMIT + 1e-5

    def test_scan_follows_table_protocol(self):
        """A sicta table scans sicta's windowed rates, which approach ln 2."""
        grid = np.geomspace(0.5, 100.0, 40)
        sicta, atic = CriLengthTable(HALF, "sicta"), CriLengthTable(HALF, "atic")
        sicta_rate = max(windowed_stable_rate(x, sicta) for x in grid)
        assert sicta_rate == pytest.approx(math.log(2.0), abs=5e-5)
        assert sicta_rate < max(windowed_stable_rate(x, atic) for x in grid)


class TestCollisionCounts:
    def test_small_n_counts(self):
        # one packet never collides; a pair collides once then resolves
        atic = CollisionCountTable(HALF, "atic")
        assert atic.expected(0) == 0.0
        assert atic.expected(1) == 0.0
        assert atic.expected(2) == pytest.approx(1.0, abs=1e-12)
        # SICTA pair: root collision plus the geometric both-same tail
        assert CollisionCountTable(HALF, "sicta").expected(2) == pytest.approx(1.5, abs=1e-12)

    def test_large_n_ratios(self):
        atic = CollisionCountTable(HALF, "atic")
        sicta = CollisionCountTable(HALF, "sicta")
        assert atic.expected(2000) / 2000 == pytest.approx(3 / (8 * math.log(2)), abs=2e-3)
        assert sicta.expected(2000) / 2000 == pytest.approx(1 / (2 * math.log(2)), abs=2e-3)

    def test_counts_below_lengths(self):
        lengths = CriLengthTable(HALF, "sicta")
        counts = CollisionCountTable(HALF, "sicta")
        for n in range(2, 60):
            assert counts.expected(n) < lengths.expected(n)


class TestTableMechanics:
    def test_rows_helper_schema(self):
        rows = cri_table_rows(5, HALF, "atic")
        assert [r[0] for r in rows] == [1, 2, 3, 4, 5]
        assert rows[2][1] == pytest.approx(10 / 3, abs=1e-12)
        assert rows[2][2] == pytest.approx(0.9, abs=1e-12)

    def test_invalid_p_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                CriLengthTable(bad)
            with pytest.raises(ValueError):
                asymptotic_throughput(bad)

    def test_out_of_range_n_rejected(self):
        table = CriLengthTable(HALF, "atic")
        with pytest.raises(ValueError, match="non-negative"):
            table.expected(-1)
        with pytest.raises(ValueError, match="n >= 1"):
            table.throughput(0)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            CriLengthTable(HALF, "aloha")

    @pytest.mark.parametrize("cls,protocol", [
        (CriLengthTable, "atic"), (CriLengthTable, "bta"),
        (CriLengthTable, "atic_left"),
        (CollisionCountTable, "atic"),
        (CollisionCountTable, "sicta"),
        (CollisionCountTable, "mta"),
    ])
    def test_protocol_enum_accepted(self, cls, protocol):
        """A table keeps its protocol as the ``RULES`` name, a plain str."""
        table = cls(HALF, protocol)
        assert table.protocol == protocol and type(table.protocol) is str

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=40)
    def test_lengths_monotone_in_n(self, n):
        table = CriLengthTable(HALF, "atic")
        assert table.expected(n + 1) >= table.expected(n) - 1e-12

    @given(st.floats(min_value=0.05, max_value=0.95), st.integers(2, 60))
    @settings(max_examples=60)
    def test_recursion_finite_and_at_least_n(self, p, n):
        """Any interval must spend at least one slot per packet resolved
        beyond the shortcut floor; lengths are finite and >= 2 for n >= 2."""
        value = CriLengthTable(p, "atic").expected(n)
        assert math.isfinite(value)
        assert value >= 2.0 - 1e-12


class TestLogGammaTable:
    """The ln Gamma table equals scipy's gammaln bit for bit, so the length
    tables and every artifact built on them are those a gammaln table gives."""

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 12, 13, 14, 40, 999, 1000, 1001,
                                   1002, 65537, 2 ** 17 + 1])
    def test_equals_gammaln(self, m):
        assert np.array_equal(_log_gamma(0, m), gammaln(np.arange(m)))

    @pytest.mark.parametrize("lo,hi", [(0, 1), (3, 13), (11, 15), (12, 13), (13, 14),
                                       (998, 1003), (999, 1000), (1000, 1001),
                                       (5000, 9000)])
    def test_ranges_equal_gammaln(self, lo, hi):
        assert np.array_equal(_log_gamma(lo, hi), gammaln(np.arange(lo, hi)))

    @pytest.mark.parametrize("cls", [CriLengthTable, CollisionCountTable])
    def test_grown_table_equals_one_built_at_full_size(self, cls):
        # The steps grow the log-gamma table across 13 and across 1000.
        grown = cls(HALF, "atic")
        for n in (5, 20, 700, 1500, 3000):
            grown.expected(n)
        whole = cls(HALF, "atic")
        whole.expected(len(grown._gl) - 2)
        assert np.array_equal(grown._gl, whole._gl)
        assert np.array_equal(grown._gl, gammaln(np.arange(len(grown._gl))))
        for name in ("_ilp", "_ilq", "_p_pow", "_q_pow"):
            assert np.array_equal(getattr(grown, name), getattr(whole, name))
        assert np.array_equal(grown._values[:3001], whole._values[:3001])

    def test_import_loads_no_scipy(self):
        src = str(Path(treesplit.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import treesplit, treesplit.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"


def _full_rows(kind: str, protocol: str, p: float, n_max: int) -> np.ndarray:
    """The length (or collision-count) laws summed over every split count.

    The oracle for the windowed tables: each row evaluates the whole
    Binomial(n, p) pmf, O(n) per row.  Each protocol's law is written out
    by name here, apart from the rule flags the tables read.
    """
    q = 1.0 - p
    pair_arbitrates = protocol in ("atic", "atic_left")
    if kind == "lengths":
        values = [1.0, 1.0, 2.0] if pair_arbitrates else [1.0, 1.0]
        # atic_left splits a derived pair: (1 + p^2) / (1 - q^2) slots, not 1
        pair_extra = (1.0 + p * p) / (1.0 - q * q) - 1.0
    else:
        values = [0.0, 0.0, 1.0] if pair_arbitrates else [0.0, 0.0]
        # ... and receives its collision whenever both go left first
        pair_extra = p * p / (1.0 - q * q)
    out = np.zeros(n_max + 1)
    out[: len(values)] = values
    gl = gammaln(np.arange(n_max + 2))
    for n in range(len(values), n_max + 1):
        i = np.arange(n + 1)
        pmf = np.exp(gl[n + 1] - gl[i + 1] - gl[n - i + 1]
                     + i * math.log(p) + (n - i) * math.log(1.0 - p))
        left, right = out[1:n], out[n - 1:0:-1]
        pi_0, pi_n = pmf[0], pmf[n]
        if kind == "collisions":
            received = np.dot(pmf[1:n], left + right)
            # a derived right group of two or more skips its root collision
            derived = np.dot(pmf[1:n], left + right - (np.arange(n - 1, 0, -1) >= 2))
            num = {
                "bta": 1.0 + received,
                "mta": 1.0 - pi_0 + received,
                "sicta": 1.0 - pi_0 + derived,
                "atic": 1.0 - pi_0 + derived,
                "atic_left": 1.0 - pi_0 + derived,
            }[protocol]
        else:
            mid = np.dot(pmf[1:n], left + right)
            num = {
                "bta": 1.0 + mid + pi_0 + pi_n,
                "mta": 1.0 + mid + pi_n,
                "sicta": mid + pi_0 + pi_n,
                "atic": mid + pi_0 + pi_n,
                "atic_left": mid + pi_0 + pi_n,
            }[protocol]
        if protocol == "atic_left":
            num += pmf[n - 2] * pair_extra
        out[n] = num / (1.0 - pi_0 - pi_n)
    return out


ORACLE_N = 3000
ORACLE_PS = (0.1, 0.3, 0.5, 0.7)


class TestWindowedRows:
    """The tables sum each row over the binomial window only; the laws
    summed over every split count agree to double precision."""

    @pytest.mark.parametrize("p", ORACLE_PS)
    @pytest.mark.parametrize("protocol", ["bta", "mta", "sicta", "atic", "atic_left"])
    def test_lengths_match_full_rows(self, protocol, p):
        got = CriLengthTable(p, protocol).lengths_up_to(ORACLE_N)
        want = _full_rows("lengths", protocol, p, ORACLE_N)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", ORACLE_PS)
    @pytest.mark.parametrize("protocol", ["bta", "mta", "sicta", "atic", "atic_left"])
    def test_collision_counts_match_full_rows(self, protocol, p):
        table = CollisionCountTable(p, protocol)
        table.expected(ORACLE_N)
        got = np.array([table.expected(n) for n in range(ORACLE_N + 1)])
        want = _full_rows("collisions", protocol, p, ORACLE_N)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.7])
    @pytest.mark.parametrize("n", [2, 50, 400, 3000, 10_000])
    def test_dropped_mass_below_two_to_minus_64(self, n, p):
        table = CriLengthTable(p, "atic")
        table._reserve(n)
        # row n's window, read through the block kernel as a one-row block
        (lo,), (hi,) = table._bounds(np.array([n]))
        pmf = table._block(n, n + 1, lo, hi)[0][0]
        pi_0, pi_n = float(table._q_pow[n]), float(table._p_pow[n])
        i = np.arange(n + 1)
        log_pmf = (gammaln(n + 1) - gammaln(i + 1) - gammaln(n - i + 1)
                   + i * math.log(p) + (n - i) * math.log(1.0 - p))
        assert pi_0 == pytest.approx(math.exp(log_pmf[0]), rel=1e-12)
        assert pi_n == pytest.approx(math.exp(log_pmf[n]), rel=1e-12)
        np.testing.assert_allclose(pmf, np.exp(log_pmf[lo:hi + 1]), rtol=1e-12)
        dropped = np.r_[log_pmf[1:lo], log_pmf[hi + 1:n]]
        if len(dropped):
            assert logsumexp(dropped) <= -64.0 * math.log(2.0)

    # sha256 over the rows' bytes: lengths, then collision counts, for each
    # protocol in turn.  The tolerance oracles above let a row's last bits
    # move; these digests pin them, so a change that reorders a row's float
    # operations shows here.
    @pytest.mark.parametrize("p,n_max,digest", [
        (0.3, 4000, "e9e9b2c53f2032d3d2f186d9993a27a1249d458258dfdc982a90b5c71a082c58"),
        (0.5, 6000, "dec010bcd505b62c4e0b177cd26238a61cab38246310bb9e9b036935532c64ea"),
        (0.7, 4000, "d5d4dd744003bb292cd76c2d7634ec16eb99c2d5c37517ef1c5e9cca3fbae841"),
    ], ids=["p0.3", "p0.5", "p0.7"])
    def test_rows_pinned_bit_for_bit(self, p, n_max, digest):
        sha = hashlib.sha256()
        for protocol in ("bta", "mta", "sicta", "atic", "atic_left"):
            sha.update(CriLengthTable(p, protocol).lengths_up_to(n_max).tobytes())
            counts = CollisionCountTable(p, protocol)
            counts.expected(n_max)
            sha.update(counts._values[: n_max + 1].tobytes())
        assert sha.hexdigest() == digest

    def test_returned_lengths_are_a_copy(self):
        table = CriLengthTable(HALF, "atic")
        lengths = table.lengths_up_to(60)
        before = [table.expected(n) for n in range(61)]
        lengths[:] = -1.0
        assert [table.expected(n) for n in range(61)] == before
        assert table.expected(500) == CriLengthTable(HALF, "atic").expected(500)


def _row_by_row(cls):
    """``cls`` with its recursion run one row at a time, each row reading
    its window as slices of the table's arrays: the reference the block
    recursion must equal bit for bit."""

    class RowByRow(cls):
        def _window(self, n):
            gl, ilp, ilq = self._gl, self._ilp, self._ilq
            half_width = math.sqrt(n * _WINDOW_LOG_TERM) + 1.0
            lo = max(1, math.ceil(n * self.p - half_width))
            hi = min(n - 1, math.floor(n * self.p + half_width))
            # i runs over lo..hi; the n - i side is the reversed slice over n-hi..n-lo
            pmf = np.exp(gl[n + 1] - gl[lo + 1:hi + 2] - gl[n - hi + 1:n - lo + 2][::-1]
                         + ilp[lo:hi + 1] + ilq[n - hi:n - lo + 1][::-1])
            return lo, pmf, float(self._q_pow[n]), float(self._p_pow[n])

        def _extend(self, n_max):
            if n_max < self._size:
                return
            self._reserve(n_max)
            V = self._values
            toll, drop_0, keep_0, keep_n, derived = self._terms
            pair = self._pair
            for n in range(self._size, n_max + 1):
                lo, pmf, pi_0, pi_n = self._window(n)
                hi = lo + len(pmf) - 1
                right = V[n - hi:n - lo + 1][::-1]
                if derived:
                    right = right - derived
                    if hi == n - 1:
                        right[-1] = V[1]
                mid = float(np.dot(pmf, V[lo:hi + 1] + right))
                if pair and n - 2 <= hi:
                    mid += pmf[n - 2 - lo] * pair
                # the self terms i=0 and i=n hold V_n; solve the row for it
                num = (toll - drop_0 * pi_0) + mid + keep_0 * pi_0 + keep_n * pi_n
                V[n] = num / (1.0 - pi_0 - pi_n)
            self._size = n_max + 1

    return RowByRow


BLOCK_N = 3000
BLOCK_PS = (2.0 ** -40, 1e-3, 0.123, 0.3, 0.5, 0.7, 0.9, 1.0 - 2.0 ** -20)
# The table sizes windowed-scan asks for, load by load, on its default grid.
SCAN_SIZES = sorted({_poisson_truncation(x) for x in np.geomspace(0.1, 1e4, 241)})
GROWTH = {
    "one_shot": lambda n_max: [n_max],
    "one_row_a_step": lambda n_max: range(n_max + 1),
    "scan_steps": lambda n_max: [m for m in SCAN_SIZES if m < n_max] + [n_max],
}


class TestBlockRows:
    """Tables built in blocks of rows equal, byte for byte, the same tables
    built one row at a time, however they are grown.  OpenBLAS picks its
    dot kernel per CPU, so this pins the bits on the CPU that runs it."""

    @pytest.mark.parametrize("protocol", list(RULES))
    @pytest.mark.parametrize("cls", [CriLengthTable, CollisionCountTable])
    def test_blocks_equal_rows_built_one_at_a_time(self, cls, protocol):
        for p in BLOCK_PS:
            want = _row_by_row(cls)(p, protocol)
            want.expected(BLOCK_N)
            for growth, steps in GROWTH.items():
                got = cls(p, protocol)
                for n in steps(BLOCK_N):
                    got.expected(n)
                assert (got._values[:BLOCK_N + 1].tobytes()
                        == want._values[:BLOCK_N + 1].tobytes()), (p, growth)

    def test_blocks_equal_rows_at_20000(self):
        want = _row_by_row(CriLengthTable)(HALF, "atic")
        got = CriLengthTable(HALF, "atic")
        assert got.lengths_up_to(20_000).tobytes() == want.lengths_up_to(20_000).tobytes()
