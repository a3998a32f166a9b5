"""Tests for the expected-length recursions, closed form, and asymptotics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from treesplit.analytics import (
    CollisionCountTable,
    CriLengthTable,
    PrecisionLossError,
    SplitParams,
    asymptotic_throughput,
    conditional_throughput,
    cri_table_rows,
    expected_collisions,
    expected_cri_closed,
    expected_cri_recursive,
    poisson_expected_cri,
    scan_windowed_mst,
    windowed_stable_rate,
)

HALF = SplitParams(0.5)

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
        got = expected_cri_recursive(n, HALF, protocol)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_degenerate_cases(self):
        for protocol in ("bta", "mta", "sicta", "atic"):
            assert expected_cri_recursive(0, HALF, protocol) == 1.0
            assert expected_cri_recursive(1, HALF, protocol) == 1.0

    def test_protocol_length_ordering(self):
        """Skipping, SIC, and the pair shortcut each only shorten intervals."""
        table = {
            proto: CriLengthTable(HALF, proto) for proto in ("bta", "mta", "sicta", "atic")
        }
        for n in range(2, 40):
            bta = table["bta"].expected(n)
            mta = table["mta"].expected(n)
            sicta = table["sicta"].expected(n)
            atic = table["atic"].expected(n)
            assert bta >= mta >= sicta >= atic

    def test_biased_split_is_worse_at_half(self):
        for p in (0.3, 0.42, 0.61):
            assert asymptotic_throughput(SplitParams(p)) < asymptotic_throughput(HALF)

    def test_bta_large_n_throughput(self):
        # binary tree algorithm without skipping settles near 0.3466
        t = conditional_throughput(2000, HALF, "bta")
        assert t == pytest.approx(0.34663, abs=5e-4)


class TestClosedForm:
    def test_matches_recursion_small_n(self):
        table = CriLengthTable(HALF, "atic")
        for n in range(0, 31):
            closed = expected_cri_closed(n, HALF)
            rec = expected_cri_recursive(n, HALF, "atic", table)
            assert closed == pytest.approx(rec, abs=1e-9), f"n={n}"

    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_matches_recursion_biased(self, p):
        params = SplitParams(p)
        table = CriLengthTable(params, "atic")
        for n in range(2, 31):
            assert expected_cri_closed(n, params) == pytest.approx(
                table.expected(n), abs=1e-9
            )

    def test_precision_escalation_is_flagged(self):
        """The alternating sum loses all double precision before n = 30."""
        with pytest.raises(PrecisionLossError):
            expected_cri_closed(30, HALF, allow_exact=False)

    def test_small_n_stays_in_floats(self):
        assert expected_cri_closed(6, HALF, allow_exact=False) == pytest.approx(
            expected_cri_recursive(6, HALF, "atic"), abs=1e-9
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
        best = max(grid, key=lambda p: asymptotic_throughput(SplitParams(p)))
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
        assert poisson_expected_cri(1e-6, HALF) == pytest.approx(1.0, abs=1e-4)

    def test_windowed_rate_positive_and_bounded(self):
        for load in (0.5, 2.0, 20.0):
            rate = windowed_stable_rate(load, HALF)
            assert 0.0 < rate < 1.0

    def test_windowed_rate_rejects_nonpositive_load(self):
        with pytest.raises(ValueError):
            windowed_stable_rate(0.0, HALF)

    def test_scan_finds_interior_optimum(self):
        scan = scan_windowed_mst(np.geomspace(0.5, 100.0, 40), HALF)
        assert scan.rate == pytest.approx(LIMIT, abs=5e-5)
        # the near-limit ripple peaks recur log-periodically, so the grid
        # argmax may land on any of them, but never at the grid edges
        assert 5.0 < scan.best_load < 100.0

    def test_windowed_never_beats_limit_materially(self):
        """Window tuning tracks the asymptote from below up to a ripple
        of a few parts in 1e6 (it can exceed the limit by that ripple)."""
        scan = scan_windowed_mst(np.geomspace(0.1, 1e3, 120), HALF)
        assert scan.rate < LIMIT + 1e-5


class TestCollisionCounts:
    def test_small_n_counts(self):
        # one packet never collides; a pair collides once then resolves
        assert expected_collisions(0, HALF, "atic") == 0.0
        assert expected_collisions(1, HALF, "atic") == 0.0
        assert expected_collisions(2, HALF, "atic") == pytest.approx(1.0, abs=1e-12)
        # SICTA pair: root collision plus the geometric both-same tail
        assert expected_collisions(2, HALF, "sicta") == pytest.approx(1.5, abs=1e-12)

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
                SplitParams(bad)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            CriLengthTable(HALF, "aloha")

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
        value = expected_cri_recursive(n, SplitParams(p), "atic")
        assert math.isfinite(value)
        assert value >= 2.0 - 1e-12


def _full_rows(kind: str, protocol: str, p: float, n_max: int) -> np.ndarray:
    """The length (or collision-count) laws summed over every split count.

    The oracle for the windowed tables: each row evaluates the whole
    Binomial(n, p) pmf, O(n) per row.
    """
    if kind == "lengths":
        values = [1.0, 1.0, 2.0] if protocol == "atic" else [1.0, 1.0]
    else:
        values = [0.0, 0.0, 1.0] if protocol == "atic" else [0.0, 0.0]
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
            mid = np.dot(pmf[1:n], left + right - (np.arange(n - 1, 0, -1) >= 2))
            out[n] = (1.0 - pi_0 + mid) / (1.0 - pi_0 - pi_n)
            continue
        mid = np.dot(pmf[1:n], left + right)
        num = {
            "bta": 1.0 + mid + pi_0 + pi_n,
            "mta": 1.0 + mid + pi_n,
            "sicta": mid + pi_0 + pi_n,
            "atic": mid + pi_0 + pi_n,
        }[protocol]
        out[n] = num / (1.0 - pi_0 - pi_n)
    return out


ORACLE_N = 3000
ORACLE_PS = (0.1, 0.3, 0.5, 0.7)


class TestWindowedRows:
    """The tables sum each row over the binomial window only; the laws
    summed over every split count agree to double precision."""

    @pytest.mark.parametrize("p", ORACLE_PS)
    @pytest.mark.parametrize("protocol", ["bta", "mta", "sicta", "atic"])
    def test_lengths_match_full_rows(self, protocol, p):
        got = CriLengthTable(SplitParams(p), protocol).lengths_up_to(ORACLE_N)
        want = _full_rows("lengths", protocol, p, ORACLE_N)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", ORACLE_PS)
    @pytest.mark.parametrize("protocol", ["sicta", "atic"])
    def test_collision_counts_match_full_rows(self, protocol, p):
        table = CollisionCountTable(SplitParams(p), protocol)
        table.expected(ORACLE_N)
        got = np.array([table.expected(n) for n in range(ORACLE_N + 1)])
        want = _full_rows("collisions", protocol, p, ORACLE_N)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.7])
    @pytest.mark.parametrize("n", [2, 50, 400, 3000, 10_000])
    def test_dropped_mass_below_two_to_minus_64(self, n, p):
        table = CriLengthTable(SplitParams(p), "atic")
        table._reserve(n)
        lo, pmf, pi_0, pi_n = table._window(n)
        hi = lo + len(pmf) - 1
        i = np.arange(n + 1)
        log_pmf = (gammaln(n + 1) - gammaln(i + 1) - gammaln(n - i + 1)
                   + i * math.log(p) + (n - i) * math.log(1.0 - p))
        assert pi_0 == pytest.approx(math.exp(log_pmf[0]), rel=1e-12)
        assert pi_n == pytest.approx(math.exp(log_pmf[n]), rel=1e-12)
        np.testing.assert_allclose(pmf, np.exp(log_pmf[lo:hi + 1]), rtol=1e-12)
        dropped = np.r_[log_pmf[1:lo], log_pmf[hi + 1:n]]
        if len(dropped):
            assert logsumexp(dropped) <= -64.0 * math.log(2.0)

    def test_returned_lengths_are_a_copy(self):
        table = CriLengthTable(HALF, "atic")
        lengths = table.lengths_up_to(60)
        before = [table.expected(n) for n in range(61)]
        lengths[:] = -1.0
        assert [table.expected(n) for n in range(61)] == before
        assert table.expected(500) == CriLengthTable(HALF, "atic").expected(500)


class TestSharedTableMismatch:
    def test_other_protocol_rejected(self):
        table = CriLengthTable(HALF, "sicta")
        with pytest.raises(ValueError, match="sicta"):
            expected_cri_recursive(5, HALF, "atic", table)
        with pytest.raises(ValueError):
            conditional_throughput(5, HALF, "atic", table)
        with pytest.raises(ValueError):
            poisson_expected_cri(3.0, HALF, table=table)
        with pytest.raises(ValueError):
            windowed_stable_rate(3.0, HALF, table=table)

    def test_other_split_probability_rejected(self):
        table = CriLengthTable(SplitParams(0.3), "atic")
        with pytest.raises(ValueError, match="p=0.3"):
            expected_cri_recursive(5, HALF, "atic", table)
        with pytest.raises(ValueError):
            conditional_throughput(5, HALF, "atic", table)
        with pytest.raises(ValueError):
            poisson_expected_cri(3.0, HALF, table=table)
        with pytest.raises(ValueError):
            windowed_stable_rate(3.0, HALF, table=table)
        with pytest.raises(ValueError):
            expected_collisions(5, HALF, "atic", CollisionCountTable(SplitParams(0.3), "atic"))

    def test_matching_table_is_used(self):
        table = CriLengthTable(SplitParams(0.3), "sicta")
        table.expected(80)
        params = SplitParams(0.3)
        assert expected_cri_recursive(80, params, "sicta", table) == table.expected(80)
        assert poisson_expected_cri(4.0, params, protocol="sicta", table=table) == (
            poisson_expected_cri(4.0, params, protocol="sicta"))
