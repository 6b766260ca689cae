"""SQP maximin search over free charts, of six lines and of any other count."""

import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cylpack.lines import (
    Configuration,
    FreeConfig,
    TangentLine,
    _charts_dsq,
    _frame_xyz,
    chart_from_configuration,
    min_pairwise_distance,
)
from cylpack.search import (
    certify,
    chart_record,
    local_maximize,
    multi_start,
    perturbation_probe,
)
from cylpack import acceptance, chart_c6, lines, objective, search, symmetric
from cylpack.curve import build_curve_point
from cylpack.symmetric import D3Params, build_c6, c6_chart, ring_chart
from cylpack.unlocking import unlock_verdict
from helpers import batched_dsq, same_line, table_line, traced_peak_mb

RNG = np.random.default_rng(94)

D_RECORD = math.sqrt(12.0 / 11.0)


def chart_curve(x):
    """The chart of the trajectory configuration at parameter x, as optimize --from curve:<x> reads it."""
    return build_curve_point(x)[1]


def blind_chart(i, rng_seed):
    """The seed chart of multi_start's start i: the untilted chart jittered from default_rng([i, rng_seed])."""
    return FreeConfig(chart_c6(D3Params(0.0, 0.0, 0.0)).coords
                      + 0.2 * np.random.default_rng([i, rng_seed]).standard_normal(18))


def block_objective(coords):
    """objective of each of a (B, 18) block of charts, measured in one _charts_dsq call."""
    return np.sqrt(_charts_dsq(coords.reshape(-1, 6, 3)).min(axis=0))


def random_chart(rng, spread=0.3):
    return FreeConfig(chart_c6(D3Params(0.0, 0.0, 0.0)).coords + spread * rng.standard_normal(18))


# chart rows: skew lines, or equatorial lines tilted 0 or pi, which are
# vertical, so any two of them are exactly parallel
SKEW_ROW = st.tuples(st.floats(-1.5, 1.5), st.floats(0.0, 2 * math.pi), st.floats(-math.pi, math.pi))
EQUATORIAL_ROW = st.tuples(st.just(0.0), st.floats(0.0, 2 * math.pi), st.sampled_from([0.0, math.pi]))
CHARTS = st.lists(
    st.lists(st.one_of(SKEW_ROW, EQUATORIAL_ROW), min_size=6, max_size=6), min_size=1, max_size=8
)
# any finite chart, as a search may leave it: every coordinate far outside its range in
# (-pi/2, pi/2) or [0, 2pi), latitudes past the poles
WIDE_CHART = st.lists(st.tuples(*[st.floats(-50.0, 50.0)] * 3), min_size=6, max_size=6).map(
    lambda rows: np.array(rows).reshape(18))
PAST_POLE = math.nextafter(math.pi / 2, 4.0)


def wide_examples(test):
    """test with examples at the poles, at pi and one step past the north pole."""
    for x in (np.tile([math.pi / 2, 1.0, 0.5], 6), np.tile([-math.pi / 2, -3.0, 2.0], 6),
              np.tile([math.pi, 1.0, 0.5, -math.pi / 2, 2.0, -0.5], 3),
              np.tile([PAST_POLE, 4.0, -2.0, 0.3, 1.0, 0.5], 3)):
        test = example(x)(test)
    return test


class TestFreeConfig:
    def test_validation(self):
        # the count is refused first, then a non-finite value, as the frame is made
        for size, value in itertools.product((3, 17), (0.0, math.nan)):  # one line; not three a line
            with pytest.raises(ValueError, match=f"^chart needs 3n coordinates for n >= 2 lines: {size}$"):
                FreeConfig(np.full(size, value))
        for coords in (np.full(18, math.nan), np.full(18, math.inf), [[0.3, 1.0, -math.inf], [0.0] * 3]):
            with pytest.raises(ValueError, match="^chart coordinates must be finite$"):
                FreeConfig(coords)

    def test_coords_read_only(self):
        c = chart_record()
        with pytest.raises(ValueError):
            c.coords[0] = 1.0

    def test_accepts_6x3(self):
        c = FreeConfig(np.zeros((6, 3)))
        assert c.coords.shape == (18,)

    def test_accepts_four_lines(self):
        assert FreeConfig(np.zeros(12)).coords.shape == (12,)


class TestCharts:
    def test_chart_round_trip(self):
        c = random_chart(RNG)
        again = chart_from_configuration(c)
        # longitudes come back reduced mod 2*pi, so compare the built lines
        for k in range(len(c.table)):
            assert same_line(table_line(again, k), table_line(c, k), tol=1e-12)

    def test_chart_c6_is_build_c6(self):
        # one configuration per D3Params, framed once, its chart the family's rows as given
        p = D3Params(0.3, 0.2, -0.1)
        assert chart_c6(p) is build_c6(p)
        assert chart_c6(p).coords.tobytes() == np.array(c6_chart(p), dtype=float).tobytes()

    def test_pole_rejected(self):
        lines = list(map(TangentLine._checked, random_chart(RNG).table))
        lines[0] = TangentLine(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="pole"):
            chart_from_configuration(Configuration(tuple(lines)))

    @settings(deadline=None)
    @given(WIDE_CHART)
    @wide_examples
    def test_every_finite_chart_frames_its_lines(self, x):
        # unsnapped: FreeConfig keeps the frame's bits, which _charts_dsq measures
        rows = x.reshape(6, 3)
        c = FreeConfig(x)
        assert c.table.tobytes() == np.array(_frame_xyz(rows.T)).T.tobytes()
        assert c.dsq.tobytes() == _charts_dsq(rows[None])[:, 0].tobytes()
        # each line re-charted in range is the same line, at the same distances; a line at a pole
        # has no chart, and a pair within 1e-3 of parallel is left out of the distances: its
        # distance moves by up to the lines' rounding over the sine of their angle
        bases = c.table[:, :3].tolist()
        keep = [abs(math.atan2(z, math.hypot(x_, y))) < math.pi / 2 for x_, y, z in bases]
        assume(sum(keep) >= 2)
        lines = FreeConfig(rows[keep])
        again = chart_from_configuration(lines)
        assert np.all(np.abs(again.coords[::3]) < math.pi / 2)
        assert all(same_line(table_line(lines, k), table_line(again, k), tol=4e-15) for k in range(sum(keep)))
        dirs = lines.table[:, 3:]
        i, j = np.triu_indices(len(dirs), 1)
        skew = (np.cross(dirs[i], dirs[j]) ** 2).sum(axis=1) >= 1e-6
        d, d_again = np.sqrt(lines.dsq[skew]), np.sqrt(again.dsq[skew])
        assert np.allclose(d_again, d, rtol=1e-12, atol=1e-12)


class TestObjective:
    def test_initial_configuration(self):
        assert objective(chart_c6(D3Params(0.0, 0.0, 0.0))) == pytest.approx(1.0, abs=1e-12)

    def test_record_chart(self):
        assert objective(chart_record()) == pytest.approx(D_RECORD, abs=1e-12)
        assert objective(chart_curve(0.5)) == pytest.approx(D_RECORD, abs=1e-12)

    def test_batch_matches_scalar(self):
        coords = np.stack([random_chart(RNG).coords for _ in range(200)])
        scalar = np.array([objective(FreeConfig(x)) for x in coords])
        assert scalar.tobytes() == block_objective(coords).tobytes()

    @settings(deadline=None)
    @given(WIDE_CHART)
    def test_one_framing(self, x):
        # every chart path frames the coordinates as given, so objective is the block's bits
        assert np.float64(objective(FreeConfig(x))).tobytes() == block_objective(x[None]).tobytes()

    @settings(deadline=None)
    @given(CHARTS)
    def test_batch_shares_the_stacked_kernel(self, charts):
        coords = np.array(charts)
        xyz = _frame_xyz(np.moveaxis(coords, -1, 0))
        stacked = np.sqrt(batched_dsq(np.stack(xyz[:3], -1), np.stack(xyz[3:], -1)).min(-1))
        batch = block_objective(coords.reshape(-1, 18))
        for a, b in zip(batch, stacked):
            assert a.tobytes() == b.tobytes()

    def test_blocks_match_row_by_row(self):
        # a full block gives each chart the bits it gets in a block of its own
        rng = np.random.default_rng(5)
        coords = np.stack([random_chart(rng).coords for _ in range(search._BLOCK)])
        batch = block_objective(coords)
        rows = np.concatenate([block_objective(row[None]) for row in coords])
        assert batch.shape == (search._BLOCK,) and batch.tobytes() == rows.tobytes()

    def test_rotation_invariance(self):
        c = random_chart(RNG)
        # a random rotation: the Q of a Gaussian 3x3's QR, its sign fixed so det = +1
        q, _ = np.linalg.qr(RNG.standard_normal((3, 3)))
        r = q if np.linalg.det(q) > 0 else -q
        rotated = Configuration(tuple(TangentLine(r @ row[:3], r @ row[3:]) for row in c.table))
        assert math.isclose(
            min_pairwise_distance(rotated), objective(c), rel_tol=1e-10, abs_tol=1e-10
        )

    def test_permutation_invariance_exact(self):
        c = random_chart(RNG)
        perm = RNG.permutation(6)
        shuffled = FreeConfig(c.coords.reshape(6, 3)[perm])
        assert objective(shuffled) == objective(c)


def digest(values):
    """The first 16 hex digits of the sha256 of values as a float array."""
    return hashlib.sha256(np.array(values).tobytes()).hexdigest()[:16]


def bench_start_search(seed, index, budget):
    """local_maximize from blind start `index` of a seed, drawn like the
    benchmark's search workload: chart and poll seed from default_rng([seed, 1, index])."""
    rng = np.random.default_rng([seed, 1, index])
    x0 = chart_c6(D3Params(0.0, 0.0, 0.0)).coords + 0.2 * rng.standard_normal(18)
    x0[0::3] = np.clip(x0[0::3], -math.pi / 2 + 1e-9, math.pi / 2 - 1e-9)
    return local_maximize(FreeConfig(x0), budget, rng_seed=int(rng.integers(2**31)))


def skew(x):
    """Smallest |u x v|^2 over the direction pairs of a chart's lines, at any latitude."""
    d = np.array(_frame_xyz(x.reshape(6, 3).T)[3:]).T
    i, j = np.triu_indices(6, 1)
    return float((np.cross(d[i], d[j]) ** 2).sum(axis=1).min())


SKEW_CHART = st.lists(SKEW_ROW, min_size=6, max_size=6).map(lambda rows: np.array(rows).reshape(18))


def measure(x):
    """The SQP's measure of (L, 18) charts: squared pair distances and their slopes in the 15
    free coordinates, (L, 15) and (L, 15, 15)."""
    return search._dsq_slopes(x.reshape(len(x), 6, 3), search._H)


class TestMeasure:
    @settings(deadline=None)
    @given(SKEW_CHART, st.integers(0, 5))
    @example(chart_record().coords.copy(), 0)
    @example(chart_record().coords.copy(), 3)
    def test_slopes_match_central_differences(self, x, past):
        # line `past` (if not 0) lies past a pole, latitude pi - phi: the chart has no edge there
        if past:
            x = x.copy()
            x[3 * past] = math.copysign(math.pi, x[3 * past]) - x[3 * past]
        assume(skew(x) >= 0.05)  # near-parallel pairs curve too sharply for either difference
        (f,), (g,) = measure(x[None])
        h = 1e-6
        moved = np.repeat(x[None], 30, axis=0)
        moved[np.arange(15), np.arange(3, 18)] += h
        moved[np.arange(15, 30), np.arange(3, 18)] -= h
        dsq = _charts_dsq(moved.reshape(30, 6, 3))
        central = (dsq[:, :15] - dsq[:, 15:]) / (2 * h)
        assert np.all(np.abs(g - central) <= 1e-4 * (1 + np.abs(central)))
        assert f.tobytes() == _charts_dsq(x.reshape(1, 6, 3))[:, 0].tobytes()
        assert f.tobytes() == FreeConfig(x).dsq.tobytes()

    def test_block_matches_row_by_row(self):
        # a lockstep round measures its live starts' charts in one call, with the bits of each alone
        x = np.stack([random_chart(np.random.default_rng(i)).coords for i in range(5)])
        x[2, 3] = 2.0  # past the north pole
        f, g = measure(x)
        for k in range(5):
            (fk,), (gk,) = measure(x[k:k + 1])
            assert f[k].tobytes() == fk.tobytes() and g[k].tobytes() == gk.tobytes()


def qp_instance(seed: int, m_dependent: int):
    """A dual QP as a step poses it: Q = G H G^T for a 15 x 15 Jacobian G and a positive definite
    H, values f near one another; with m_dependent > 1, rows 0..m_dependent-1 of G have a positive
    combination equal to zero, as at a maximin point, so that Q is singular."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((15, 15))
    if m_dependent > 1:
        weights = rng.uniform(0.2, 1.0, m_dependent)
        g[m_dependent - 1] = -(weights[:-1] @ g[:m_dependent - 1]) / weights[-1]
    a = rng.standard_normal((15, 15))
    h = a @ a.T / 15 + 0.1 * np.eye(15)
    return g @ h @ g.T, 1.0 + 1e-3 * rng.standard_normal(15)


def exact_multiplier(q, f, free):
    """The multiplier m of the lam solving Q_FF lam + m 1 + f_F = 0, 1 . lam = 1, exactly, as a
    Fraction of the float entries, by Gauss-Jordan elimination on the bordered system."""
    rows = [[*(Fraction(q[i, j]) for j in free), Fraction(1), -Fraction(f[i])] for i in free]
    rows.append([Fraction(1)] * len(free) + [Fraction(0), Fraction(1)])
    for c in range(len(rows)):
        k = next(r for r in range(c, len(rows)) if rows[r][c])
        rows[c], rows[k] = rows[k], rows[c]
        for r in range(len(rows)):
            if r != c and rows[r][c]:
                rows[r] = [a - rows[r][c] / rows[c][c] * b for a, b in zip(rows[r], rows[c])]
    return rows[-1][-1] / rows[-1][-2]


class TestDualQP:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**16), st.integers(0, 6), st.lists(st.integers(0, 14), min_size=1, max_size=15))
    def test_meets_its_kkt_conditions(self, seed, m_dependent, warm):
        # from any warm set with its lam feasible: lam on the simplex, zero off the set, the
        # stationarity residual Q lam + mu + f zero on the set and no negative multiplier off it
        q, f = qp_instance(seed, m_dependent)
        free = sorted(set(warm))
        z = np.zeros(16)
        z[free] = 1.0 / len(free)
        search._dual_qp(q, f, z, free)
        lam, mu = z[:15], z[15]
        scale = np.abs(q).max()
        stationarity = q @ lam + mu + f
        off = np.setdiff1d(np.arange(15), free)
        assert lam.min() >= 0.0 and abs(lam.sum() - 1.0) <= 1e-12
        assert np.all(lam[off] == 0.0)
        assert np.abs(stationarity[free]).max() <= 1e-12 * scale
        assert off.size == 0 or stationarity[off].min() >= -1e-11 * scale

    def test_singular_at_the_optimum(self):
        # at a maximin point G^T lam = 0: Q_FF is singular, and lam is its null vector
        q, f = qp_instance(5, 6)
        f[:6], f[6:] = 1.0, 1.1
        free, z = [0], np.zeros(16)
        z[0] = 1.0
        search._dual_qp(q, f, z, free)
        lam = z[:15]
        assert sorted(free) == list(range(6))
        assert np.abs(q @ lam).max() <= 1e-12 * np.abs(q).max()

    def test_refined_multiplier_near_a_maximin_point(self, monkeypatch):
        # the last QP of the ascent from the x = 0.9 trajectory point to the record, whose Q_FF
        # on 12 pairs has a condition number near 1e17; the refinement brings the multiplier to
        # within an ulp or so of the exact one, from about 3e-13 off before it
        caught, solve = [], search._dual_qp
        monkeypatch.setattr(search, "_dual_qp", lambda q, f, z, free: caught.append(
            (q.copy(), f.copy(), z.copy(), list(free))) or solve(q, f, z, free))
        local_maximize(chart_curve(0.9), 200000)
        q, f, z, free = caught[-1]
        solve(q, f, z, free)
        assert len(free) == 12
        mu = exact_multiplier(q, f, free)
        assert abs(Fraction(z[15]) - mu) <= Fraction(1e-14) * abs(mu)

    def test_no_lapack_call(self, monkeypatch):
        # numpy's LAPACK pages in about 0.4 MB of OpenBLAS code on its first call
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK call")
        for name in ("solve", "inv", "cholesky", "lstsq", "pinv", "qr", "svd", "eigh", "eig", "det"):
            monkeypatch.setattr(np.linalg, name, refuse)
        r = local_maximize(chart_curve(0.9), 200000)
        assert abs(r.d_best - D_RECORD) <= 1e-9
        multi_start(5, 0, 20000)
        assert certify(r.best)["class"] == "kkt"


class TestLocalMaximize:
    def test_record_is_a_local_max(self):
        r = local_maximize(chart_record(), 200000)
        assert abs(r.d_best - D_RECORD) <= 1e-12 and r.stop == "step"
        assert r.trace[0] == (0, pytest.approx(D_RECORD, abs=1e-12))

    def test_reaches_the_record_from_the_x_09_trajectory_point(self):
        # the pattern search stalled at 1.01226 from here
        r = local_maximize(chart_curve(0.9), 200000)
        assert abs(r.d_best - D_RECORD) <= 1e-9

    def test_untilted_chart_stays_at_one(self):
        r = local_maximize(chart_c6(D3Params(0.0, 0.0, 0.0)), 200000)
        assert r.d_best == pytest.approx(1.0, abs=1e-12)

    def test_never_below_seed(self):
        for _ in range(3):
            seed = random_chart(RNG)
            r = local_maximize(seed, 3000)
            assert r.d_best >= objective(seed)

    @settings(deadline=None, max_examples=30)
    @given(WIDE_CHART)
    @wide_examples
    def test_d_best_is_the_walked_end_on_wide_charts(self, x):
        # best is the chart the solver walked to and d_best its objective, the trace's last value;
        # the trace rises from the seed's value, as a step is taken only if the smallest d^2
        # strictly rises (two d^2 can round to one d), and line 0 stays
        seed = FreeConfig(x)
        r = local_maximize(seed, 2000)
        values = [d for _, d in r.trace]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert r.d_best.hex() == objective(r.best).hex() == values[-1].hex()
        assert values[0] == objective(seed) <= r.d_best
        assert r.best.coords[:3].tobytes() == seed.coords[:3].tobytes()

    def test_a_step_past_a_pole_is_kept(self):
        # one step of 1e-15 takes line 5 from one ulp below the north pole to past it and gains
        # a few ulps; folding that end back into (-pi/2, pi/2) lost more at this near-parallel chart
        rng = np.random.default_rng(17869)
        x = rng.uniform(-50.0, 50.0, 18)
        x[0::3] = rng.uniform(-1.0, 1.0, 6) * math.nextafter(math.pi / 2, 0.0)
        x[15] = math.nextafter(math.pi / 2, 0.0)
        seed = FreeConfig(x)
        r = local_maximize(seed, 32, 1e-15, 1e-16)
        assert r.best.coords[15] > math.pi / 2
        assert r.d_best == objective(r.best) == r.trace[-1][1] > r.trace[0][1] == objective(seed)

    def test_d_best_matches_chart(self):
        r = local_maximize(random_chart(RNG), 2000)
        assert r.d_best == objective(r.best)
        assert math.isclose(r.r_best, r.d_best / (2 - r.d_best), rel_tol=1e-12)

    def test_d_best_is_the_last_trace_value(self):
        # the curve:0.1 chart has a negative longitude
        r = local_maximize(chart_curve(0.1), 20000)
        assert r.d_best == r.trace[-1][1]

    def test_budget_stop(self):
        # the seed's step, then six more reach 100 charts
        r = local_maximize(random_chart(np.random.default_rng(3)), 100)
        assert (r.stop, r.evals) == ("budget", 7 * 16)

    def test_step_min_stop(self):
        seed = random_chart(np.random.default_rng(3))
        coarse = local_maximize(seed, 200000, step_min=1e-3)
        fine = local_maximize(seed, 200000)
        assert coarse.stop == fine.stop == "step" and coarse.evals < fine.evals

    def test_step_cap_stop(self, monkeypatch):
        monkeypatch.setattr(search, "_MAX_STEPS", 3)
        r = local_maximize(random_chart(np.random.default_rng(3)), 200000)
        assert (r.stop, r.evals) == ("steps", 4 * 16)

    def test_deterministic(self):
        # and rng_seed changes nothing: the solver draws no random numbers
        seed = random_chart(RNG)
        a = local_maximize(seed, 2000, rng_seed=11)
        b = local_maximize(seed, 2000, rng_seed=12)
        assert np.array_equal(a.best.coords, b.best.coords)
        assert (a.d_best, a.evals, a.trace, a.stop) == (b.d_best, b.evals, b.trace, b.stop)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            local_maximize(chart_record(), 0)

    @pytest.mark.parametrize("name", ["step0", "step_min"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_step_validation(self, name, value):
        # a NaN or negative step0 returned the seed after one evaluation
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite: "):
            local_maximize(chart_record(), 1000, **{name: value})

    # blind starts drawn like the benchmark's search workload (seed 1, starts 0-2): charts
    # measured, d_best, a digest of the trace and the stop reason, whose values move by an
    # ulp when a kernel rewrite sums |du x dv|^2 in another order
    @pytest.mark.parametrize(
        "index, evals, d_hex, trace_sha",
        [
            (0, 2704, "0x1.fffcabcaaafaap-1", "2efb728be000eaee"),
            (1, 1088, "0x1.afddbceb5b3a6p-1", "fd66c370fac4504b"),
            (2, 1424, "0x1.ecd96caa76af5p-1", "363a27565cf4eb03"),
        ],
    )
    def test_search_paths_pinned(self, index, evals, d_hex, trace_sha):
        r = bench_start_search(1, index, 20000)
        assert (r.evals, r.d_best.hex(), digest(r.trace), r.stop) == (evals, d_hex, trace_sha, "step")

    def test_a_start_crosses_a_pole_to_the_record(self):
        # the cross-check's blind start 21 walks line 5's latitude past the north pole, to 2.33,
        # and returns it there; while latitudes were capped short of it, the start stalled at the
        # cap at d = 0.95816
        x0 = chart_c6(D3Params(0.0, 0.0, 0.0)).coords + 0.2 * np.random.default_rng([21, 0]).standard_normal(18)
        r = local_maximize(FreeConfig(x0), 200000)
        assert r.best.coords[15] > math.pi / 2
        assert (r.evals, r.d_best.hex(), r.stop) == (1232, "0x1.0b621e9bc39c8p+0", "step")
        assert abs(r.d_best - D_RECORD) <= 1e-9


def witness_ring(n):
    """The chart of the 2n-line ring at unlock_verdict(pi/n)'s witness, at its probe t."""
    w = unlock_verdict(math.pi / n)["witness"]
    t = w["probe_t"]
    return FreeConfig(ring_chart(n, w["phi1"] * t, w["delta1"] * t, w["kappa2"] * t * t))


class TestOtherLineCounts:
    def test_six_line_witness_ring_reaches_the_record(self):
        r = local_maximize(witness_ring(3), 200000)
        assert (r.d_best, r.evals, r.stop) == (1.0444659357319257, 2880, "step")
        assert abs(r.d_best - D_RECORD) <= 1e-9

    def test_eight_line_witness_ring_grows(self):
        # 3n - 2 = 22 charts a step for n = 8 lines; pinned since the witness's delta1 at pi/4 took the
        # correctly rounded tilt window's closed form, an ulp from the old quotient's
        r = local_maximize(witness_ring(4), 200000)
        assert (r.d_best, r.evals, r.stop) == (0.7834722061596987, 2618, "step")
        assert r.d_best > 2 * math.sin(math.pi / 8) and r.evals % 22 == 0
        assert r.best.coords.shape == (24,) and r.d_best == objective(r.best)

    def test_probe_reads_its_chart_size(self):
        # its 24-number draws, each trial measured alone
        ring = witness_ring(4)
        report = perturbation_probe(ring, 1e-3, 50, 7)
        draws = ring.coords + np.random.default_rng(7).uniform(-1e-3, 1e-3, (50, 24))
        values = [objective(FreeConfig(row)) for row in draws]
        assert report["objective"] == objective(ring) and report["max_found"] == max(values)
        assert report["exceed_fraction"] == sum(v > objective(ring) for v in values) / 50


class TestCertify:
    def test_reads_the_frame_it_was_given(self, monkeypatch):
        # a chart is framed once, when it is made: certifying a search's end and measuring a chart
        # frame nothing
        chart, end = chart_record(), local_maximize(random_chart(np.random.default_rng(5)), 500).best
        framed, real = [], lines._frame_table
        monkeypatch.setattr(lines, "_frame_table", lambda rows: framed.append(rows) or real(rows))
        certify(end), objective(chart), objective(end)
        assert framed == []

    def test_record_is_a_kkt_point(self):
        # the record's twelve pairs at 12/11 balance with lam 5/99 on six and (23 -+ 3 sqrt 5)/198
        # on three each
        cert = certify(chart_record())
        assert (cert["class"], len(cert["pairs"]), cert["d"]) == ("kkt", 12, objective(chart_record()))
        lam = [5 / 99] * 6 + [(23 - 3 * math.sqrt(5)) / 198] * 3 + [(23 + 3 * math.sqrt(5)) / 198] * 3
        assert sorted(cert["lam"]) == pytest.approx(lam, abs=1e-6)

    def test_six_line_witness_end_is_a_kkt_point(self):
        assert certify(local_maximize(witness_ring(3), 200000).best)["class"] == "kkt"

    def test_eight_line_witness_end_stalled(self):
        # no nearly parallel pair explains this end: its gradients do not balance
        cert = certify(local_maximize(witness_ring(4), 200000).best)
        assert (cert["class"], len(cert["pairs"])) == ("stalled", 13)
        assert cert["residual"] > 1e-3 and cert["sin_sq"] > 0.1

    def test_untilted_chart_is_parallel_before_it_is_balanced(self):
        # its six pairs at d = 1 are exactly parallel, and their gradients balance to rounding:
        # the parallel test comes first, as d^2 is not smooth there
        cert = certify(chart_c6(D3Params(0.0, 0.0, 0.0)))
        assert (cert["class"], len(cert["pairs"]), cert["sin_sq"]) == ("parallel", 6, 0.0)
        assert cert["residual"] <= 1e-12

    def test_reads_its_chart_size(self):
        # 24 coordinates, eight lines, 28 pairs
        ring = witness_ring(4)
        cert = certify(ring)
        dsq = ring.dsq
        near = dsq <= dsq.min() * (1 + 1e-3)
        assert cert["pairs"] == np.argwhere(np.triu(np.ones((8, 8), bool), 1))[near].tolist()
        assert cert["d"] == objective(ring) and len(cert["lam"]) == len(cert["pairs"])

    @settings(deadline=None, max_examples=20)
    @given(st.floats(-2 * math.pi, 2 * math.pi))
    def test_a_turn_about_the_axis_keeps_each_certificate(self, turn):
        # the same constant added to every longitude turns the lines about the z axis, which keeps
        # every distance: each cross-check end keeps its class and active pairs, and d to 1e-12
        # (a turn of 1e3 loses the longitudes' low bits and moved d by 3e-12)
        for end in acceptance._optimizer_run().ends:
            coords = end.coords.copy()
            coords[1::3] += turn
            cert, turned = certify(end), certify(FreeConfig(coords))
            assert (turned["class"], turned["pairs"]) == (cert["class"], cert["pairs"])
            assert turned["d"] == pytest.approx(cert["d"], rel=1e-12, abs=0.0)


def test_per_count_caches_stay_bounded():
    # charts of 2 to 20 lines measured and certified, rings of 4 to 40 lines certified, whose active
    # sets hold 2 to 20 pairs, and the cross-check's ends, whose active sets come in eight sizes:
    # each table cache keeps at most 8 counts and still hits
    caches = (lines._chart_index, lines._slope_index, search._tableau, symmetric._ring_lons)
    for cache in caches:
        cache.cache_clear()
    rng = np.random.default_rng(5)
    for n in range(2, 21):
        chart = FreeConfig(rng.standard_normal(3 * n))
        objective(chart), certify(chart), certify(FreeConfig(ring_chart(n, 0.1, 0.2, 0.3)))
    for end in acceptance._optimizer_run().ends:
        certify(end)
    assert [(cache.cache_info().misses > 8, cache.cache_info().currsize) for cache in caches] == [(True, 8)] * 4
    for cache, n in ((lines._chart_index, 6), (lines._slope_index, 6), (search._tableau, 15)):
        first, hits = cache(n), cache.cache_info().hits
        assert cache(n) is first and cache.cache_info().hits == hits + 1


class TestMultiStart:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 6), st.integers(0, 2**16), st.integers(1, 3000))
    @example(5, 0, 20000)  # starts leave in four different rounds
    def test_lockstep_equals_sequential(self, n_starts, rng_seed, budget):
        # start i seeds from a jitter drawn from default_rng([i, rng_seed]); the lower start wins ties
        runs = [local_maximize(blind_chart(i, rng_seed), budget) for i in range(n_starts)]
        best = runs[[run.d_best for run in runs].index(max(run.d_best for run in runs))]
        r = multi_start(n_starts, rng_seed, budget)
        assert r.evals == sum(run.evals for run in runs)
        assert (r.d_best.hex(), r.trace, r.stop) == (best.d_best.hex(), best.trace, best.stop)
        assert r.best.coords.tobytes() == best.best.coords.tobytes()
        d = [objective(end) for end in r.ends]
        assert d == [run.d_best for run in runs]
        assert [end.coords.tobytes() for end in r.ends] == [run.best.coords.tobytes() for run in runs]
        assert r.ends[d.index(r.d_best)] is r.best

    def test_starts_stop_in_different_rounds(self, monkeypatch):
        # one _dsq_slopes call a round for every live start: start 2 leaves after 55 rounds, starts 4
        # and 3 after 123 and 183, and starts 0 and 1 together after 301, at the cap of 300 steps
        sizes, slopes = [], search._dsq_slopes
        monkeypatch.setattr(search, "_dsq_slopes", lambda rows, h: sizes.append(len(rows)) or slopes(rows, h))
        r = multi_start(5, 0, 20000)
        assert [sizes.count(k) for k in (5, 4, 3, 2, 1)] == [55, 68, 60, 118, 0]
        assert sizes == sorted(sizes, reverse=True) and sum(sizes) * 16 == r.evals
        assert objective(r.best).hex() == r.d_best.hex() and r.ends[4] is r.best

    def test_rounds_are_measured_a_block_at_a_time(self, monkeypatch):
        # 200 live starts take two _dsq_slopes calls a round, none of more than _BLOCK charts,
        # and walk as one call a round walked them: the pinned digests were taken that way
        sizes, slopes = [], search._dsq_slopes
        monkeypatch.setattr(search, "_dsq_slopes", lambda rows, h: sizes.append(len(rows)) or slopes(rows, h))
        r = multi_start(200, 0, 2000)
        assert max(sizes) == search._BLOCK == 128 and sum(sizes) * 16 == r.evals == 338688
        assert (digest([objective(end) for end in r.ends]), digest([end.coords for end in r.ends])) == (
            "e71f777720d1bf61", "f581cc6d8fa49b97"
        )

    def test_cross_check_run_pinned(self):
        # the acceptance suite shares this cached run; six blind starts reach the record, and
        # the winner is start 8, the first of the largest d_best
        r = acceptance._optimizer_run()
        assert (r.d_best.hex(), r.evals) == ("0x1.0b621e9bc3a98p+0", 64000)
        # the run itself bit for bit: every start's d_best, the winner's trace and chart
        d = [objective(end) for end in r.ends]
        assert (digest(d), digest(r.trace), digest(r.best.coords)) == (
            "19a449826f39a0c2", "356694fcebd4598d", "30a8dd48e92f9bdd"
        )
        hits = [i for i, v in enumerate(d) if abs(v - D_RECORD) <= 1e-9]
        assert hits == [7, 8, 15, 18, 21, 25]
        assert objective(r.best).hex() == r.d_best.hex() and r.ends[8] is r.best

    def test_census_of_64_starts(self):
        """A census of multi_start(64, 0, 200000)'s 64 blind ends, each through certify: it pins what
        a run about twice the cross-check's finds, the record (d = 1.044466, lam_min 5/99, smallest
        sin^2 0.266) and Firsching's (d = 1.024228, lam_min 0.01466, sin^2 0.0921) as the only KKT
        values, and bounds nothing.  Its first 29 starts are the cross-check's, so its hits begin
        with theirs."""
        certs = [certify(end) for end in multi_start(64, 0, 200000).ends]
        assert [sum(c["class"] == k for c in certs) for k in ("kkt", "parallel", "stalled")] == [26, 30, 8]
        kkt = [c for c in certs if c["class"] == "kkt"]
        assert all(len(c["pairs"]) == 12 and min(c["lam"]) > 0.0 for c in kkt)
        for d, count, lam_min, sin_sq in ((D_RECORD, 10, 5 / 99, 0.266), (1.0242281765, 16, 0.01466, 0.0921)):
            ends = [c for c in kkt if abs(c["d"] - d) <= 1e-6]
            assert len(ends) == count
            assert all(abs(min(c["lam"]) - lam_min) <= 1e-4 and abs(c["sin_sq"] - sin_sq) <= 1e-4 for c in ends)
        assert max(c["d"] for c in certs) <= D_RECORD + 1e-9
        hits = [i for i, c in enumerate(certs) if abs(c["d"] - D_RECORD) <= 1e-9]
        assert hits == [7, 8, 15, 18, 21, 25, 30, 42, 61, 63]

    def test_merge_pinned(self):
        # charts summed over six starts, the winner's d_best and trace digest,
        # and its chart digest; 6256 charts while start i drew from default_rng(3 + i)
        r = multi_start(6, 3, 20000)
        assert (r.evals, r.d_best.hex(), digest(r.trace), digest(r.best.coords)) == (
            13424, "0x1.0b621e9bc36f0p+0", "694b3e66d95a1a59", "4fa66d1c3de216cf"
        )

    def test_seeds_share_no_blind_start(self):
        # a budget of 1 stops each start at its seed chart, so the ends are the seed charts;
        # with default_rng(rng_seed + i), seeds 0 and 1 shared 28 of 29
        blind = [set(map(objective, multi_start(29, s, 1).ends)) for s in range(6)]
        assert all(len(b) == 29 for b in blind)
        assert len(set().union(*blind)) == 6 * 29

    def test_every_start_is_blind(self, monkeypatch):
        # at budget 1 each end is its seed chart: start i, 0 to 2 too, is the untilted chart
        # jittered from default_rng([i, rng_seed]), and no start reads the trajectory
        built = []
        monkeypatch.setattr(search, "build_curve_point", lambda x: built.append(x))
        for rng_seed in (0, 7):
            ends = multi_start(8, rng_seed, 1).ends
            assert [end.coords.tobytes() for end in ends] == [
                blind_chart(i, rng_seed).coords.tobytes() for i in range(8)]
        assert built == []

    def test_blind_starts_walk_as_they_did_after_the_trajectory_seeds(self):
        # starts 3 to 28 walked to these bits while starts 0 to 2 were trajectory seeds, read then
        # as multi_start(32, 0, 200000).ends[3:29]: making every start blind moved none of them
        ends = acceptance._optimizer_run().ends  # multi_start(**search._SEARCH_RUN), cached
        assert hashlib.sha256(b"".join(end.coords.tobytes() for end in ends[3:29])).hexdigest()[:16] == (
            "76fc487c0c2033ac")

    def test_ties_go_to_the_lower_start(self, monkeypatch):
        # a start's d_best is its trace's last value: every start ends at 1.0
        sqp = search._sqp

        def tied(*args):
            end = yield from sqp(*args)  # (chart, trace, evals, stop)
            end[1][-1] = 1.0
            return end

        monkeypatch.setattr(search, "_sqp", tied)
        r = multi_start(3, 0, 500)
        first = local_maximize(blind_chart(0, 0), 500)
        assert r.best is r.ends[0] and r.d_best == first.d_best == 1.0
        assert np.array_equal(r.best.coords, first.best.coords) and r.trace == first.trace

    def test_memory_holds_one_trace(self):
        # traces are kept flat, 16 bytes an entry, and no start keeps a round's batch or its own
        # temporaries: the peak reads 0.649 MiB; with (step, value) tuples, u and gh kept and each
        # start holding views of its round's arrays it read 0.85 MiB, and with the kernel taking all
        # six operands in one gather per round 0.843
        assert traced_peak_mb(lambda: multi_start(32, 0, 200000)) < 0.8

    def test_deterministic(self):
        a = multi_start(4, 5, 2000)
        b = multi_start(4, 5, 2000)
        assert np.array_equal(a.best.coords, b.best.coords)
        assert a.d_best == b.d_best and a.evals == b.evals

    def test_validation(self):
        with pytest.raises(ValueError):
            multi_start(0, 0, 100)
        with pytest.raises(ValueError):
            multi_start(1, 0, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: multi_start(2.0, 0, 100), "n_starts must be an integer: 2.0"),
    (lambda: multi_start(0, 0, 100), "n_starts must be at least 1: 0"),
    (lambda: multi_start(2, 0, 100.5), "budget must be an integer: 100.5"),
    (lambda: multi_start(2, 0, 0), "budget must be at least 1: 0"),
    (lambda: local_maximize(chart_record(), math.nan), "budget must be an integer: nan"),
    (lambda: perturbation_probe(chart_record(), 1e-3, 10.5), "trials must be an integer: 10.5"),
    (lambda: perturbation_probe(chart_record(), 1e-3, 0), "trials must be at least 1: 0"),
    (lambda: multi_start(4, -1, 100), "rng_seed must be at least 0: -1"),
    (lambda: multi_start(3, -1, 100), "rng_seed must be at least 0: -1"),
    (lambda: multi_start(4, 1.5, 100), "rng_seed must be an integer: 1.5"),
    (lambda: multi_start(1, 1.5, 100), "rng_seed must be an integer: 1.5"),
    (lambda: perturbation_probe(chart_record(), 1e-3, 5, -1), "rng_seed must be at least 0: -1"),
    (lambda: perturbation_probe(chart_record(), 1e-3, 5, 1.5), "rng_seed must be an integer: 1.5"),
], ids=["float starts", "no starts", "float budget", "no budget", "nan budget", "float trials",
        "no trials", "negative seed", "negative seed, three starts", "float seed",
        "float seed, one start", "negative probe seed", "float probe seed"])
def test_counts_are_integers(call, message):
    # a float count was truncated, reported as its floor, or failed in range() naming no argument;
    # a negative seed ran silently or raised numpy's own message, a float one numpy's TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_starts_past_the_bound_are_refused_before_any_is_drawn(monkeypatch):
    # the lockstep holds every start's state at once, about 24 KB a start: 1024 grew the
    # peak by about 25 MB, so an unbounded count would ask for gigabytes before it failed
    drawn, real = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: drawn.append(seed) or real(seed))
    monkeypatch.setattr(search, "_lockstep", lambda seeds, *rest: len(seeds))
    for n_starts in (1025, np.int64(1025)):
        with pytest.raises(ValueError, match="^n_starts must be at most 1024: 1025$"):
            multi_start(n_starts, 0, 1)
    assert drawn == []
    assert multi_start(1024, 0, 1) == 1024 and len(drawn) == 1024  # the bound itself runs


def test_numpy_integer_counts_are_counts():
    chart = chart_record()
    assert perturbation_probe(chart, 1e-3, np.int64(50)) == perturbation_probe(chart, 1e-3, 50)
    a, b = multi_start(np.int32(4), 0, np.int64(500)), multi_start(4, 0, 500)
    assert (a.evals, a.trace, list(map(objective, a.ends))) == (b.evals, b.trace, list(map(objective, b.ends)))


def one_shot_probe(c, radius, trials, rng_seed):
    """perturbation_probe with all trials drawn and evaluated in one batch."""
    rng = np.random.default_rng(rng_seed)
    cand = c.coords + rng.uniform(-radius, radius, (trials, 18))
    values = block_objective(cand)
    f0 = objective(c)
    return {
        "objective": f0,
        "radius": float(radius),
        "trials": trials,
        "rng_seed": rng_seed,
        "max_found": float(values.max()),
        "exceed_fraction": float(np.mean(values > f0)),
    }


class TestPerturbationProbe:
    # the block edges, and 159-161: past one block and short of two
    @pytest.mark.parametrize("trials", sorted(
        {1, search._BLOCK - 1, search._BLOCK, search._BLOCK + 1, 159, 160, 161, 10000}))
    def test_blocks_match_one_batch(self, trials):
        # the blocked draws are the one-shot draw's stream, and the folded
        # maximum and exceed count give its report bit for bit
        for chart, radius, seed in ((chart_record(), 1e-3, 0), (random_chart(RNG), 1e-2, 7)):
            want = one_shot_probe(chart, radius, trials, seed)
            assert perturbation_probe(chart, radius, trials, seed) == want

    @pytest.mark.parametrize("trials", [10_000, 100_000])
    def test_memory_flat_in_trials(self, trials):
        # one block of draws and objective values at a time: a (trials, 18) draw alone is 1.4 MB
        # at 10^4 trials.  The bound also guards lines._BLOCK and the kernel's batched branch,
        # which takes each operand when needed: the peak reads 0.2485 MiB at 1536, 10^4 and 10^5
        # trials alike, and 0.310 at _BLOCK = 160, 0.495 at 256 and 0.380 with all six operands
        # taken in one gather per block
        chart = chart_record()
        assert traced_peak_mb(lambda: perturbation_probe(chart, 1e-3, trials, 0)) < 0.28

    def test_radius_zero_limit(self):
        report = perturbation_probe(chart_record(), 1e-15, 100, 3)
        assert abs(report["max_found"] - report["objective"]) < 1e-12

    def test_record_not_exceeded(self):
        report = perturbation_probe(chart_record(), 1e-3, 2000, 3)
        assert report["exceed_fraction"] == 0.0
        assert report["max_found"] <= report["objective"]

    def test_generic_chart_is_exceeded(self):
        # at a generic chart a single pair attains the minimum, so about
        # half of all perturbation directions increase it; the chart has its own generator so
        # that no earlier test's draws from RNG decide which chart it is
        report = perturbation_probe(random_chart(np.random.default_rng(94)), 1e-3, 2000, 3)
        assert 0.3 < report["exceed_fraction"] < 0.7
        assert report["max_found"] > report["objective"]

    def test_validation(self):
        with pytest.raises(ValueError):
            perturbation_probe(chart_record(), 0.0, 10)
        with pytest.raises(ValueError):
            perturbation_probe(chart_record(), 1e-3, 0)

    @pytest.mark.parametrize("radius", [1e308, math.nextafter(2.0**1023, math.inf)])
    def test_a_box_past_float_range_is_refused(self, radius):
        # numpy's uniform refused the box with "high - low range exceeds valid bounds"
        message = f"radius must keep the box width 2 * radius finite: {radius!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            perturbation_probe(chart_record(), radius, 3)
        assert perturbation_probe(chart_record(), 2.0**1022, 3)["radius"] == 2.0**1022
