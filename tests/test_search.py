"""Maximin pattern search over free six-line charts."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylpack.lines import (
    Configuration,
    frames,
    min_pairwise_distance,
    pair_dsq,
    rotate_line,
    rotation_matrix,
)
from cylpack.search import (
    FreeConfig,
    chart_c6,
    chart_curve,
    chart_from_configuration,
    chart_record,
    config_lines,
    local_maximize,
    multi_start,
    objective,
    perturbation_probe,
)
from cylpack import search
from cylpack.search import _objective_batch
from cylpack.symmetric import D3Params, build_c6

RNG = np.random.default_rng(94)

D_RECORD = math.sqrt(12.0 / 11.0)


def random_chart(rng, spread=0.3):
    x = chart_c6(D3Params(0.0, 0.0, 0.0)).coords + spread * rng.standard_normal(18)
    x[0::3] = np.clip(x[0::3], -1.5, 1.5)
    return FreeConfig(x)


# chart rows: skew lines, or equatorial lines tilted 0 or pi, which are
# vertical, so any two of them are exactly parallel
SKEW_ROW = st.tuples(st.floats(-1.5, 1.5), st.floats(0.0, 2 * math.pi), st.floats(-math.pi, math.pi))
EQUATORIAL_ROW = st.tuples(st.just(0.0), st.floats(0.0, 2 * math.pi), st.sampled_from([0.0, math.pi]))
CHARTS = st.lists(
    st.lists(st.one_of(SKEW_ROW, EQUATORIAL_ROW), min_size=6, max_size=6), min_size=1, max_size=8
)


class TestFreeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FreeConfig(np.zeros(17))
        bad = np.zeros(18)
        bad[0] = math.pi / 2
        with pytest.raises(ValueError):
            FreeConfig(bad)
        with pytest.raises(ValueError):
            FreeConfig(np.full(18, math.nan))

    def test_coords_read_only(self):
        c = chart_record()
        with pytest.raises(ValueError):
            c.coords[0] = 1.0

    def test_accepts_6x3(self):
        c = FreeConfig(np.zeros((6, 3)))
        assert c.coords.shape == (18,)


class TestCharts:
    def test_chart_round_trip(self):
        c = random_chart(RNG)
        again = chart_from_configuration(config_lines(c))
        # longitudes come back reduced mod 2*pi, so compare the built lines
        for a, b in zip(config_lines(again), config_lines(c)):
            assert a.same_line_as(b, tol=1e-12)

    def test_chart_c6_matches_build(self):
        p = D3Params(0.3, 0.2, -0.1)
        for a, b in zip(config_lines(chart_c6(p)), build_c6(p)):
            assert a.same_line_as(b, tol=1e-14)

    def test_pole_rejected(self):
        from cylpack.lines import TangentLine

        lines = list(config_lines(random_chart(RNG)).lines)
        lines[0] = TangentLine(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="pole"):
            chart_from_configuration(Configuration(tuple(lines)))


class TestObjective:
    def test_initial_configuration(self):
        assert objective(chart_c6(D3Params(0.0, 0.0, 0.0))) == pytest.approx(1.0, abs=1e-12)

    def test_record_chart(self):
        assert objective(chart_record()) == pytest.approx(D_RECORD, abs=1e-12)
        assert objective(chart_curve(0.5)) == pytest.approx(D_RECORD, abs=1e-12)

    def test_batch_matches_scalar(self):
        charts = [random_chart(RNG) for _ in range(20)]
        batch = _objective_batch(np.stack([c.coords for c in charts]))
        for c, value in zip(charts, batch):
            assert math.isclose(objective(c), float(value), rel_tol=1e-14, abs_tol=1e-14)

    @settings(deadline=None)
    @given(CHARTS)
    def test_batch_shares_the_stacked_kernel(self, charts):
        coords = np.array(charts)
        lat, lon, ang = np.moveaxis(coords, -1, 0)
        stacked = np.sqrt(pair_dsq(*frames(lat, lon, ang)).min(-1))
        batch = _objective_batch(coords.reshape(-1, 18))
        for a, b in zip(batch, stacked):
            assert a.tobytes() == b.tobytes()

    def test_rotation_invariance(self):
        c = random_chart(RNG)
        r = rotation_matrix(RNG.standard_normal(3), RNG.uniform(0, 6))
        rotated = Configuration(tuple(rotate_line(line, r) for line in config_lines(c)))
        assert math.isclose(
            min_pairwise_distance(rotated), objective(c), rel_tol=1e-10, abs_tol=1e-10
        )

    def test_permutation_invariance_exact(self):
        c = random_chart(RNG)
        perm = RNG.permutation(6)
        shuffled = FreeConfig(c.coords.reshape(6, 3)[perm])
        assert objective(shuffled) == objective(c)


class TestLocalMaximize:
    def test_record_is_a_local_max(self):
        r = local_maximize(chart_record(), 1000)
        assert abs(r.d_best - D_RECORD) <= 1e-6
        assert r.evals >= 1
        assert r.trace[0] == (0, pytest.approx(D_RECORD, abs=1e-12))

    def test_never_below_seed(self):
        for _ in range(3):
            seed = random_chart(RNG)
            r = local_maximize(seed, 3000, rng_seed=7)
            assert r.d_best >= objective(seed) - 1e-12

    def test_d_best_matches_chart(self):
        r = local_maximize(random_chart(RNG), 2000, rng_seed=1)
        assert math.isclose(r.d_best, objective(r.best), rel_tol=1e-12)
        assert math.isclose(r.r_best, r.d_best / (2 - r.d_best), rel_tol=1e-12)

    def test_deterministic(self):
        seed = random_chart(RNG)
        a = local_maximize(seed, 2000, rng_seed=11)
        b = local_maximize(seed, 2000, rng_seed=11)
        assert np.array_equal(a.best.coords, b.best.coords)
        assert a.d_best == b.d_best and a.evals == b.evals and a.trace == b.trace

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            local_maximize(chart_record(), 0)

    # blind starts drawn like the benchmark's search workload (seed 1,
    # starts 0-2), pinned to what the einsum/np.cross kernel gave: evals,
    # d_best and a digest of the trace, whose values move by an ulp when a
    # kernel rewrite sums |du x dv|^2 in another order
    @pytest.mark.parametrize(
        "index, evals, d_hex, trace_sha",
        [
            (0, 12049, "0x1.f8aa2b1d06e2ap-1", "78fea8144783a9e3"),
            (1, 20017, "0x1.86c363b5b5edfp-1", "65a94f162626a9a3"),
            (2, 11089, "0x1.c1359d437a0e6p-1", "17e4c267c53655b4"),
        ],
    )
    def test_search_paths_pinned(self, index, evals, d_hex, trace_sha):
        rng = np.random.default_rng([1, 1, index])
        x0 = chart_c6(D3Params(0.0, 0.0, 0.0)).coords + 0.2 * rng.standard_normal(18)
        x0[0::3] = np.clip(x0[0::3], -math.pi / 2 + 1e-9, math.pi / 2 - 1e-9)
        r = local_maximize(FreeConfig(x0), 20000, rng_seed=int(rng.integers(2**31)))
        sha = hashlib.sha256(np.array(r.trace).tobytes()).hexdigest()[:16]
        assert (r.evals, r.d_best.hex(), sha) == (evals, d_hex, trace_sha)


class TestMultiStart:
    def test_merge_pinned(self):
        # evals summed over six starts, the winner's d_best and trace digest,
        # and its chart digest, all as the separate merge loop gave them
        r = multi_start(6, 3, 20000)
        trace_sha = hashlib.sha256(np.array(r.trace).tobytes()).hexdigest()[:16]
        chart_sha = hashlib.sha256(r.best.coords.tobytes()).hexdigest()[:16]
        assert (r.evals, r.d_best.hex(), trace_sha, chart_sha) == (
            36006, "0x1.0b621e9bc3adcp+0", "52e8191d517e8e17", "226201f1946e664e"
        )

    def test_ties_go_to_the_lower_start(self, monkeypatch):
        monkeypatch.setattr(search, "objective", lambda chart: 1.0)  # every start ties
        r = multi_start(3, 0, 500)
        first = local_maximize(chart_curve(0.9), 500, rng_seed=0)
        assert np.array_equal(r.best.coords, first.best.coords) and r.trace == first.trace

    def test_small_run_reaches_curve_seed_level(self):
        r = multi_start(4, 0, 3000)
        assert r.d_best >= D_RECORD - 1e-9  # the x = 0.5 seed is start 2
        assert r.evals > 4

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


class TestPerturbationProbe:
    def test_radius_zero_limit(self):
        report = perturbation_probe(chart_record(), 1e-15, 100, 3)
        assert abs(report["max_found"] - report["objective"]) < 1e-12

    def test_record_not_exceeded(self):
        report = perturbation_probe(chart_record(), 1e-3, 2000, 3)
        assert report["exceed_fraction"] == 0.0
        assert report["max_found"] <= report["objective"]

    def test_generic_chart_is_exceeded(self):
        # at a generic chart a single pair attains the minimum, so about
        # half of all perturbation directions increase it
        report = perturbation_probe(random_chart(RNG), 1e-3, 2000, 3)
        assert 0.3 < report["exceed_fraction"] < 0.7
        assert report["max_found"] > report["objective"]

    def test_validation(self):
        with pytest.raises(ValueError):
            perturbation_probe(chart_record(), 0.0, 10)
        with pytest.raises(ValueError):
            perturbation_probe(chart_record(), 1e-3, 0)
