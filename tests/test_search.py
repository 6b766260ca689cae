"""Maximin pattern search over free six-line charts."""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cylpack.lines import (
    Configuration,
    TangentLine,
    _frame_xyz,
    min_pairwise_distance,
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
from cylpack import acceptance, search
from cylpack.search import _clip_latitudes, _objective_batch
from cylpack.symmetric import D3Params, build_c6
from helpers import batched_dsq, same_line

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
            assert same_line(a, b, tol=1e-12)

    def test_chart_c6_matches_build(self):
        p = D3Params(0.3, 0.2, -0.1)
        for a, b in zip(config_lines(chart_c6(p)), build_c6(p)):
            assert same_line(a, b, tol=1e-14)

    def test_pole_rejected(self):
        from cylpack.lines import TangentLine

        lines = list(config_lines(random_chart(RNG)).lines)
        lines[0] = TangentLine(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="pole"):
            chart_from_configuration(Configuration(tuple(lines)))


def faults_per_call(call, pad=0):
    """Minor page faults per call of `call` in a fresh process, warm: batch is
    a 32-start poll round's 1536 charts, x the 32 points; pad bytes are allocated
    before the import, which moves where the heap's later blocks lie."""
    pytest.importorskip("resource")
    code = textwrap.dedent(f"""
        import resource
        pad = bytearray({pad})
        import numpy as np
        from cylpack.search import _clip_latitudes, _objective_batch, _poll_values, chart_c6
        from cylpack.symmetric import D3Params
        rng = np.random.default_rng(0)
        base = chart_c6(D3Params(0.0, 0.0, 0.0)).coords
        batch = _clip_latitudes(base + 0.2 * rng.standard_normal((1536, 18)))
        x = batch[::48].copy()
        for _ in range(5):
            {call}
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            {call}
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(search.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return float(out)


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
        xyz = _frame_xyz(lat, lon, ang)
        stacked = np.sqrt(batched_dsq(np.stack(xyz[:3], -1), np.stack(xyz[3:], -1)).min(-1))
        batch = _objective_batch(coords.reshape(-1, 18))
        for a, b in zip(batch, stacked):
            assert a.tobytes() == b.tobytes()

    def test_blocks_match_row_by_row(self):
        # a batch crossing the block boundary gives each chart the bits it gets alone
        rng = np.random.default_rng(5)
        coords = np.stack([random_chart(rng).coords for _ in range(search._BLOCK + 5)])
        batch = _objective_batch(coords)
        rows = np.concatenate([_objective_batch(row[None]) for row in coords])
        assert batch.shape == (search._BLOCK + 5,) and batch.tobytes() == rows.tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
    def test_batches_do_not_fault_their_temporaries_back_in(self):
        """A warm batched call reuses the pages the allocator kept from the last one.

        Guards lines._BLOCK (charts per kernel call) and the batched branch of
        _pair_kernel, which takes each operand when needed: a 32-start poll round's
        batch, in fresh processes.  Whether glibc hands freed pages back to the OS
        depends on what lies above them on the heap, so one layout's verdict says
        little about the next; the probe runs under three layouts and each must stay
        under the limit.  At _BLOCK = 128, one gather of all six operands per block
        faulted 166-286 pages a call in five of seven layouts and none in the other
        two, and 256-chart blocks faulted 86-171 in three of seven.
        """
        assert max(faults_per_call("_objective_batch(batch)", pad) for pad in (0, 5000, 100000)) < 50

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
    def test_poll_rounds_do_not_fault_their_temporaries_back_in(self):
        assert faults_per_call("_poll_values(x, batch.reshape(32, 48, 18))") < 50

    def test_rotation_invariance(self):
        c = random_chart(RNG)
        # a random rotation: the Q of a Gaussian 3x3's QR, its sign fixed so det = +1
        q, _ = np.linalg.qr(RNG.standard_normal((3, 3)))
        r = q if np.linalg.det(q) > 0 else -q
        rotated = Configuration(tuple(TangentLine(r @ u.base, r @ u.dir) for u in config_lines(c)))
        assert math.isclose(
            min_pairwise_distance(rotated), objective(c), rel_tol=1e-10, abs_tol=1e-10
        )

    def test_permutation_invariance_exact(self):
        c = random_chart(RNG)
        perm = RNG.permutation(6)
        shuffled = FreeConfig(c.coords.reshape(6, 3)[perm])
        assert objective(shuffled) == objective(c)


def poll_round(x, step, seed):
    """The (L, 48, 18) candidates a poll round builds around the points x."""
    cand = np.empty((len(x), 48, 18))
    cand[:, :36] = search._AXES
    cand[:, 36:] = np.random.default_rng(seed).standard_normal((len(x), 12, 18))
    cand[:, 36:] /= np.linalg.norm(cand[:, 36:], axis=-1, keepdims=True)
    cand *= np.asarray(step)[:, None, None]
    cand += x[:, None]
    return search._clip_latitudes(cand)


# poll points: skew and parallel equatorial rows as in CHARTS, rows at the
# latitude cap, where +e_k steps clip back, and rows of signed zeros, which
# the +e_k candidates turn to +0.0
ZERO = st.sampled_from([0.0, -0.0])
POLL_ROW = st.one_of(
    SKEW_ROW,
    st.tuples(ZERO, st.floats(0.0, 2 * math.pi), st.sampled_from([0.0, -0.0, math.pi])),
    st.tuples(st.sampled_from([-search._PHI_CAP, search._PHI_CAP]), ZERO | st.floats(0.0, 6.0), ZERO),
)
POLL_STARTS = st.lists(
    st.tuples(
        st.lists(POLL_ROW, min_size=6, max_size=6),
        st.sampled_from([0.1, 1e-9]) | st.floats(1e-9, 0.1),
    ),
    min_size=1,
    max_size=9,
)


class TestPollValues:
    @settings(deadline=None)
    @given(POLL_STARTS, st.integers(0, 2**32 - 1))
    def test_equals_the_full_batch(self, starts, seed):
        x = np.array([rows for rows, _ in starts]).reshape(-1, 18)
        cand = poll_round(x, [s for _, s in starts], seed)
        want = _objective_batch(cand).reshape(len(x), 48)
        assert search._poll_values(x, cand).tobytes() == want.tobytes()

    def test_untilted_chart(self):
        # the first round of `optimize --from c6`, with every latitude made -0.0: all 15
        # pairs of the point are parallel
        x = chart_c6(D3Params(0.0, 0.0, 0.0)).coords.reshape(1, 18).copy()
        x[0, 0::3] = -0.0
        cand = poll_round(x, [0.1], 0)
        want = _objective_batch(cand).reshape(1, 48)
        assert search._poll_values(x, cand).tobytes() == want.tobytes()


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


def sequential_multi_start(n_starts, rng_seed, budget):
    """multi_start's documented rule, one start after another: start i draws
    its seed chart and its polls from default_rng(rng_seed + i), and the
    lower start wins ties."""
    base = chart_c6(D3Params(0.0, 0.0, 0.0)).coords
    runs = []
    for i in range(n_starts):
        rng = np.random.default_rng(rng_seed + i)
        if i < 3:
            x0 = chart_curve((0.9, 0.7, 0.5)[i]).coords
        else:
            x0 = search._clip_latitudes(base + 0.2 * rng.standard_normal(18))
        (run,) = search._pattern_search(x0[None], budget, 0.1, 1e-9, [rng])
        runs.append(run)
    best = runs[0]
    for run in runs[1:]:
        if run.d_best > best.d_best:
            best = run
    return best, runs


class TestMultiStart:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 6), st.integers(0, 2**16), st.integers(1, 3000))
    @example(5, 0, 20000)  # starts stop in three different rounds
    def test_lockstep_equals_sequential(self, n_starts, rng_seed, budget):
        r = multi_start(n_starts, rng_seed, budget)
        best, runs = sequential_multi_start(n_starts, rng_seed, budget)
        assert r.evals == sum(run.evals for run in runs)
        assert r.d_best.hex() == best.d_best.hex() and r.trace == best.trace
        assert r.best.coords.tobytes() == best.best.coords.tobytes()
        assert r.start_d == tuple(run.d_best for run in runs)

    def test_starts_stop_in_different_rounds(self):
        # the trajectory seeds converge after 27 rounds, the blind ones later
        _, runs = sequential_multi_start(5, 0, 20000)
        assert [run.evals for run in runs] == [1297, 1297, 1297, 14353, 11617]

    def test_one_kernel_call_per_round(self, monkeypatch):
        sizes = []

        def counting(kernel):
            def call(*args):
                sizes.append(args[-1].size // 18)
                return kernel(*args)
            return call

        monkeypatch.setattr(search, "_objective_batch", counting(_objective_batch))
        monkeypatch.setattr(search, "_poll_values", counting(search._poll_values))
        r = multi_start(5, 0, 2000)
        # the seed charts, then one poll evaluation per round for every live start:
        # ceil(1999 / 48) = 42 rounds, not one call per start and round
        assert len(sizes) == 1 + 42 and sizes[0] == 5 and sum(sizes) == r.evals
        assert max(sizes) == 5 * 48

    def test_cross_check_run_pinned(self):
        # multi_start(32, 0, 200000) as the one-start-at-a-time search gave it; the
        # acceptance suite shares this cached run
        r = acceptance._optimizer_run()
        assert (r.d_best.hex(), r.evals) == ("0x1.0b621e9bc3adcp+0", 433472)

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


def one_shot_probe(c, radius, trials, rng_seed):
    """perturbation_probe with all trials drawn and evaluated in one batch."""
    rng = np.random.default_rng(rng_seed)
    cand = _clip_latitudes(c.coords + rng.uniform(-radius, radius, (trials, 18)))
    values = _objective_batch(cand)
    f0 = float(_objective_batch(c.coords[None])[0])
    return {
        "objective": f0,
        "radius": float(radius),
        "trials": trials,
        "rng_seed": rng_seed,
        "max_found": float(values.max()),
        "exceed_fraction": float(np.mean(values > f0)),
    }


def traced_peak_mb(call):
    """Peak traced allocation of call(), in MB, after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


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
        # one block of draws and objective values at a time: a (trials, 18)
        # draw alone is 1.4 MB at 10^4 trials
        chart = chart_record()
        assert traced_peak_mb(lambda: perturbation_probe(chart, 1e-3, trials, 0)) < 1.0

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
