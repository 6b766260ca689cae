"""Maximin pattern search over free six-line charts."""

import hashlib
import math
import os
import re
import shutil
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
# charts as a search leaves them: longitudes and angles far outside [0, 2pi), latitudes to the cap
WIDE_CHART = st.lists(
    st.tuples(st.floats(-search._PHI_CAP, search._PHI_CAP), st.floats(-50.0, 50.0),
              st.floats(-50.0, 50.0)),
    min_size=6, max_size=6,
).map(lambda rows: np.array(rows).reshape(18))


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


def faults_per_call(call, env, pad=0):
    """Minor page faults per call of `call` in a fresh process with environment
    env, warm: batch is a 32-start poll round's 1536 charts, rows the round's
    (32, 49, 18) poll rows (each start's point, then its 48 charts); pad bytes
    are allocated before the import, which moves where the heap's later blocks
    lie."""
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
        rows = np.concatenate([batch[::48, None], batch.reshape(32, 48, 18)], axis=1)
        for _ in range(5):
            {call}
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            {call}
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
    """)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return float(out)


def filled_cache_env(prefix):
    """Environment of fresh processes that import this checkout's cylpack with
    bytecode read from prefix, filled here with every module a measured process
    loads, numpy.random's too."""
    env = dict(os.environ, PYTHONPATH=str(Path(search.__file__).parents[1]),
               PYTHONPYCACHEPREFIX=str(prefix))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    imports = "import resource, cylpack.cli, cylpack.search, numpy.random"
    subprocess.run([sys.executable, "-c", imports], env=env, check=True)
    return env


@pytest.fixture(scope="module")
def cached_env(tmp_path_factory):
    """Fresh processes import cylpack from a bytecode cache: compiling the
    sources at import leaves a heap in which a whole run faults several times
    less, so the verdict would follow whether the checkout happens to hold a
    cache.  The cache is filled once, so no measured process writes one."""
    return filled_cache_env(tmp_path_factory.mktemp("pycache"))


@pytest.fixture(scope="module")
def compiling_env(tmp_path_factory):
    """Fresh processes compile cylpack's sources at every import, as from a
    checkout without a bytecode cache, while every other module comes from a
    filled cache as under cached_env."""
    prefix = tmp_path_factory.mktemp("pycache")
    env = filled_cache_env(prefix)
    # the prefix mirrors the package's absolute path
    shutil.rmtree(prefix.joinpath(*Path(search.__file__).parent.parts[1:]))
    return dict(env, PYTHONDONTWRITEBYTECODE="1")


def whole_run_faults(env, pad):
    """Minor page faults of one multi_start(32, 0, 200000) in a fresh process,
    after `import cylpack` and a small warm-up search; pad as in faults_per_call."""
    pytest.importorskip("resource")
    code = textwrap.dedent(f"""
        import resource
        pad = bytearray({pad})
        import cylpack
        from cylpack.search import multi_start
        multi_start(4, 0, 3000)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        multi_start(32, 0, 200000)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return int(out)


class TestObjective:
    def test_initial_configuration(self):
        assert objective(chart_c6(D3Params(0.0, 0.0, 0.0))) == pytest.approx(1.0, abs=1e-12)

    def test_record_chart(self):
        assert objective(chart_record()) == pytest.approx(D_RECORD, abs=1e-12)
        assert objective(chart_curve(0.5)) == pytest.approx(D_RECORD, abs=1e-12)

    def test_batch_matches_scalar(self):
        coords = np.stack([random_chart(RNG).coords for _ in range(200)])
        scalar = np.array([objective(FreeConfig(x)) for x in coords])
        assert scalar.tobytes() == _objective_batch(coords).tobytes()

    @settings(deadline=None)
    @given(WIDE_CHART)
    def test_one_framing(self, x):
        # every chart path frames the coordinates as given, so objective is the batch's bits
        assert np.float64(objective(FreeConfig(x))).tobytes() == _objective_batch(x[None]).tobytes()

    @settings(deadline=None)
    @given(CHARTS)
    def test_batch_shares_the_stacked_kernel(self, charts):
        coords = np.array(charts)
        xyz = _frame_xyz(np.moveaxis(coords, -1, 0))
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
    def test_batches_do_not_fault_their_temporaries_back_in(self, compiling_env, cached_env):
        """A warm batched call reuses the pages the allocator kept from the last one.

        Guards lines._BLOCK (charts per kernel call) and the batched branch of
        _pair_kernel, which takes each operand when needed: a 32-start poll round's
        batch, in fresh processes.  Whether glibc hands freed pages back to the OS
        depends on what lies above them on the heap, so one layout's verdict says
        little about the next; the probe runs under three layouts and each must stay
        under the limit, with cylpack compiled at import and read from a bytecode
        cache, the two states a checkout can be in.  At _BLOCK = 128, one gather of
        all six operands per block faulted 166-286 pages a call in five of seven
        layouts and none in the other two, and 256-chart blocks faulted 86-171 in
        three of seven.
        """
        assert max(faults_per_call("_objective_batch(batch)", env, pad)
                   for env in (compiling_env, cached_env) for pad in (0, 5000, 100000)) < 50

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
    def test_poll_rounds_do_not_fault_their_temporaries_back_in(self, compiling_env, cached_env):
        # guards _POLL_STARTS (starts per kernel call) under the batch test's layouts and states
        assert max(faults_per_call("_poll_values(rows)", env, pad)
                   for env in (compiling_env, cached_env) for pad in (0, 5000, 100000)) < 50

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


def poll_rows(x, cand):
    """_poll_values' (L, 49, 18) rows: each start's point, then its candidates."""
    return np.concatenate([x[:, None], cand], axis=1)


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
        assert search._poll_values(poll_rows(x, cand)).tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.tuples(WIDE_CHART, st.floats(1e-9, 0.1)), min_size=1, max_size=4),
           st.integers(0, 2**32 - 1))
    def test_wide_longitudes_match_objective(self, starts, seed):
        # candidates around points of any longitude: poll, batch and objective give one value
        x = np.array([x for x, _ in starts])
        cand = poll_round(x, [s for _, s in starts], seed)
        want = _objective_batch(cand.reshape(-1, 18))
        assert search._poll_values(poll_rows(x, cand)).tobytes() == want.tobytes()
        scalar = np.array([objective(FreeConfig(c)) for c in cand.reshape(-1, 18)])
        assert scalar.tobytes() == want.tobytes()

    def test_untilted_chart(self):
        # the first round of `optimize --from c6`, with every latitude made -0.0: all 15
        # pairs of the point are parallel
        x = chart_c6(D3Params(0.0, 0.0, 0.0)).coords.reshape(1, 18).copy()
        x[0, 0::3] = -0.0
        cand = poll_round(x, [0.1], 0)
        want = _objective_batch(cand).reshape(1, 48)
        assert search._poll_values(poll_rows(x, cand)).tobytes() == want.tobytes()


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

    def test_d_best_is_the_last_trace_value(self):
        # the curve:0.1 chart has a negative longitude; its search makes no move
        r = local_maximize(chart_curve(0.1), 20000)
        assert r.d_best == r.trace[-1][1]

    @settings(deadline=None, max_examples=30)
    @given(WIDE_CHART, st.integers(0, 2**16))
    def test_d_best_is_the_last_trace_value_on_wide_charts(self, x, rng_seed):
        r = local_maximize(FreeConfig(x), 500, rng_seed=rng_seed)
        assert r.d_best.hex() == r.trace[-1][1].hex()

    def test_deterministic(self):
        seed = random_chart(RNG)
        a = local_maximize(seed, 2000, rng_seed=11)
        b = local_maximize(seed, 2000, rng_seed=11)
        assert np.array_equal(a.best.coords, b.best.coords)
        assert a.d_best == b.d_best and a.evals == b.evals and a.trace == b.trace

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            local_maximize(chart_record(), 0)

    @pytest.mark.parametrize("name", ["step0", "step_min"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_step_validation(self, name, value):
        # a NaN or negative step0 returned the seed after one evaluation
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite: "):
            local_maximize(chart_record(), 1000, **{name: value})

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
        r = bench_start_search(1, index, 20000)
        assert (r.evals, r.d_best.hex(), digest(r.trace)) == (evals, d_hex, trace_sha)

    # bench-drawn starts (seed 8) where, in one round, two candidates' squared
    # minima differ but their distances round to the same double: the round's
    # argmax is taken after the square root, so the first of the two wins; taken
    # before it, start 6 ends at 9601 evals and d = 0.69543
    @pytest.mark.parametrize(
        "index, evals, d_hex, trace_sha",
        [
            (6, 9649, "0x1.6c8db0974ee32p-1", "c4b2d36a1790a4a0"),
            (7, 16753, "0x1.99fd0f1bbad50p-1", "67a27db6c9c08250"),
        ],
    )
    def test_square_root_ties_pinned(self, index, evals, d_hex, trace_sha):
        r = bench_start_search(8, index, 200000)
        assert (r.evals, r.d_best.hex(), digest(r.trace)) == (evals, d_hex, trace_sha)


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
        run = search._pattern_search(x0[None], budget, 0.1, 1e-9, [rng])
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

        def counting(kernel, charts):
            def call(arg):
                sizes.append(charts(arg).size // 18)
                return kernel(arg)
            return call

        monkeypatch.setattr(search, "_objective_batch", counting(_objective_batch, lambda x: x))
        # a poll row holds its start's point, then the 48 charts evaluated
        monkeypatch.setattr(search, "_poll_values", counting(search._poll_values, lambda rows: rows[:, 1:]))
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
        # the run itself bit for bit: every start's d_best, the winner's trace and chart
        assert (digest(r.start_d), digest(r.trace), digest(r.best.coords)) == (
            "a0b10e942f274ead", "52e8191d517e8e17", "226201f1946e664e"
        )

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
    def test_whole_run_does_not_fault_its_rounds_back_in(self, cached_env):
        """The cross-check's run, whole, under the three heap layouts of the
        per-call probes, which time one warm call in a process that imported
        only cylpack.search and so miss faults that follow the heap a whole
        run leaves: at 8 starts per _poll_values call they pass, while this
        run takes 5,000-10,500 faults.  A run at 4 takes about 300."""
        assert max(whole_run_faults(cached_env, pad) for pad in (0, 5000, 100000)) < 2000

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

    def test_memory_holds_one_trace(self):
        # each start's improvements are packed 16 bytes an entry and only the winner's trace
        # is built: holding every start's (iteration, value) tuples, the peak read 1.07-1.16 MiB
        assert traced_peak_mb(lambda: multi_start(32, 0, 200000)) < 0.8

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


@pytest.mark.parametrize("call, message", [
    (lambda: multi_start(2.0, 0, 100), "n_starts must be an integer: 2.0"),
    (lambda: multi_start(0, 0, 100), "n_starts must be at least 1: 0"),
    (lambda: multi_start(2, 0, 100.5), "budget must be an integer: 100.5"),
    (lambda: multi_start(2, 0, 0), "budget must be at least 1: 0"),
    (lambda: local_maximize(chart_record(), math.nan), "budget must be an integer: nan"),
    (lambda: perturbation_probe(chart_record(), 1e-3, 10.5), "trials must be an integer: 10.5"),
    (lambda: perturbation_probe(chart_record(), 1e-3, 0), "trials must be at least 1: 0"),
], ids=["float starts", "no starts", "float budget", "no budget", "nan budget", "float trials",
        "no trials"])
def test_counts_are_integers(call, message):
    # a float count was truncated, reported as its floor, or failed in range() naming no argument
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integer_counts_are_counts():
    chart = chart_record()
    assert perturbation_probe(chart, 1e-3, np.int64(50)) == perturbation_probe(chart, 1e-3, 50)
    a, b = multi_start(np.int32(4), 0, np.int64(500)), multi_start(4, 0, 500)
    assert (a.evals, a.trace, a.start_d) == (b.evals, b.trace, b.start_d)


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
