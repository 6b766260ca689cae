"""The cylpack benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload {verify,search,trajectory} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's src/, nothing is installed.  Every workload
runs in fresh child processes, one at a time, with numpy's thread pools
held to one thread.

--seconds sets a fixed amount of work, sized to take about that long on
the machine the benchmark was built on, so every run of a seed attempts
the same operations.  --trace 0 measures the workload untraced and
reports the end-to-end metrics named in BENCHMARK.json.  --trace 1 runs
the traced layer suite instead (one span around each public call,
tracing overhead included) and reports the per-layer metrics.  Both
print a readable report, then one JSON line {"correct", "attempted",
"failed", "metrics"} last.
Exit code 0 on a completed run (failed operations included), 1 when a
child process fails, 2 when the checkout has no cylpack sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibration import REFERENCE_S, samples as kernel_samples

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("verify", "search", "trajectory")
# the thirteen PASS/FAIL lines report-all prints, in order
CHECK_NAMES = (
    "record-values",
    "record-configuration",
    "formula-consistency",
    "curve-membership",
    "unimodality",
    "initial-point",
    "four-cylinder-rigidity",
    "unlock-verdicts",
    "alternate-strategy",
    "series-coefficients",
    "optimizer-cross-check",
    "local-max-probe",
    "rational-angles",
)
SETUP_REPEATS = 7
# about the seconds of one report-all run on the machine the benchmark was
# built on (2.9 to 4.9 s), so verify does a fixed number of runs that
# takes about --seconds there, like the workers' fixed work
REPORT_ALL_S = 4.5
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# a fresh interpreter reports when it started running code, when numpy
# was imported and when cylpack was; CLOCK_MONOTONIC is shared by processes
SETUP_CODE = (
    "import time\n"
    "t = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    "import numpy\n"
    "n = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    "import cylpack\n"
    "c = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    "print(repr(t), repr(n), repr(c), numpy.__version__, cylpack.__file__)\n"
)


class BenchError(Exception):
    """A child process failed or printed something the benchmark cannot read."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def run_child(argv: list, env: dict, root: Path) -> dict:
    """Run one child to completion: wall time, exit code, output, peak RSS.

    stderr is merged into stdout so a single read drains the child; the
    child is reaped with wait4 for its own resource usage, and killed if
    it outlives CHILD_TIMEOUT_S.
    """
    start = monotonic()
    proc = subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return {
        "start": start,
        "wall_s": monotonic() - start,
        "exit": proc.returncode,
        "output": out.decode("utf-8", "replace"),
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }


def check_package(path: str, root: Path) -> None:
    if not Path(path).resolve().is_relative_to((root / "src").resolve()):
        raise BenchError(f"cylpack imported from {path}, not from {root / 'src'}")


def at_reference(times: list, kernels: list) -> float:
    """Median of the times, each scaled to reference speed by the kernel
    time measured around it."""
    return statistics.median(t * REFERENCE_S / k for t, k in zip(times, kernels))


def around(blocks: list) -> list:
    """For each gap between consecutive blocks of kernel samples, the median
    of the samples on both sides of it."""
    return [statistics.median(a + b) for a, b in zip(blocks, blocks[1:])]


def measure_setup(env: dict, root: Path, repeats: int = SETUP_REPEATS) -> dict:
    """Median over fresh interpreters of the time to `import cylpack`, with
    the interpreter and numpy floors under it.  One untimed run first fills
    the bytecode cache."""
    samples = {"setup_s": [], "python_start_s": [], "numpy_import_s": [], "import_over_numpy_s": []}
    calibration = []
    for i in range(repeats + 1):
        calibration += kernel_samples(3)
        child = run_child([sys.executable, "-c", SETUP_CODE], env, root)
        if child["exit"] != 0:
            raise BenchError(f"import cylpack failed:\n{child['output']}")
        t, n, c, numpy_version, path = child["output"].split()[-5:]
        check_package(path, root)
        if i == 0:
            continue
        t, n, c = float(t), float(n), float(c)
        samples["setup_s"].append(c - child["start"])
        samples["python_start_s"].append(t - child["start"])
        samples["numpy_import_s"].append(n - t)
        samples["import_over_numpy_s"].append(c - n)
    calibration += kernel_samples(3)
    return {
        "numpy": numpy_version,
        "calibration_s": calibration,
        **{key: statistics.median(values) for key, values in samples.items()},
    }


def verify_once(env: dict, root: Path, inject: bool = False) -> dict:
    """One cold `cylpack report-all` process, its 13 checks parsed.

    A check counts as failed when its line reads FAIL or is missing; when
    the exit code disagrees with the lines (0 iff all pass, else 3) every
    check of the run counts as failed.
    """
    argv = [sys.executable, "-m", "cylpack.cli", "report-all"]
    if inject:
        argv.append("--inject-record-error")
    child = run_child(argv, env, root)
    verdicts = {}
    for line in child["output"].splitlines():
        word, _, rest = line.partition(" ")
        name = rest.partition(":")[0]
        if word in ("PASS", "FAIL") and name in CHECK_NAMES:
            verdicts[name] = word == "PASS"
    failed = sum(1 for name in CHECK_NAMES if not verdicts.get(name, False))
    if child["exit"] != (0 if failed == 0 else 3):
        failed = len(CHECK_NAMES)
    return {
        "wall_s": child["wall_s"],
        "maxrss_mb": child["maxrss_mb"],
        "attempted": len(CHECK_NAMES),
        "failed": failed,
        "exit": child["exit"],
    }


def run_worker(section: str, args: list, env: dict, root: Path) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "workloads.py"), section, *args]
    child = run_child(argv, env, root)
    lines = child["output"].splitlines()
    if child["exit"] != 0 or not lines:
        raise BenchError(f"{section} worker exited {child['exit']}:\n{child['output']}")
    for line in lines[:-1]:
        print(f"  [{section}] {line}", file=sys.stderr)
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{section} worker printed no result: {exc}") from exc
    check_package(out["cylpack_file"], root)
    out["child_maxrss_mb"] = child["maxrss_mb"]
    return out


def latencies(prefix: str, times: list) -> list:
    """Report entries for the median latency and the highest of
    p99.9/p99/p90 that has at least ten samples beyond it."""
    n = len(times)
    entries = [(f"{prefix}_p50_ms", 1e3 * statistics.median(times), "ms", f"n={n}")]
    for pct in (99.9, 99.0, 90.0):
        beyond = math.floor(n * (100.0 - pct) / 100.0 + 1e-9)
        if beyond >= 10:
            value = statistics.quantiles(times, n=1000)[round(pct * 10) - 1]
            entries.append((f"{prefix}_p{pct:g}_ms", 1e3 * value, "ms", f"n={n}, {beyond} beyond"))
            break
    return entries


def workload_verify(env: dict, root: Path, seconds: float) -> dict:
    runs, blocks = [], []
    for _ in range(max(1, round(seconds / REPORT_ALL_S))):
        blocks.append(kernel_samples(8))
        runs.append(verify_once(env, root))
    blocks.append(kernel_samples(8))
    walls = [r["wall_s"] for r in runs]
    failed = sum(r["failed"] for r in runs)
    return {
        "metrics": {
            "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in runs),
            "op_p50_ms": 1e3 * statistics.median(walls),
        },
        "op_times_s": walls,
        "op_kernel_s": around(blocks),
        "calibration_s": sum(blocks, []),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "correct": failed == 0,
        "reported": [("verify_s", statistics.median(walls), "s", f"median of {len(runs)} cold report-all runs")],
        "notes": [
            f"exit codes: {sorted({r['exit'] for r in runs})}; "
            f"report-all wall {min(walls):.3f} to {max(walls):.3f} s",
        ],
    }


def workload_worker(section: str, env: dict, root: Path, seed: int, seconds: float) -> dict:
    """search or trajectory: one worker process doing `seconds` of work."""
    out = run_worker(section, ["--seed", str(seed), "--seconds", str(seconds)], env, root)
    times = out["op_times_s"]
    n = len(times)
    rate = n / out["elapsed_s"]
    raised = out["raised"]
    if not times:
        raise BenchError(
            f"no {section} operation completed: {out['attempted']} attempted, "
            f"raised {raised}, {out['mismatched']} wrong outputs"
        )
    if section == "search":
        reported = [
            ("search_starts_per_s", rate, "1/s", f"{n} blind starts"),
            ("record_hits", out["record_hits"], "count", f"of {n} blind starts within 1e-9 of sqrt(12/11)"),
            ("search_best_blind_d", max(out["d_best"]), "distance", "the record is sqrt(12/11) = 1.04447"),
            *latencies("search_start", times),
        ]
        notes = [
            f"raised: {raised or 'none'}; output mismatches: {out['mismatched']}; "
            f"starts above the record: {out['record_exceeded']}"
        ]
    else:
        reported = [
            ("trajectory_points_per_s", rate, "1/s", f"{n} completed points"),
            *latencies("trajectory_point", times),
        ]
        notes = [f"raised: {raised or 'none'}; output mismatches: {out['mismatched']}"]
    return {
        "metrics": {
            "peak_rss_mb": out["child_maxrss_mb"],
            "op_p50_ms": 1e3 * statistics.median(times),
        },
        "op_times_s": times,
        "op_kernel_s": out["op_kernel_s"],
        "calibration_s": out["calibration_s"],
        "attempted": out["attempted"],
        "failed": sum(raised.values()) + out["mismatched"],
        # a raise is a refused operation, counted as failed; only a
        # completed operation whose numbers disagree is a wrong output
        "correct": out["mismatched"] == 0,
        "reported": reported,
        "notes": notes,
    }


def traced_suite(env: dict, root: Path, seed: int, seconds: float, setup: dict) -> dict:
    layers = run_worker("layers", ["--seed", str(seed), "--seconds", str(seconds)], env, root)
    checks = run_worker("acceptance", [], env, root)
    metrics = dict(layers["metrics"])
    for name, value in checks["seconds"].items():
        metrics[f"acceptance.{name}_s"] = value
    for key in ("python_start_s", "numpy_import_s", "import_over_numpy_s"):
        metrics[f"cli.{key}"] = setup[key]
    ops = layers["ops"]
    return {
        "metrics": metrics,
        "attempted": ops["attempted"] + len(checks["seconds"]),
        "failed": ops["failed"] + len(checks["failed"]),
        "correct": ops["mismatched"] == 0 and not checks["failed"],
        "reported": [],
        "calibration_s": layers["calibration_s"],
        "notes": [
            f"{layers['spans']} spans recorded",
            f"raised: {ops['raised'] or 'none'}; output mismatches: {ops['mismatched']}",
            f"acceptance checks failed: {checks['failed'] or 'none'}",
        ],
    }


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'none' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path, numpy_version: str) -> dict:
    return {
        "git": git_sha(root),
        "src_sha256": src_digest(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def load_declared(root: Path, trace: bool) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_moves() -> dict:
    with open(BENCH_DIR / "moves.json", encoding="utf-8") as handle:
        return json.load(handle)


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path = ROOT) -> dict:
    """Measure one workload: the result document and what the report needs."""
    declared = load_declared(root, trace)
    nproc = len(os.sched_getaffinity(0))
    # one CPU for the runner and every child, so the reference kernel the
    # runner times shares the CPU of the work it scales
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env(root)
    setup = measure_setup(env, root)
    if trace:
        result = traced_suite(env, root, seed, seconds, setup)
    elif workload == "verify":
        result = workload_verify(env, root, seconds)
    else:
        result = workload_worker(workload, env, root, seed, seconds)
    setup_cal = statistics.median(setup["calibration_s"])
    calibration = statistics.median(result["calibration_s"])
    measured = dict(result["metrics"])
    if trace:
        measured["trace.calibration_ms"] = 1e3 * calibration
    else:
        # an interpreter start tracks the kernel less closely than an
        # operation does, so setup is scaled by the median kernel time of
        # the setup phase, and each operation by the samples around it
        measured["setup_s"] = setup["setup_s"] * REFERENCE_S / setup_cal
        measured["op_p50_ms"] = 1e3 * at_reference(result["op_times_s"], result["op_kernel_s"])
    if set(measured) != set(declared):
        raise BenchError(
            f"measured metrics do not match BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(measured))}, undeclared {sorted(set(measured) - set(declared))}"
        )
    doc = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(measured[name]), "unit": unit} for name, unit in declared.items()
        },
    }
    env_info = {**environment(root, setup["numpy"]), "nproc": nproc, "pinned_cpu": cpu}
    cal_info = {
        "setup_ms": 1e3 * setup_cal,
        "setup_samples": len(setup["calibration_s"]),
        "workload_ms": 1e3 * calibration,
        "workload_samples": len(result["calibration_s"]),
        "raw": {"setup_s": setup["setup_s"], **result["metrics"]},
    }
    return {"doc": doc, "result": result, "setup": setup, "env": env_info, "calibration": cal_info}


def report(workload: str, seed: int, seconds: float, trace: bool, run_out: dict) -> list:
    doc, result, setup, env = run_out["doc"], run_out["result"], run_out["setup"], run_out["env"]
    cal = run_out["calibration"]
    lines = [
        f"cylpack benchmark: workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}",
        "environment: " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"floors (median of {SETUP_REPEATS} fresh interpreters, unscaled): "
        f"python_start {setup['python_start_s']:.4f} s, numpy_import {setup['numpy_import_s']:.4f} s, "
        f"import_over_numpy {setup['import_over_numpy_s']:.4f} s, setup {setup['setup_s']:.4f} s",
        f"reference kernel (median): {cal['setup_ms']:.4f} ms over {cal['setup_samples']} samples "
        f"during setup, {cal['workload_ms']:.4f} ms over {cal['workload_samples']} during the workload; "
        + (
            "per-layer times are unscaled"
            if trace
            else f"times are scaled to {1e3 * REFERENCE_S:g} ms; unscaled: "
            f"setup_s {cal['raw']['setup_s']:.6g}, op_p50_ms {cal['raw']['op_p50_ms']:.6g}"
        ),
        ("per-layer metrics (traced run):" if trace else "end-to-end metrics:"),
    ]
    moves = load_moves() if trace else {}
    for name, entry in doc["metrics"].items():
        line = f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}"
        if trace:
            line += f"   moves: {moves[name]}"
        lines.append(line)
    if result["reported"]:
        lines.append("workload metrics:")
        for name, value, unit, note in result["reported"]:
            lines.append(f"  {name:<44} {value:>14.6g} {unit}   ({note})")
    lines.append(
        f"operations: {doc['failed']} failed of {doc['attempted']} attempted; correct={doc['correct']}"
    )
    lines.extend(f"  {note}" for note in result["notes"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cylpack benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "cylpack" / "__init__.py").is_file():
        print(f"error: no cylpack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    # let a terminated run unwind, so run_child kills the child it waits for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        out = run(args.workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report(args.workload, args.seed, args.seconds, trace, out)))
    print(json.dumps(out["doc"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
