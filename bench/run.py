"""dgcentral benchmark: pass time, set-up time and memory of three workloads.

    python3 bench/run.py --workload {ladder1d,ladder2d,verify} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The package is imported from
`src/`; every pass is checked against `bench/reference.json`.  The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones (wall_rel,
setup_s, peak_rss_mb; `hostprobe.py` defines wall_rel's probe unit); with
--trace 1 they are the per-layer ones of `tracing.METRICS`.  Run records and
traces go to `bench/out/`.  See `bench/README.md` for what each number means.
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Pinned before numpy is first imported, here and in every child process.
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
# Study tables go under bench/out.  No bytecode is written, so nothing lands in
# src/ and every process (set-up children too) compiles the package the same way.
os.environ["DGCENTRAL_OUTPUT_ROOT"] = str(OUT)
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

WORKLOADS = ("ladder1d", "ladder2d", "verify")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
MAX_MESSAGES = 20  # failure messages kept per run


def setup_seconds(setup_code: str) -> float:
    """Time from spawning a fresh interpreter until it has run `setup_code`."""
    code = f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{setup_code}print('ready', flush=True)\n"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.communicate(timeout=SETUP_TIMEOUT_S)
        except BaseException:
            child.kill()
            child.wait()
            raise
    if child.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up child failed with exit code {child.returncode}")
    return elapsed


def _openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS the process has loaded (numpy's and scipy's)."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown (git not available)"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_revision": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "seed_note": "unused: every workload is deterministic (alpha meshes, verify's fixed internal seeds)",
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, outcome: tuple[int, int, list[str]]) -> None:
        attempted, failed, messages = outcome
        self.attempted += attempted
        self.failed += failed
        self.messages += messages[: max(0, MAX_MESSAGES - len(self.messages))]


def timed_pass(workload, tally: Tally) -> float:
    start = time.perf_counter()
    outcome = workload.run_pass()
    elapsed = time.perf_counter() - start
    tally.add(outcome)
    return elapsed


def measure(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics: median pass time in probe units, median fresh-process set-up, peak RSS."""
    import hostprobe

    setups = [setup_seconds(workload.setup_code) for _ in range(SETUP_REPEATS)]
    walls, nets, probes = [], [], []
    with hostprobe.HostProbe() as probe:
        deadline = time.perf_counter() + seconds
        # Start a pass only if it should end before the deadline.
        while not walls or time.perf_counter() + walls[-1] <= deadline:
            outcome, wall, net, unit = probe.timed(workload.run_pass)
            tally.add(outcome)
            walls.append(wall)
            nets.append(net)
            probes.append(unit)
    metrics = {
        "wall_rel": (statistics.median(n / p for n, p in zip(nets, probes)), "probe"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "pass_walls_s": walls,
        "pass_net_s": nets,
        "pass_probe_s": probes,
        "wall_s_median": statistics.median(walls),
        "probe_samples": len(probe.samples),
        "setup_samples_s": setups,
    }
    return metrics, samples


def measure_traced(workload, seconds: float, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics: untraced and traced passes alternate until the deadline."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(timed_pass(workload, tally))
        with tracing.instrument(tracer):
            traced.append(timed_pass(workload, tally))
        tracer.run += 1
        if time.perf_counter() + plain[-1] + traced[-1] > deadline:
            break
    values = tracing.layer_metrics(tracer, traced, plain)
    tracer.dump(spans_path)
    layer_self = tracing.layer_self_times(tracer.spans)
    samples = {"plain_walls_s": plain, "traced_walls_s": traced, "layer_self_s": layer_self}
    return {name: (values[name], unit) for name, unit in tracing.METRICS.items()}, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="recorded; the workloads are deterministic")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dgcentral" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not a dgcentral source checkout (needs src/dgcentral and configs/)", file=sys.stderr)
        return 2

    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, ROOT)
    env = environment(args.seed)
    tally = Tally()
    stem = f"{args.workload}_trace{args.trace}_seed{args.seed}"
    if args.trace:
        metrics, samples = measure_traced(workload, args.seconds, tally, OUT / f"{stem}_spans.json.gz")
    else:
        metrics, samples = measure(workload, args.seconds, tally)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "environment": env, "samples": samples, "failures": tally.messages, **result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("environment: " + json.dumps(env))
    print(f"fail_frac: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g}")
    for message in tally.messages:
        print("failure: " + message.rstrip().replace("\n", " | "))
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    if "wall_s_median" in samples:
        print(f"wall_s (median pass, host-dependent, not gated): {samples['wall_s_median']:.6g} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
