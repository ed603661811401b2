"""Tests of the benchmark itself: the reference check and the trace accounting.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import shutil
import signal
import subprocess
import sys
import time

import run  # noqa: F401  (pins BLAS threads and puts src/ on the path first)

import pytest

import dgcentral.study
import hostprobe
import reference
import tracing
import workloads
from dgcentral.metrics import ConvergenceTable

REF = reference.load()


def _table(rec: dict) -> ConvergenceTable:
    return ConvergenceTable(label="t", ns=list(rec["ns"]), e2=list(rec["e2"]), ea=list(rec["ea"]), ef=rec["ef"])


@pytest.mark.parametrize("ladder", sorted(workloads.LADDERS))
def test_reference_accepts_itself(ladder):
    attempted, failed, _ = reference.check_table(_table(REF[ladder]), REF[ladder])
    assert (attempted, failed) == (len(REF[ladder]["ns"]), 0)


@pytest.mark.parametrize("ladder", sorted(workloads.LADDERS))
def test_rejects_one_e2_moved_by_1e6_relative(ladder):
    for level in range(len(REF[ladder]["ns"])):
        moved = copy.deepcopy(REF[ladder])
        moved["e2"][level] *= 1.0 + 1e-6
        _, failed, messages = reference.check_table(_table(moved), REF[ladder])
        assert failed == 1, (level, messages)


def test_accepts_roundoff_shift_of_an_exact_fast_path():
    # An assembled-matrix L that agrees with the stencil to 2e-14 moved EA and
    # Ef at N=320 by about 7e-16 absolute (3e-8 relative): still correct.
    moved = copy.deepcopy(REF["ladder1d"])
    moved["ea"][-1] += 7e-16
    moved["ef"][-1] -= 7e-16
    assert abs(moved["ea"][-1] / REF["ladder1d"]["ea"][-1] - 1.0) > 1e-8
    assert reference.check_table(_table(moved), REF["ladder1d"])[1] == 0


def test_rejects_missing_level_and_nan():
    short = copy.deepcopy(REF["ladder1d"])
    for col in ("ns", "e2", "ea", "ef"):
        short[col] = short[col][:-1]
    assert reference.check_table(_table(short), REF["ladder1d"])[1] == 1
    bad = copy.deepcopy(REF["ladder1d"])
    bad["ea"][0] = float("nan")
    assert reference.check_table(_table(bad), REF["ladder1d"])[1] == 1


def test_rejects_unstable_c05_ladder():
    # time.c=0.5 is unstable for P2 yet the program may still return a table;
    # either way the pass must count failed levels.
    ladder = workloads.Ladder("ladder1d", run.ROOT / workloads.LADDERS["ladder1d"], ("time.c=0.5",))
    attempted, failed, _ = ladder.run_pass()
    assert attempted == len(REF["ladder1d"]["ns"])
    assert failed > 0


def _report(statuses: dict[str, str]) -> str:
    return "[all]\n" + "".join(f"  {s}  {n}: 1.0e-16 <= 1.0e-12\n" for n, s in statuses.items()) + "done\n"


def test_verify_report_check():
    names = REF["verify"]
    ok = {n: "PASS" for n in names}
    assert reference.check_report(_report(ok), names) == (len(names), 0, [])
    one_fail = dict(ok, **{names[3]: "FAIL"})
    assert reference.check_report(_report(one_fail), names)[:2] == (len(names), 1)
    missing = {n: s for n, s in ok.items() if n != names[0]}
    assert reference.check_report(_report(missing), names)[:2] == (len(names), 1)
    new_pass = dict(ok, **{"a new check": "PASS"})
    assert reference.check_report(_report(new_pass), names)[:2] == (len(names) + 1, 0)
    new_fail = dict(ok, **{"a new check": "FAIL"})
    assert reference.check_report(_report(new_fail), names)[:2] == (len(names) + 1, 1)


def _traced_pass(workload):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        start = time.perf_counter()
        workload.run_pass()
        wall = time.perf_counter() - start
    return tracer, wall


@pytest.mark.parametrize(
    "make",
    [
        lambda: workloads.Verify(),
        lambda: workloads.Ladder("ladder1d", run.ROOT / workloads.LADDERS["ladder1d"], ("study.ns=10,20",)),
        lambda: workloads.Ladder("ladder2d", run.ROOT / workloads.LADDERS["ladder2d"], ("study.ns=5,9",)),
    ],
    ids=["verify", "ladder1d-short", "ladder2d-short"],
)
def test_layer_self_times_within_traced_wall(make):
    workload = make()
    originals = (dgcentral.study.integrate, dgcentral.study.SpatialOperator.apply_rhs)
    tracer, wall = _traced_pass(workload)
    assert (dgcentral.study.integrate, dgcentral.study.SpatialOperator.apply_rhs) == originals
    layers = tracing.layer_self_times(tracer.spans)
    assert {"operators", "timestepping"} <= set(layers)
    assert min(layers.values()) >= -1e-9
    assert sum(layers.values()) <= wall

    metrics = tracing.layer_metrics(tracer, [wall], [wall])
    assert list(metrics) == list(tracing.METRICS)
    assert metrics["timestepping.stages"] > 0
    assert metrics["timestepping.self_s"] <= metrics["timestepping.integrate_s"]
    if isinstance(workload, workloads.Verify):
        assert metrics["study.self_s"] == metrics["metrics.error_calls"] == 0
        assert metrics["verify.energy_s"] > 0
    else:
        assert metrics["verify.energy_s"] == metrics["fields.shifted_projection_calls"] == 0
        assert 0 < metrics["study.finest_level_s"] < wall


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "verify", "--seed", "3", "--seconds", "0.2", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(tracing.METRICS)


def test_probe_time_is_taken_out_of_the_pass():
    before = signal.getsignal(signal.SIGALRM)
    with hostprobe.HostProbe() as probe:
        result, wall, net, unit = probe.timed(lambda: time.sleep(0.3) or "done")
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert result == "done"
    assert len(probe.samples) >= 2
    assert wall - net == pytest.approx(probe.spent)
    assert 0 < net < wall and wall >= 0.3
    assert unit == pytest.approx(probe.spent / len(probe.samples))


def test_untraced_run_reports_the_end_to_end_metrics(capsys):
    assert run.main(["--workload", "verify", "--seed", "3", "--seconds", "0.2", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder1d", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
