"""Reference results every benchmark pass is checked against.

`reference.json` holds the per-level N/E2/EA/Ef of both ladders and the
names of the checks `verify all` reports as PASS, as produced by the package
when the benchmark was defined.  Regenerate it only when a change is meant to
alter reported digits:

    python3 bench/reference.py

A value x matches its reference r when |x - r| <= RTOL*|r| + ATOL.  The
absolute term is a roundoff floor: an equally exact fast path (for example an
assembled sparse L whose entries agree with the stencil to 2e-14) moves EA and
Ef at N=320 by about 7e-16 absolute, which is 3e-8 relative, so a purely
relative tolerance would reject it.  ATOL is about 450 unit roundoffs of an
O(1) solution; RTOL keeps the 1e-10 relative gate for errors well above that.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

RTOL = 1e-10
ATOL = 1e-13
COLUMNS = ("e2", "ea", "ef")
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
_CHECK_LINE = re.compile(r"^  (PASS|FAIL)  (.*?): ")


def load() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= RTOL * abs(ref) + ATOL


def table_record(table) -> dict:
    """The columns of a ConvergenceTable that the check compares."""
    return {"ns": list(table.ns), "e2": list(table.e2), "ea": list(table.ea), "ef": table.ef}


def check_table(table, ref: dict) -> tuple[int, int, list[str]]:
    """Compare a ladder's table with its reference, level by level.

    Returns (attempted, failed, messages); a level fails when it is missing,
    has another N, or any of its E2/EA/Ef lies outside the tolerance.
    """
    got = table_record(table)
    attempted = max(len(ref["ns"]), len(got["ns"]))
    messages = []
    for i in range(attempted):
        if i >= len(ref["ns"]) or i >= len(got["ns"]) or got["ns"][i] != ref["ns"][i]:
            messages.append(f"level {i}: N mismatch or missing level")
            continue
        for col in COLUMNS:
            if ref[col] is None:
                continue
            value = got[col][i] if got[col] is not None else math.nan
            if not close(value, ref[col][i]):
                messages.append(f"N={ref['ns'][i]} {col}: {value!r} vs reference {ref[col][i]!r}")
                break
    return attempted, len(messages), messages


def parse_report(report: str) -> dict[str, str]:
    """Map each check name in a `run_suite` report to PASS or FAIL."""
    statuses = {}
    for line in report.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            statuses[m.group(2)] = m.group(1)
    return statuses


def check_report(report: str, ref_passes: list[str]) -> tuple[int, int, list[str]]:
    """Every reference check must report PASS; a check new to the report fails only on FAIL."""
    statuses = parse_report(report)
    names = list(ref_passes) + [n for n in statuses if n not in ref_passes]
    failed = [n for n in names if statuses.get(n) != "PASS" and (n in ref_passes or statuses[n] == "FAIL")]
    return len(names), len(failed), [f"{statuses.get(n, 'MISSING')}: {n}" for n in failed]


def main() -> None:
    import run  # pins BLAS threads and puts the package on the path

    from workloads import LADDERS
    from dgcentral.study import load_config, run_study
    from dgcentral.verify import run_suite

    ref = {}
    for name, config in LADDERS.items():
        ref[name] = table_record(run_study(load_config(run.ROOT / config)))
    report, ok = run_suite("all")
    if not ok:
        raise SystemExit("verify all reports failures; not writing a reference")
    ref["verify"] = [n for n, s in parse_report(report).items() if s == "PASS"]
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")


if __name__ == "__main__":
    main()
