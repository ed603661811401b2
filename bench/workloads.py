"""The benchmark's workloads, driven through dgcentral's public entry points.

Every workload is deterministic: the ladders run shipped configs on alpha
meshes, and `verify all` draws its random fields from fixed internal seeds.
None of them takes the benchmark's --seed, which is recorded but unused.

One pass of a workload is one full ladder (`run_study`) or one `verify all`
(`run_suite`).  An operation is one ladder level or one verify check; a pass
returns how many it attempted and how many failed the reference check.
"""

from __future__ import annotations

import traceback

import dgcentral.study
import dgcentral.verify

import reference

LADDERS = {
    "ladder1d": "configs/advect1d_alpha_p2.cfg",
    "ladder2d": "configs/advect2d_alpha_q2.cfg",
}


class Ladder:
    def __init__(self, name: str, config_path, overrides: tuple[str, ...] = ()):
        self.name = name
        self.cfg = dgcentral.study.load_config(config_path, overrides)
        self.ref = reference.load()[name]
        # What `dgcentral run` does before its first level, timed in a fresh process.
        self.setup_code = (
            "import dgcentral.cli\n"
            f"dgcentral.study.load_config({str(config_path)!r}, {tuple(overrides)!r})\n"
        )

    def run_pass(self) -> tuple[int, int, list[str]]:
        try:
            table = dgcentral.study.run_study(self.cfg)
        except Exception:  # a raising level fails the pass; the benchmark keeps measuring
            return len(self.ref["ns"]), len(self.ref["ns"]), [traceback.format_exc(limit=3)]
        return reference.check_table(table, self.ref)


class Verify:
    name = "verify"
    setup_code = "import dgcentral.cli\nlist(dgcentral.verify.SUITES)\n"

    def __init__(self):
        self.ref = reference.load()["verify"]

    def run_pass(self) -> tuple[int, int, list[str]]:
        try:
            report, ok = dgcentral.verify.run_suite("all")
        except Exception:  # a raising suite fails every check
            return len(self.ref), len(self.ref), [traceback.format_exc(limit=3)]
        attempted, failed, messages = reference.check_report(report, self.ref)
        if not ok and not failed:
            return attempted + 1, 1, ["run_suite reported failure without a FAIL line"]
        return attempted, failed, messages


def make(name: str, root):
    if name in LADDERS:
        return Ladder(name, root / LADDERS[name])
    if name == "verify":
        return Verify()
    raise KeyError(name)
