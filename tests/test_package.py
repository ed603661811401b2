"""Package surface: every exported name resolves, no module or test file imports a name it never uses, every private module-level name is referenced, every name the bench traces exists, README's config block names the config table's keys, and the CLI, the spectral routes, the 1D P(hL) route and the superconvergence probes run without scipy.sparse or scipy.linalg."""

import ast
import functools
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import dgcentral
import dgcentral.study


def test_every_exported_name_resolves():
    modules = [dgcentral] + [importlib.import_module(f"dgcentral.{m.name}") for m in pkgutil.iter_modules(dgcentral.__path__)]
    assert len(modules) > 1  # the submodules were found
    stale = [f"{mod.__name__}.{name}" for mod in modules for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert stale == []


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used | exported]


def test_scanner_flags_an_unused_import():
    assert _unused_imports("import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(pi)\n") == ["os (line 1)"]


def test_no_unused_imports_in_the_package():
    package, tests = Path(dgcentral.__file__).parent, Path(__file__).resolve().parent
    unused = {
        f"{path.parent.name}/{path.name}": names
        for path in sorted(package.glob("*.py")) + sorted(tests.glob("*.py"))
        if (names := _unused_imports(path.read_text()))
    }
    assert unused == {}


def _orphans(sources: dict[str, str]) -> list[str]:
    """Module-level private names (`_x`, not a dunder) that no source references, as `module:name`."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    used = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return [f"{module}:{name}" for module, name in defined if name.startswith("_") and not name.endswith("__") and name not in used]


def test_scanner_flags_an_orphaned_private_name():
    sources = {
        "a": "_CAP = 1\n_used, __all__ = 2, []\nclass _Gone: pass\ndef _f(): return _used\n",
        "b": "import a\nprint(a._f())\n",
    }
    assert _orphans(sources) == ["a:_CAP", "a:_Gone"]


def test_no_orphaned_private_names_in_the_package():
    # a route deletion can leave a constant or helper that nothing reads
    package = Path(dgcentral.__file__).parent
    assert _orphans({path.name: path.read_text() for path in sorted(package.glob("*.py"))}) == []


def test_bench_trace_boundaries_exist():
    # bench/tracing.py wraps (owner, attribute) pairs by name; read them without importing the bench
    source = (Path(__file__).resolve().parents[1] / "bench" / "tracing.py").read_text()
    table = next(
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_BOUNDARIES" for t in node.targets)
    )
    pairs = [(ast.unparse(entry.elts[0]), ast.literal_eval(entry.elts[1])) for entry in table.elts]
    assert pairs and all(owner.startswith("dgcentral.") for owner, _ in pairs)

    def resolve(owner):  # dgcentral.<module>, or a class in it
        module, *rest = owner.split(".")[1:]
        return functools.reduce(getattr, rest, importlib.import_module(f"dgcentral.{module}"))

    missing = [f"{owner}.{attr}" for owner, attr in pairs if not hasattr(resolve(owner), attr)]
    assert missing == []


def test_readme_config_block_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    named = [line.lstrip("# ").split("=", 1)[0].strip() for line in block.splitlines()]
    assert named == [key.name for key in dgcentral.study._KEYS]


def _fresh_python(code: str) -> list[str]:
    """Run `code` in a new interpreter that imports this checkout's package; return its printed words."""
    src = str(Path(dgcentral.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.split()


def test_the_cli_imports_without_scipy_linalg():
    # scipy.linalg would add about 0.5 s and 8 MB to every start-up; no route needs it
    out = _fresh_python("import sys, dgcentral.cli; print('scipy.linalg' in sys.modules, dgcentral.cli.__file__)")
    assert out == ["False", str(Path(dgcentral.__file__).resolve().parent / "cli.py")]


_LOADED = "print(*(name in sys.modules for name in ('scipy.sparse', 'scipy.linalg')))"


def test_the_cli_imports_without_scipy_sparse():
    # scipy.sparse is about 0.25 s of start-up; only 2D P(hL) and verify's skew checks build a CSR matrix and load it
    assert _fresh_python(f"import sys, dgcentral.cli; {_LOADED}") == ["False", "False"]


def test_spectral_studies_run_without_scipy_sparse():
    # a uniform P2 ladder (the Bloch route) and an alpha Q2 ladder (the per-axis eigenbases); neither loads
    # numpy.ma either, which np.unique imports on first use (+0.6 MB of peak RSS after one alpha Q2 pass)
    configs = Path(__file__).resolve().parents[1] / "configs"
    code = (
        "import sys\n"
        "from dataclasses import replace\n"
        "from dgcentral.study import load_config, run_study\n"
        "for name in ('advect1d_uniform_p2.cfg', 'advect2d_alpha_q2.cfg'):\n"
        f"    table = run_study(replace(load_config({str(configs)!r} + '/' + name), out_dir=None))\n"
        "    print(len(table.ns))\n"
        f"{_LOADED}\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _fresh_python(code) == ["6", "5", "False", "False", "False"]


def test_the_1d_p_hl_studies_run_without_scipy_sparse():
    # alpha and random P2 ladders march P(hL) on row tiles built from L's blocks, with no CSR matrix, and load
    # no numpy.ma either
    configs = Path(__file__).resolve().parents[1] / "configs"
    code = (
        "import sys\n"
        "from dataclasses import replace\n"
        "from dgcentral.study import load_config, run_study\n"
        "for name in ('advect1d_alpha_p2.cfg', 'advect1d_random_p2.cfg'):\n"
        f"    table = run_study(replace(load_config({str(configs)!r} + '/' + name), out_dir=None))\n"
        "    print(len(table.ns))\n"
        f"{_LOADED}\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _fresh_python(code) == ["6", "6", "False", "False", "False"]


def test_an_unstable_spectral_level_exits_2_without_scipy_sparse(tmp_path):
    # Q2 at c = 0.5 grows on the per-axis eigenbases, which report it without assembling L
    config = Path(__file__).resolve().parents[1] / "configs" / "advect2d_uniform_q2.cfg"
    args = ["run", str(config), "--set", "time.c=0.5", "--set", f"output.dir={tmp_path / 'res'}"]
    code = f"import sys\nfrom dgcentral import cli\nprint(cli.main({args!r}))\n{_LOADED}\n"
    assert _fresh_python(code)[-3:] == ["2", "False", "False"]  # after the N=4 line: N=8 grows


def test_superconvergence_probes_run_without_scipy_sparse():
    # the probes lay L's blocks over one cell; they build no CSR matrix
    code = (
        "import sys\n"
        "from dgcentral.operators import flux_cancellation_residual_2d as f, superconvergence_residual_1d as s1, superconvergence_residual_2d as s2\n"
        "print(s1(2) < 1e-12, s2(2) < 1e-11, f(2) < 1e-12)\n"
        f"{_LOADED}\n"
    )
    assert _fresh_python(code) == ["True", "True", "True", "False", "False"]
