"""Packaging metadata: every declared console script and every name a
module exports through __all__ must resolve, no exported function takes a
private parameter, the modules keep their layers, the runtime dependencies
are exactly the third-party imports, the pipelines import neither mpmath
nor numpy.ma, and every cache is bounded."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_module_exports_resolve():
    package = importlib.import_module("lfunlab")
    root = Path(package.__file__).resolve().parent
    modules = sorted(p.stem for p in root.glob("*.py") if p.stem != "__init__")
    assert modules
    for name in modules:
        module = importlib.import_module(f"lfunlab.{name}")
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"lfunlab.{name}.{export}"


def test_exported_functions_take_no_private_parameters():
    # a parameter named _x in a public signature is an override kept for a
    # test; it belongs on a private function instead
    root = Path(importlib.import_module("lfunlab").__file__).resolve().parent
    for name in sorted(p.stem for p in root.glob("*.py") if p.stem != "__init__"):
        module = importlib.import_module(f"lfunlab.{name}")
        for export in getattr(module, "__all__", ()):
            obj = getattr(module, export)
            if inspect.isfunction(obj):
                private = [p for p in inspect.signature(obj).parameters if p.startswith("_")]
                assert not private, f"lfunlab.{name}.{export}{tuple(private)}"


# the lfunlab modules each module may import; a module not named here is free
LAYERS = {
    "util": set(),
    "quadrature": set(),
    "chebyshev": {"quadrature"},
    "special": set(),
    "exactarith": set(),
    "heckegl3": {"exactarith", "special"},
    "afe": {"exactarith", "heckegl3", "quadrature", "special"},
    "kuznetsov": {"afe", "chebyshev", "exactarith", "heckegl3", "quadrature", "special"},
    "voronoi": {"exactarith", "heckegl3", "quadrature", "special"},
}


def _lfunlab_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                names.add(node.module.split(".")[0])
            elif node.level == 0 and (node.module or "").startswith("lfunlab."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("lfunlab.")}
    return names


def test_module_layers():
    root = Path(importlib.import_module("lfunlab").__file__).resolve().parent
    for name, allowed in LAYERS.items():
        imported = _lfunlab_imports(root / f"{name}.py")
        assert imported <= allowed, f"lfunlab.{name} imports {sorted(imported - allowed)}"


def _third_party_imports(path: Path) -> set:
    """Top-level names of the absolute imports in a module that are neither
    the standard library nor lfunlab."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"lfunlab"}


def test_runtime_dependencies_match_imports():
    # a dependency that no module imports is installed for nothing, and an
    # import that no dependency declares fails on a clean install
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("-", "_") for d in declared}
    root = Path(importlib.import_module("lfunlab").__file__).resolve().parent
    imported = set().union(*(_third_party_imports(path) for path in root.glob("*.py")))
    assert imported == declared


_PIPELINES = """
import importlib, pkgutil, sys
import lfunlab
for info in pkgutil.iter_modules(lfunlab.__path__):
    importlib.import_module("lfunlab." + info.name)
from lfunlab import heckegl3, kuznetsov, quadrature, voronoi
d3 = heckegl3.triple_divisor_form()
kuznetsov.kuznetsov_residual(1, 1, kuznetsov.gaussian_test_function(2.0), [], 40, 10.0)
kuznetsov.diagonal_weight(1.0, 1, 1, 1, d3, "direct")
voronoi.voronoi_residual_profile(d3, 1, 1, 3, quadrature.smooth_bump(50, 100), [2**8])
print(sorted(m for m in ("mpmath", "numpy.ma", "numpy.polynomial", "decimal") if m in sys.modules))
"""


def test_pipelines_import_no_mpmath_numpy_ma_or_numpy_polynomial():
    # every lfunlab module, then one small evaluation of each pipeline the
    # benchmark runs, in a fresh interpreter: mpmath (51 modules),
    # numpy.ma and numpy.polynomial (9 modules, 1.8 MB) and decimal (with
    # fractions, 0.33 MB) are import time and memory that no evaluation
    # needs, and a reference route that a pipeline reached would load
    # mpmath here
    run = subprocess.run([sys.executable, "-c", _PIPELINES], env=_child_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def _child_env(**extra) -> dict:
    """This interpreter's environment for a child that imports this lfunlab."""
    src = str(Path(importlib.import_module("lfunlab").__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))), **extra)


_IDENTITIES = """
from lfunlab import heckegl3, kuznetsov, quadrature, voronoi
d3 = heckegl3.triple_divisor_form()
print(repr(voronoi.voronoi_residual_profile(d3, 1, 1, 3, quadrature.smooth_bump(50, 100), [2**12, 2**14])))
print(repr(kuznetsov.kuznetsov_residual(1, 1, kuznetsov.gaussian_test_function(2.0), [], 800, 40.0)))
"""


def test_identities_do_not_depend_on_the_blas_thread_count():
    # the benchmark's two identities in fresh interpreters with one and with
    # two OpenBLAS threads: ContourKernel.apply's products may split across
    # threads, and no result may move with that.  Only this test sets the
    # variable; the package never does
    outs = []
    for threads in ("1", "2"):
        env = _child_env(OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _IDENTITIES], env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0].count("\n") == 2 and outs[0] == outs[1]


def _constructs(tree: ast.AST, name: str) -> list:
    """Lines that call `name`, bare or as a module attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")) == name
    ]


def test_only_quadrature_constructs_contour_kernels():
    # contour_kernel returns one ContourKernel for all its rows; a caller
    # that rebuilt a kernel per row would split what apply shares
    root = Path(importlib.import_module("lfunlab").__file__).resolve().parent
    for path in sorted(root.glob("*.py")):
        if path.stem != "quadrature":
            lines = _constructs(ast.parse(path.read_text()), "ContourKernel")
            assert not lines, f"lfunlab.{path.stem} constructs ContourKernel at lines {lines}"


def _caches(tree: ast.Module) -> tuple[list, list]:
    """(names of the functions decorated with lru_cache, violations).  The
    violations are an lru_cache without a literal positive integer maxsize,
    a functools.cache, and any module-level name that holds a cache: a
    name or a constructor call that says "cache" (a dict memo, a cache
    object or an lru_cache built by a call).  The one sanctioned cache is a
    bounded lru_cache decorator on a pure function."""
    cached, bad = [], []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                func = dec.func if isinstance(dec, ast.Call) else dec
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "cache":
                    bad.append(f"{node.name}: functools.cache")
                elif name == "lru_cache":
                    cached.append(node.name)
                    sizes = [k.value for k in getattr(dec, "keywords", ()) if k.arg == "maxsize"]
                    sizes += getattr(dec, "args", [])[:1]
                    ok = len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                    if not (ok and type(sizes[0].value) is int and sizes[0].value > 0):
                        bad.append(f"{node.name}: lru_cache without a finite integer maxsize")
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [ast.unparse(t) for t in targets]
            calls = [ast.unparse(c.func) for c in ast.walk(node.value) if isinstance(c, ast.Call)]
            if any("cache" in word.lower() for word in names + calls):
                bad.append(f"{names[0]}: module-level cache")
    return cached, bad


def test_every_cache_is_bounded():
    # a cache that grows for the life of the process turns a long run into a
    # memory leak, and one that no workload hits is state without a payoff.
    # Each cache kept names its measured traffic (one fresh round per
    # perfbench workload, and Tier-1):
    #   quadrature._legendre_rule      4, 97 and 8 hits per round
    #   heckegl3.ramanujan_tau_table   88 Tier-1 hits against 6 builds of up to 0.17 s
    #   kuznetsov._cached_weight       diagonal_weight's "dual" (2 hits, 2 misses)
    root = Path(importlib.import_module("lfunlab").__file__).resolve().parent
    cached = set()
    for path in sorted(root.glob("*.py")):
        names, bad = _caches(ast.parse(path.read_text()))
        assert not bad, f"lfunlab.{path.stem}: {bad}"
        cached.update(f"{path.stem}.{name}" for name in names)
    assert cached == {"quadrature._legendre_rule", "heckegl3.ramanujan_tau_table", "kuznetsov._cached_weight"}
    unbounded = ast.parse(
        "import functools\n_TABLE_CACHE = {}\n@functools.lru_cache(maxsize=None)\ndef f(x): pass\n"
        "@functools.cache\ndef g(x): pass\n@lru_cache\ndef h(x): pass\n"
        "_ROWS = util.LRUCache(maxsize=8)\n_built = functools.lru_cache(maxsize=8)(f)\n"
    )
    assert len(_caches(unbounded)[1]) == 6
    assert _caches(ast.parse("@functools.lru_cache(maxsize=8)\ndef f(x): pass\n")) == (["f"], [])
