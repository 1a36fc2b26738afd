"""Package-wide layout rules, read off the source with ast."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import tourney_lab

SOURCES = sorted(Path(tourney_lab.__file__).parent.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))
# The modules whose public names the package root re-exports.
REEXPORTED = ["core", "detection", "fourier", "recovery", "spectral"]


def private_imports(source: str, name: str = "<source>") -> list:
    """Private names taken from another package module: ``from .m import _x``."""
    hits = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "tourney_lab":
            continue
        hits += [
            f"{name}:{node.lineno}: imports {alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return hits


def test_no_private_cross_module_imports():
    assert len(SOURCES) > 1
    hits = [hit for path in SOURCES for hit in private_imports(path.read_text(), path.name)]
    assert hits == []


def test_guard_flags_private_names_only():
    source = (
        "from __future__ import annotations\n"
        "from .core import Ranking, _as_generator\n"
        "from tourney_lab.fourier import _planted_pmf\n"
        "from . import fourier\n"
    )
    assert private_imports(source) == [
        "<source>:2: imports _as_generator",
        "<source>:3: imports _planted_pmf",
    ]


def unused_imports(source: str, name: str = "<source>") -> list:
    """Module-level imported names that the module never reads as a ``Name``."""
    tree = ast.parse(source, filename=name)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}: never uses {bound}" for bound, line in imported if bound not in used]


def test_no_unused_imports():
    assert TESTS
    paths = MODULES + TESTS
    hits = [hit for path in paths for hit in unused_imports(path.read_text(), path.name)]
    assert hits == []


def test_guard_flags_unused_imports_only():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .core import Ranking, Tournament, upper_mask as mask\n"
        "def f(t: Tournament) -> np.ndarray:\n"
        "    return os.path.join(t)\n"
    )
    assert unused_imports(source) == [
        "<source>:4: never uses Ranking",
        "<source>:4: never uses mask",
    ]


def unbounded_caches(source: str, name: str = "<source>") -> list:
    """functools caches that may keep more than one result: every ``cache``, and
    every ``lru_cache`` that is not called with maxsize the literal 1.
    """
    tree = ast.parse(source, filename=name)
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
    }
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            label = node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            label = imported.get(node.id)
        else:
            continue
        if label not in ("cache", "lru_cache"):
            continue
        call = calls.get(id(node))
        args = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args if call else []
        if label == "cache" or not args or getattr(args[0], "value", None) != 1:
            hit = f"{name}:{node.lineno}: {label} may keep more than one result"
            hits.append((node.lineno, node.col_offset, hit))
    return [hit for *_, hit in sorted(hits)]


def test_table_caches_keep_one_size():
    assert any("functools.lru_cache(maxsize=1)" in path.read_text() for path in SOURCES)
    hits = [hit for path in SOURCES for hit in unbounded_caches(path.read_text(), path.name)]
    assert hits == []


def test_guard_flags_caches_of_more_than_one_result():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache as memo\n"
        "@functools.lru_cache(maxsize=1)\n"
        "def a(k): return k\n"
        "@functools.lru_cache(1)\n"
        "def b(k): return k\n"
        "@functools.lru_cache\n"
        "def c(k): return k\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def d(k): return k\n"
        "@memo(maxsize=2)\n"
        "def e(k): return k\n"
        "@cache\n"
        "def f(k): return k\n"
        "g = memo(maxsize=2)(len), functools.cache(len)\n"
    )
    assert unbounded_caches(source) == [
        "<source>:7: lru_cache may keep more than one result",
        "<source>:9: lru_cache may keep more than one result",
        "<source>:11: lru_cache may keep more than one result",
        "<source>:13: cache may keep more than one result",
        "<source>:15: lru_cache may keep more than one result",
        "<source>:15: cache may keep more than one result",
    ]


# The Generator methods that could read a draw's edges, the cheaper raw reads
# (random_raw of the bit generator, bytes) included.  core reads every edge
# through random in one function, the coin walker, so the null and planted,
# Tournament and score samplers read one stream by construction.
DRAW_METHODS = ("integers", "random", "random_raw", "bytes")


def callers_of(source: str, names: tuple) -> dict:
    """For each name, the innermost functions that call ``x.<name>(...)`` or ``<name>(...)``."""
    callers = {name: set() for name in names}

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Call):
            called = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if called in callers:
                callers[called].add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return callers


def test_core_reads_each_draw_method_from_one_function():
    core = Path(tourney_lab.__file__).parent / "core.py"
    callers = callers_of(core.read_text(), DRAW_METHODS)
    counts = {name: len(owners) for name, owners in callers.items()}
    assert counts == {"integers": 0, "random": 1, "random_raw": 0, "bytes": 0}


def test_guard_flags_every_caller_of_a_draw_method():
    source = (
        "import numpy as np\n"
        "def one(gen):\n"
        "    return gen.integers(0, 2, size=3), np.random.default_rng(0).permutation(3)\n"
        "class Sampler:\n"
        "    def two(self, gen):\n"
        "        return gen.integers(0, 2), gen.random(4), gen.bit_generator.random_raw(2)\n"
        "def three(gen):\n"
        "    return np.frombuffer(gen.bytes(8), dtype=np.uint8)\n"
    )
    assert callers_of(source, DRAW_METHODS) == {
        "integers": {"one", "two"},
        "random": {"two"},
        "random_raw": {"two"},
        "bytes": {"three"},
    }


# The numpy calls that pick a narrow dtype for a comparison.  core owns that
# choice (_narrow, upper_mask, _win_scores), so no other module makes its own.
NARROWING_CALLS = ("min_scalar_type", "promote_types")


def named_calls(source: str, names: tuple, name: str = "<source>") -> list:
    """Calls of a function in ``names``, as ``m.<name>(...)`` or as a bare name."""
    hits = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Call):
            called = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if called in names:
                hits.append((node.lineno, node.col_offset, f"{name}:{node.lineno}: calls {called}"))
    return [hit for *_, hit in sorted(hits)]


def test_only_core_narrows_dtypes():
    core = Path(tourney_lab.__file__).parent / "core.py"
    assert named_calls(core.read_text(), NARROWING_CALLS)
    others = [path for path in SOURCES if path != core]
    hits = [
        hit for path in others for hit in named_calls(path.read_text(), NARROWING_CALLS, path.name)
    ]
    assert hits == []


def test_guard_flags_every_narrowing_call():
    source = (
        "import numpy as np\n"
        "from numpy import promote_types\n"
        "def f(r, n):\n"
        "    return r.astype(np.min_scalar_type(n)), promote_types(np.int8, r.dtype)\n"
        "def g(r):\n"
        "    return np.result_type(r, np.int8), r.astype(np.uint8)\n"
    )
    assert named_calls(source, NARROWING_CALLS) == [
        "<source>:4: calls min_scalar_type",
        "<source>:4: calls promote_types",
    ]


# The n! enumerators stay test oracles: sweeps take the exact maximum from recovery.max_alignment.
ORACLES = ("brute_force_mle",)


def test_sweeps_call_no_enumeration_oracle():
    experiments = Path(tourney_lab.__file__).parent / "experiments.py"
    assert named_calls(experiments.read_text(), ORACLES, experiments.name) == []


def test_guard_flags_every_oracle_call():
    source = (
        "from . import recovery\n"
        "from .recovery import brute_force_mle as oracle, brute_force_mle\n"
        "def f(t):\n"
        "    return recovery.brute_force_mle(t).best_alignment, recovery.max_alignment(t)\n"
        "def g(t):\n"
        "    return brute_force_mle(t), oracle(t), recovery.brute_force_mle\n"
    )
    assert named_calls(source, ORACLES) == [
        "<source>:4: calls brute_force_mle",
        "<source>:6: calls brute_force_mle",
    ]


# spectral_statistic multiplies by T through its upper row blocks: detection
# builds no n x n matrix.
MATRIX_BUILDERS = ("to_matrix",)


def test_detection_builds_no_matrix():
    detection = Path(tourney_lab.__file__).parent / "detection.py"
    assert named_calls(detection.read_text(), MATRIX_BUILDERS, detection.name) == []


def test_guard_flags_every_matrix_build():
    source = (
        "from .core import Tournament\n"
        "def f(t):\n"
        "    return t.to_matrix().astype(float), t.upper_blocks(float)\n"
        "def g(t, build=Tournament.to_matrix):\n"
        "    return build(t), Tournament.to_matrix(t)\n"
    )
    assert named_calls(source, MATRIX_BUILDERS) == [
        "<source>:3: calls to_matrix",
        "<source>:5: calls to_matrix",
    ]


# The n! ranking codes feed the exact planted pmf and the brute-force MLE oracle; sign
# averages, chi2_fourier and the sweeps' maximum take a subset recurrence or a closed form.
CODE_READERS = {"fourier._planted_pmf", "recovery.brute_force_mle"}


def test_ranking_codes_read_by_the_pmf_and_the_mle_oracle_only():
    readers = {
        f"{path.stem}.{owner}"
        for path in SOURCES
        for owner in callers_of(path.read_text(), ("ranking_codes",))["ranking_codes"]
    }
    assert readers == CODE_READERS


def test_guard_names_the_function_around_each_call():
    source = (
        "from . import core\n"
        "from .core import ranking_codes\n"
        "def a(k):\n"
        "    return ranking_codes(k), core.upper_mask(k)\n"
        "class B:\n"
        "    def b(self, k):\n"
        "        def inner():\n"
        "            return core.ranking_codes(k)\n"
        "        return inner, ranking_codes\n"
        "CODES = ranking_codes(3)\n"
    )
    assert callers_of(source, ("ranking_codes",)) == {"ranking_codes": {"a", "inner", "<module>"}}


# core decides what a bool is (as_int, as_reals); no other module asks isinstance itself.
def bool_checks(source: str, name: str = "<source>") -> list:
    """``isinstance`` calls whose type argument is, or is a tuple holding, bool or np.bool_."""
    hits = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1:]
            kinds += [kind for tuple_ in kinds for kind in getattr(tuple_, "elts", [])]
            labels = {getattr(kind, "id", getattr(kind, "attr", None)) for kind in kinds}
            if labels & {"bool", "bool_"}:
                hit = f"{name}:{node.lineno}: checks for a bool"
                hits.append((node.lineno, node.col_offset, hit))
    return [hit for *_, hit in sorted(hits)]


def test_only_core_checks_for_bools():
    core = Path(tourney_lab.__file__).parent / "core.py"
    assert bool_checks(core.read_text())
    others = [path for path in SOURCES if path != core]
    assert [hit for path in others for hit in bool_checks(path.read_text(), path.name)] == []


def test_guard_flags_every_bool_check():
    source = (
        "import numpy as np\n"
        "def f(x):\n"
        "    return isinstance(x, bool)\n"
        "def g(x):\n"
        "    return isinstance(x, (int, np.bool_)), isinstance(x, int)\n"
        "def h(x):\n"
        "    return type(x) is bool, bool(x), isinstance(x, np.ndarray)\n"
    )
    assert bool_checks(source) == ["<source>:3: checks for a bool", "<source>:5: checks for a bool"]


def top_level_names(source: str) -> set:
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def test_all_names_are_defined_in_their_module():
    for path in MODULES:
        module = importlib.import_module(f"tourney_lab.{path.stem}")
        missing = set(getattr(module, "__all__", ())) - top_level_names(path.read_text())
        assert missing == set(), path.name


def test_root_reexports_exactly_the_module_exports():
    init = Path(tourney_lab.__file__).read_text()
    reexports = {}
    for node in ast.parse(init).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            reexports.setdefault(node.module, set()).update(alias.name for alias in node.names)
    expected = {
        name: set(importlib.import_module(f"tourney_lab.{name}").__all__) for name in REEXPORTED
    }
    assert reexports == expected


def undeclared_imports(source: str, dependencies: list) -> list:
    """Third-party top-level modules that ``source`` imports absolutely and that no
    requirement string in ``dependencies`` names; the standard library and the package are
    exempt.
    """
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_") for dep in dependencies}
    exempt = set(sys.stdlib_module_names) | {"tourney_lab"}
    return sorted(imported - exempt - declared)


def test_run_time_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    dependencies = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    hits = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in undeclared_imports(path.read_text(), dependencies)
    ]
    assert hits == []


def test_guard_flags_undeclared_imports_only():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "import scipy.special\n"
        "from tourney_lab.core import Ranking\n"
        "from . import core\n"
        "from typing_extensions import Self\n"
        "def f():\n"
        "    from matplotlib import pyplot\n"
    )
    dependencies = ["NumPy>=2.0", "Typing-Extensions; python_version < '3.11'"]
    assert undeclared_imports(source, dependencies) == ["matplotlib", "scipy"]
