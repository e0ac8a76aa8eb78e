"""Every module of the package uses what it imports and what it keeps
private, and nothing private of numpy or scipy.

No linter ships with the test environment, so the checks read each module's
syntax tree.  A name bound by an import must be read somewhere in the module;
``__init__.py`` is skipped there, because its imports are the package's
exports.  A module-level private function, class or constant must be read
somewhere in the package, or it is dead code.  No module may reach an
underscore-prefixed numpy or scipy module or name: those are not API and
change between releases without notice.

One call, and one only, starts other processes: the ``os.fork`` in
``moments.fork_map``, the package's one way to run work in them.  No other
code may call ``os.fork``, ``os.forkpty`` or ``os.posix_spawn*``, or import
``multiprocessing``, ``concurrent.futures`` or ``subprocess``.

Importing the package must not import ``scipy.stats``, which would be most of
its import time; only the ``gauss`` law needs it, and imports it itself.  Nor
may it import ``multiprocessing`` or an executor of ``concurrent.futures``,
and a ``fork_map`` that forks workers must not import ``multiprocessing``
either.  (The ``concurrent.futures`` package itself is loaded by
``scipy.sparse``, through ``numpy.testing``, so only its executors are
checked.)  A fresh interpreter checks each.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import pytest

import rpsbm

PACKAGE = sorted(Path(rpsbm.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
LIBRARIES = ("numpy", "scipy")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_finds_an_unused_import():
    src = "import os\nfrom dataclasses import dataclass, field\n@dataclass\nclass A: pass\n"
    assert unused_imports(src) == ["field (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants of ``sources``
    (module name to source) that no module among them reads, imports or
    reaches as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(name, f"{module}.{name} (line {node.lineno})")
                        for name in names if _private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(label for name, label in defined if name not in read)


def test_finds_an_unread_private_name():
    sources = {
        "a": ("def _used(): pass\ndef _unused(): pass\nclass _Gone: pass\n"
              "_LIMIT = 3\n_K: int = 2\n_X, _Y = 1, 2\n__all__ = []\n"
              "def f():\n    return _used() + _X\n"),
        "b": "from .a import _K\nimport a\nlimit = a._LIMIT\n",
    }
    assert unread_private_names(sources) == [
        "a._Gone (line 3)", "a._Y (line 6)", "a._unused (line 2)"]


def test_no_unread_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_private_names(sources) == []


def private_library_uses(source: str) -> list[str]:
    """Underscore-prefixed numpy or scipy modules and names that ``source``
    imports, or reads as an attribute of an imported numpy or scipy module."""
    tree = ast.parse(source)
    found = []
    libraries = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
            libraries.update(alias.asname or alias.name.split(".")[0]
                             for alias in node.names
                             if alias.name.split(".")[0] in LIBRARIES)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            paths = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [f"{path} (line {node.lineno})" for path in paths
                  if path.split(".")[0] in LIBRARIES
                  and any(map(_private, path.split(".")))]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in libraries:
                found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return sorted(found)


def test_finds_a_private_library_use():
    src = ("import numpy as np\n"
           "import scipy.sparse._sparsetools\n"
           "from scipy.sparse import _sputils, csr_matrix\n"
           "from numpy._core import multiarray\n"
           "from ._private import helper\n"
           "import os._x\n"
           "matvec = scipy.sparse._sparsetools.csr_matvec\n"
           "version, novalue = np.__version__, np._NoValue\n")
    assert private_library_uses(src) == [
        "np._NoValue (line 8)",
        "numpy._core.multiarray (line 4)",
        "scipy.sparse._sparsetools (line 2)",
        "scipy.sparse._sparsetools (line 7)",
        "scipy.sparse._sputils (line 3)",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_private_numpy_or_scipy_use(path):
    assert private_library_uses(path.read_text(encoding="utf-8")) == []


POOLS = ("multiprocessing", "concurrent.futures", "subprocess")


def _starts_processes(path: str) -> bool:
    """Whether the dotted ``path`` is one of ``POOLS`` or a module of one, or
    one of ``os.fork``, ``os.forkpty`` and ``os.posix_spawn*``."""
    return (any(path == pool or path.startswith(pool + ".") for pool in POOLS)
            or path in ("os.fork", "os.forkpty") or path.startswith("os.posix_spawn"))


def pool_imports(source: str) -> list[str]:
    """Imports in ``source`` of ``multiprocessing``, ``concurrent.futures``,
    ``subprocess`` or a module of one, and uses of ``os.fork``,
    ``os.forkpty`` and ``os.posix_spawn*``, by attribute or import, at any
    depth of the syntax tree, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            paths = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names if node.module == "os"]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "os"):
            paths = [f"os.{node.attr}"]
        else:
            continue
        found += [(node.lineno, node.col_offset, path) for path in paths
                  if _starts_processes(path)]
    return [f"{path} (line {line})" for line, _, path in sorted(found)]


def test_finds_a_pool_import():
    src = ("import os\n"
           "def f():\n"
           "    import multiprocessing\n"
           "    from multiprocessing.pool import ExceptionWithTraceback\n"
           "    from concurrent.futures import ProcessPoolExecutor\n"
           "    import concurrent.futures.thread as t\n"
           "from .multiprocessing import x\n"
           "import multiprocessing_tools\n"
           "import subprocess\n"
           "def g():\n"
           "    return os.fork() or os.forkpty()\n"
           "from os import posix_spawnp, getpid\n"
           "spawn, forked, pid = os.posix_spawn, os.forked, os.getpid()\n"
           "has_fork = hasattr(os, 'fork')\n")
    assert pool_imports(src) == [
        "multiprocessing (line 3)", "multiprocessing.pool (line 4)",
        "concurrent.futures (line 5)", "concurrent.futures.thread (line 6)",
        "subprocess (line 9)", "os.fork (line 11)", "os.forkpty (line 11)",
        "os.posix_spawnp (line 12)", "os.posix_spawn (line 13)"]


def test_one_module_runs_work_in_other_processes():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    found = {name: uses for name, source in sources.items()
             if (uses := pool_imports(source))}
    assert list(found) == ["moments.py"]
    # and there, only the os.fork inside fork_map
    (use,) = found["moments.py"]
    match = re.fullmatch(r"os\.fork \(line (\d+)\)", use)
    assert match, use
    (fork_map,) = [node for node in ast.parse(sources["moments.py"]).body
                   if isinstance(node, ast.FunctionDef) and node.name == "fork_map"]
    assert fork_map.lineno <= int(match[1]) <= fork_map.end_lineno


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports
    this checkout's rpsbm."""
    root = str(Path(rpsbm.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {root!r})\n{code}"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_import_leaves_out_scipy_stats():
    out = run_fresh("import rpsbm, rpsbm.cli\nprint('scipy.stats' in sys.modules)")
    assert out.split() == ["False"]


def test_package_import_leaves_out_process_pools():
    pools = ("multiprocessing", "concurrent.futures.process",
             "concurrent.futures.thread")
    out = run_fresh(f"import rpsbm, rpsbm.cli\n"
                    f"print([m for m in {pools!r} if m in sys.modules])")
    assert out.split() == ["[]"]


def test_pool_on_two_cpus_leaves_out_multiprocessing():
    # forks are counted, so the check cannot pass because the rows were
    # computed inline
    out = run_fresh(
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(os.getpid()) or fork()\n"
        "import rpsbm\n"
        "rpsbm.compute_moments([rpsbm.Graph.complete(6)] * 2, 2)\n"
        "print(len(forks), 'multiprocessing' in sys.modules)")
    assert out.split() == ["2", "False"]


def test_gauss_law_builds_and_draws_in_a_fresh_process():
    law = rpsbm.TruncGaussianProductLaw([0.5, 0.8], [0.1, 0.0])
    out = run_fresh(
        "import json\nimport numpy as np\nimport rpsbm\n"
        "law = rpsbm.TruncGaussianProductLaw([0.5, 0.8], [0.1, 0.0])\n"
        "draw = law.draw(np.random.default_rng(7))\n"
        "print(json.dumps([draw.tolist(), law.mean().tolist(), law.var().tolist(),\n"
        "                  'scipy.stats' in sys.modules]))")
    draw, mean, var, loaded = json.loads(out)
    assert draw == law.draw(np.random.default_rng(7)).tolist()
    assert (mean, var) == (law.mean().tolist(), law.var().tolist())
    assert loaded
