"""Source checks by ast: every name a package module imports is used somewhere
in that module, every parameter a package function takes is read in its
body, the sparse-attention gathers, the head split and the loss stay off
the slow numpy scatter and gather routines, trainable leaves have one
constructor. Two checks run the package instead: importing it starts no
thread and loads no scipy module beyond scipy.special."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tabnsa"
SOURCES = sorted(PACKAGE.glob("*.py"))
SLOW_CALLS = {"np.add.at", "np.take_along_axis"}
# hot-path function -> the package module defining it
SLOW_CALL_FREE = {
    "gather_blocks": "autodiff", "gather_selected": "autodiff", "split_heads": "autodiff",
    "weighted_cross_entropy": "training",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[::-1]) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_name():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == ["line 1: os", "line 2: c"]


def unused_parameters(source: str) -> list[str]:
    """Parameters of a function or lambda that its body (nested scopes
    included) never reads; defaults and annotations do not count."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None]
        body = fn.body if isinstance(fn, ast.Lambda) else ast.Module(body=fn.body, type_ignores=[])
        used = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
        name = getattr(fn, "name", "<lambda>")
        found += [f"line {fn.lineno}: {name}({p})" for p in params if p not in used]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unread_parameter():
    source = (
        "def f(a, b=a, *args, c, **kw):\n    return a + c\n"
        "def g(x, n: int):\n    def h():\n        return x\n    return h\n"
        "k = lambda u, v: u\n"
    )
    assert unused_parameters(source) == [
        "line 1: f(b)", "line 1: f(args)", "line 1: f(kw)", "line 3: g(n)", "line 7: <lambda>(v)",
    ]


def dotted_calls(module: Path, function: str) -> set[str]:
    """Dotted names called anywhere inside the top-level function `function`
    of the module at `module`, with each name that `import numpy` or
    `import numpy as <alias>` binds spelled `np`."""
    tree = ast.parse(module.read_text(encoding="utf-8"))
    numpy_names = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "numpy"
    }
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    calls = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            head, dot, rest = ast.unparse(node.func).partition(".")
            calls.add(f"np.{rest}" if dot and head in numpy_names else head + dot + rest)
    return calls


@pytest.mark.parametrize("function", sorted(SLOW_CALL_FREE))
def test_gathers_avoid_slow_numpy_calls(function):
    calls = dotted_calls(PACKAGE / f"{SLOW_CALL_FREE[function]}.py", function)
    assert not calls & SLOW_CALLS


def test_call_finder_sees_nested_calls(tmp_path):
    module = tmp_path / "m.py"
    body = "def f(t):\n    def vjp(g):\n        {0}.add.at(t, 0, g)\n    return {1}.take_along_axis(t, i, 0)\n"
    for header, names in (("", ("np", "np")), ("import numpy\nimport numpy as xp\n", ("numpy", "xp"))):
        module.write_text(header + body.format(*names))
        assert dotted_calls(module, "f") >= SLOW_CALLS


def definitions_where(source: str, match) -> set[str]:
    """Top-level definitions, or `<module>` for other top-level code, that
    hold a node (nested scopes included) for which `match` is true."""
    return {
        getattr(top, "name", "<module>")
        for top in ast.parse(source).body if any(match(node) for node in ast.walk(top))
    }


def leaf_constructors(source: str) -> set[str]:
    """Top-level definitions that build a Tensor with requires_grad=True."""
    return definitions_where(source, lambda node: isinstance(node, ast.Call) and any(
        kw.arg == "requires_grad" and not (isinstance(kw.value, ast.Constant) and not kw.value.value)
        for kw in node.keywords
    ))


def test_trainable_leaves_come_from_make_leaves_or_a_checkpoint():
    found = {(path.stem, name) for path in SOURCES for name in leaf_constructors(path.read_text(encoding="utf-8"))}
    assert found == {("autodiff", "make_leaves"), ("model", "load_checkpoint")}


def test_leaf_finder_sees_nested_and_module_level_leaves():
    source = (
        "def f():\n    def g():\n        return Tensor(x, requires_grad=True)\n"
        "def h():\n    return Tensor(x, requires_grad=False)\n"
        "W = Tensor(np.ones(2), requires_grad=flag)\n"
    )
    assert leaf_constructors(source) == {"f", "<module>"}


def after_importing_every_module(expression: str) -> list[str]:
    """The printed words of `expression`, evaluated in a fresh interpreter
    once every package module is imported."""
    modules = [f"tabnsa.{path.stem}" for path in SOURCES if path.stem != "__init__"]
    script = (
        "import importlib, sys, threading\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        f"print({expression})\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_importing_every_module_starts_no_thread():
    assert after_importing_every_module("threading.active_count()") == ["1"]


def test_importing_every_module_loads_no_scipy_beyond_special():
    """scipy.stats alone costs about a second and 45 MiB at start-up;
    scipy.optimize is imported when an L-BFGS fit starts."""
    assert after_importing_every_module("'scipy.special' in sys.modules, 'scipy.stats' in sys.modules, "
                                        "'scipy.optimize' in sys.modules") == ["True", "False", "False"]
