"""The exported names resolve, and so does every name the benchmark traces.

``perfbench/tracing.py`` wraps rotpack functions and methods by module and
attribute name; a renamed or deleted one would only surface as a failed
benchmark run, so it is checked here. Each function and class has one
import path, its defining module, apart from the few the package levels
also export; and the README's quick start runs as written.
"""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import rotpack

ROOT = Path(__file__).resolve().parents[1]

# Settable values: every parameter of every function, constructor and public
# method named in an ``__all__``, ``self`` and ``cls`` excluded.
SETTABLE_VALUES = 269

# the names a package level exports besides its defining module
FACADE = {
    ("rotpack", "RotamerProblem"),
    ("rotpack", "decode"),
    ("rotpack", "random_problem"),
    ("rotpack.bench", "BenchPlan"),
    ("rotpack.bench", "CellSpec"),
    ("rotpack.bench", "run_experiment"),
}


def _resolve(module_name: str, dotted: str) -> object:
    obj = importlib.import_module(module_name)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_exported_and_traced_names_resolve():
    missing = []
    modules = ["rotpack"] + [
        info.name for info in pkgutil.walk_packages(rotpack.__path__, "rotpack.")
    ]
    for name in modules:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            if not hasattr(module, attr):
                missing.append(f"{name}.{attr}")

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, _, _ in tracing.TARGETS:
        try:
            assert callable(_resolve(module_name, attr))
        except (ImportError, AttributeError, AssertionError):
            missing.append(f"{module_name}.{attr}")

    assert missing == []


def test_each_export_is_defined_where_it_is_exported():
    foreign = []
    packages = pkgutil.walk_packages(rotpack.__path__, "rotpack.")
    for name in ["rotpack"] + [info.name for info in packages]:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ != name and (name, attr) not in FACADE:
                foreign.append(f"{name}.{attr} (from {obj.__module__})")
    assert foreign == []
    exported = {
        (name, attr)
        for name in ("rotpack", "rotpack.bench")
        for attr in importlib.import_module(name).__all__
    }
    assert exported == FACADE | {("rotpack", "__version__")}


def _parameters(fn: object) -> int:
    try:
        names = inspect.signature(fn).parameters
    except ValueError:  # a class with a builtin constructor, e.g. an exception
        return 0
    return len([n for n in names if n not in ("self", "cls")])


def test_settable_value_count():
    counted = set()
    total = 0
    packages = pkgutil.walk_packages(rotpack.__path__, "rotpack.")
    for name in ["rotpack"] + [info.name for info in packages]:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if id(obj) in counted or not callable(obj):
                continue
            counted.add(id(obj))
            total += _parameters(obj)
            if inspect.isclass(obj):
                for member, value in vars(obj).items():
                    if isinstance(value, (staticmethod, classmethod)):
                        value = value.__func__
                    if not member.startswith("_") and inspect.isfunction(value):
                        total += _parameters(value)
    assert total == SETTABLE_VALUES, (
        f"{total} settable values, pinned at {SETTABLE_VALUES}: update"
        " SETTABLE_VALUES and give the reason in CHANGES.md"
    )


def test_readme_quick_start_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1]
    monkeypatch.chdir(ROOT)
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "-0.8 ((0, 1),)"
    assert lines[1].split()[0] == "True"
