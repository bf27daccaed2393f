"""The exported names resolve, and so does every name the benchmark traces.

``perfbench/tracing.py`` wraps rotpack functions and methods by module and
attribute name; a renamed or deleted one would only surface as a failed
benchmark run, so it is checked here.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import rotpack

ROOT = Path(__file__).resolve().parents[1]


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
