"""The benchmark's tracer finds every name it wraps.

``perfbench/tracing.py`` replaces module attributes of ``monadlogic`` by
name, reading each one through its owner's ``__dict__``; a name the
program drops or renames would stop the traced benchmark run with a
``KeyError``.  This test resolves the same names the same way.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    patches = load_tracing()._PATCHES
    assert patches
    missing = []
    for owner_path, attr, _, _ in patches:
        module, *rest = owner_path.split(".")
        owner = importlib.import_module(f"monadlogic.{module}")
        for part in rest:
            owner = getattr(owner, part)
        if attr not in owner.__dict__:
            missing.append(f"monadlogic.{owner_path}.{attr}")
    assert missing == [], f"perfbench/tracing.py wraps names the program no longer has: {missing}"
