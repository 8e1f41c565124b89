"""The benchmark tracer (``perfbench/tracing.py``) finds the functions it
wraps by name on the ``tvgan`` modules, so renaming or deleting one of them
breaks ``perfbench/run.py --trace 1``. These tests load the tracer from its
file, unmodified, and check its names against the program."""

import importlib
import importlib.util
import sys
from pathlib import Path

import tvgan.cli  # noqa: F401  (imports every module the tracer patches)

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TRACED_NAMES = [(module, fn) for module, names in tracing.TRACED.items() for fn in names]


def _tvgan_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "tvgan" or name.startswith("tvgan.")
    }


def test_every_traced_name_resolves():
    missing = [
        f"tvgan.{module_name}.{fn_name}"
        for module_name, fn_name in TRACED_NAMES
        if not callable(getattr(importlib.import_module(f"tvgan.{module_name}"), fn_name, None))
    ]
    assert not missing, f"traced but gone: {missing}"


def test_install_wraps_every_name_and_uninstall_restores_every_attribute():
    before = _tvgan_namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module_name, fn_name in TRACED_NAMES:
            wrapper = getattr(sys.modules[f"tvgan.{module_name}"], fn_name)
            assert wrapper.__wrapped__ is before[f"tvgan.{module_name}"][fn_name]
    finally:
        tracer.uninstall()
    after = _tvgan_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        changed = [attr for attr, value in namespace.items() if after[name].get(attr) is not value]
        assert not changed, f"{name}: {changed} not restored"
