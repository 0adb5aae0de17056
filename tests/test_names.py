"""Names that other code looks up by string or imports from outside the
package: the ``__all__`` lists, the attributes the benchmark's tracer wraps
(perfbench/tracing.py) and the benchmark's library imports.  A deleted or
renamed function fails here instead of in a benchmark run."""
import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import wienerwidths

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _package_modules():
    names = [wienerwidths.__name__]
    names += [f"{wienerwidths.__name__}.{m.name}"
              for m in pkgutil.iter_modules(wienerwidths.__path__)]
    return [importlib.import_module(name) for name in names]


def test_all_names_resolve():
    for module in _package_modules():
        missing = [n for n in getattr(module, "__all__", ())
                   if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)


def test_benchmark_imports_resolve():
    # every `from wienerwidths... import name` in the benchmark, including
    # the imports inside functions that only a benchmark run would execute
    missing = []
    for path in sorted(_TRACING.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == wienerwidths.__name__):
                module = importlib.import_module(node.module)
                missing += [(path.name, node.module, alias.name)
                            for alias in node.names
                            if not hasattr(module, alias.name)]
    assert not missing, missing


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses resolve names through it
    try:
        spec.loader.exec_module(tracing)
        before = {m.__name__: dict(vars(m)) for m in _package_modules()}
        tracer = tracing.Tracer()
        try:
            tracer.install()
            for module_name, attr, _ in tracing.TARGETS:
                wrapped = getattr(sys.modules[module_name], attr)
                assert wrapped is not before[module_name][attr], attr
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[spec.name]
    for module_name, saved in before.items():
        now = vars(sys.modules[module_name])
        assert now.keys() == saved.keys(), module_name
        changed = [k for k in saved if now[k] is not saved[k]]
        assert not changed, (module_name, changed)
