"""The package surface: star-import names and the names the benchmark's
tracer looks up."""

import ast
import importlib
import re
import types
from pathlib import Path

import fluxbound

ROOT = Path(__file__).resolve().parent.parent


def _readme_api_names() -> set:
    """Backticked identifiers in the README that name a public function or
    class of one of the package's modules."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    modules = [importlib.import_module(f"fluxbound.{name}")
               for name in ("bounds", "config", "errors", "flux", "linalg",
                            "montecarlo", "states", "thermo", "verify")]
    return {name for name in re.findall(r"`([A-Za-z_]\w*)`", text)
            if any(callable(getattr(m, name, None)) for m in modules)}


def test_star_import_exports_no_module_and_every_documented_name():
    assert not [name for name in fluxbound.__all__
                if isinstance(getattr(fluxbound, name), types.ModuleType)]
    namespace = {}
    exec("config = errors = None\nfrom fluxbound import *", namespace)
    assert namespace["config"] is None and namespace["errors"] is None
    documented = _readme_api_names()
    assert {"eigh", "evaluate_bounds", "directed_entropy_pair"} <= documented
    # require_hermitian is documented as part of fluxbound.linalg only
    assert documented - set(fluxbound.__all__) == {"require_hermitian"}


def test_traced_benchmark_spans_name_existing_functions():
    # perfbench/worker.py wraps these with getattr, so a deleted name would
    # crash the traced benchmark; read SPANS without importing the worker
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"))
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SPANS" for t in node.targets))
    assert ("states", "relative_entropy") in spans
    for module, function in (*spans, ("linalg", "eigh"),
                             ("bounds", "divergence_from_gap")):
        assert callable(getattr(importlib.import_module(f"fluxbound.{module}"),
                                function, None)), f"{module}.{function}"
