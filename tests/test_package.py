"""The package surface: star-import names, the names the benchmark's
tracer looks up, and signatures free of tolerance parameters."""

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import fluxbound
from fluxbound import config, verify

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("bounds", "cli", "config", "errors", "flux", "io", "linalg",
           "montecarlo", "states", "thermo", "verify")


def _readme_api_names() -> set:
    """Backticked identifiers in the README that name a public function or
    class of one of the package's modules."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    modules = [importlib.import_module(f"fluxbound.{name}")
               for name in MODULES if name not in ("cli", "io")]
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


def _public_functions():
    """(label, function) for every public function defined in a module of
    the package."""
    for name in MODULES:
        module = importlib.import_module(f"fluxbound.{name}")
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                yield f"{name}.{attr}", value


def test_no_function_takes_a_tolerance_record():
    # the thresholds are constants of fluxbound.config; only the scoring
    # tolerance of montecarlo and verify is an input, carried by their configs
    functions = dict(_public_functions())
    assert {"linalg.eigh", "flux.evaluate_bounds", "verify.run_verify",
            "montecarlo.run_montecarlo"} <= set(functions)
    takes_tols = [label for label, fn in functions.items()
                  if "tols" in inspect.signature(fn).parameters]
    # kept, and ignored, for the benchmark's set-up call
    assert takes_tols == ["verify.suite_capacity"]
    bound_functions = [label for label in functions if label.startswith("bounds.")]
    assert "bounds.gap_from_divergence" in bound_functions
    for label in bound_functions:
        assert "config" not in inspect.signature(functions[label]).parameters, label


def test_benchmark_setup_call_of_suite_capacity_still_works():
    # perfbench/worker.py warms up with this exact call
    result = verify.suite_capacity(verify.VerifyConfig(draws=1),
                                   config.DEFAULT_TOLERANCES)
    assert (result.checks, result.violations) == (1, 0)


def _lapack_uses(tree) -> list:
    """Imports of numpy.linalg or scipy in a module's syntax tree, and
    attribute reads of np.linalg or numpy.linalg, as (line, name)."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "linalg"
              and isinstance(node.value, ast.Name)):
            names = [f"{node.value.id}.linalg"]
        else:
            continue
        uses += [(node.lineno, name) for name in names
                 if name.split(".")[0] == "scipy"
                 or name.startswith(("numpy.linalg", "np.linalg"))]
    return uses


def test_the_core_does_not_call_lapack():
    # the Jacobi eigensolver is what lets numpy.linalg and scipy act as
    # independent oracles in the tests
    sources = sorted((ROOT / "src" / "fluxbound").glob("*.py"))
    assert len(sources) == len(MODULES) + 1  # and __init__.py
    found = {path.name: _lapack_uses(ast.parse(path.read_text(encoding="utf-8")))
             for path in sources}
    assert {name: uses for name, uses in found.items() if uses} == {}
    probe = ast.parse("import scipy.linalg\nfrom numpy import linalg\n"
                      "from numpy.linalg import eigh\nw = np.linalg.eigh(a)\n")
    assert [line for line, _ in _lapack_uses(probe)] == [1, 2, 3, 4]


def _is_positive_inf(node) -> bool:
    """Whether an expression is math.inf or np.inf (or +inf of them), or
    float("inf")."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        node = node.operand
    if isinstance(node, ast.Attribute):
        return (node.attr == "inf" and isinstance(node.value, ast.Name)
                and node.value.id in ("math", "np", "numpy"))
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"
            and [getattr(arg, "value", None) for arg in node.args] in (["inf"], ["+inf"]))


def _inf_sentinels(tree) -> list:
    """np.where and np.full calls with a positive infinity among their
    arguments, as (line, name)."""
    uses = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("where", "full")
                and getattr(node.func.value, "id", None) in ("np", "numpy")
                and any(map(_is_positive_inf,
                            [*node.args, *(k.value for k in node.keywords)]))):
            uses.append((node.lineno, f"np.{node.func.attr}"))
    return uses


def test_the_core_marks_no_inapplicable_row_with_an_infinite_slack():
    # a Verdict's applies mask says where an inequality does not apply;
    # -inf stays allowed, as the real slack of a finite entropy against an
    # infinite cost
    sources = sorted((ROOT / "src" / "fluxbound").glob("*.py"))
    found = {path.name: _inf_sentinels(ast.parse(path.read_text(encoding="utf-8")))
             for path in sources}
    assert {name: uses for name, uses in found.items() if uses} == {}
    probe = ast.parse("np.where(finite, lhs - floor, math.inf)\n"
                      "np.where(finite, -math.inf, np.where(a, b, np.inf))\n"
                      "out = np.full(len(ratio), math.inf)\n"
                      "np.full(3, fill_value=+numpy.inf)\n"
                      "np.where(rows, float('inf'), gap)\n"
                      "np.where(finite, gap, -math.inf)\n"
                      "np.full(3, -np.inf)\n"
                      "slack != math.inf\n")
    assert sorted(line for line, _ in _inf_sentinels(probe)) == [1, 2, 3, 4, 5]
