"""The package namespace: what ``from wignerpf import *`` exports, which
module may hold the skew-Pfaffian oracle or call the validating skew
kernel, which modules a process loads, the one production path of the
normal form, the inputs the result types take and how they compare, and
that no module imports a name it does not use, no private function or class
goes unread and no private function keeps a default that no call overrides."""

import ast
import io
import inspect
import os
import subprocess
import sys
from pathlib import Path

import wignerpf
from wignerpf import generalized_pfaffian, wigner_normal_form
from wignerpf.linalg import DEFAULT_TOL


def test_star_import_exports_every_name_once():
    namespace = {}
    exec("from wignerpf import *", namespace)
    assert len(set(wignerpf.__all__)) == len(wignerpf.__all__)
    for name in wignerpf.__all__:
        assert namespace[name] is getattr(wignerpf, name)


def test_householder_is_an_oracle_only():
    # one production skew-Pfaffian kernel: Parlett-Reid; Householder stays in
    # pfaffian.py as the reference the tests compare against
    package = Path(wignerpf.__file__).parent
    for path in sorted(package.rglob("*.py")):
        if path.name != "pfaffian.py":
            assert "pf_skew_householder" not in path.read_text(encoding="utf-8"), path.name


def test_the_public_skew_kernel_is_called_only_in_its_module():
    # pf_skew_parlett_reid validates its input as skew; every array the
    # pipeline hands the kernel is skew by construction, so the pipeline
    # calls _parlett_reid and pays no validation
    package = Path(wignerpf.__file__).parent
    for path in sorted(package.rglob("*.py")):
        if path.name == "pfaffian.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = {
            ast.unparse(node.func).rpartition(".")[2]
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        assert "pf_skew_parlett_reid" not in called, path.name


def test_no_module_loads_scipy_sparse():
    # the direct-sum split finds its components without scipy.sparse.csgraph,
    # whose import alone costs every process that runs the package 5 MB
    code = (
        "import sys, numpy as np\n"
        "from wignerpf import SpectrumEntry, SpectrumSpec, generalized_pfaffian,"
        " random_conjugate_normal\n"
        "omegas = [complex(1 + k / 8, 1) for k in range(32)]\n"
        "spec = SpectrumSpec(tuple(SpectrumEntry('complex', w) for w in omegas), seed=1)\n"
        "generalized_pfaffian(np.kron(np.eye(2), random_conjugate_normal(spec)))\n"
        "assert not [m for m in sys.modules if m.split('.')[:2] == ['scipy', 'sparse']]\n"
    )
    src = str(Path(wignerpf.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})


def test_normal_form_has_no_test_fork():
    # the gauge tests mix eigenbases through a test seam, not a keyword; so
    # normal_form needs nothing from ensembles, which imports normal_form
    package = Path(wignerpf.__file__).parent
    for path in sorted(package.rglob("*.py")):
        assert "gauge_seed" not in path.read_text(encoding="utf-8"), path.name
    tree = ast.parse((package / "normal_form.py").read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not any("ensembles" in ast.unparse(node) for node in imports)
    for function in (wigner_normal_form, generalized_pfaffian):
        params = list(inspect.signature(function).parameters.values())
        assert [p.name for p in params] == ["a", "tol"], function.__name__
        assert params[1].default is DEFAULT_TOL
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_the_pfaffian_imports_nothing_of_the_lambda_pipeline():
    # one kernel for pf: every singular-value group takes the determinant-ratio
    # rule, so generalized.py reaches no clustering, normal form or eigensolve
    package = Path(wignerpf.__file__).parent
    tree = ast.parse((package / "generalized.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & {"classify_spectrum", "_normal_form", "eig_normal"}


def test_result_types_take_only_source_values():
    # half_dim, det_u, multiplicity, passed and det_antisymmetric follow from
    # the other fields, so no constructor takes them
    inputs = {
        wignerpf.NormalForm: [
            "u", "blocks", "conjugate_normal_residual", "reconstruction_residual"
        ],
        wignerpf.SpectralCluster: ["omega", "kind", "partner", "mu", "columns"],
        wignerpf.IdentityCheck: ["name", "residual", "threshold"],
        wignerpf.PfDiagnostics: [
            "det", "apf", "conjugate_normal_residual", "singular", "cross_check_residual"
        ],
        wignerpf.Tolerances: ["eig_residual", "cluster"],
    }
    for cls, names in inputs.items():
        assert list(inspect.signature(cls).parameters) == names, cls.__name__


def test_array_holding_results_compare_by_identity():
    # a generated field-wise __eq__ would compare ndarrays and raise on
    # `==`, and the generated __hash__ would hash an ndarray
    a = [[0.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]]
    document = '{"rows": 1, "cols": 1, "entries": [[1, 0]]}'
    for build in (
        lambda: wigner_normal_form(a),
        lambda: wignerpf.classify_spectrum(a),
        lambda: wignerpf.parse_matrix(io.StringIO(document), "json"),
    ):
        first, second = build(), build()
        assert first == first
        assert not first == second
        assert first != second
        assert hash(first) == hash(first)
        assert len({first, second}) == 2


def test_every_imported_name_is_used():
    # a stdlib stand-in for a linter's unused-import rule: each name a module
    # imports is read somewhere in it or exported through its __all__
    package = Path(wignerpf.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused = sorted(imported - used)
        assert not unused, f"{path.name} imports {unused} without using them"


def test_every_private_definition_is_used():
    # the same stand-in for a dead-code rule: each module-level private
    # function or class is read by name, or as an attribute, somewhere in
    # the package besides its own definition
    package = Path(wignerpf.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(defined - used)
    assert not unused, f"private definitions {unused} are never read"


def test_every_defaulted_private_parameter_is_passed():
    # the same stand-in for a dead-option rule: each parameter with a default
    # of a module-level private function is passed, by position or by name,
    # by some call in the package; a call with *args passes every positional
    # parameter and one with **kwargs every parameter
    package = Path(wignerpf.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))]
    functions = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    ]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unpassed = []
    for function in functions:
        args = function.args
        positional = args.posonlyargs + args.args
        defaulted = list(enumerate(positional))[len(positional) - len(args.defaults):]
        defaulted += [
            (None, arg)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        for index, arg in defaulted:
            if not any(
                any(k.arg in (None, arg.arg) for k in call.keywords)
                or index is not None
                and (
                    len(call.args) > index
                    or any(isinstance(a, ast.Starred) for a in call.args)
                )
                for call in calls.get(function.name, [])
            ):
                unpassed.append(f"{function.name}({arg.arg}=...)")
    assert not unpassed, f"defaulted parameters {unpassed} are never passed"
