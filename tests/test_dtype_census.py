"""No float64 literal on the client-step path outside the dtype's owner.

A client step trains in one number format, ``STEP_DTYPE`` in
``repro.nn.serialization``.  A ``np.float64`` (or ``float``-as-dtype)
written anywhere on the step path would quietly widen part of the step —
and under NumPy 1.x's value-based casting and NumPy 2's type-based
promotion it may widen differently, so a digest would depend on the NumPy
version (``pyproject`` allows ``numpy>=1.24``).  This walks the syntax
tree of every step-path module and lists each such literal.  Docstrings
and comments may name float64; code may not.
"""

from __future__ import annotations

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
STEP_PATH = (
    "nn/cohort.py",
    "nn/conv.py",
    "nn/optim.py",
    "nn/layers.py",
    "nn/functional.py",
    "nn/losses.py",
    "nn/tensor.py",
    "nn/workspace.py",
    "core/steps.py",
    "data/synthetic.py",
)
WIDE_NAMES = {"float64", "double", "float_", "longdouble", "float128", "complex128"}
WIDE_STRINGS = {"float64", "f8", "<f8", "d", "double", "float"}


def _wide_literals(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in WIDE_NAMES:
            found.append((node.lineno, f"attribute .{node.attr}"))
        elif isinstance(node, ast.Name) and node.id in WIDE_NAMES:
            found.append((node.lineno, f"name {node.id}"))
        elif isinstance(node, ast.Call):
            # A dtype given as a string or as Python's ``float``.
            dtypes = [k.value for k in node.keywords if k.arg == "dtype"]
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "astype" and node.args:
                dtypes.append(node.args[0])
            for value in dtypes:
                if isinstance(value, ast.Constant) and value.value in WIDE_STRINGS:
                    found.append((node.lineno, f"dtype {value.value!r}"))
                elif isinstance(value, ast.Name) and value.id == "float":
                    found.append((node.lineno, "dtype float"))
    return sorted(found)


def test_the_census_sees_a_wide_literal():
    code = "x.astype(np.float64)\nnp.zeros(3, dtype='f8')\ny.astype(float)\n"
    assert [line for line, _ in _wide_literals(ast.parse(code))] == [1, 2, 3]


def test_no_float64_literal_on_the_step_path():
    offenders = [
        f"{rel}:{line}: {what}"
        for rel in STEP_PATH
        for line, what in _wide_literals(ast.parse((SRC / rel).read_text()))
    ]
    assert not offenders, "\n".join(offenders)


def _assigns_step_dtype(tree: ast.AST) -> int:
    return sum(
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "STEP_DTYPE" for t in node.targets)
        for node in ast.walk(tree)
    )


def test_only_the_owner_defines_the_step_dtype():
    assert _assigns_step_dtype(ast.parse((SRC / "nn/serialization.py").read_text())) == 1
    for rel in STEP_PATH:
        assert _assigns_step_dtype(ast.parse((SRC / rel).read_text())) == 0, rel
