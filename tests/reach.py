"""Which code outside ``tests/`` reaches each name a ``repro`` module exports.

A static census over the syntax trees of ``src/``, ``bench/``,
``benchmarks/`` and ``examples/``.  A *use* is a name or an attribute
chain in code, resolved through the file's imports to the module that
defines it: with ``from repro.nn import functional as F``, ``F.relu``
is a use of ``repro.nn.functional.relu``, and ``np.relu`` is not.  A
re-export (``repro.nn.Adam``) resolves to its definition
(``repro.nn.optim.Adam``).  Import lines and ``__all__`` lists are not
uses, and neither is code inside the defining module itself.

An exported name must be used somewhere else, or be listed in
:data:`KEPT` with the reason it stays (``tests/test_reach.py``).  The
census cannot judge a name that only ``src/`` reaches; whether a run
ever calls it is a question for a dynamic census.

List every exported name with the files that use it::

    PYTHONPATH=src python -m tests.reach
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
USERS = ("src", "bench", "benchmarks", "examples")

#: Exported names no code outside ``tests/`` uses, kept for a reason.
KEPT: dict[str, str] = {
    "repro.core.vcasgd.epoch_recursion": (
        "the paper's Eq. 2 in closed form, the reference the Eq. 1 "
        "recursion is tested against"
    ),
    "repro.nn.models.paper_scale_resnet_spec": (
        "the paper's 4.97M-parameter ResNetV2, the model the paper-scale "
        "training work targets"
    ),
    "repro.nn.functional.softmax": (
        "the reference the fused cross-entropy's closed-form gradient is "
        "checked against"
    ),
    "repro.nn.functional.pad2d": (
        "the reference conv2d's built-in padding is checked against, "
        "forward and backward"
    ),
    "repro.nn.metrics.accuracy": (
        "the reference evaluate_classifier's batched accuracy count is "
        "checked against"
    ),
    "repro.nn.layers.LayerNorm": (
        "a layer with no stacked kernel: the cohort's tape fallback, which "
        "ResNetV2 runs take, is tested on it"
    ),
    "repro.nn.layers.Dropout": (
        "a layer with no stacked kernel: the cohort's tape fallback, which "
        "ResNetV2 runs take, is tested on it"
    ),
}


@dataclass(frozen=True)
class Module:
    """One parsed module of the package."""

    name: str
    path: Path
    tree: ast.Module

    @property
    def package(self) -> str:
        """The package a relative import in this module starts from."""
        if self.path.name == "__init__.py":
            return self.name
        return self.name.rpartition(".")[0]


def parse_package(package_dir: Path) -> dict[str, Module]:
    """Every module under ``package_dir``, keyed by dotted name."""
    modules = {}
    for path in sorted(package_dir.rglob("*.py")):
        parts = path.relative_to(package_dir.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(parts)
        modules[name] = Module(name, path, ast.parse(path.read_text(), str(path)))
    return modules


def _literal_strings(node: ast.expr, constants: dict[str, ast.expr]) -> list[str]:
    """The strings of a list or tuple literal, starred names expanded."""
    names: list[str] = []
    for element in getattr(node, "elts", ()):
        if isinstance(element, ast.Starred) and isinstance(element.value, ast.Name):
            names += _literal_strings(constants[element.value.id], constants)
        elif isinstance(element, ast.Constant) and isinstance(element.value, str):
            names.append(element.value)
        else:
            raise ValueError(f"unreadable __all__ entry {ast.dump(element)}")
    return names


def exports(module: Module) -> list[str]:
    """The names in a module's ``__all__``, read without importing it."""
    constants = {}
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                constants[target.id] = node.value
    if "__all__" not in constants:
        return []
    return _literal_strings(constants["__all__"], constants)


def _absolute(module: Module | None, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    if module is None:
        raise ValueError("a relative import outside the package")
    base = module.package.split(".")
    base = base[: len(base) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def import_bindings(tree: ast.Module, module: Module | None = None) -> dict[str, str]:
    """The names a file binds by import, mapped to the dotted path each
    stands for."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    bound[head] = head
        elif isinstance(node, ast.ImportFrom):
            origin = _absolute(module, node)
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = f"{origin}.{alias.name}"
    return bound


def _chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None if it does not start at a name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + attrs[::-1]


def _is_export_list(node: ast.AST) -> bool:
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _bound_in(nodes: Iterable[ast.AST]) -> set[str]:
    """The names a scope binds: stored names, arguments, nested defs."""
    bound = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                bound.add(node.id)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
    return bound


def top_level_names(tree: ast.Module) -> set[str]:
    """The names a module defines at top level other than by import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


class _Uses(ast.NodeVisitor):
    """The dotted paths a file's code refers to.

    A name resolves through the file's imports, or, in a package module,
    to the module's own top-level definition, unless a function, class
    or comprehension binds it locally or the use is inside that very
    definition.  Import lines and ``__all__`` lists are not visited.
    """

    def __init__(self, bindings: dict[str, str], module: str | None, own: set[str]) -> None:
        self.bindings = bindings
        self.module = module
        self.own = own
        self.scopes: list[tuple[set[str], bool]] = []
        self.defining: str | None = None
        self.found: set[str] = set()

    def _resolve(self, name: str) -> str | None:
        # A class body's names are not in scope inside its methods.
        if any(
            name in bound and (not is_class or depth == len(self.scopes) - 1)
            for depth, (bound, is_class) in enumerate(self.scopes)
        ):
            return None
        if name in self.bindings:
            return self.bindings[name]
        if self.module is not None and name in self.own and name != self.defining:
            return f"{self.module}.{name}"
        return None

    def visit_Import(self, node: ast.AST) -> None:
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node: ast.Assign) -> None:
        if not _is_export_list(node):
            self.generic_visit(node)

    visit_AugAssign = visit_AnnAssign = visit_Assign

    def _scoped(
        self, node: ast.AST, outer: list, inner: list, binders: list, is_class: bool = False
    ) -> None:
        """Visit ``outer`` in the enclosing scope, then ``inner`` in a new
        scope holding every name ``binders`` bind."""
        for child in outer:
            if child is not None:
                self.visit(child)
        defining = self.defining
        if not self.scopes and hasattr(node, "name"):
            self.defining = node.name
        self.scopes.append((_bound_in(binders), is_class))
        for child in inner:
            self.visit(child)
        self.scopes.pop()
        self.defining = defining

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        args = node.args
        outer = [*node.decorator_list, *args.defaults, *args.kw_defaults, node.returns]
        outer += [a.annotation for a in ast.walk(args) if isinstance(a, ast.arg)]
        self._scoped(node, outer, node.body, [args, *node.body])

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer = [*node.decorator_list, *node.bases, *node.keywords]
        self._scoped(node, outer, node.body, node.body, is_class=True)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._scoped(node, node.args.defaults, [node.body], [node.args, node.body])

    def visit_ListComp(self, node: ast.AST) -> None:
        children = list(ast.iter_child_nodes(node))
        self._scoped(node, [], children, children)

    visit_SetComp = visit_DictComp = visit_GeneratorExp = visit_ListComp

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = _chain(node)
        if chain is None:
            self.generic_visit(node)
            return
        base = self._resolve(chain[0])
        if base is not None:
            self.found.add(".".join([base, *chain[1:]]))

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            base = self._resolve(node.id)
            if base is not None:
                self.found.add(base)


def used_paths(
    tree: ast.Module,
    bindings: dict[str, str],
    module: str | None = None,
) -> set[str]:
    """Every dotted path a file's code refers to (``module``: the file's
    own dotted name, if it is in the package)."""
    uses = _Uses(bindings, module, top_level_names(tree) - set(bindings))
    uses.visit(tree)
    return uses.found


class Census:
    """The exported names of one package and the files that use each."""

    def __init__(self, package_dir: Path = PACKAGE, roots: Iterable[Path] = ()) -> None:
        self.modules = parse_package(package_dir)
        self.bindings = {
            name: import_bindings(module.tree, module)
            for name, module in self.modules.items()
        }
        self.users: dict[str, set[str]] = defaultdict(set)
        self._base = package_dir.parent.parent
        roots = list(roots) or [self._base / root for root in USERS]
        for root in roots:
            for path in sorted(root.rglob("*.py")):
                self._scan(path)

    def _module_of(self, path: Path) -> Module | None:
        for module in self.modules.values():
            if module.path == path:
                return module
        return None

    def _scan(self, path: Path) -> None:
        module = self._module_of(path)
        if module is not None:
            tree, bindings = module.tree, self.bindings[module.name]
        else:
            tree = ast.parse(path.read_text(), str(path))
            bindings = import_bindings(tree)
        user = str(path.relative_to(self._base))
        for dotted in used_paths(tree, bindings, module and module.name):
            target = self.resolve(dotted)
            if target is None:
                continue
            # A path into a module reaches the module, and each package
            # on the way.
            for path_ in (dotted, target):
                parts = path_.split(".")
                for cut in range(1, len(parts)):
                    if ".".join(parts[:cut]) in self.modules:
                        self.users[".".join(parts[:cut])].add(user)
            self.users[target].add(user)

    def resolve(self, dotted: str) -> str | None:
        """The definition a package path names (a module, or a name in
        the module that binds it other than by import); None if outside."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            head = ".".join(parts[:cut])
            if head in self.modules:
                break
        else:
            return None
        if cut == len(parts):
            return head
        origin = self.bindings[head].get(parts[cut])
        if origin is not None and origin != dotted:
            return self.resolve(".".join([origin, *parts[cut + 1 :]]))
        return f"{head}.{parts[cut]}"

    def exported(self) -> dict[str, str]:
        """Every ``module.name`` in an ``__all__``, mapped to its definition."""
        table = {}
        for name, module in self.modules.items():
            for export in exports(module):
                table[f"{name}.{export}"] = self.resolve(f"{name}.{export}") or ""
        return table

    def stranded(self, kept: dict[str, str] = KEPT) -> list[str]:
        """Exported names no code uses and :data:`KEPT` does not list."""
        return sorted(
            name
            for name, target in self.exported().items()
            if not self.users.get(target) and target not in kept
        )


def main(argv: list[str]) -> int:
    """Print every exported name with the files that use it; return 1 if
    any is stranded."""
    census = Census()
    for name, target in sorted(census.exported().items()):
        users = sorted(census.users.get(target, ()))
        if users:
            note = ", ".join(users)
        elif target in KEPT:
            note = "KEPT: " + KEPT[target]
        else:
            note = "STRANDED"
        print(f"{name}  {note}")
    stranded = census.stranded()
    print(f"{len(census.exported())} exported, {len(stranded)} stranded")
    return 1 if stranded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
