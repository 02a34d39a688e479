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

The same census counts who *sets* each field of a ``repro`` dataclass
named ``*Config``, ``*Plan`` or ``*Policy``.  A field is set by a
keyword argument outside its own module: in a call to the class itself;
in a call to ``dataclasses.replace`` or to a bare name the census cannot
follow (a builtin ``dict``, a parameter), which might build any class;
or in a call to a function that forwards its ``**`` keywords into the
class (its return annotation names the class, or it calls the class
with ``**``, itself or through another such function, in the package or
in a file the caller imports it from).  A keyword to a method of an
object the census cannot type sets nothing, and neither does one that
only passes on an attribute of its own name (``replicas=config.replicas``).
A string naming a sweep axis (``sweep.axis("codec", ...)``) sets a field
too.  The flags the CLI generates from field
metadata are not keywords and do not count.  A field must be set
outside ``tests/``, or be listed in :data:`KEPT_FIELDS` with the reason
it stays.

The census also lists every top-level import nothing in its file uses,
over ``src/``, ``tests/`` and ``benchmarks/`` (what CI's ``ruff check``
reports as F401).

List every exported name with the files that use it, then every config
field with the files that set it, then every unused import::

    PYTHONPATH=src python -m tests.reach
"""

from __future__ import annotations

import ast
import re
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
USERS = ("src", "bench", "benchmarks", "examples")
#: The trees CI's lint job checks.
LINTED = tuple(ROOT / root for root in ("src", "tests", "benchmarks"))

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


#: Config fields no code outside ``tests/`` sets, kept for a reason.
#: A reason of :data:`TESTS_ONLY` claims that tests set the field to reach
#: a branch no run takes; the listing names those tests.
TESTS_ONLY = "tests set it to reach a branch"
KEPT_FIELDS: dict[str, str] = {
    **dict.fromkeys(
        [
            "repro.core.autoscale.AutoscalePolicy.down_idle_s",
            "repro.core.baselines.rounds.RoundConfig.batch_size",
            "repro.core.baselines.rounds.RoundConfig.data",
            "repro.core.baselines.rounds.RoundConfig.model",
            "repro.core.baselines.rounds.RoundConfig.num_train",
            "repro.core.baselines.rounds.RoundConfig.num_val",
            "repro.core.job.LocalTrainingConfig.batch_size",
            "repro.core.job.TrainingJobConfig.codec_topk",
            "repro.core.job.TrainingJobConfig.max_param_norm",
            "repro.core.job.TrainingJobConfig.work_fetch",
            "repro.data.synthetic.SyntheticImageConfig.channels",
            "repro.obs.runtime.ObservabilityConfig.strict_audit",
        ],
        TESTS_ONLY,
    ),
    **dict.fromkeys(
        [
            "repro.core.autoscale.AutoscalePolicy.up_threshold",
            "repro.core.autoscale.AutoscalePolicy.down_threshold",
        ],
        "the controller's scale trigger; a test sets it through a ** dict, "
        "which the census does not read, to reach the bound check",
    ),
    **dict.fromkeys(
        [
            "repro.core.job.FaultConfig.corrupt_clients",
            "repro.core.job.FaultConfig.corruption_scale",
        ],
        "the pinned golden byzantine/plain_corrupt runs with it",
    ),
    "repro.core.job.TrainingJobConfig.codec_quant": (
        "the pinned golden codec_lossy/topk_int8_downpour runs with it"
    ),
    "repro.core.job.LocalTrainingConfig.optimizer": (
        "the pinned single-instance goldens of test_comparator_golden.py "
        "train with SGD"
    ),
    **dict.fromkeys(
        [
            "repro.obs.runtime.ObservabilityConfig.metrics",
            "repro.obs.runtime.ObservabilityConfig.spans",
        ],
        "OBSERVABILITY_OFF, its module's preset, sets it, and "
        "benchmarks/test_telemetry_fig2.py runs with that preset",
    ),
}

#: A dataclass whose fields the census counts setters of.
CONFIG_CLASS = re.compile(r"(Config|Plan|Policy)$")


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


def _absolute(module: Module | None, node: ast.ImportFrom) -> str | None:
    """The module an import reads from; None for a relative import outside
    the package, whose names the census cannot follow."""
    if not node.level:
        return node.module or ""
    if module is None:
        return None
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
            if origin is None:
                continue
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        chain = _chain(decorator.func if isinstance(decorator, ast.Call) else decorator)
        if chain and chain[-1] == "dataclass":
            return True
    return False


def config_fields(module: Module) -> dict[str, list[str]]:
    """The fields of each ``*Config``/``*Plan``/``*Policy`` dataclass a
    module defines, keyed by the class's dotted name."""
    table = {}
    for node in module.tree.body:
        if (
            isinstance(node, ast.ClassDef)
            and CONFIG_CLASS.search(node.name)
            and _is_dataclass(node)
        ):
            table[f"{module.name}.{node.name}"] = [
                statement.target.id
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
            ]
    return table


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


@dataclass(frozen=True)
class _Source:
    """One parsed file the census scans, and what its names are bound to
    (``own``: a package module's top-level definitions)."""

    path: Path
    tree: ast.Module
    bindings: dict[str, str]
    module: Module | None
    own: set[str]


class Census:
    """The exported names and config fields of one package, with the files
    that use each name and set each field."""

    def __init__(self, package_dir: Path = PACKAGE, roots: Iterable[Path] = ()) -> None:
        self.modules = parse_package(package_dir)
        self.bindings = {
            name: import_bindings(module.tree, module)
            for name, module in self.modules.items()
        }
        self.users: dict[str, set[str]] = defaultdict(set)
        #: ``module.Class.field`` -> the files that set it.
        self.setters: dict[str, set[str]] = defaultdict(set)
        self.fields = {
            name: fields
            for module in self.modules.values()
            for name, fields in config_fields(module).items()
        }
        self._classes_with: dict[str, list[str]] = defaultdict(list)
        for name, fields in self.fields.items():
            for field in fields:
                self._classes_with[field].append(name)
        self._base = package_dir.parent.parent
        self._sources: dict[Path, _Source] = {}
        self._forwards: dict[tuple[Path, int], frozenset[str] | None] = {}
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
        source = self._source(path)
        user = str(path.relative_to(self._base))
        self._scan_setters(source, user)
        module = source.module
        for dotted in used_paths(source.tree, source.bindings, module and module.name):
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

    def _source(self, path: Path) -> _Source:
        """The parsed file at ``path``, with what its names are bound to."""
        if path not in self._sources:
            module = self._module_of(path)
            if module is not None:
                tree, bindings = module.tree, self.bindings[module.name]
                own = top_level_names(tree) - set(bindings)
            else:
                tree = ast.parse(path.read_text(), str(path))
                bindings, own = import_bindings(tree), set()
            self._sources[path] = _Source(path, tree, bindings, module, own)
        return self._sources[path]

    def _scan_setters(self, source: _Source, user: str) -> None:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "axis"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                for cls in self._classes_with.get(node.args[0].value, ()):
                    self._record(cls, node.args[0].value, user)
            targets = self._targets(func, source)
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            for keyword in node.keywords:
                for cls in self._classes_with.get(keyword.arg, ()):
                    direct = targets == {cls} and called == cls.rpartition(".")[2]
                    if direct or self._sets(cls, targets, keyword):
                        self._record(cls, keyword.arg, user)

    def _record(self, cls: str, field: str, user: str) -> None:
        """Note ``user`` as a setter of ``cls.field``, unless it is the
        class's own module."""
        module = self.modules[cls.rpartition(".")[0]]
        if str(module.path.relative_to(self._base)) != user:
            self.setters[f"{cls}.{field}"].add(user)

    @staticmethod
    def _sets(cls: str, targets: frozenset[str] | None, keyword: ast.keyword) -> bool:
        """Whether ``keyword``, in a call whose keywords reach ``targets``
        (None: any class), sets a field of ``cls``."""
        value = keyword.value
        if isinstance(value, ast.Attribute) and value.attr == keyword.arg:
            return False  # passes on a value set elsewhere
        return targets is None or cls in targets

    def _callee(self, chain: list[str], source: _Source) -> str | None:
        """The dotted path a callee names (its definition, if in the
        package); None for a builtin, a local name or a method."""
        if chain[0] in source.bindings:
            head = source.bindings[chain[0]]
        elif chain[0] in source.own:
            head = f"{source.module.name}.{chain[0]}"
        else:
            return None
        dotted = ".".join([head, *chain[1:]])
        return self.resolve(dotted) or dotted

    def _targets(self, func: ast.expr, source: _Source) -> frozenset[str] | None:
        """The config classes a call's keywords reach: the class called, or
        the classes a helper forwards its ``**`` into; None for any class
        (``dataclasses.replace``, or a callee the census cannot follow,
        such as a builtin ``dict``)."""
        chain = _chain(func)
        if chain is None:
            return frozenset()
        callee = self._callee(chain, source)
        if callee == "dataclasses.replace":
            return None
        if callee in self.fields:
            if chain[-1] == callee.rpartition(".")[2]:
                return frozenset([callee])
            callee += "." + chain[-1]  # a method of the class
        definition = self._definition(chain, callee, source)
        if definition is not None:
            return self._forwarded(*definition)
        # A name the census cannot follow (a builtin, a parameter, a local)
        # might build any class; a method or a library builds none of ours.
        return None if callee is None and len(chain) == 1 else frozenset()

    def _definition(
        self, chain: list[str], callee: str | None, source: _Source
    ) -> tuple[ast.FunctionDef, _Source] | None:
        """The ``def`` a call runs, with the file it is in: a package
        callable, or a top-level function of the calling file or of the
        file it imports it from."""
        module, _, name = (callee or "").rpartition(".")
        method = None
        if module not in self.modules:  # a method, called on its class
            module, _, cls = module.rpartition(".")
            name, method = cls, name
        if module in self.modules:
            home = self._source(self.modules[module].path)
        elif len(chain) == 1 and self._home_of(chain[0], source) is not None:
            home, name, method = self._home_of(chain[0], source), chain[0], None
        else:
            return None
        node = next((n for n in home.tree.body if getattr(n, "name", None) == name), None)
        if isinstance(node, ast.ClassDef):
            method = method or "__init__"
            node = next((n for n in node.body if getattr(n, "name", None) == method), None)
        if isinstance(node, ast.FunctionDef):
            return node, home
        return None

    def _home_of(self, name: str, source: _Source) -> _Source | None:
        """The file outside the package a name comes from: the calling file
        if it defines the name, or a file it imports the name from."""
        if name in top_level_names(source.tree):
            return source
        for node in source.tree.body:
            if isinstance(node, ast.ImportFrom) and any(
                (alias.asname or alias.name) == name for alias in node.names
            ):
                base = source.path.parent
                for _ in range(node.level - 1):
                    base = base.parent
                parts = (node.module or "").split(".")
                for root in ((base,) if node.level else (source.path.parent, self._base)):
                    path = root.joinpath(*parts).with_suffix(".py")
                    if path.is_file() and self._module_of(path) is None:
                        return self._source(path)
        return None

    def _forwarded(self, node: ast.FunctionDef, home: _Source) -> frozenset[str] | None:
        """The config classes a callable's ``**`` keywords reach: the class
        its return annotation names, else every class it calls with
        ``**``, directly or through another such callable (None: any)."""
        key = (home.path, node.lineno)
        if key not in self._forwards:
            self._forwards[key] = frozenset()  # a recursive call adds nothing
            if node.args.kwarg is not None:
                self._forwards[key] = self._forward_targets(node, home)
        return self._forwards[key]

    def _forward_targets(self, node: ast.FunctionDef, home: _Source) -> frozenset[str] | None:
        returns = _chain(node.returns) if node.returns is not None else None
        named = returns and self._callee(returns, home)
        if named in self.fields:
            return frozenset([named])
        classes: frozenset[str] = frozenset()
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and any(k.arg is None for k in call.keywords):
                targets = self._targets(call.func, home)
                if targets is None:
                    return None
                classes |= targets
        return classes

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


    def field_names(self) -> list[str]:
        """Every census field, as ``module.Class.field``."""
        return [f"{cls}.{field}" for cls, fields in self.fields.items() for field in fields]

    def stranded_fields(self, kept: dict[str, str] = KEPT_FIELDS) -> list[str]:
        """Config fields no code sets and :data:`KEPT_FIELDS` does not list."""
        return sorted(
            name for name in self.field_names() if not self.setters.get(name) and name not in kept
        )

    def stale_kept_fields(self, kept: dict[str, str] = KEPT_FIELDS) -> list[str]:
        """Entries of ``kept`` that name no census field, or one code sets."""
        fields = set(self.field_names())
        return sorted(name for name in kept if name not in fields or self.setters.get(name))


def _names_in(tree: ast.AST) -> set[str]:
    """The names code loads, the heads of attribute chains, the names in
    a string that parses as an expression (a quoted annotation) and the
    entries of ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _names_in(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
            names.add(node.value)  # an ``__all__`` entry
    return names


def unused_imports(roots: Iterable[Path] = LINTED) -> list[str]:
    """Every top-level import nothing in its file uses, as ``path:line
    name`` (what ``ruff check``'s F401 reports; a ``noqa`` line and
    ``__future__`` are exempt)."""
    hits = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            text = path.read_text()
            lines = text.splitlines()
            tree = ast.parse(text, str(path))
            used = _names_in(tree)
            for node in tree.body:
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if getattr(node, "module", None) == "__future__":
                    continue
                if "# noqa" in lines[node.lineno - 1] and "F401" in lines[node.lineno - 1]:
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in used:
                        where = path.relative_to(root.parent)
                        hits.append(f"{where}:{node.lineno} {alias.asname or alias.name}")
    return hits


def setters_in_tests() -> dict[str, set[str]]:
    """The files under ``tests/`` that set each config field."""
    return Census(roots=[ROOT / "tests"]).setters


def main(argv: list[str]) -> int:
    """Print every exported name with the files that use it, every config
    field with the files that set it, and every unused import; return 1
    if any name or field is stranded or any import unused."""
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
    in_tests = setters_in_tests()
    names = sorted(census.field_names())
    for name in names:
        if census.setters.get(name):
            note = ", ".join(sorted(census.setters[name]))
        elif name in KEPT_FIELDS:
            note = f"KEPT: {KEPT_FIELDS[name]}"
            if KEPT_FIELDS[name] == TESTS_ONLY:
                count = len(in_tests.get(name, ()))
                note += f" ({count} test file{'' if count == 1 else 's'})"
        else:
            note = "STRANDED"
        print(f"{name}  {note}")
    stranded_fields = census.stranded_fields()
    print(f"{len(names)} config fields, {len(stranded_fields)} stranded")
    unused = unused_imports()
    for hit in unused:
        print(f"{hit}  UNUSED IMPORT")
    print(f"{len(unused)} unused imports")
    return 1 if stranded or stranded_fields or unused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
