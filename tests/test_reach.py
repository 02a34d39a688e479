"""The reach guard: every exported name is used by code, or kept for a reason."""

from __future__ import annotations

import textwrap
from pathlib import Path

from .reach import KEPT, Census, main


def test_every_exported_name_is_used_outside_tests_or_kept():
    stranded = Census().stranded()
    assert not stranded, "exported, but no code outside tests/ uses:\n" + "\n".join(
        stranded
    )


def test_every_kept_name_is_exported_and_otherwise_stranded():
    census = Census()
    exported = set(census.exported().values())
    stale = [name for name in KEPT if name not in exported or census.users.get(name)]
    assert stale == []


def test_the_listing_names_each_user_and_ends_with_the_count(capsys):
    assert main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "repro.nn.optim.Adam  src/repro/nn/cohort.py" in lines
    assert lines[-1].endswith(" exported, 0 stranded")


def write(root: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def census_of(tmp_path: Path, files: dict[str, str]) -> Census:
    """A census of a made-up package ``pkg`` under ``tmp_path/src``."""
    write(tmp_path, files)
    return Census(tmp_path / "src" / "pkg", [tmp_path / "src", tmp_path / "app"])


PACKAGE = {
    "src/pkg/__init__.py": """
        from .ops import used
        __all__ = ["used"]
    """,
    "src/pkg/ops.py": """
        import numpy as np
        __all__ = ["used", "helper", "unused", "stack", "recursive"]

        def used(x):
            return helper(np.stack(x))

        def helper(x):
            stack = x  # a local name is not the exported one
            return stack

        def unused():
            return 0

        def stack(xs):
            return xs

        def recursive(n):
            return recursive(n - 1) if n else 0
    """,
    "app/main.py": """
        import numpy as np
        import pkg
        from pkg import ops as F
        F.used([np.zeros(1)])
        pkg.used([])
        np.stack([])
    """,
}


def test_a_use_resolves_through_import_aliases_and_re_exports(tmp_path):
    census = census_of(tmp_path, PACKAGE)
    assert census.users["pkg.ops.used"] == {"app/main.py"}
    assert census.exported()["pkg.used"] == "pkg.ops.used"
    # ``helper`` is reached from ``used`` in its own module.
    assert census.users["pkg.ops.helper"] == {"src/pkg/ops.py"}


def test_an_unused_export_is_stranded(tmp_path):
    assert "pkg.ops.unused" in census_of(tmp_path, PACKAGE).stranded()


def test_a_name_used_only_as_a_numpy_attribute_is_stranded(tmp_path):
    assert "pkg.ops.stack" in census_of(tmp_path, PACKAGE).stranded()


def test_a_use_inside_its_own_definition_does_not_count(tmp_path):
    census = census_of(tmp_path, PACKAGE)
    assert census.stranded() == ["pkg.ops.recursive", "pkg.ops.stack", "pkg.ops.unused"]
    assert census.stranded(kept={"pkg.ops.unused": "", "pkg.ops.stack": ""}) == [
        "pkg.ops.recursive"
    ]
