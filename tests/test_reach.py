"""The reach guard: every exported name is used by code, and every config
field is set by code, or kept for a reason."""

from __future__ import annotations

import textwrap
from pathlib import Path

from .reach import (
    KEPT,
    KEPT_FIELDS,
    TESTS_ONLY,
    Census,
    main,
    setters_in_tests,
    unused_imports,
)


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


def test_every_config_field_is_set_outside_tests_or_kept():
    stranded = Census().stranded_fields()
    assert not stranded, "no code outside tests/ sets:\n" + "\n".join(stranded)


def test_every_kept_field_is_a_field_nothing_outside_tests_sets():
    assert Census().stale_kept_fields() == []


def test_a_field_kept_for_tests_is_set_by_a_test():
    in_tests = setters_in_tests()
    unset = [
        name
        for name, reason in KEPT_FIELDS.items()
        if reason == TESTS_ONLY and not in_tests.get(name)
    ]
    assert unset == []


def test_the_listing_names_each_user_and_ends_with_the_count(capsys):
    assert main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "repro.nn.optim.Adam  src/repro/nn/cohort.py" in lines
    assert "repro.simulation.chaos.TransferFaultPlan.stall_p  bench/workloads.py" in lines
    assert any(line.endswith(" exported, 0 stranded") for line in lines)
    assert any(line.endswith(" config fields, 0 stranded") for line in lines)
    assert lines[-1] == "0 unused imports"


def test_no_file_imports_a_name_it_does_not_use():
    assert unused_imports() == []


def test_an_import_used_only_in_a_quoted_annotation_or_noqa_is_no_hit(tmp_path):
    write(
        tmp_path,
        {
            "src/mod.py": """
                from __future__ import annotations
                import os
                import numpy as np
                from typing import Any, Callable
                from pkg import kept  # noqa: F401
                __all__ = ["Callable"]

                def f(x: "Any") -> None:
                    return np.sum(x)
            """,
        },
    )
    assert unused_imports([tmp_path / "src"]) == ["src/mod.py:3 os"]


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


def field_census(tmp_path: Path, files: dict[str, str]) -> Census:
    """A census of a made-up package ``pkg`` and the code that sets its
    config fields under ``bench/``, ``benchmarks/`` and ``app/``."""
    write(tmp_path, files)
    roots = [tmp_path / root for root in ("src", "bench", "benchmarks", "app")]
    return Census(tmp_path / "src" / "pkg", roots)


CONFIG = {
    "src/pkg/__init__.py": "",
    "src/pkg/config.py": """
        from dataclasses import dataclass
        __all__ = ["JobConfig"]

        @dataclass(frozen=True)
        class JobConfig:
            workers: int = 1
            rounds: int = 1
            axis_field: int = 0
            helper_field: int = 0
            seed: int = 0
            passed_on: int = 0
            own_only: int = 0
            tests_only: int = 0
            dict_field: int = 0
            method_only: int = 0
            other_helper: int = 0

        @dataclass(frozen=True)
        class OtherConfig:
            level: int = 0

        QUICK = JobConfig(own_only=2)

        def start(seed):
            return seed
    """,
    "bench/run.py": """
        from pkg.config import JobConfig
        JobConfig(workers=4)
    """,
    "benchmarks/test_rounds.py": """
        import dataclasses
        from pkg import config
        dataclasses.replace(config.JobConfig(), rounds=3)
    """,
    "app/main.py": """
        from pkg.config import JobConfig, start

        def job(**overrides):
            return JobConfig(**overrides)

        def run(config, sweep, pool):
            sweep.axis("axis_field", [1, 2])
            job(helper_field=1)
            start(seed=3)
            pool.launch(passed_on=config.passed_on)
            dict(dict_field=1)
            trace.emit(method_only=1)
    """,
    "app/jobs/__init__.py": "",
    "app/jobs/helpers.py": """
        from pkg.config import OtherConfig

        def other(**overrides) -> OtherConfig:
            return OtherConfig(**overrides)
    """,
    "app/jobs/run.py": """
        from .helpers import other
        other(level=1, other_helper=2)
    """,
    "tests/test_config.py": """
        from pkg.config import JobConfig
        JobConfig(tests_only=1)
    """,
}


def test_a_keyword_in_a_bench_or_benchmarks_call_sets_a_field(tmp_path):
    census = field_census(tmp_path, CONFIG)
    assert census.setters["pkg.config.JobConfig.workers"] == {"bench/run.py"}
    # ``dataclasses.replace`` on an instance sets the field too.
    assert census.setters["pkg.config.JobConfig.rounds"] == {"benchmarks/test_rounds.py"}


def test_a_sweep_axis_string_and_a_forwarding_helper_set_a_field(tmp_path):
    census = field_census(tmp_path, CONFIG)
    assert census.setters["pkg.config.JobConfig.axis_field"] == {"app/main.py"}
    assert census.setters["pkg.config.JobConfig.helper_field"] == {"app/main.py"}


def test_a_field_set_only_in_tests_or_its_own_module_is_stranded(tmp_path):
    assert field_census(tmp_path, CONFIG).stranded_fields() == [
        "pkg.config.JobConfig.method_only",
        "pkg.config.JobConfig.other_helper",
        "pkg.config.JobConfig.own_only",
        "pkg.config.JobConfig.passed_on",
        "pkg.config.JobConfig.seed",
        "pkg.config.JobConfig.tests_only",
    ]


def test_a_package_callable_or_a_passed_on_value_sets_no_field(tmp_path):
    census = field_census(tmp_path, CONFIG)
    # ``start(seed=3)`` is start's parameter; ``passed_on=config.passed_on``
    # hands on a value something else set.
    assert not census.setters.get("pkg.config.JobConfig.seed")
    assert not census.setters.get("pkg.config.JobConfig.passed_on")


def test_a_method_sets_no_field_and_a_helper_sets_only_its_own_class(tmp_path):
    census = field_census(tmp_path, CONFIG)
    # ``trace.emit(method_only=1)``: the census cannot type ``trace``.
    assert not census.setters.get("pkg.config.JobConfig.method_only")
    # ``other`` (imported from a sibling file) forwards into OtherConfig.
    assert census.setters["pkg.config.OtherConfig.level"] == {"app/jobs/run.py"}
    assert not census.setters.get("pkg.config.JobConfig.other_helper")
    # A builtin ``dict`` might become any config, so it still counts.
    assert census.setters["pkg.config.JobConfig.dict_field"] == {"app/main.py"}


def test_a_stale_kept_field_is_reported(tmp_path):
    census = field_census(tmp_path, CONFIG)
    kept = {
        "pkg.config.JobConfig.own_only": "",
        "pkg.config.JobConfig.workers": "",
        "pkg.config.JobConfig.gone": "",
    }
    assert census.stale_kept_fields(kept) == [
        "pkg.config.JobConfig.gone",
        "pkg.config.JobConfig.workers",
    ]
    assert "pkg.config.JobConfig.own_only" not in census.stranded_fields(kept)
