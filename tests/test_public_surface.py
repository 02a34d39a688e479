"""Every name a ``repro`` module exports must exist.

Deletion PRs remove classes and functions; a name left behind in an
``__all__`` only fails when somebody star-imports it.  This walks every
module in the package and resolves every exported name.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")
    ]
    exported = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    assert len(exported) > 500  # the walk really found the package
    stale = [f"{m.__name__}.{name}" for m, name in exported if not hasattr(m, name)]
    assert not stale
