"""Every name a package exports must exist.

A name left in ``__all__`` after its definition went still lets the package
import, but ``from package import *`` raises; nothing else notices.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)


def test_every_subpackage_is_checked():
    assert {"repro.baselines", "repro.river", "repro.river.operators", "repro.timeseries"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", None)
    assert exported, f"{name} declares no __all__"
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [item for item in exported if not hasattr(package, item)]
    assert missing == [], f"{name}.__all__ names what it does not define: {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
