"""The names the package exports: ``crossdisp.__all__`` against what it imports."""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

import crossdisp
from crossdisp import errors, tails, theory

REMOVED = {
    crossdisp: ["powerlaw_slope", "loglog_tail_fit", "TooFewTailPoints",
                "equicorrelation_dispersion_variance", "dispersion_bounds",
                "EquicorrelatedFamily", "TermLimits", "NoLimit"],
    tails: ["powerlaw_slope", "loglog_tail_fit", "LOGLOG", "TooFewTailPoints"],
    theory: ["equicorrelation_dispersion_variance", "dispersion_bounds",
             "EquicorrelatedFamily", "TermLimits", "NoLimit"],
    errors: ["TooFewTailPoints", "NoLimit"],
}


def imported_public_names() -> set[str]:
    tree = ast.parse(inspect.getsource(crossdisp))
    names = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    return {name for name in names if not name.startswith("_") or name.endswith("__")}


def test_every_exported_name_resolves_once():
    assert len(crossdisp.__all__) == len(set(crossdisp.__all__))
    for name in crossdisp.__all__:
        assert getattr(crossdisp, name) is not None


def test_exports_are_the_imported_public_names():
    assert set(crossdisp.__all__) == imported_public_names()


@pytest.mark.parametrize("module", REMOVED, ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    for name in REMOVED[module]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_a_tail_estimate_has_no_method_field():
    assert [f.name for f in fields(crossdisp.TailEstimate)] == ["alpha", "k", "n"]


def test_the_package_version_is_the_project_version():
    # every JSON report writes crossdisp.__version__ as meta.version; pyproject.toml is
    # read as text, since Python 3.10 has no tomllib
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version\s*=\s*"([^"]*)"$', project, re.M) == [crossdisp.__version__]
