"""What ``import cspace`` loads, and the package names that load on first use."""

from __future__ import annotations

from xml.sax.saxutils import escape

import pytest
from conftest import run_fresh
from hypothesis import given
from hypothesis import strategies as st

import cspace
from cspace.render import _escape

# Modules of the stdlib networking stack that xml.sax.saxutils pulls in.
NETWORKING = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket")


def test_import_and_build_load_no_networking_and_no_render():
    loaded = run_fresh(
        "import json, sys\n"
        "import cspace\n"
        "cspace.build_surface(cspace.get_metric('f1'), 2.0, cspace.GridSpec(8))\n"
        f"print(json.dumps([m for m in {NETWORKING + ('cspace.render',)!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_cli_import_loads_no_networking():
    loaded = run_fresh(
        "import json, sys\n"
        "import cspace.cli\n"
        "print(json.dumps([m for m in ('xml.sax', 'urllib.request', 'ssl') if m in sys.modules]))\n"
    )
    assert loaded == []


def test_lazy_names_are_listed_before_and_bound_after_first_use():
    out = run_fresh(
        "import json, sys\n"
        "import cspace\n"
        "listed = set(cspace.__all__) <= set(dir(cspace))\n"
        "before = 'cspace.render' in sys.modules\n"
        "svg = cspace.render_surface_svg\n"
        "print(json.dumps([listed, before, svg is sys.modules['cspace.render'].render_surface_svg]))\n"
    )
    assert out == [True, False, True]


def test_every_public_name_resolves_and_star_import_binds_it():
    for name in cspace.__all__:
        assert getattr(cspace, name) is not None
    namespace: dict = {}
    exec("from cspace import *", namespace)
    assert set(cspace.__all__) <= set(namespace)
    assert set(cspace.__all__) <= set(dir(cspace))


def test_the_library_has_one_error_type():
    classes = [v for v in vars(cspace.errors).values() if isinstance(v, type) and v.__module__ == "cspace.errors"]
    assert classes == [cspace.CspaceError] and issubclass(cspace.CspaceError, ValueError)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cspace.no_such_name  # noqa: B018


@pytest.mark.parametrize("first", ["import cspace.sensitivity", "import cspace.cli", "import cspace.render"])
def test_sensitivity_stays_the_function(first):
    out = run_fresh(
        f"import inspect, json\n{first}\nimport cspace.sensitivity, cspace.cli\n"
        "print(json.dumps([inspect.isfunction(cspace.sensitivity), cspace.sensitivity.__module__]))\n"
    )
    assert out == [True, "cspace.sensitivity"]


@given(st.text())
def test_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)


def test_escape_does_not_escape_twice():
    assert _escape("a&lt;<b>&") == "a&amp;lt;&lt;b&gt;&amp;"
