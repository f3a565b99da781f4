"""The traced benchmark run wraps functions where their callers look them
up; a refactor that drops or renames one of those names must fail here,
not only when ``bench/run.py --trace 1`` installs its wrappers."""

import importlib.util
import os

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py"))
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)  # standard library imports only

SITES = [(layer, path, attr) for layer, _, sites in tracing.LAYERS for path, attr in sites]


@pytest.mark.parametrize("layer, path, attr", SITES, ids=[f"{p}.{a}" for _, p, a in SITES])
def test_every_traced_site_resolves_to_a_callable(layer, path, attr):
    owner = tracing._owner(path)
    assert callable(getattr(owner, attr, None)), f"{layer}: {path} has no callable {attr!r}"
