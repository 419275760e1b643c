"""The benchmark's tracer (perfbench/spans.py) wraps library names by their
dotted paths; a refactor that drops or renames one breaks traced benchmark
runs, so every name must still resolve."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import spans  # noqa: E402


def test_tracer_installs_and_restores_every_wrapped_name():
    def current():
        return [getattr(*spans._resolve(target)) for target, _ in spans.WRAPPED]

    before = current()
    with spans.Tracer().installed():
        assert all(hasattr(fn, "__wrapped__") for fn in current())
    assert current() == before
