"""The benchmark tracer's binding table still matches the package.

``perfbench/tracing.py`` wraps package functions where the calling module
binds them, looking each one up in ``owner.__dict__``; a refactor that
moves or drops one of those bindings breaks every traced benchmark run
with a ``KeyError``. The tracer module is loaded here, never modified.
"""
import importlib.util
from pathlib import Path

from epilattice import grid

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_are_bound_where_wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.TARGETS if attr not in owner.__dict__]
    assert missing == []
    # read by tracing.convolve_bytes
    assert isinstance(grid.DIRECT_SUPPORT_MAX, int)
