"""The benchmark's span tracer patches package attributes by name."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for group, mod_name, attr, member in spans.TARGETS:
        owner = importlib.import_module(f"conemodes.{mod_name}")
        assert hasattr(owner, attr), group
        if member is not None:
            # the tracer reads cls.__dict__[member]: an inherited or
            # module-level member would raise there
            assert member in vars(getattr(owner, attr)), group
