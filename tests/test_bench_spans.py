"""The benchmark tracer's span table must name functions that exist.

`bench/tracing.py` wraps each (module, attribute) in SPANS by name, so a
renamed or deleted function would only fail once `bench/run.py --trace 1`
runs. The file is read and executed from source, which writes nothing
under bench/.
"""
import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_span_resolves():
    spans = runpy.run_path(str(TRACING))["SPANS"]
    assert spans
    for module_name, attr, _ in spans:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(getattr(module, cls_name).__dict__.get(meth)), (module_name, attr)
        else:
            assert callable(module.__dict__.get(attr)), (module_name, attr)
