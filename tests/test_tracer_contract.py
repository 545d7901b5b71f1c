"""The names perfbench's span tracer wraps must exist in npscan.

perfbench/tracing.py lists each layer as (module, dotted paths) in
LAYERS and resolves them when a traced run starts; its route label reads
kernels.ZECH_MIN_Q and kernels.ZECH_MAX_Q.  A rename or deletion in src/
would otherwise surface only when a `--trace 1` benchmark run fails.
"""

import importlib
import importlib.util
import pathlib

from npscan import kernels

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layers = load_tracing().LAYERS
    assert layers
    for key, (module, paths, _) in layers.items():
        for path in paths:
            owner = importlib.import_module(module)  # as Tracer.install does
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            assert callable(getattr(owner, attr)), (key, module, path)


def test_route_cutoffs_exist():
    assert kernels.ZECH_MIN_Q <= kernels.ZECH_MAX_Q
