"""numpy, loaded on its first attribute access rather than at import.

A process that enumerates no field never pays numpy's import: closed-form
scans, cache replays, ``dickson generate/recognize``, ``--help`` and usage
errors.  The modules that use numpy bind it with ``from ._numpy import np``
and must not run ``import numpy`` themselves: on Python 3.10 and 3.11 that
statement reads ``__spec__`` from the module in ``sys.modules``, and the
read loads it.  The lazy module is registered as ``sys.modules["numpy"]``,
because numpy's own relative imports look their parent up there.  Where
numpy cannot be found (absent, or ``sys.modules["numpy"]`` is None) a plain
import raises the usual ModuleNotFoundError.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        import numpy as np
    else:
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        np = importlib.util.module_from_spec(_spec)
        sys.modules["numpy"] = np
        _spec.loader.exec_module(np)
