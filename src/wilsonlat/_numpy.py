"""numpy, imported on first use.

Every module of the package binds ``np`` from here.  Until an attribute of
``np`` is read, numpy's own import (about 60 ms, most of the start-up of a
command that needs no array) has not run, so ``--help``, ``sigma``,
``canonicalize`` and every usage error finish without it.  The first
attribute read runs the import in place (``importlib.util.LazyLoader``); a
numpy that is already imported is used as it is.  Before Python 3.12 that
first read is not thread-safe: a threaded program imports numpy itself
before its threads first use the package.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
