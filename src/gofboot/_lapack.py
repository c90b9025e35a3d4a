"""LAPACK ``dgelsy`` from scipy's Fortran wrapper, without importing scipy.

``import scipy.linalg`` costs about 0.3 s, most of it array-API and f2py
machinery that gofboot never uses, while the least-squares kernel needs
only two functions of the compiled extension ``scipy.linalg._flapack``.
That extension is loaded here from scipy's package directory, found
without executing scipy's ``__init__``, and registered under its real
name. A later ``import scipy.linalg`` finds it in ``sys.modules``, so
``scipy.linalg.lapack.dgelsy`` is the very function used here.

A scipy whose ``__init__`` must run before the extension can find its
BLAS library makes the direct load raise ``ImportError``; the functions
then come from ``scipy.linalg.lapack.get_lapack_funcs``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def gelsy_functions(package_dir: str | None = None):
    """Return ``(dgelsy, dgelsy_lwork)``, the functions scipy's gelsy ``lstsq`` calls.

    ``package_dir`` is scipy's package directory; by default that of the
    installed scipy, located without importing it.
    """
    try:
        if package_dir is None:
            spec = importlib.util.find_spec("scipy")
            if spec is None or not spec.submodule_search_locations:
                raise ImportError("scipy is not installed as a package")
            package_dir = spec.submodule_search_locations[0]
        flapack = sys.modules.get(_NAME) or _load_flapack(package_dir)
        return flapack.dgelsy, flapack.dgelsy_lwork
    except ImportError:
        import numpy as np
        from scipy.linalg.lapack import get_lapack_funcs

        return tuple(get_lapack_funcs(("gelsy", "gelsy_lwork"), dtype=np.float64))


def _load_flapack(package_dir: str):
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(package_dir, "linalg", "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no {_NAME} extension under {package_dir}")
    loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_NAME, path, loader=loader)
    )
    loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


dgelsy, dgelsy_lwork = gelsy_functions()
