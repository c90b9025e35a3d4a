"""Tests for how gofboot reaches LAPACK, what importing it loads and exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.linalg.lapack

import gofboot
from gofboot import _lapack, regression


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports this gofboot; return its stdout."""
    env = dict(os.environ)
    src = str(Path(gofboot.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout


class TestImportContract:
    def test_public_names(self):
        # no helper that the program itself bypasses is exported
        assert sorted(gofboot.__all__) == [
            "AuxTestResult", "BootstrapConfig", "DataFormatError", "Dataset",
            "DegenerateFitError", "ExclusionLimitError", "FittedModel",
            "GofTestResult", "GofbootError", "InsufficientDataError",
            "ModelSpec", "RankDeficientError", "RedrawLimitError",
            "ScenarioSpec", "SimReport", "SingularInformationError", "aic",
            "bic", "breusch_pagan", "chi_squared_cdf", "chi_squared_sf",
            "exact_var_gof", "fit_mle", "fitted_spec_for", "generate",
            "gof_term", "iteration_stream", "percentile_interval",
            "run_monte_carlo", "run_test", "theoretical_var_gof", "trigamma",
            "var_gof", "white_test",
        ]

    def test_cli_import_loads_only_flapack_of_scipy_and_no_process_pool(self):
        out = json.loads(_run_python(
            "import json, sys\n"
            "started = []\n"
            "sys.addaudithook(lambda event, args: event == 'import'"
            " and started.append(args[0]))\n"
            "import gofboot.cli\n"
            "print(json.dumps({'modules': list(sys.modules), 'started': started}))\n"
        ))
        modules = out["modules"]
        assert [m for m in modules if m.split(".")[0] == "scipy"] == [
            "scipy.linalg._flapack"
        ]
        assert "concurrent.futures.process" not in modules
        # loaded by the import, not by the first bootstrap
        assert "numpy.random" in modules
        # sys.modules orders modules by when their import finished, and numpy
        # finishes inside _lapack's, so the audit events give the start order.
        started = out["started"]
        assert started.index("gofboot._lapack") < started.index("numpy")


class TestGelsyFunctions:
    def test_are_scipys_own(self):
        assert regression._gelsy is scipy.linalg.lapack.dgelsy
        assert regression._gelsy_lwork is scipy.linalg.lapack.dgelsy_lwork

    def test_are_scipys_own_when_scipy_is_imported_first(self):
        out = _run_python(
            "import scipy.linalg\n"
            "from scipy.linalg import lapack\n"
            "from gofboot import regression\n"
            "print(regression._gelsy is lapack.dgelsy,"
            " regression._gelsy_lwork is lapack.dgelsy_lwork)\n"
        )
        assert out.split() == ["True", "True"]

    def test_fall_back_to_scipy_when_extension_is_missing(self, tmp_path, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        dgelsy, dgelsy_lwork = _lapack.gelsy_functions(str(tmp_path))
        assert dgelsy is scipy.linalg.lapack.dgelsy
        assert dgelsy_lwork is scipy.linalg.lapack.dgelsy_lwork
