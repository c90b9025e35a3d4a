"""Tests for what importing gofboot loads and exports."""

import json
import subprocess
import sys

import gofboot
from conftest import env_with_this_gofboot


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports this gofboot; return its stdout."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env_with_this_gofboot(), check=True,
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
            "exact_var_gof", "fit_mle", "generate",
            "gof_term", "iteration_stream", "percentile_interval",
            "run_monte_carlo", "run_test", "theoretical_var_gof", "trigamma",
            "var_gof", "white_test",
        ]

    def test_cli_import_loads_no_scipy_and_no_process_pool(self):
        modules = json.loads(_run_python(
            "import json, sys\n"
            "import gofboot.cli\n"
            "print(json.dumps(list(sys.modules)))\n"
        ))
        assert [m for m in modules if m.split(".")[0] == "scipy"] == []
        assert "concurrent.futures.process" not in modules
        # loaded by the import, not by the first bootstrap
        assert "numpy.random" in modules
