"""The package imports numpy and the standard library only, and exports
what it lists."""

import subprocess
import sys
from pathlib import Path

import sparsefolio

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_optional_numeric_stack():
    # pyproject.toml lists numpy as the only dependency; scipy alone would
    # also add a large share of the CLI's start-up time
    code = (
        "import sys; import sparsefolio, sparsefolio.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} "
        "& {'scipy', 'pandas', 'numba'}))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=SRC)
    assert out.stdout.strip() == "[]"


def test_every_listed_export_resolves_once():
    names = sparsefolio.__all__
    assert len(set(names)) == len(names)
    missing = [n for n in names if not hasattr(sparsefolio, n)]
    assert missing == []
