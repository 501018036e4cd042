"""The package surface: no heavy imports, and byte-stable CLI output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from circlelens.cli import main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_sympy():
    code = ("import sys, circlelens, circlelens.cli; "
            "assert 'sympy' not in sys.modules, 'sympy was imported'")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.mark.parametrize("name", ["uniform-n12-s5", "uniform-n16-s9",
                                  "grid-n12-s3"])
def test_lenses_output_is_byte_identical(name, capsys):
    # expected files were written by the square-free kernel that factored
    # every radicand; printing strips squares without factoring
    assert main(["lenses", str(DATA / f"{name}.scene")]) == 0
    out, _ = capsys.readouterr()
    assert out == (DATA / f"{name}.lenses.csv").read_text()
