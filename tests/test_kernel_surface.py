"""The package surface: no heavy imports, and byte-stable CLI output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from circlelens.cli import main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(code: str) -> str:
    """Stdout of code run in a fresh interpreter that compiles from source."""
    run = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC),
                              "PYTHONDONTWRITEBYTECODE": "1"})
    return run.stdout


def test_import_loads_no_sympy():
    # reading a public name loads the whole API, not just the facade
    _fresh("import sys, circlelens, circlelens.cli; circlelens.Scene; "
           "assert 'sympy' not in sys.modules, 'sympy was imported'")


def test_cli_import_loads_no_dataclasses_or_inspect():
    # against a snapshot taken just before, so what site preloads is not counted
    assert _fresh(
        "import sys; before = set(sys.modules); import circlelens.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    ) == "[]\n"


def test_bare_import_loads_no_submodule():
    # nor does a dunder probe, as decorators and test tools make
    assert _fresh(
        "import sys; before = set(sys.modules); import circlelens; "
        "assert not hasattr(circlelens, '__wrapped__'); "
        "print(sorted(n for n in set(sys.modules) - before "
        "if n.startswith('circlelens.')))") == "[]\n"


def test_lenses_command_loads_only_what_it_runs():
    scene = DATA / "bundle-n12-k3.scene"
    out = _fresh(
        # as the console script does; `from circlelens import cli` would read
        # a name the bare package lacks and so load the whole API
        "import sys; before = set(sys.modules); from circlelens.cli import main; "
        f"code = main(['lenses', {str(scene)!r}, '--k', '3']); "
        "print(code, sorted(set(sys.modules) - before))")
    code, loaded = out.splitlines()[-1].split(" ", 1)
    assert code == "0"
    for name in ("families", "dual", "slopes", "incidence", "bounds",
                 "generators"):
        assert f"'circlelens.{name}'" not in loaded, name
    assert "'circlelens.pencils'" in loaded


def test_first_name_read_loads_the_whole_api():
    # one read loads every submodule of the API: each exported name is the
    # object that every submodule binding the name holds, submodules
    # resolve, dir lists both, and a star import binds every exported name
    assert _fresh("""
import sys
import circlelens as cl
cl.parse_scene
mods = {n: m for n, m in sys.modules.items() if n.startswith('circlelens.')}
for name in cl.__all__[1:]:
    held = [vars(m)[name] for m in mods.values() if name in vars(m)]
    assert held and all(v is getattr(cl, name) for v in held), name
assert cl.pencils is mods['circlelens.pencils']
assert set(cl.__all__) | {n.split('.')[1] for n in mods} <= set(dir(cl))
star = {}
exec('from circlelens import *', star)
print(sorted(set(cl.__all__) - set(star)))
""") == "[]\n"


@pytest.mark.parametrize("name", ["uniform-n12-s5", "uniform-n16-s9",
                                  "grid-n12-s3", "lattice-n48-g4-s1",
                                  "prefix-tie-n4", "prefix-tie-rational-n4"])
def test_lenses_output_is_byte_identical(name, capsys):
    # expected files were written by the square-free kernel that factored
    # every radicand; printing strips squares without factoring.
    # lattice-n48-g4-s1.lenses.csv (806 lenses) was written by the
    # enumeration that sorted with Lens.compare alone, before integer chord
    # keys; prefix-tie-n4.lenses.csv by the enumeration that sorted base
    # points as QuadNums, before integer lens records;
    # prefix-tie-rational-n4.lenses.csv by the enumeration that built an
    # exact key for every lens
    assert main(["lenses", str(DATA / f"{name}.scene")]) == 0
    out, _ = capsys.readouterr()
    assert out == (DATA / f"{name}.lenses.csv").read_text()


@pytest.mark.parametrize("name", ["bundle-n12-k3", "lattice-n48-g4-s1"])
def test_rich_lenses_output_is_byte_identical(name, capsys):
    # expected files were written by the enumeration that built every lens
    # and then kept those of degree >= 3
    assert main(["lenses", str(DATA / f"{name}.scene"), "--k", "3"]) == 0
    out, _ = capsys.readouterr()
    assert out == (DATA / f"{name}.lenses-k3.csv").read_text()


def test_lenses_k4_output_is_byte_identical(capsys):
    # written by the enumeration that bucketed every circle pair by radical
    # axis before it read a pencil; a pencil found from its smallest circle
    # needs k - 1 after it
    name = "lattice-n48-g4-s1"
    assert main(["lenses", str(DATA / f"{name}.scene"), "--k", "4"]) == 0
    out, _ = capsys.readouterr()
    assert out == (DATA / f"{name}.lenses-k4.csv").read_text()


@pytest.mark.parametrize("name,k", [("uniform-n12-s5", 2), ("uniform-n16-s9", 2),
                                    ("grid-n12-s3", 2), ("bundle-n12-k3", 3),
                                    ("lattice-n48-g4-s1", 3),
                                    ("lattice-n48-g4-s1", 2)])
def test_cut_output_is_byte_identical(name, k, capsys):
    # expected files were written by the kernel that enumerated once per
    # stage, except lattice-n48-g4-s1.cut-k3.csv, written by the cutting
    # that compared directions, before the arc model of vertex indices;
    # bundle-n12-k3.scene is `circlelens generate --model bundle --n 12
    # --k 3`, and lattice-n48-g4-s1.scene is `circlelens generate --model
    # lattice-triples --n 48 --seed 1 --spread 4` (80 cuts at k = 3);
    # lattice-n48-g4-s1.cut-k2.csv by the cutting that wrote its cuts as
    # QuadNum directions and read them back
    assert main(["cut", str(DATA / f"{name}.scene"), "--k", str(k)]) == 0
    out, _ = capsys.readouterr()
    assert out == (DATA / f"{name}.cut-k{k}.csv").read_text()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_incidence_output_is_byte_identical(k, capsys):
    # incidence-k3 was written by the Szekely statistics that tested
    # incidences and circle meetings over Fraction, before the integer scene
    # frame; incidence-k4 (g1 = 8, against 17 at k = 3) by the statistics
    # that matched lens edges apart from the arc model of families;
    # incidence-k2 by the statistics whose lens pool was every marked pair
    # on two circles, before it came from the scene's enumeration
    name = "lattice-n48-g4-s1"
    assert main(["incidence", str(DATA / f"{name}.scene"), "--k", str(k)]) == 0
    out, _ = capsys.readouterr()
    assert out == (DATA / f"{name}.incidence-k{k}.csv").read_text()


@pytest.mark.parametrize("name,k,mode", [("lattice-n48-g4-s1", 3, "greedy"),
                                         ("uniform-n16-s9", 2, "greedy"),
                                         ("uniform-n16-s9", 2, "exact"),
                                         ("lattice-n48-g4-s1", 2, "greedy"),
                                         ("grid-n12-s3", 2, "exact")],
                         ids=["lattice-n48-g4-s1-3", "uniform-n16-s9-2",
                              "uniform-n16-s9-2-exact", "lattice-n48-g4-s1-2",
                              "grid-n12-s3-2-exact"])
def test_family_output_is_byte_identical(name, k, mode, capsys):
    # family-k3 was written by select_family before its greedy scan was
    # shared with the Szekely statistics, uniform-n16-s9.family-k2 by the
    # family selection that sorted vertices by QuadNum cross signs, before
    # the integer arc model, family-exact-k2 by the exact selection that
    # kept its vertex records apart from the order check's base pairs, and
    # lattice-n48-g4-s1.family-k2 (806 lenses, shared rational vertices) by
    # the greedy scan that tested each lens against every kept one, and
    # grid-n12-s3.family-exact-k2 (29 lenses on shared rational vertices;
    # exact keeps 9 where greedy keeps 8) by the exact selection that tested
    # overlap on vertex indices, before lens arcs became cyclic-key intervals
    assert main(["family", str(DATA / f"{name}.scene"), "--k", str(k),
                 "--mode", mode]) == 0
    out, _ = capsys.readouterr()
    suffix = "" if mode == "greedy" else f"-{mode}"
    assert out == (DATA / f"{name}.family{suffix}-k{k}.csv").read_text()
