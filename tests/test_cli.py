from pathlib import Path
from types import SimpleNamespace

import pytest

from circlelens import cli, dual, geometry, slopes
from circlelens.cli import main
from circlelens.generators import MODELS
from circlelens.pencils import enumerate_lenses
from circlelens.sceneio import parse_scene

DATA = Path(__file__).parent / "data"


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_generate_lenses_family_pipeline(tmp_path, capsys):
    scene_file = tmp_path / "bundle.scene"
    code, out, err = run_cli(["generate", "--model", "bundle", "--n", "12",
                              "--k", "3", "--out", str(scene_file)], capsys)
    assert code == 0
    text = scene_file.read_text()
    assert text.startswith("circle 0 0 1\n")
    assert len(text.splitlines()) == 12

    code, out, _ = run_cli(["lenses", str(scene_file), "--k", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,px,py,qx,qy,degree,circles"
    assert len(lines) == 5  # header + 4 lenses
    assert lines[1].endswith(",3,0;1;2")

    code, out, _ = run_cli(["family", str(scene_file), "--k", "3",
                            "--mode", "exact"], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("12,3,4,4,12,exact,")


def test_generate_round_trip_determinism(tmp_path, capsys):
    outs = []
    for name in ("a.scene", "b.scene"):
        path = tmp_path / name
        code, _, _ = run_cli(["generate", "--model", "uniform-random",
                              "--n", "9", "--seed", "5",
                              "--out", str(path)], capsys)
        assert code == 0
        outs.append(path.read_text())
    assert outs[0] == outs[1]


def test_generate_lattice_triples(tmp_path, capsys):
    path = tmp_path / "lattice.scene"
    code, _, _ = run_cli(["generate", "--model", "lattice-triples", "--n", "48",
                          "--seed", "1", "--spread", "4", "--out", str(path)],
                         capsys)
    assert code == 0
    golden = Path(__file__).parent / "data" / "lattice-n48-g4-s1.scene"
    assert path.read_text() == golden.read_text()
    code, _, err = run_cli(["generate", "--model", "lattice-triples", "--n",
                            "300", "--spread", "4"], capsys)
    assert code == 2 and "223" in err


def test_cut_command(tmp_path, capsys):
    scene_file = tmp_path / "s.scene"
    run_cli(["generate", "--model", "bundle", "--n", "12", "--k", "3",
             "--out", str(scene_file)], capsys)
    code, out, _ = run_cli(["cut", str(scene_file), "--k", "3"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("n,k,cut_count")
    assert row.startswith("12,3,")


def test_verify_duality(capsys):
    code, out, _ = run_cli(["verify", "--property", "duality",
                            "--n", "300", "--seed", "1"], capsys)
    assert code == 0
    assert "duality ok over 300" in out


def test_verify_scene_properties(tmp_path, capsys):
    scene_file = tmp_path / "s.scene"
    run_cli(["generate", "--model", "bundle", "--n", "12", "--k", "3",
             "--out", str(scene_file)], capsys)
    for prop, options in (("oracle", []), ("order-reversal", []),
                          ("coplanarity", ["--k", "3"])):
        code, out, _ = run_cli(["verify", "--property", prop,
                                str(scene_file), *options], capsys)
        assert code == 0, (prop, out)


def test_verify_failures_exit_1_with_their_messages(monkeypatch, capsys):
    # a greedy family never fails the audit, so each check is made to fail;
    # the fakes go on the modules that the commands import them from when
    # they run
    scene = str(DATA / "bundle-n12-k3.scene")
    monkeypatch.setattr(geometry, "power_of_point", lambda p, c: 0)
    code, out, err = run_cli(["verify", "--property", "duality", "--n", "5"],
                             capsys)
    assert code == 1 and not out and err.startswith("duality violation: p=(")
    monkeypatch.setattr(slopes, "order_reversal_check", lambda lens, scene: (
        SimpleNamespace(reversed=False, order_at_p=lens.circles,
                        order_at_q=lens.circles)))
    code, out, _ = run_cli(["verify", "--property", "order-reversal", scene],
                           capsys)
    assert (code, out) == (
        1, "order reversal FAILED for lens on circles 0 1 2 at 0,-1,0,1: "
        "order at p (0, 1, 2), at q (0, 1, 2)\n")
    lenses = enumerate_lenses(parse_scene(Path(scene).read_text()), 3)
    monkeypatch.setattr(dual, "coplanarity_audit", lambda scene, family: (
        SimpleNamespace(clean=False, coplanar_triples=[(1, tuple(lenses[:3]))],
                        plane_violations=[])))
    code, out, _ = run_cli(["verify", "--property", "coplanarity", scene],
                           capsys)
    assert (code, out) == (
        1, "coplanarity audit FLAGGED: 1 triples, 0 plane violations\n"
        "first coplanar triple, on circle 1: lens on circles 0 1 2 at "
        "0,-1,0,1; lens on circles 3 4 5 at 12,-1,12,1; lens on circles "
        "6 7 8 at 24,-1,24,1\n")


@pytest.mark.parametrize("drop,witness", [
    (1, "first difference at index 1: enumeration lens on circles 3 4 5 at "
     "12,-1,12,1; brute force lens on circles 6 7 8 at 24,-1,24,1"),
    (3, "first difference at index 3: enumeration lens on circles 9 10 11 "
     "at 36,-1,36,1; brute force none")])
def test_an_oracle_mismatch_names_its_first_difference(drop, witness,
                                                       monkeypatch, capsys):
    scene = str(DATA / "bundle-n12-k3.scene")
    brute = cli.brute_force_lenses
    monkeypatch.setattr(cli, "brute_force_lenses",
                        lambda scene: [lens for i, lens in enumerate(
                            brute(scene)) if i != drop])
    code, out, _ = run_cli(["verify", "--property", "oracle", scene], capsys)
    assert (code, out.splitlines()) == (1, ["oracle MISMATCH", witness])


def test_a_flagged_audit_names_its_first_triple_and_plane_violation(
        monkeypatch, capsys):
    scene = str(DATA / "bundle-n12-k3.scene")
    a, b, c, d = enumerate_lenses(parse_scene(Path(scene).read_text()), 3)
    monkeypatch.setattr(dual, "coplanarity_audit", lambda scene, family: (
        SimpleNamespace(clean=False,
                        coplanar_triples=[(4, (a, b, c)), (5, (b, c, d))],
                        plane_violations=[((b, d), 7, 3), ((a, c), 9, 4)])))
    code, out, _ = run_cli(["verify", "--property", "coplanarity", scene],
                           capsys)
    assert code == 1
    assert out.splitlines() == [
        "coplanarity audit FLAGGED: 2 triples, 2 plane violations",
        "first coplanar triple, on circle 4: lens on circles 0 1 2 at "
        "0,-1,0,1; lens on circles 3 4 5 at 12,-1,12,1; lens on circles "
        "6 7 8 at 24,-1,24,1",
        "first plane violation: lens on circles 3 4 5 at 12,-1,12,1; lens on "
        "circles 9 10 11 at 36,-1,36,1: 7 incidences on 3 circles in the plane"]
    # with plane violations alone, no triple line
    monkeypatch.setattr(dual, "coplanarity_audit", lambda scene, family: (
        SimpleNamespace(clean=False, coplanar_triples=[],
                        plane_violations=[((a, b), 5, 2)])))
    code, out, _ = run_cli(["verify", "--property", "coplanarity", scene],
                           capsys)
    assert (code, out.splitlines()[1:]) == (1, [
        "first plane violation: lens on circles 0 1 2 at 0,-1,0,1; lens on "
        "circles 3 4 5 at 12,-1,12,1: 5 incidences on 2 circles in the plane"])


def test_verify_order_reversal_skips_an_inconclusive_lens(tmp_path, capsys):
    # the circles meet at (1, 0) and (0, 1), each with a vertical tangent
    # at one of them, so the lens's slope order is inconclusive
    scene_file = tmp_path / "s.scene"
    scene_file.write_text("circle 0 0 1\ncircle 1 1 1\n")
    code, out, _ = run_cli(["verify", "--property", "order-reversal",
                            str(scene_file)], capsys)
    assert (code, out) == (0, "order reversal ok\n")


@pytest.mark.parametrize("argv", [
    ["lenses"], ["family"], ["cut"], ["incidence"],
    ["verify", "--property", "coplanarity"]])
@pytest.mark.parametrize("k", ["0", "1"])
def test_richness_below_two_is_an_input_error(argv, k, capsys):
    scene = Path(__file__).parent / "data" / "bundle-n12-k3.scene"
    code, out, err = run_cli([*argv, str(scene), "--k", k], capsys)
    assert code == 2 and not out
    assert err == "error: richness k must be at least 2\n"


@pytest.mark.parametrize("k", ["-1", "0", "1"])
def test_recurrence_richness_below_two_is_an_input_error(k, capsys):
    code, out, err = run_cli(["bound", "--kind", "recurrence", "--n", "100",
                              "--k", k], capsys)
    assert (code, out, err) == (2, "", "error: recurrence needs k >= 2\n")
    code, out, _ = run_cli(["bound", "--kind", "recurrence", "--n", "100",
                            "--k", "2"], capsys)
    assert (code, out) == (0, "kind,n,k,z,depth,certificate,passed\n"
                              "recurrence,100.0,2.0,1.8803,2,117808,True\n")


@pytest.mark.parametrize("argv,unread", [
    (["duality", "SCENE", "--n", "5"], "a scene file"),
    (["duality", "--k", "2"], "--k"),
    (["coplanarity", "SCENE", "--n", "5"], "--n"),
    (["coplanarity", "SCENE", "--seed", "1"], "--seed"),
    (["order-reversal", "SCENE", "--k", "3"], "--k"),
    (["order-reversal", "SCENE", "--n", "5"], "--n"),
    (["oracle", "SCENE", "--k", "0"], "--k"),
    (["oracle", "SCENE", "--seed", "1"], "--seed")])
def test_verify_options_the_property_does_not_read_are_input_errors(
        argv, unread, capsys):
    scene = str(Path(__file__).parent / "data" / "bundle-n12-k3.scene")
    argv = [scene if arg == "SCENE" else arg for arg in argv]
    code, out, err = run_cli(["verify", "--property", *argv], capsys)
    assert code == 2 and not out
    assert err == f"error: property {argv[0]} does not read {unread}\n"


@pytest.mark.parametrize("argv,unread", [
    (["--model", "bundle", "--n", "6", "--k", "3", "--seed", "5"], "--seed"),
    (["--model", "uniform-random", "--n", "3", "--k", "3"], "--k"),
    (["--model", "unit-circles-on-grid", "--n", "4", "--spread", "2"],
     "--spread"),
    (["--model", "lattice-triples", "--n", "4", "--k", "3"], "--k")])
def test_generate_options_the_model_does_not_read_are_input_errors(
        argv, unread, capsys):
    code, out, err = run_cli(["generate", *argv], capsys)
    assert code == 2 and not out
    assert err == f"error: model {argv[1]} does not read {unread}\n"


@pytest.mark.parametrize("kind,argv,unread", [
    ("thm1-count", ["--m", "5"], "--m"),
    ("thm1-degree", ["--const0", "7"], "--const0"),
    ("gk-degree", ["--m", "5"], "--m"),
    ("mt", ["--const0", "7"], "--const0"),
    ("pt-circle", ["--m", "5", "--const0", "7"], "--const0"),
    ("lens-circle", ["--m", "5", "--const0", "7"], "--const0"),
    ("dyadic", ["--m", "5"], "--m"),
    ("recurrence", ["--m", "5"], "--m"),
    ("mt", ["--k", "7"], "--k")])
def test_bound_options_the_kind_does_not_read_are_input_errors(
        kind, argv, unread, capsys):
    code, out, err = run_cli(["bound", "--kind", kind, "--n", "4096", *argv],
                             capsys)
    assert code == 2 and not out
    assert err == f"error: kind {kind} does not read {unread}\n"


def test_every_generate_model_has_a_row_of_the_options_it_reads():
    assert tuple(cli._READS["generate"][2]) == MODELS


@pytest.mark.parametrize("argv", [
    ["generate", "--model", "uniform-random", "--n", "3", "--seed", "1",
     "--spread", "2"],
    ["bound", "--kind", "pt-circle", "--n", "100", "--m", "5"],
    ["bound", "--kind", "lens-circle", "--n", "100", "--m", "5"],
    ["bound", "--kind", "recurrence", "--n", "100", "--const0", "2"]])
def test_options_the_choice_reads_are_accepted(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out


def test_bundle_generate_checks_k_through_its_spec(capsys):
    code, out, err = run_cli(["generate", "--model", "bundle", "--n", "12",
                              "--k", "5"], capsys)
    assert code == 2 and not out
    assert err == "error: bundle model requires k >= 2 and k | n\n"


def test_family_and_cut_reject_a_scene_with_no_circles(tmp_path, capsys):
    empty = tmp_path / "empty.scene"
    empty.write_text("# no circles\n")
    for command in ("family", "cut"):
        code, out, err = run_cli([command, str(empty)], capsys)
        assert code == 2 and not out
        assert err == f"error: scene {empty} has no circles\n"
    # the commands that bound nothing by n accept it
    for argv in (["lenses", str(empty)], ["incidence", str(empty)],
                 ["verify", "--property", "coplanarity", str(empty)]):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out, argv


def test_verify_missing_scene_is_input_error(capsys):
    code, _, err = run_cli(["verify", "--property", "oracle"], capsys)
    assert code == 2
    assert "error" in err


def test_incidence_command(tmp_path, capsys):
    scene_file = tmp_path / "s.scene"
    scene_file.write_text("circle 0 0 25\ncircle 8 0 25\n"
                          "point 4 3\npoint 4 -3\n")
    code, out, _ = run_cli(["incidence", str(scene_file), "--k", "2"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["incidences"] == "4"
    assert fields["edges"] == "4"
    assert fields["max_multiplicity"] == "4"


def test_bound_command(capsys):
    code, out, _ = run_cli(["bound", "--kind", "thm1-degree",
                            "--n", "64", "--k", "4"], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("thm1-degree,64.0,4.0,0,")
    # mt reads no --k, and its row prints the default
    code, out, _ = run_cli(["bound", "--kind", "mt", "--n", "100"], capsys)
    assert (code, out) == (0, "kind,n,k,m,value\nmt,100.0,2,0,4605.17\n")
    code, out, _ = run_cli(["bound", "--kind", "dyadic",
                            "--n", "4096", "--k", "4"], capsys)
    assert (code, out) == (0, "kind,n,k,sum,ratio\n"
                              "dyadic,4096.0,4.0,324834,2.31406\n")
    code, out, _ = run_cli(["bound", "--kind", "recurrence",
                            "--n", str(2 ** 20), "--k", "16"], capsys)
    assert code == 0
    assert ",2,3," in out.splitlines()[1]
    assert out.strip().endswith("True")


def test_failed_command_keeps_the_out_file(tmp_path, capsys):
    # k = 5 > 10^(1/3) is rejected; the rows are computed before --out opens
    out_file = tmp_path / "f"
    out_file.write_text("keep\n")
    code, _, err = run_cli(["bound", "--kind", "dyadic", "--n", "10", "--k", "5",
                            "--out", str(out_file)], capsys)
    assert code == 2 and "error" in err
    assert out_file.read_text() == "keep\n"
    code, _, _ = run_cli(["bound", "--kind", "thm1-degree", "--n", "64",
                          "--out", str(out_file)], capsys)
    assert code == 0
    assert out_file.read_text().startswith("kind,n,k,m,value\nthm1-degree,64.0,")


def test_malformed_scene_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.scene"
    bad.write_text("circle 0 0 1\ncircle nope 0 1\n")
    code, _, err = run_cli(["lenses", str(bad)], capsys)
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run_cli(["lenses", str(tmp_path / "absent.scene")], capsys)
    assert code == 2
    assert "error" in err


def test_unreadable_inputs_and_outputs_are_input_errors(tmp_path, capsys):
    binary = tmp_path / "binary.scene"
    binary.write_bytes(b"circle 0 0 1\n\xff\xfe\n")
    scene = tmp_path / "s.scene"
    scene.write_text("circle 0 0 1\ncircle 1 0 1\n")
    for argv in (["lenses", str(tmp_path)],  # a directory
                 ["lenses", str(binary)],  # not UTF-8
                 ["cut", str(scene), "--out", str(tmp_path)]):  # --out a directory
        code, _, err = run_cli(argv, capsys)
        assert code == 2 and err.startswith("error: "), argv


def test_lenses_k3_are_the_rich_rows_of_the_golden(capsys):
    data = Path(__file__).parent / "data"
    code, out, _ = run_cli(["lenses", str(data / "lattice-n48-g4-s1.scene"),
                            "--k", "3"], capsys)
    assert code == 0
    header, *rows = (data / "lattice-n48-g4-s1.lenses.csv").read_text().splitlines()
    rich = [row.split(",", 1)[1] for row in rows if int(row.split(",")[5]) >= 3]
    assert len(rich) > 1
    assert out.splitlines() == [header] + [f"{i},{row}" for i, row in enumerate(rich)]


@pytest.mark.parametrize("argv", [
    ["generate", "--model", "uniform-random", "--n", "5", "--spread", "abc"],
    ["generate", "--model", "uniform-random", "--n", "5", "--spread", "1/0"],
    ["verify", "--property", "duality", "--n", "-5"],
    ["verify", "--property", "duality", "--n", "0"],
    ["verify", "--property", "duality", "--n", "many"]])
def test_bad_option_values_are_input_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    _, err = capsys.readouterr()
    assert exc.value.code == 2 and "error: argument" in err


@pytest.mark.parametrize("kind,value", [
    ("recurrence", "inf"), ("recurrence", "nan"), ("thm1-count", "nan"),
    ("thm1-degree", "-inf"), ("dyadic", "inf")])
def test_non_finite_bound_inputs_are_input_errors(kind, value, capsys):
    code, out, err = run_cli(["bound", "--kind", kind, f"--n={value}"], capsys)
    assert code == 2 and not out
    assert err == f"error: n must be finite, not {float(value)}\n"


@pytest.mark.parametrize("argv", [
    ["--kind", "mt", "--n", "1e308", "--const", "10"],
    ["--kind", "thm1-degree", "--n", "1e200", "--const", "1e300"],
    ["--kind", "dyadic", "--n", "1e300", "--const", "1e300"]])
def test_overflowing_bounds_are_input_errors(argv, capsys):
    # finite inputs whose bound is past the float range: an OverflowError
    # for mt, an infinite product for thm1-degree, nan ratio for dyadic
    code, out, err = run_cli(["bound", *argv], capsys)
    assert code == 2 and not out
    assert err.startswith("error: ") and "overflows a float" in err


@pytest.mark.parametrize("spread", ["-5", "0", "1/2"])
def test_uniform_random_rejects_a_bad_spread(spread, capsys):
    code, out, err = run_cli(["generate", "--model", "uniform-random", "--n",
                              "5", f"--spread={spread}"], capsys)
    assert code == 2 and not out
    assert err == "error: uniform-random needs an integer spread of at least 1\n"
