import random

import pytest

from toricchi.cli import main
from toricchi.catalog import build_catalog
from toricchi.errors import ToricError
from toricchi.fan import format_fan, parse_fan
from toricchi.report import render_verification, run_verification, verification_ok


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_catalog_fan(capsys):
    code, out, _ = run_cli(capsys, "check", "catalog:p2")
    assert code == 0
    assert "smooth: yes" in out
    assert "complete: yes" in out


def test_check_fan_file(tmp_path, capsys):
    path = tmp_path / "square.fan"
    path.write_text(format_fan(build_catalog("p1xp1")), encoding="utf-8")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert "square" in out


def test_check_incomplete_fan_exits_one(tmp_path, capsys):
    path = tmp_path / "halfplane.fan"
    path.write_text("dim 2\nrays\n1 0\n0 1\ncones\n0 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    assert "complete: no" in out
    assert "wall" in out  # names the witness


def test_chi_all_methods(capsys):
    code, out, _ = run_cli(capsys, "chi", "catalog:p2", "--divisor", "2,0,0")
    assert code == 0
    assert "CHI p2 2,0,0 hrr 6" in out
    assert "CHI p2 2,0,0 recursive 6" in out
    assert "CHI p2 2,0,0 cohomology 6" in out


def test_chi_single_method_negative_divisor(capsys):
    code, out, _ = run_cli(
        capsys, "chi", "catalog:p2", "--divisor", "-1,0,0", "--method", "hrr"
    )
    assert code == 0
    assert out.strip() == "CHI p2 -1,0,0 hrr 0"


def test_chi_rejects_bad_divisor(capsys):
    code, _, err = run_cli(capsys, "chi", "catalog:p2", "--divisor", "1,2")
    assert code == 2
    assert "error:" in err


CUSP = ("dim 2\nrays\n1 0\n1 2\n-1 -1\ncones\n0 1\n1 2\n2 0\n", "1,0,0")
# complete, and the recursion on this divisor never reads the bad cone
# (0, 1): only the entry gate keeps the recursive route from answering 2
KITE = ("dim 2\nrays\n1 -2\n1 0\n-1 1\n-1 0\ncones\n0 1\n0 3\n1 2\n2 3\n", "0,-2,2,2")


@pytest.mark.parametrize(
    "fan, method",
    [(fan, method) for fan in (CUSP, KITE) for method in ("hrr", "recursive", "cohomology")],
    ids=["hrr", "recursive", "cohomology", "kite-hrr", "kite-recursive", "kite-cohomology"],
)
def test_chi_non_smooth_fan_is_bad_input(tmp_path, capsys, fan, method):
    # cone (0, 1) has determinant 2; the entry gate refuses before any route runs
    text, divisor = fan
    path = tmp_path / "non_smooth.fan"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "chi", str(path), "--divisor", divisor, "--method", method
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: maximal cone (0, 1) has determinant 2")
    assert "Traceback" not in err


@pytest.mark.parametrize("method", ["hrr", "recursive", "cohomology"])
def test_chi_non_complete_fan_is_bad_input(tmp_path, capsys, method):
    # one quadrant: no route may print a number for a fan that is not complete
    path = tmp_path / "quadrant.fan"
    path.write_text("dim 2\nrays\n1 0\n0 1\ncones\n0 1\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "chi", str(path), "--divisor", "1,1", "--method", method
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: the fan is not complete: wall (0,) lies in 1 maximal cone(s), expected 2\n"
    )


def _mutate(rng, text):
    """One random edit of fan-file text: drop or duplicate a line, replace
    a token with x, negate a ray, or change a cone index."""
    lines = text.splitlines()
    rays = list(range(lines.index("rays") + 1, lines.index("cones")))
    cones = list(range(lines.index("cones") + 1, len(lines)))
    kind = rng.choice(["drop", "duplicate", "token", "negate", "index"])
    i = rng.randrange(len(lines))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "token":
        tokens = lines[i].split()
        tokens[rng.randrange(len(tokens))] = "x"
        lines[i] = " ".join(tokens)
    elif kind == "negate":
        i = rng.choice(rays)
        lines[i] = " ".join(str(-int(t)) for t in lines[i].split())
    else:
        i = rng.choice(cones)
        tokens = lines[i].split()
        tokens[rng.randrange(len(tokens))] = str(rng.randrange(len(rays) + 1))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_chi_scan_over_the_line_limit_is_bad_input(capsys):
    # about 10^10 lines: refused before the scan starts, not run for minutes
    code, out, err = run_cli(
        capsys, "chi", "catalog:p3", "--divisor", "100000,0,0,0", "--method", "cohomology"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: scan box ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_bad_recursion_budget_is_bad_input(capsys, monkeypatch):
    monkeypatch.setenv("TORIC_RECURSION_BUDGET", "abc")
    code, out, err = run_cli(
        capsys, "chi", "catalog:p2", "--divisor", "1,0,0", "--method", "recursive"
    )
    assert code == 2
    assert out == ""
    assert err == "error: TORIC_RECURSION_BUDGET must be an integer, got 'abc'\n"


def test_cli_survives_mutated_fan_files(tmp_path, capsys):
    # check gives 0, 1 or 2 and never a traceback; chi answers exactly when
    # check passes, and refuses with exit 2 otherwise
    rng = random.Random(11)
    path = tmp_path / "mutant.fan"
    seen = set()
    for name in ("p2", "f1", "p1xp1", "bl2_p2", "p3"):
        base = format_fan(build_catalog(name))
        for _ in range(24):
            text = _mutate(rng, base)
            path.write_text(text, encoding="utf-8")
            code, _, err = run_cli(capsys, "check", str(path))
            assert code in (0, 1, 2) and "Traceback" not in err, text
            seen.add(code)
            try:
                rays = len(parse_fan(text).rays)
            except ToricError:
                rays = len(build_catalog(name).rays)
            divisor = ",".join(str(rng.randint(-2, 2)) for _ in range(rays))
            chi, _, err = run_cli(capsys, "chi", str(path), "--divisor", divisor)
            assert chi == (0 if code == 0 else 2) and "Traceback" not in err, text
    assert seen == {0, 1, 2}  # the mutations reach every check outcome


def test_chi_parametric_catalog_spec(capsys):
    code, out, _ = run_cli(
        capsys, "chi", "catalog:hirzebruch:3", "--divisor", "0,0,0,0"
    )
    assert code == 0
    assert " 1" in out


def test_verify_ishida(capsys):
    code, out, _ = run_cli(capsys, "verify-ishida", "catalog:p3")
    assert code == 0
    assert "ISHIDA p3 PASS" in out


def test_verify_step(capsys):
    code, out, _ = run_cli(
        capsys, "verify-step", "catalog:p2", "--divisor", "2,0,0", "--ray", "1"
    )
    assert code == 0
    assert "STEP" in out
    assert "PASS" in out


def test_verify_hrr_small_run(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-hrr",
        "catalog:p2",
        "--trials",
        "2",
        "--seed",
        "7",
        "--coeff-range",
        "-2..2",
    )
    assert code == 0
    assert out.startswith("fan p2:")
    assert "RESULT PASS" in out
    assert "CHECK p2 0,0,0 three-way-equal PASS" in out


def test_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    for name in ("p1", "p2", "f2", "bl3_p2", "p1xp2"):
        assert name in out


def test_catalog_emit_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "catalog", "emit", "f1")
    assert code == 0
    assert out == format_fan(build_catalog("f1"))


def test_unknown_catalog_name(capsys):
    code, _, err = run_cli(capsys, "chi", "catalog:zzz", "--divisor", "0")
    assert code == 2
    assert "unknown catalog" in err


def test_non_integer_catalog_parameter_is_bad_input(capsys):
    code, out, err = run_cli(capsys, "check", "catalog:hirzebruch:x")
    assert code == 2
    assert out == ""
    assert err.startswith("error: catalog parameters: expected integers")
    assert "Traceback" not in err


def test_missing_fan_file(capsys):
    code, _, err = run_cli(capsys, "check", "/no/such/file.fan")
    assert code == 2
    assert "cannot read" in err


def test_non_utf8_fan_file_is_bad_input(tmp_path, capsys):
    path = tmp_path / "latin1.fan"
    path.write_bytes(b"dim 2\nrays\n1 0\xff\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read fan file")
    assert "Traceback" not in err


def test_negative_trials_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-hrr", "catalog:p2", "--trials", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials" in captured.err


@pytest.mark.parametrize("literal", ["xyz", "1..z", "5..2", "4"])
def test_bad_coeff_range_is_usage_error(capsys, literal):
    # argparse usage error, not a traceback
    with pytest.raises(SystemExit) as exc:
        main(["verify-hrr", "catalog:p2", "--coeff-range", literal])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--coeff-range" in err


def test_run_verification_trial_zero_is_zero_divisor():
    fan = build_catalog("p2")
    reports = run_verification(fan, trials=3, seed=5, fan_name="p2")
    assert reports[0].divisor == (0, 0, 0)
    assert len(reports) == 3
    assert verification_ok(reports, fan)


def test_render_verification_deterministic():
    fan = build_catalog("f1")
    a = render_verification(
        fan, "f1", run_verification(fan, trials=3, seed=42, fan_name="f1")
    )
    b = render_verification(
        fan, "f1", run_verification(fan, trials=3, seed=42, fan_name="f1")
    )
    assert a == b
    assert a.endswith("\n")
    assert "RESULT PASS" in a


def test_render_verification_seed_changes_divisors():
    fan = build_catalog("f1")
    a = render_verification(
        fan, "f1", run_verification(fan, trials=4, seed=1, fan_name="f1")
    )
    b = render_verification(
        fan, "f1", run_verification(fan, trials=4, seed=2, fan_name="f1")
    )
    assert a != b


def test_run_verification_rejects_empty_range():
    fan = build_catalog("p2")
    with pytest.raises(ValueError):
        run_verification(fan, trials=1, coeff_range=(3, -3))
    with pytest.raises(ToricError, match="empty coefficient range 3..-3"):
        run_verification(fan, trials=1, coeff_range=(3, -3))


def test_nef_check_lines_present():
    fan = build_catalog("p2")
    text = render_verification(
        fan, "p2", run_verification(fan, trials=2, seed=0, fan_name="p2")
    )
    assert "nef-count" in text
    assert "serre-hrr" in text
    assert "step-ray-0" in text
