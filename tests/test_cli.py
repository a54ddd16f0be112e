import json

import pytest

from gtrel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_admissible(capsys):
    code, out = run(capsys, "admissible", "--n", "2", "--k=-3/2")
    assert code == 0
    assert out == {"admissible": True, "p": 3, "q": 2}
    code, out = run(capsys, "admissible", "--n", "2", "--k=-3")
    assert (code, out) == (0, {"admissible": False})


def test_build_hw_and_act(tmp_path, capsys):
    mod = tmp_path / "m.json"
    code, out = run(capsys, "build", "--type", "hw", "--lambda=-3/2,0", "-o", str(mod))
    assert code == 0
    data = json.loads(mod.read_text())
    assert data["n"] == 2

    code, out = run(
        capsys, "act", "--module", str(mod), "--gen", "H,1", "--shift", "[[0],[0,0]]"
    )
    assert code == 0
    assert out == [{"shift": [[0], [0, 0]], "coeff": "-3/2"}]

    # raising operators kill the highest-weight seed
    code, out = run(
        capsys, "act", "--module", str(mod), "--gen", "E,1,2", "--shift", "[[0],[0,0]]"
    )
    assert (code, out) == (0, [])

    # shifts outside the basis, or of the wrong shape, are rejected
    for shift in ("[[5],[0,0]]", "[[0],[0]]"):
        code, out = run(
            capsys, "act", "--module", str(mod), "--gen", "E,2,1", "--shift", shift
        )
        assert code == 2
        assert out["error"] == "NotInBasis"
    vec = tmp_path / "v.json"
    vec.write_text(json.dumps([{"shift": [[5], [0, 0]], "coeff": "1"}]))
    code, out = run(
        capsys, "act", "--module", str(mod), "--gen", "E,2,1", "--vector", str(vec)
    )
    assert (code, out["error"]) == (2, "NotInBasis")


def test_build_family_and_lem_key(tmp_path, capsys):
    code, _ = run(
        capsys,
        "build",
        "--type",
        "family",
        "--u",
        "1/2,1/3,1/5",
        "--v",
        "2,0",
        "-o",
        str(tmp_path / "f.json"),
    )
    assert code == 0
    code, _ = run(
        capsys,
        "build",
        "--type",
        "lem-key",
        "--lambda=0,-1/2,-1/2",
        "--i",
        "2",
        "-o",
        str(tmp_path / "l.json"),
    )
    assert code == 0


def test_verify(tmp_path, capsys):
    mod = tmp_path / "m.json"
    run(capsys, "build", "--type", "hw", "--lambda=-3/2,0", "-o", str(mod))
    code, out = run(
        capsys, "verify", "--module", str(mod), "--box", "2", "--samples", "20"
    )
    assert code == 0
    assert out["failures"] == []
    assert out["samples"] <= 20
    code, out = run(capsys, "verify", "--module", str(mod), "--box", "-1")
    assert code == 2
    assert out["error"] == "ValueError"


def test_mults(tmp_path, capsys):
    mod = tmp_path / "m.json"
    run(capsys, "build", "--type", "hw", "--lambda=-3/2,0", "-o", str(mod))
    code, out = run(
        capsys, "mults", "--module", str(mod), "--weight=-3/2,0", "--box", "3"
    )
    assert code == 0
    assert out["count"] == 1
    code, out = run(capsys, "mults", "--module", str(mod), "--box", "2")
    assert code == 0
    assert all(entry["count"] >= 1 for entry in out)


def test_classify_hw(capsys):
    code, out = run(capsys, "classify-hw", "--n", "2", "--lambda=-2,0")
    assert code == 0
    assert out["case"] == "CaseB" and (out["i"], out["j"]) == (1, 1)
    code, out = run(capsys, "classify-hw", "--n", "2", "--lambda=-3/2,0")
    assert out["case"] == "CaseA"
    assert out["bounded_case"] == {"clause": "b"}


def test_resolve_sl2(capsys):
    code, out = run(capsys, "resolve-sl2", "--gamma", "1/4", "--mu=-5/6,-1/3")
    assert code == 0
    got = {(tuple(b["lambda"]), b["x"]) for b in out}
    assert (("-3/2", "0"), "1/3") in got
    assert len(got) == 2


def test_localize_and_twist(tmp_path, capsys):
    mod = tmp_path / "m.json"
    loc = tmp_path / "loc.json"
    tw = tmp_path / "tw.json"
    run(capsys, "build", "--type", "hw", "--lambda=-3/2,0", "-o", str(mod))
    code, _ = run(
        capsys, "localize", "--module", str(mod), "--targets", "2,3", "-o", str(loc)
    )
    assert code == 0
    locdata = json.loads(loc.read_text())["relations"]["relations"]
    moddata = json.loads(mod.read_text())["relations"]["relations"]
    assert len(locdata) == len(moddata) - 2
    code, _ = run(capsys, "twist", "--module", str(loc), "--x=1/3", "-o", str(tw))
    assert code == 0
    assert json.loads(tw.read_text())["seed"]["rows"][0][0] == "-2/3"


def test_minimal_orbit_listing(capsys):
    code, out = run(capsys, "minimal-orbit", "--n", "2", "--p", "3", "--q", "2")
    assert code == 0
    assert out == [{"lambda_bar": [0, 0], "a": 1, "weight": ["-3/2", "0"]}]
    code, out = run(
        capsys, "minimal-orbit", "--n", "2", "--p", "3", "--q", "2", "--list-hw"
    )
    assert code == 0
    weights = [w["weight"] for w in out[0]["weights"]]
    assert weights == [["-3/2", "0"], ["-1/2", "-1/2"], ["0", "-3/2"]]


def test_minimal_orbit_induce(tmp_path, capsys):
    code, out = run(
        capsys,
        "minimal-orbit",
        "--n",
        "2",
        "--p",
        "3",
        "--q",
        "2",
        "--induce",
        "--x=1/3",
    )
    assert code == 0
    assert out["gamma"] == "1/4"
    assert out["mu"] == ["-5/6", "-1/3"]


def test_error_exit_codes(capsys, tmp_path):
    code, out = run(capsys, "build", "--type", "hw", "--lambda=-2,3")
    assert code == 2
    assert "error" in out
    code, out = run(capsys, "act", "--module", str(tmp_path / "no.json"), "--gen", "H,1")
    assert code == 2
    code, out = run(capsys, "classify-hw", "--n", "3", "--lambda=-2,0")
    assert code == 2


def test_bad_verb_exits_argparse():
    with pytest.raises(SystemExit):
        main(["no-such-verb"])
