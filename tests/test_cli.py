import contextlib
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gtrel as g
from gtrel.cli import main
from gtrel.tableau import Tableau


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


def test_admissible_rejects_a_rank_below_1(capsys):
    for n in ("0", "-1"):
        code, out = run(capsys, "admissible", "--n", n, "--k", "1/2")
        assert (code, out["error"]) == (2, "ValueError"), n


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

    # generators out of range for sl3
    code, out = run(
        capsys, "act", "--module", str(mod), "--gen", "E,1,7", "--shift", "[[0],[0,0]]"
    )
    assert (code, out["error"]) == (2, "UnsupportedGenerator")

    # exactly one of --shift and --vector
    for extra in ([], ["--shift", "[[0],[0,0]]", "--vector", str(vec)]):
        code, out = run(capsys, "act", "--module", str(mod), "--gen", "H,1", *extra)
        assert (code, out["error"]) == (2, "GtrelError"), extra


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
    # i = 3 at n = 4: the offsets and entries that i = 2 never reaches
    out = tmp_path / "l3.json"
    argv = ["--type", "lem-key", "--lambda=2,0,-4/3,4/3", "--i", "3", "-o", str(out)]
    code, _ = run(capsys, "build", *argv)
    assert code == 0
    T, C = g.lem_key_tableau((F(2), F(0), F(-4, 3), F(4, 3)), 3)
    assert g.module_from_json(json.loads(out.read_text())) == g.module(T, C)
    code, report = run(capsys, "verify", "--module", str(out), "--box", "1")
    assert code == 0 and report["failures"] == []


def test_build_needs_its_recipe_options(capsys):
    for argv in (
        ["--type", "hw"],
        ["--type", "family", "--v", "2,0"],
        ["--type", "lem-key", "--lambda=0,-1/2,-1/2"],
    ):
        code, out = run(capsys, "build", *argv)
        assert code == 2, argv
        assert out["error"] == "GtrelError"


def test_malformed_module_json(tmp_path, capsys):
    for payload in ({"n": None}, []):
        mod = tmp_path / "bad.json"
        mod.write_text(json.dumps(payload))
        code, out = run(
            capsys, "act", "--module", str(mod), "--gen", "H,1", "--shift", "[[0]]"
        )
        assert (code, out["error"]) == (2, "ValueError"), payload


def test_malformed_json_inputs(tmp_path, capsys):
    mod = tmp_path / "m.json"
    run(capsys, "build", "--type", "hw", "--lambda=-3/2,0", "-o", str(mod))
    good = json.loads(mod.read_text())
    act = ["act", "--gen", "H,1"]
    for shift in ("5", "[5]", "[[0], [0, null]]", "[[0], [0, 1.5]]", '{"a": 1}'):
        code, out = run(capsys, *act, "--module", str(mod), "--shift", shift)
        assert (code, out["error"]) == (2, "ValueError"), shift

    bad = tmp_path / "bad.json"
    for key, value in (
        ("seed", None),
        ("seed", {"n": 2, "rows": [[0], [0, 0], [0, 0, 0]]}),
        ("seed", {"n": 2, "rows": 5}),
        ("relations", None),
        ("relations", {"n": 2, "relations": [[[2, 1], None]]}),
        ("relations", {"n": 2, "relations": [[["2", 1], [1, 1]]]}),
        ("sigma", 5),
        ("sigma", ["1", "2", "3"]),
    ):
        bad.write_text(json.dumps(dict(good, **{key: value})))
        code, out = run(capsys, *act, "--module", str(bad), "--shift", "[[0],[0,0]]")
        assert (code, out["error"]) == (2, "ValueError"), (key, value)

    bad.write_text(json.dumps(dict(good, n=3)))
    code, out = run(capsys, *act, "--module", str(bad), "--shift", "[[0],[0,0]]")
    assert (code, out["error"]) == (2, "RankMismatch")

    vec = tmp_path / "v.json"
    for payload in ([5], {"shift": [[0], [0, 0]]}, [{"shift": [[0], [0, 0]], "coeff": 1}]):
        vec.write_text(json.dumps(payload))
        code, out = run(capsys, *act, "--module", str(mod), "--vector", str(vec))
        assert (code, out["error"]) == (2, "ValueError"), payload


def test_unknown_normalization_exits_2(tmp_path, capsys):
    mod = tmp_path / "m.json"
    run(capsys, "build", "--type", "hw", "--lambda=-3/2,0", "-o", str(mod))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(json.loads(mod.read_text()), normalization=7)))
    code, out = run(capsys, "verify", "--module", str(bad), "--samples", "5")
    assert (code, out["error"]) == (2, "ValueError")


def test_verify(tmp_path, capsys, monkeypatch):
    mod = tmp_path / "m.json"
    run(capsys, "build", "--type", "hw", "--lambda=-3/2,0", "-o", str(mod))
    code, out = run(
        capsys, "verify", "--module", str(mod), "--box", "2", "--samples", "20"
    )
    assert code == 0
    assert out["failures"] == []
    assert out["samples"] <= 20
    code, out = run(
        capsys, "verify", "--module", str(mod), "--box", "2", "--samples", "20",
        "--full",
    )
    assert code == 0
    assert out["failures"] == []
    assert out["samples"] >= 20 and out["samples"] % out["identities"] == 0
    code, out = run(capsys, "verify", "--module", str(mod), "--box", "-1")
    assert code == 2
    assert out["error"] == "ValueError"
    # H1 read one too high: [E12,E21]=H1 fails with residual -1 on the
    # drawn shift, every other identity holds
    scaled_weight = Tableau.scaled_weight.func

    def h1_one_too_high(T):
        d, nums = scaled_weight(T)
        return d, (nums[0] + d,) + nums[1:]

    monkeypatch.setattr(Tableau, "scaled_weight", property(h1_one_too_high))
    code, out = run(capsys, "verify", "--module", str(mod), "--box", "2", "--full")
    assert code == 0 and out["failures"]
    for failure in out["failures"]:
        assert failure["identity"] == "[E12,E21]=H1"
        assert failure["residual"] == [{"shift": failure["shift"], "coeff": "-1"}]
    monkeypatch.undo()
    code, out = run(capsys, "verify", "--module", str(mod), "--samples", "-3")
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


def test_mults_rejects_wrong_length_weights(tmp_path, capsys):
    mod = tmp_path / "m.json"
    run(capsys, "build", "--type", "hw", "--lambda=-3/2,0", "-o", str(mod))
    for weight in ("--weight=1", "--weight=0,0,0"):
        code, out = run(capsys, "mults", "--module", str(mod), weight)
        assert (code, out["error"]) == (2, "RankMismatch"), weight


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
    code, out = run(capsys, "resolve-sl2", "--gamma", "1/4", "--mu=1")
    assert (code, out["error"]) == (2, "ValueError")


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


def test_localize_falls_back_to_e21_at_target_2(tmp_path, capsys):
    # the hw module of (-1/2, -1/3) lacks the family arrows: localize_family
    # raises WrongShape, and --targets 2 alone localizes or twists at E21
    M = g.hw_module_of((F(-1, 2), F(-1, 3)))
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps(g.module_to_json(M)))
    code, out = run(capsys, "localize", "--module", str(mod), "--targets", "2")
    assert (code, out) == (0, g.module_to_json(g.localize_e21(M)))
    argv = ["--module", str(mod), "--targets", "2", "--x", "1/3"]
    code, out = run(capsys, "localize", *argv)
    assert (code, out) == (0, g.module_to_json(g.twist_e21(M, F(1, 3))))
    for targets in ("3", "2,3"):
        code, out = run(capsys, "localize", "--module", str(mod), "--targets", targets)
        assert (code, out["error"]) == (2, "WrongShape"), targets


def test_verify_rejects_a_sigma_that_is_no_permutation(tmp_path, capsys):
    mod = tmp_path / "m.json"
    run(capsys, "build", "--type", "hw", "--lambda=-3/2,0", "-o", str(mod))
    good = json.loads(mod.read_text())
    for sigma in ([1, 1, 2], [1, 2], [1, 2, 4]):
        mod.write_text(json.dumps(dict(good, sigma=sigma)))
        code, out = run(capsys, "verify", "--module", str(mod), "--box", "1")
        assert (code, out["error"]) == (2, "ValueError"), sigma
        assert "sigma must be a permutation" in out["detail"], sigma


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

    base = ["minimal-orbit", "--n", "2", "--p", "3"]
    for extra in (
        ["--q", "1", "--induce"],
        ["--q", "2", "--induce", "--rep", "5", "--x=1/3"],
        ["--q", "2", "--induce", "--branch", "3", "--x=1/3"],
        ["--q", "2", "--induce"],
    ):
        code, out = run(capsys, *base, *extra)
        assert (code, out["error"]) == (2, "GtrelError"), extra


def test_minimal_orbit_rejects_small_rank(capsys):
    # n < 1 used to recurse without end (n = -1) or index an empty weight
    # (n = 0), and --induce at n = 1 indexed a second weight coordinate;
    # each exited 1 as an internal error
    for argv in (
        ["--n=-1", "--p", "4", "--q", "3", "--list-hw"],
        ["--n", "0", "--p", "2", "--q", "3", "--induce", "--branch", "2"],
        ["--n", "1", "--p", "2", "--q", "3", "--induce", "--x=1/5"],
    ):
        code, out = run(capsys, "minimal-orbit", *argv)
        assert (code, out["error"]) == (2, "ValueError"), argv


def test_minimal_orbit_reports_an_out_of_range_q(capsys):
    for p in ("3", "4"):
        code, out = run(capsys, "minimal-orbit", "--n", "2", "--p", p, "--q", "0")
        assert (code, out) == (2, {"error": "ValueError", "detail": "need p >= n+1 and q >= 1"}), p
    code, out = run(capsys, "minimal-orbit", "--n", "2", "--p", "4", "--q", "2")
    assert (code, out["detail"]) == (2, "p and q must be coprime")


def test_a_module_of_rank_below_1_exits_2(tmp_path, capsys):
    # a rank below 1 is bad input, rejected when the module is loaded
    mod = tmp_path / "m.json"
    for payload in SMALL_RANK_MODULES:
        mod.write_text(json.dumps(payload))
        for verb, *rest in (
            ["verify"],
            ["mults", "--weight=0"],
            ["act", "--gen", "H,1", "--shift", "[]"],
        ):
            code, out = run(capsys, verb, "--module", str(mod), *rest)
            assert (code, out["error"]) == (2, "ValueError"), (payload["n"], verb)


def test_error_exit_codes(capsys, tmp_path):
    code, out = run(capsys, "build", "--type", "hw", "--lambda=-2,3")
    assert code == 2
    assert "error" in out
    code, out = run(capsys, "act", "--module", str(tmp_path / "no.json"), "--gen", "H,1")
    assert code == 2
    code, out = run(capsys, "classify-hw", "--n", "3", "--lambda=-2,0")
    assert code == 2


def test_an_exponent_in_a_rational_exits_2_at_once(capsys):
    # Fraction would build 10**9999999999 before any check could run
    for argv in (
        ("build", "--type", "hw", "--lambda=1e9999999999"),
        ("build", "--type", "hw", "--lambda=-3/2,1E9999999999"),
        ("admissible", "--n", "2", "--k=1e9999999999"),
    ):
        code, out = run(capsys, *argv)
        assert (code, out["error"]) == (2, "ValueError"), argv
        assert "exponents are not accepted" in out["detail"], argv


def test_bad_verb_exits_argparse():
    with pytest.raises(SystemExit):
        main(["no-such-verb"])


def test_an_option_given_dashes_exits_2(tmp_path):
    # argparse up to CPython 3.11 reads "--gen=--" as [], which act split
    # and exited 1 as an internal error
    for argv in (
        ["act", "--module", str(tmp_path / "m.json"), "--gen=--", "--shift=[[0]]"],
        ["classify-hw", "--n=--", "--lambda=1"],
        ["classify-hw", "--n", "1", "--lambda=--"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract: 0 for success, 2 for bad input, never 1


def _rational_text(a, b):
    return str(a) if b == 1 else "%d/%d" % (a, b)


def mostly(good, bad):
    """Values from good three times in four, from bad otherwise."""
    return st.sampled_from((True, True, True, False)).flatmap(
        lambda ok: good if ok else bad
    )


JUNK = st.text(alphabet="0123456789-/,.[]{}xE ", max_size=6) | st.sampled_from(
    ["1/0", "2/-3", "1.5", ""]
)
RATIONAL = mostly(
    st.builds(_rational_text, st.integers(-9, 9), st.integers(1, 3)), JUNK
)
WEIGHT = mostly(st.lists(RATIONAL, min_size=1, max_size=4).map(",".join), JUNK)
SMALL_INT = mostly(st.integers(-2, 5).map(str), JUNK)
GEN = mostly(
    st.builds("H,{}".format, st.integers(-1, 4))
    | st.builds("E,{},{}".format, st.integers(-1, 4), st.integers(-1, 4)),
    JUNK,
)
JSON_VALUE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.sampled_from(["0", "1/2", "-3/2", "x", "1/0", "hw"]),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(
        st.sampled_from(["n", "rows", "relations", "shift", "coeff"]), kids, max_size=3
    ),
    max_leaves=10,
)
SHIFT = mostly(
    st.sampled_from(["[[0],[0,0]]", "[[-1],[0,0]]", "[[0],[-1,0]]", "[[1],[1,0]]"]),
    JSON_VALUE.map(json.dumps),
)
MODULE_KEYS = ("n", "seed", "relations", "sigma", "normalization")


def _good_modules():
    T, C = g.hw_tableau_case_a((F(-3, 2), F(0)))
    hw = g.module(T, C)
    T, Q = g.family_tableau((F(1, 2), F(1, 3), F(1, 5)), (F(2), F(0)))
    return [
        g.module_to_json(M)
        for M in (hw, g.twist_e21(g.localize_e21(hw), F(1, 3)), g.module(T, Q))
    ]


GOOD_MODULES = _good_modules()

# modules of rank 0 and -1, which every verb must reject at load
SMALL_RANK_MODULES = [
    {
        "n": n,
        "seed": {"n": n, "rows": [["0"]] if n == 0 else []},
        "relations": {"n": n, "relations": []},
        "sigma": list(range(1, n + 2)),
        "normalization": "hw",
    }
    for n in (0, -1)
]


@st.composite
def module_payloads(draw):
    """A catalog or small-rank module's JSON, possibly with some fields
    replaced."""
    obj = dict(draw(st.sampled_from(GOOD_MODULES + SMALL_RANK_MODULES)))
    if draw(st.sampled_from((False, False, False, True))):
        keys = draw(st.lists(st.sampled_from(MODULE_KEYS), max_size=2, unique=True))
        for key in keys:
            obj[key] = draw(JSON_VALUE)
        if draw(st.booleans()):
            return draw(JSON_VALUE)
    return obj


def _options(draw, spec):
    """argv for one verb: each option of spec present or not (a None value
    is a flag), plus now and then an option the verb does not know."""
    argv = []
    for opt, values in spec.items():
        if draw(st.sampled_from((True, True, True, False))):
            value = draw(values)
            argv += [opt] if value is None else ["%s=%s" % (opt, value)]
    if draw(st.sampled_from((False,) * 9 + (True,))):
        argv.append("--no-such-option")
    return argv


@st.composite
def cli_argv(draw, tmp):
    """A random gtrel command line; the module and vector files it may
    name are written to the directory tmp."""
    module_path, vector_path = tmp / "m.json", tmp / "v.json"
    module_path.write_text(json.dumps(draw(module_payloads())))
    vector = draw(
        mostly(
            st.sampled_from(
                [
                    [{"shift": [[0], [0, 0]], "coeff": "1"}],
                    [{"shift": [[0], [-1, 0]], "coeff": "-2/3"}],
                ]
            ),
            JSON_VALUE,
        )
    )
    vector_path.write_text(json.dumps(vector))
    module = mostly(st.just(str(module_path)), st.just(str(module_path) + ".missing"))
    output = st.just(str(tmp / "out.json"))
    flag = st.none()
    box = st.integers(-1, 2).map(str)
    specs = {
        "admissible": {"--n": SMALL_INT, "--k": RATIONAL},
        "build": {
            "--type": st.sampled_from(["hw", "family", "lem-key", "other"]),
            "--lambda": WEIGHT,
            "--u": WEIGHT,
            "--v": WEIGHT,
            "--m": SMALL_INT,
            "--i": SMALL_INT,
            "--normalization": st.sampled_from(["hw", "sl2", "x"]),
            "-o": output,
        },
        "act": {"--module": module, "--gen": GEN, "-o": output},
        "verify": {
            "--module": module,
            "--box": box,
            "--samples": st.integers(-2, 20).map(str),
            "--seed": SMALL_INT,
            "--full": flag,
        },
        "mults": {"--module": module, "--weight": WEIGHT, "--box": box},
        "classify-hw": {"--n": SMALL_INT, "--lambda": WEIGHT},
        "resolve-sl2": {"--gamma": RATIONAL, "--mu": WEIGHT},
        "localize": {
            "--module": module,
            "--targets": mostly(
                st.lists(st.integers(-1, 4).map(str), max_size=3).map(",".join), JUNK
            ),
            "--x": RATIONAL,
            "-o": output,
        },
        "twist": {"--module": module, "--x": RATIONAL, "-o": output},
        "minimal-orbit": {
            "--n": st.integers(-1, 3).map(str),
            "--p": st.integers(-1, 6).map(str),
            "--q": st.integers(-1, 3).map(str),
            "--list-hw": flag,
            "--induce": flag,
            "--rep": SMALL_INT,
            "--branch": SMALL_INT,
            "--x": RATIONAL,
            "-o": output,
        },
    }
    verb = draw(st.sampled_from(sorted(specs)))
    argv = [verb] + _options(draw, specs[verb])
    if verb == "act":
        # mostly exactly one of the two, which act requires
        vector = ["--vector", str(vector_path)]
        shift = SHIFT.map(lambda text: ["--shift=" + text])
        argv += draw(
            mostly(st.just(vector) | shift, st.just([]) | shift.map(vector.__add__))
        )
    return argv


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(st.data())
def test_cli_exit_codes_fuzz(tmp_path, data):
    argv = data.draw(cli_argv(tmp_path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
