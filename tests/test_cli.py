import json

import pytest

from cubesquare import cli, selftest
from cubesquare.cli import DISPATCH, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dispatch_table_complete():
    parser = cli.build_parser()
    subcommands = set(DISPATCH)
    assert subcommands == {
        "selftest",
        "e8-report",
        "picard-solve",
        "picard-report",
        "fibration-info",
        "fibration-halving",
        "recillas-forward",
        "recillas-reverse",
        "recillas-selftest",
        "z-verify",
        "z-plant",
        "z-search",
        "z-constants",
    }


def test_e8_report(capsys):
    code, out = run_cli(capsys, "e8-report")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["payload"] == {
        "roots": 240,
        "norm4": 2160,
        "weyl_order": 696729600,
        "mod2": {"zero": 1, "odd": 120, "even": 135},
        "theta": {"odd": 120, "even": 136},
    }


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


MEMBERSHIP_MODEL = {
    "a": {"degree": 4, "field": {"kind": "Q"}, "coeffs": ["3", "0", "0", "0", "0"]},
    "b": {"degree": 6, "field": {"kind": "Q"}, "coeffs": ["0", "0", "0", "0", "0", "0", "2"]},
}


def test_fibration_info_membership_point(tmp_path, capsys):
    path = _write(tmp_path, "model.json", MEMBERSHIP_MODEL)
    code, out = run_cli(capsys, "fibration-info", "--in", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["in_A"] is True
    assert doc["payload"]["kodaira"] == "I1^12"
    assert doc["payload"]["decomposition_point"]["monic"]["f"]["coeffs"] == [
        "1",
        "0",
        "0",
        "0",
        "0",
    ]


def test_malformed_coefficient_exits_2(tmp_path, capsys):
    bad = {
        "a": {"degree": 4, "field": {"kind": "Q"}, "coeffs": ["1/0", "0", "0", "0", "0"]},
        "b": MEMBERSHIP_MODEL["b"],
    }
    path = _write(tmp_path, "bad.json", bad)
    code, out = run_cli(capsys, "fibration-info", "--in", path)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert "coeffs" in doc["error"]["message"]


def test_picard_solve(tmp_path, capsys):
    system = {
        "generators": [
            {"h": 1, "e": [0] * 9},
            {"h": 0, "e": [1, 1, 0, 0, 0, 0, 0, 0, 0]},
            {"h": 0, "e": [0, 0] + [1] * 7},
        ],
        "constraints": [
            {"dot_with": {"h": 0, "e": [1] + [0] * 8}, "equals": 0},
            {"dot_with": {"h": 3, "e": [-1] * 9}, "equals": 4},
            {"genus": 3},
        ],
    }
    path = _write(tmp_path, "system.json", system)
    code, out = run_cli(capsys, "picard-solve", "--in", path)
    assert code == 0
    assert json.loads(out)["payload"]["solutions"] == [[6, 0, -2]]


def test_picard_solve_reports_empty(tmp_path, capsys):
    system = {
        "generators": [{"h": 1, "e": [0] * 9}],
        "constraints": [{"dot_with": {"h": 1, "e": [0] * 9}, "equals": 9999}],
    }
    path = _write(tmp_path, "system.json", system)
    code, out = run_cli(capsys, "picard-solve", "--in", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"


def test_z_plant_verify_roundtrip(tmp_path, capsys):
    f_doc = {"degree": 4, "field": {"kind": "Fp", "p": 11}, "coeffs": ["1", "0", "0", "0", "0"]}
    g_doc = {"degree": 6, "field": {"kind": "Fp", "p": 11}, "coeffs": ["0", "0", "0", "0", "0", "0", "1"]}
    fp = _write(tmp_path, "f.json", f_doc)
    gp = _write(tmp_path, "g.json", g_doc)
    code, out = run_cli(capsys, "z-plant", "--f", fp, "--g", gp)
    assert code == 0
    planted = json.loads(out)["payload"]
    assert planted["verification"]["valid"] is True
    cert_path = _write(tmp_path, "cert.json", {"F": planted["F"], "point": planted["point"]})
    code, out = run_cli(capsys, "z-verify", "--cert", cert_path)
    assert code == 0
    assert json.loads(out)["payload"]["valid"] is True


def test_z_search_and_jobs_determinism(tmp_path, capsys):
    F_doc = {
        "degree": 12,
        "field": {"kind": "Fp", "p": 7},
        "coeffs": ["1"] + ["0"] * 11 + ["1"],
    }
    path = _write(tmp_path, "F.json", F_doc)
    code1, out1 = run_cli(capsys, "z-search", "--F", path)
    code2, out2 = run_cli(capsys, "z-search", "--F", path, "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical, job count invisible
    payload = json.loads(out1)["payload"]
    assert payload["orbit_count"] >= 1


def test_z_search_jobs_2_at_f13_matches_jobs_1_and_the_full_hit_set(tmp_path, capsys):
    # q = 13 = 1 (mod 3): each worker scans one f0 per orbit {f0, w f0, w^2 f0}
    # and expands its hits before it keeps those in its half of the range.
    from cubesquare import _kernels, jsonio, locusz
    from cubesquare.binform import BinForm
    from cubesquare.fields import PrimeField

    F13 = PrimeField(13)
    cert = locusz.plant(BinForm(F13, 4, [3, 1, 0, 5, 2]), BinForm(F13, 6, [1, 4, 0, 2, 7, 0, 6]))
    path = _write(tmp_path, "F.json", jsonio.form_to_json(cert.form))
    code1, out1 = run_cli(capsys, "z-search", "--F", path)
    code2, out2 = run_cli(capsys, "z-search", "--F", path, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    # decompose_scan returns every hit, the w-translates included, one per
    # (f, +-g) pair of the report.
    hits = _kernels.decompose_scan(13, [int(c) for c in cert.form.coeffs], 4)
    members = {(tuple(f), tuple(g)) for o in json.loads(out1)["payload"]["orbits"] for f, g in o["members"]}
    assert {(f, min(g, tuple(-c % 13 for c in g))) for f, g in members} == set(hits)
    assert (3, 1, 0, 5, 2) in {f for f, _ in hits}
    assert {tuple(w * c % 13 for c in f) for f, _ in hits for w in (3, 9)} == {f for f, _ in hits}


def test_z_search_validates_q_flag(tmp_path, capsys):
    F_doc = {
        "degree": 12,
        "field": {"kind": "Fp", "p": 7},
        "coeffs": ["1"] + ["0"] * 11 + ["1"],
    }
    path = _write(tmp_path, "F.json", F_doc)
    code, out = run_cli(capsys, "z-search", "--F", path, "--q", "13")
    assert code == 2
    # --q 0 is a mismatch like any other, not a missing flag.
    code, out = run_cli(capsys, "z-search", "--F", path, "--q", "0")
    assert code == 2
    assert json.loads(out)["status"] == "error"


def test_z_search_malformed_field_exits_2(tmp_path, capsys):
    for field in ({"kind": "Fp", "p": "x"}, {"kind": "Fp"}, ["Fp", 7], {"kind": "Fp", "p": 7.0}):
        F_doc = {"degree": 12, "field": field, "coeffs": ["1"] + ["0"] * 11 + ["1"]}
        path = _write(tmp_path, "F.json", F_doc)
        code, out = run_cli(capsys, "z-search", "--F", path)
        assert code == 2, field
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["error"]["message"].startswith("F.field")


def test_z_search_rejects_jobs_outside_cap(tmp_path, capsys):
    F_doc = {
        "degree": 12,
        "field": {"kind": "Fp", "p": 7},
        "coeffs": ["1"] + ["0"] * 11 + ["1"],
    }
    path = _write(tmp_path, "F.json", F_doc)
    for jobs in (0, cli.MAX_JOBS + 1):
        code, out = run_cli(capsys, "z-search", "--F", path, "--jobs", str(jobs))
        assert code == 2
        assert "--jobs" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize(
    "argv, command, prefix",
    [
        (
            ["z-search", "--F", "x.json", "--jobs", "x"],
            "z-search",
            "cubesquare z-search: argument --jobs: invalid int value",
        ),
        (["no-such-command"], None, "cubesquare: argument command: invalid choice"),
        (
            ["fibration-info"],
            "fibration-info",
            "cubesquare fibration-info: the following arguments are required: --in",
        ),
        (["selftest", "--inject-fault"], "selftest", "cubesquare: unrecognized arguments: --inject-fault"),
    ],
    ids=["malformed-flag-value", "unknown-subcommand", "missing-required-flag", "unknown-flag"],
)
def test_malformed_command_line_returns_2_with_a_report(capsys, argv, command, prefix):
    code = main(argv)
    captured = capsys.readouterr()
    _assert_input_error(code, captured.out, prefix)
    assert json.loads(captured.out)["command"] == command
    assert captured.err == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["z-search", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cubesquare z-search")


@pytest.mark.parametrize("command", ["selftest", "recillas-selftest"])
def test_trials_outside_cap_exit_2(capsys, command):
    for trials in (-1, 0, cli.MAX_TRIALS + 1):
        code, out = run_cli(capsys, command, "--trials", str(trials))
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert "--trials" in doc["error"]["message"]


def test_recillas_selftest_names_a_run_without_round_trips(capsys, monkeypatch):
    from cubesquare import recillas

    def disconnected(t):
        raise recillas.MonodromyError("not transitive")

    monkeypatch.setattr(recillas, "forward", disconnected)
    code, out = run_cli(capsys, "recillas-selftest", "--trials", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["payload"]["frobenius"] == doc["payload"]["brute_force"]
    assert doc["error"]["message"] == "no round trip among 3 trials"


def test_z_constants(capsys):
    code, out = run_cli(capsys, "z-constants")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["deg_Z"]["value"] == 3762


def test_recillas_cli_roundtrip(tmp_path, capsys):
    from cubesquare import jsonio, recillas

    t = recillas.random_tuple(4, 12, seed=11)
    path = _write(tmp_path, "t.json", jsonio.tuple_to_json(t))
    code, out = run_cli(capsys, "recillas-forward", "--in", path)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["genera"] == {"quadruple": 3, "triple": 4, "sextic": 7}
    tp = _write(tmp_path, "triple.json", payload["triple"])
    lp = _write(tmp_path, "lift.json", payload["sextic"])
    code, out = run_cli(capsys, "recillas-reverse", "--triple", tp, "--lift", lp)
    assert code == 0
    quad = json.loads(out)["payload"]["quadruple"]
    back = jsonio.tuple_from_json(quad)
    assert recillas.find_conjugator(t, back) is not None


def test_recillas_reverse_rejects_a_lift_that_breaks_the_opposite_pairs(tmp_path, capsys):
    from cubesquare import jsonio, recillas

    triple, sextic = recillas.forward(recillas.random_tuple(4, 12, seed=11))
    # Conjugating by x'' <-> y' keeps the lift transitive, but its entries now
    # keep {0,2}, {1,3}, {4,5} together, not the opposite pairs.
    moved = sextic.conjugate(recillas.Perm.transposition(6, 1, 2))
    assert moved.is_transitive
    tp = _write(tmp_path, "triple.json", jsonio.tuple_to_json(triple))
    lp = _write(tmp_path, "lift.json", jsonio.tuple_to_json(moved))
    code, out = run_cli(capsys, "recillas-reverse", "--triple", tp, "--lift", lp)
    _assert_input_error(code, out, "lift does not project to the triple tuple")
    assert len(_reports(out)) == 1


def test_recillas_forward_rejects_disconnected_input(tmp_path, capsys):
    # twelve copies of one transposition: identity product, not transitive
    doc = {"degree": 4, "perms": [[2, 1, 3, 4]] * 12}
    path = _write(tmp_path, "flat.json", doc)
    code, out = run_cli(capsys, "recillas-forward", "--in", path)
    assert code == 2
    assert json.loads(out)["status"] == "error"


def test_recillas_selftest_deterministic(capsys):
    code1, out1 = run_cli(capsys, "recillas-selftest", "--trials", "20", "--seed", "5")
    code2, out2 = run_cli(capsys, "recillas-selftest", "--trials", "20", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_picard_report(capsys):
    code, out = run_cli(capsys, "picard-report")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["minimal_sections"] == 240
    assert payload["isometry_verified"] is True
    assert payload["intersections"]["two_torsion_vs_quartic_cover"] == 12
    assert payload["intersections"]["two_torsion_vs_quintic"] == 21


def test_fibration_halving_cli(tmp_path, capsys):
    from cubesquare import fibration, jsonio
    from cubesquare.fields import PrimeField
    import random as _random

    rng = _random.Random(21)
    w, s = fibration.random_planted_model(PrimeField(1009), rng)
    doc = {"model": jsonio.model_to_json(w), "section": jsonio.section_to_json(s)}
    path = _write(tmp_path, "halving.json", doc)
    code, out = run_cli(capsys, "fibration-halving", "--in", path)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["divisible_by_model_discriminant"] is True
    assert payload["section_height"] == 2
    assert payload["halving_family"]["kind"] == "quartic"


def _weyl_order_off_by_one(monkeypatch):
    """Break the data criterion 1 checks, not its expectation."""
    from cubesquare import e8

    monkeypatch.setattr(e8, "weyl_order", lambda: 696729601)


def test_fault_injection_flips_first_criterion(monkeypatch):
    assert selftest.criterion_e8()["passed"]
    _weyl_order_off_by_one(monkeypatch)
    res = selftest.criterion_e8()
    assert not res["passed"]
    assert [k for k, ok in res["details"]["checks"].items() if not ok] == ["weyl"]


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_fibration_info_tests_delta_once(tmp_path, capsys, monkeypatch):
    from cubesquare import binform
    from cubesquare.fibration import WModel

    path = _write(tmp_path, "model.json", MEMBERSHIP_MODEL)
    squarefree = _counting(monkeypatch, binform, "is_squarefree")
    built = _counting(monkeypatch, WModel, "discriminant_locus")
    code, out = run_cli(capsys, "fibration-info", "--in", path)
    assert code == 0
    assert json.loads(out)["payload"]["decomposition_point"]["valid"] is True
    assert len(squarefree) == 1
    assert len(built) == 1


def test_fibration_info_on_400_digit_coefficients_needs_no_exact_gcd(tmp_path, capsys, monkeypatch):
    import random as _random

    from cubesquare import binform
    from cubesquare.fields import QQ

    rng = _random.Random(400)

    def form(degree):
        coeffs = [str(rng.choice((-1, 1)) * rng.randrange(10**399, 10**400)) for _ in range(degree + 1)]
        return {"degree": degree, "field": {"kind": "Q"}, "coeffs": coeffs}

    path = _write(tmp_path, "big.json", {"a": form(4), "b": form(6)})
    exact = _counting(monkeypatch, binform, "_squarefree_by_gcd")
    code, out = run_cli(capsys, "fibration-info", "--in", path)
    assert code == 0
    assert json.loads(out)["payload"]["in_A"] is True
    # The certificate mod a prime decides; the exact gcd over Q never runs.
    assert [f for (f,) in exact if f.field == QQ] == []


def test_fibration_halving_checks_section_once(tmp_path, capsys, monkeypatch):
    from cubesquare import fibration, jsonio
    from cubesquare.fields import PrimeField
    import random as _random

    w, s = fibration.random_planted_model(PrimeField(1009), _random.Random(21))
    doc = {"model": jsonio.model_to_json(w), "section": jsonio.section_to_json(s)}
    path = _write(tmp_path, "halving.json", doc)
    checks = _counting(monkeypatch, fibration, "verify_section")
    code, out = run_cli(capsys, "fibration-halving", "--in", path)
    assert code == 0
    assert json.loads(out)["payload"]["section_height"] == 2
    assert len(checks) == 1


def test_fibration_halving_rejects_section_off_the_model(tmp_path, capsys):
    from cubesquare import fibration, jsonio
    from cubesquare.fields import PrimeField
    import random as _random

    rng = _random.Random(21)
    w, s = fibration.random_planted_model(PrimeField(1009), rng)
    other, _ = fibration.random_planted_model(PrimeField(1009), rng)
    doc = {"model": jsonio.model_to_json(other), "section": jsonio.section_to_json(s)}
    code, out = run_cli(capsys, "fibration-halving", "--in", _write(tmp_path, "h.json", doc))
    assert code == 2
    assert "does not lie on the model" in json.loads(out)["error"]["message"]


def test_fibration_info_reports_nodal_points_over_a_large_prime(tmp_path, capsys):
    # Root finding costs O(deg^2 log p) on residues, so p = 2^61 - 1 needs
    # no bound: the nodal points are reported and agree with the count.
    from cubesquare import fibration, jsonio
    from cubesquare.fields import PrimeField
    import random as _random

    F = PrimeField(2**61 - 1)
    w, _ = fibration.random_planted_model(F, _random.Random(0))
    path = _write(tmp_path, "big_p.json", jsonio.model_to_json(w))
    code, out = run_cli(capsys, "fibration-info", "--in", path)
    assert code == 0
    payload = json.loads(out)["payload"]
    points = payload["nodal_points_fp"]
    assert len(points) == payload["distinct_nodal_roots_fp"] == 1
    assert all(w.delta(x, y) == 0 and m == 1 for x, y, m in points)
    # a = 0, b = y^3 (x - y)(x - 2y)(x + 3y): delta = 27 b^2, every root double
    # and (1:0) of multiplicity 6.
    p = F.p
    b = _form({"kind": "Fp", "p": p}, "0", "0", "0", "1", "0", str(p - 7), "6")
    a = _form({"kind": "Fp", "p": p}, *["0"] * 5)
    code, out = run_cli(capsys, "fibration-info", "--in", _write(tmp_path, "cusps.json", {"a": a, "b": b}))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["nodal_points_fp"] == [[1, 0, 6], [1, 1, 2], [2, 1, 2], [p - 3, 1, 2]]
    assert payload["distinct_nodal_roots_fp"] == 4


def test_z_search_orbits_are_decompose_fq_orbits(tmp_path, capsys):
    from cubesquare import jsonio, locusz
    from cubesquare.binform import BinForm
    from cubesquare.fields import PrimeField

    F7 = PrimeField(7)
    cert = locusz.plant(BinForm(F7, 4, [1, 2, 0, 3, 1]), BinForm(F7, 6, [2, 0, 1, 1, 0, 5, 3]))
    assert locusz.verify_certificate(cert)["valid"]
    path = _write(tmp_path, "F.json", jsonio.form_to_json(cert.form))
    expected = [
        {"size": len(o), "members": [[list(f), list(g)] for f, g in o.members]}
        for o in locusz.decompose_fq(cert.form)
    ]
    for jobs in ("1", "3"):
        code, out = run_cli(capsys, "z-search", "--F", path, "--jobs", jobs)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["orbits"] == expected
        assert payload["orbit_count"] == len(expected) >= 1


def _assert_input_error(code, out, prefix):
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["error"]["message"].startswith(prefix), doc["error"]["message"]


def test_z_search_rejects_malformed_degree(tmp_path, capsys):
    for degree in ("12", True, -1, 12.0, None):
        F_doc = {"degree": degree, "field": {"kind": "Fp", "p": 7}, "coeffs": ["1"] * 13}
        code, out = run_cli(capsys, "z-search", "--F", _write(tmp_path, "F.json", F_doc))
        _assert_input_error(code, out, "F.degree")


PICARD_SYSTEM = {
    "generators": [{"h": 1, "e": [0] * 9}],
    "constraints": [{"genus": 0}],
}


def test_picard_solve_rejects_malformed_box(tmp_path, capsys):
    for box in ("abc", "5", -1, 2.5, True):
        doc = dict(PICARD_SYSTEM, box=box)
        code, out = run_cli(capsys, "picard-solve", "--in", _write(tmp_path, "s.json", doc))
        _assert_input_error(code, out, "input.box")


def test_picard_solve_rejects_a_generator_count_outside_one_to_three(tmp_path, capsys):
    for count in (0, 4):
        doc = dict(PICARD_SYSTEM, generators=[{"h": 1, "e": [0] * 9}] * count)
        code, out = run_cli(capsys, "picard-solve", "--in", _write(tmp_path, "s.json", doc))
        _assert_input_error(code, out, f"generators: need 1..3 classes, got {count}")


def test_picard_solve_rejects_non_object_documents(tmp_path, capsys):
    code, out = run_cli(capsys, "picard-solve", "--in", _write(tmp_path, "s.json", [PICARD_SYSTEM]))
    _assert_input_error(code, out, "input: expected an object")
    doc = dict(PICARD_SYSTEM, constraints=[3])
    code, out = run_cli(capsys, "picard-solve", "--in", _write(tmp_path, "s.json", doc))
    _assert_input_error(code, out, "constraints[0]: expected an object")


def test_fibration_halving_rejects_non_object_section(tmp_path, capsys):
    doc = {"model": MEMBERSHIP_MODEL, "section": [1]}
    code, out = run_cli(capsys, "fibration-halving", "--in", _write(tmp_path, "h.json", doc))
    _assert_input_error(code, out, "section: expected an object")


# The whole contract for the lattice constants: the reports of the two
# commands that take no input, byte for byte.
REPORT_SHA256 = {
    "picard-report": "b5a13c23a0f845d28c88dcab37d50859f7a349f8ddd1913e215c139de49cbb8a",
    "e8-report": "0c63c9bc641f3533231d54afe543c83165a0b47ca3d04c3107e0453fa6516223",
}


def test_inputless_reports_are_pinned(capsys):
    import hashlib

    for command, digest in REPORT_SHA256.items():
        code, out = run_cli(capsys, command)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def _form(field, *coeffs):
    return {"degree": len(coeffs) - 1, "field": field, "coeffs": list(coeffs)}


_Q = {"kind": "Q"}
_F1009 = {"kind": "Fp", "p": 1009}

# One planted model with a section per field: over Q with non-integral
# coefficients, over F_1009 the seed-21 draw of ``random_planted_model``.
PINNED_HALVING_INPUTS = {
    "Q": {
        "model": {
            "a": _form(_Q, "1", "0", "-2", "1", "3"),
            "b": _form(_Q, "-9", "13", "-47/6", "9", "-62/9", "21/4", "59/8"),
        },
        "section": {
            "x_num": _form(_Q, "2", "-1", "1/2"),
            "x_den_sqrt": _form(_Q, "1"),
            "y_num": _form(_Q, "1", "0", "1/3", "3"),
        },
    },
    "F1009": {
        "model": {
            "a": _form(_F1009, "863", "221", "811", "486", "827"),
            "b": _form(_F1009, "113", "751", "624", "955", "778", "353", "520"),
        },
        "section": {
            "x_num": _form(_F1009, "706", "428", "168"),
            "x_den_sqrt": _form(_F1009, "1"),
            "y_num": _form(_F1009, "490", "288", "650", "428"),
        },
    },
}

# The fibration reports on those inputs, byte for byte.
FIBRATION_REPORT_SHA256 = {
    ("fibration-info", "Q"): "f118d0687a3b81b36a3cff57a3d64ca58630f53b01c4fd715c53e660ccca5ea8",
    ("fibration-halving", "Q"): "584d092479fe6c2062129a524671fb6b6d83a0bc9a08bc6cdbe512f1e789074f",
    ("fibration-info", "F1009"): "a09ca06e30a31be71070f097e0a2f5efe343e564ac4648520037e9e1568db6ad",
    ("fibration-halving", "F1009"): "859cc9cd45739b3da6591b14679a4b6bfa6ce0f1aa09a4b315dbd3fdf471346c",
}


def test_fibration_reports_are_pinned(tmp_path, capsys):
    import hashlib

    for (command, field), digest in FIBRATION_REPORT_SHA256.items():
        doc = PINNED_HALVING_INPUTS[field]
        if command == "fibration-info":
            doc = doc["model"]
        code, out = run_cli(capsys, command, "--in", _write(tmp_path, "in.json", doc))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (command, field)


# A section with a real denominator: 2S, by chord-tangent doubling over
# F_1009(t), for the planted section S of the seed-12 draw of
# ``random_planted_model`` over F_1009.  (2S.O) = 3, so its height is
# 2 + 2 * 3 = 8 = 4 <S,S>.
DOUBLED_SECTION_INPUT = (
    '{"model": {"a": {"degree": 4, "field": {"kind": "Fp", "p": 1009}, "coeffs": ["390", '
    '"11", "383", "494", "280"]}, "b": {"degree": 6, "field": {"kind": "Fp", "p": 1009}, '
    '"coeffs": ["707", "554", "24", "612", "358", "926", "964"]}}, '
    '"section": {"x_num": {"degree": 8, "field": {"kind": "Fp", "p": 1009}, '
    '"coeffs": ["352", "297", "508", "604", "847", "700", "169", "559", "127"]}, '
    '"x_den_sqrt": {"degree": 3, "field": {"kind": "Fp", "p": 1009}, "coeffs": ["1", "348", '
    '"212", "757"]}, "y_num": {"degree": 12, "field": {"kind": "Fp", "p": 1009}, '
    '"coeffs": ["252", "547", "252", "704", "646", "374", "253", "253", "809", "489", "265", '
    '"197", "317"]}}}'
)


def test_fibration_halving_of_a_section_with_a_denominator(tmp_path, capsys):
    path = tmp_path / "doubled.json"
    path.write_text(DOUBLED_SECTION_INPUT)
    code, out = run_cli(capsys, "fibration-halving", "--in", str(path))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert json.loads(DOUBLED_SECTION_INPUT)["section"]["x_den_sqrt"]["degree"] == 3
    assert payload["section_height"] == 8
    assert payload["divisible_by_model_discriminant"] is True
    assert payload["extraneous_factor"]["degree"] == 48
    assert payload["extraneous_factor_square_root"]["degree"] == 24


def test_main_builds_no_parser(capsys, monkeypatch):
    built = _counting(monkeypatch, cli, "build_parser")
    for _ in range(2):
        code, _out = run_cli(capsys, "z-constants")
        assert code == 0
    assert built == []


def test_warm_picard_report_solves_no_class(capsys, monkeypatch):
    from cubesquare import picard

    assert run_cli(capsys, "picard-report")[0] == 0
    solves = _counting(monkeypatch, picard, "solve_class")
    assert run_cli(capsys, "picard-report")[0] == 0
    assert solves == []


def test_warm_picard_report_makes_no_height_calls(capsys, monkeypatch):
    from cubesquare import picard

    assert run_cli(capsys, "picard-report")[0] == 0
    heights = _counting(monkeypatch, picard, "lattice_height")
    assert run_cli(capsys, "picard-report")[0] == 0
    assert heights == []


def test_warm_picard_report_reconstructs_no_zero_base_class(capsys, monkeypatch):
    from cubesquare import picard

    assert run_cli(capsys, "picard-report")[0] == 0
    reconstructions = _counting(monkeypatch, picard, "reconstruct_e0")
    assert run_cli(capsys, "picard-report")[0] == 0
    assert reconstructions == []


def test_repeated_picard_reports_rerun_no_isometry_check(capsys, monkeypatch):
    # verify_isometry and mod2_section_classes read the isometry and then
    # project each class (mw_image) or reduce each root (mod2_key); a rerun
    # of either would show in these counts.
    from cubesquare import e8, picard

    assert run_cli(capsys, "picard-report")[0] == 0
    counts = [
        _counting(monkeypatch, picard, "section_isometry"),
        _counting(monkeypatch, picard, "mw_image"),
        _counting(monkeypatch, e8, "mod2_key"),
    ]
    for _ in range(3):
        code, out = run_cli(capsys, "picard-report")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["isometry_verified"] is True
        assert payload["mod2_section_classes"] == 120
    assert counts == [[], [], []]


def test_an_internal_error_exits_3_with_one_report(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")
        yield  # a handler is a generator of outcomes

    monkeypatch.setitem(DISPATCH, "e8-report", broken)
    code = main(["e8-report"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 3
    report = json.loads(captured.out)  # one report, nothing else on stdout
    assert report["command"] == "e8-report" and report["status"] == "error"
    assert report["payload"] is None
    assert report["error"] == {"code": 3, "message": "internal error: RuntimeError: boom"}
    assert "RuntimeError: boom" in captured.err  # the traceback


def test_a_broken_lattice_invariant_exits_3_not_2(capsys, monkeypatch):
    # A minimal section on the search-box boundary is a bug in the program,
    # not bad input, so picard-report must not exit 2.
    from cubesquare import picard

    monkeypatch.setattr(picard, "_E_RANGE", (-3, 1))
    picard.enumerate_minimal_sections.cache_clear()
    code, out = run_cli(capsys, "picard-report")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == 3
    assert error["message"].startswith("internal error: ArithmeticError: solution")
    assert "search-box boundary" in error["message"]


def test_a_scan_not_closed_under_the_torus_action_exits_3(tmp_path, capsys, monkeypatch):
    # A scan that loses one hit of an orbit is a bug in the program, not bad
    # input.  Over F_7 every orbit has three canonical hits, so the other two
    # remain and their orbit is incomplete.
    from cubesquare import _kernels

    scan = _kernels.decompose_scan
    monkeypatch.setattr(_kernels, "decompose_scan", lambda *args: scan(*args)[1:])
    F_doc = {"degree": 12, "field": {"kind": "Fp", "p": 7}, "coeffs": ["1"] + ["0"] * 11 + ["1"]}
    code, out = run_cli(capsys, "z-search", "--F", _write(tmp_path, "F.json", F_doc))
    assert code == 3
    (report,) = _reports(out)
    assert report["error"]["code"] == 3
    assert report["error"]["message"].startswith(
        "internal error: ArithmeticError: scan output not closed under the torus action"
    )


def test_picard_solve_rejects_a_box_over_the_enumeration_cap(tmp_path, capsys):
    from cubesquare import picard

    # No constraint leaves the one coordinate to enumerate: 2 * 10^8 + 1 tuples.
    doc = {"generators": [PICARD_GENERATOR], "constraints": [], "box": 10**8}
    code, out = run_cli(capsys, "picard-solve", "--in", _write(tmp_path, "s.json", doc))
    _assert_input_error(code, out, "input.box")
    assert str(picard.MAX_ENUMERATION) in json.loads(out)["error"]["message"]


def test_picard_solve_workload_systems_stay_under_the_cap(tmp_path, capsys):
    # The halving systems enumerate no coordinate, whatever the box.
    from cubesquare import jsonio, picard

    for name, (gens, cons, expected) in picard.halving_class_systems().items():
        doc = {
            "generators": [jsonio.divclass_to_json(g) for g in gens],
            "constraints": [
                {"genus": c.value}
                if c.kind == "genus"
                else {"dot_with": jsonio.divclass_to_json(c.target), "equals": c.value}
                for c in cons
            ],
            "box": 10**8,
        }
        code, out = run_cli(capsys, "picard-solve", "--in", _write(tmp_path, "s.json", doc))
        assert code == 0, name
        assert list(expected) in json.loads(out)["payload"]["solutions"]


PICARD_GENERATOR = {"h": 1, "e": [0] * 9}


@pytest.mark.parametrize(
    "doc, prefix",
    [
        (dict(PICARD_SYSTEM, generators=[{"h": "abc", "e": [0] * 9}]), "generators[0].h"),
        (dict(PICARD_SYSTEM, generators=[{"h": 3.0, "e": [0] * 9}]), "generators[0].h"),
        (dict(PICARD_SYSTEM, generators=[{"h": 1, "e": [0] * 8 + ["1"]}]), "generators[0].e[8]"),
        (dict(PICARD_SYSTEM, generators=PICARD_GENERATOR), "generators: expected a list"),
        (dict(PICARD_SYSTEM, constraints=[{"genus": "x"}]), "constraints[0].genus"),
        (dict(PICARD_SYSTEM, constraints=[{"genus": 2.7}]), "constraints[0].genus"),
        (dict(PICARD_SYSTEM, constraints=[{"genus": False}]), "constraints[0].genus"),
        (
            dict(PICARD_SYSTEM, constraints=[{"dot_with": PICARD_GENERATOR, "equals": "1"}]),
            "constraints[0].equals",
        ),
        (dict(PICARD_SYSTEM, constraints={"genus": 0}), "constraints: expected a list"),
    ],
)
def test_picard_solve_rejects_malformed_integers(tmp_path, capsys, doc, prefix):
    code, out = run_cli(capsys, "picard-solve", "--in", _write(tmp_path, "s.json", doc))
    _assert_input_error(code, out, prefix)


@pytest.mark.parametrize(
    "doc, prefix",
    [
        ({"degree": 4, "perms": [5]}, "tuple.perms[0]: expected a list"),
        ({"degree": 4, "perms": 5}, "tuple.perms: expected a list"),
        ({"degree": 4, "perms": [[2, 1, "3", 4]]}, "tuple.perms[0][2]"),
        ({"degree": 4, "perms": [[2, 1, 3.0, 4]]}, "tuple.perms[0][2]"),
        ({"degree": "x", "perms": [[2, 1, 3, 4]] * 2}, "tuple.degree"),
        ({"degree": 4.0, "perms": [[2, 1, 3, 4]] * 2}, "tuple.degree"),
        # Not a permutation of 1..4: the one check, at the input boundary.
        ({"degree": 4, "perms": [[2, 2, 3, 4]] * 2}, "tuple.perms[0]: not a permutation"),
        ({"degree": 4, "perms": [[1, 2, 3, 4], [0, 1, 2, 3]]}, "tuple.perms[1]: not a permutation"),
    ],
)
def test_recillas_forward_rejects_malformed_integers(tmp_path, capsys, doc, prefix):
    code, out = run_cli(capsys, "recillas-forward", "--in", _write(tmp_path, "t.json", doc))
    _assert_input_error(code, out, prefix)


def _small_argvs(tmp_path):
    """One small valid command line per subcommand."""
    import random as _random

    from cubesquare import fibration, jsonio, locusz, recillas
    from cubesquare.binform import BinForm
    from cubesquare.fields import PrimeField

    w, s = fibration.random_planted_model(PrimeField(1009), _random.Random(21))
    F7 = PrimeField(7)
    f, g = BinForm(F7, 4, [1, 2, 0, 3, 1]), BinForm(F7, 6, [2, 0, 1, 1, 0, 5, 3])
    cert = locusz.plant(f, g)
    t = recillas.random_tuple(4, 12, seed=11)
    triple, sextic = recillas.forward(t)
    system = {
        "generators": [{"h": 1, "e": [0] * 9}],
        "constraints": [{"dot_with": {"h": 1, "e": [0] * 9}, "equals": 2}, {"genus": 0}],
    }
    return {
        # Seed 7 plants one form with a second orbit among its five plants,
        # so the suite also checks that an extra orbit recomposes the form.
        "selftest": ["selftest", "--trials", "5", "--seed", "7"],
        "e8-report": ["e8-report"],
        "picard-solve": ["picard-solve", "--in", _write(tmp_path, "system.json", system)],
        "picard-report": ["picard-report"],
        "fibration-info": ["fibration-info", "--in", _write(tmp_path, "w.json", jsonio.model_to_json(w))],
        "fibration-halving": [
            "fibration-halving",
            "--in",
            _write(
                tmp_path,
                "halving.json",
                {"model": jsonio.model_to_json(w), "section": jsonio.section_to_json(s)},
            ),
        ],
        "recillas-forward": ["recillas-forward", "--in", _write(tmp_path, "t.json", jsonio.tuple_to_json(t))],
        "recillas-reverse": [
            "recillas-reverse",
            "--triple",
            _write(tmp_path, "triple.json", jsonio.tuple_to_json(triple)),
            "--lift",
            _write(tmp_path, "lift.json", jsonio.tuple_to_json(sextic)),
        ],
        "recillas-selftest": ["recillas-selftest", "--trials", "5"],
        "z-verify": [
            "z-verify",
            "--cert",
            _write(
                tmp_path,
                "cert.json",
                {"F": jsonio.form_to_json(cert.form), "point": jsonio.bpoint_to_json(cert.point)},
            ),
        ],
        "z-plant": [
            "z-plant",
            "--f",
            _write(tmp_path, "f.json", jsonio.form_to_json(f)),
            "--g",
            _write(tmp_path, "g.json", jsonio.form_to_json(g)),
        ],
        "z-search": ["z-search", "--F", _write(tmp_path, "F.json", jsonio.form_to_json(cert.form))],
        "z-constants": ["z-constants"],
    }


def _reports(out):
    return [json.loads(chunk) for chunk in out.replace("}\n{", "}\x00{").split("\x00")]


def test_out_file_carries_the_stdout_bytes(tmp_path, capsys):
    bad = dict(MEMBERSHIP_MODEL, a=dict(MEMBERSHIP_MODEL["a"], coeffs=["1/0"] * 5))
    for argv, expected_code in (
        (["e8-report"], 0),
        (["fibration-info", "--in", _write(tmp_path, "bad.json", bad)], 2),
    ):
        code, stdout = run_cli(capsys, *argv)
        assert code == expected_code
        out_path = tmp_path / "report.json"
        code, out = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == expected_code
        assert out == ""
        assert out_path.read_bytes() == stdout.encode()


def test_cli_selftest_with_an_injected_fault_names_the_failing_suite(capsys, monkeypatch):
    _weyl_order_off_by_one(monkeypatch)
    for name in [n for n in dir(selftest) if n.startswith("criterion_") and n != "criterion_e8"]:
        stub = {"criterion": getattr(selftest, name).criterion_name, "passed": True, "details": {}}
        monkeypatch.setattr(selftest, name, lambda stub=stub, **kw: stub)
    code = main(["selftest", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 1
    reports = _reports(captured.out)
    assert len(reports) == 7
    assert reports[0]["status"] == "error"
    assert reports[0]["error"] == {"code": 1, "message": "criterion e8-census failed"}
    assert [r["status"] for r in reports[1:]] == ["ok"] * 6
    assert captured.err == "selftest: first failing suite: e8-census\n"


@pytest.mark.parametrize("target", ["missing/dir/x.json", "."])
def test_unwritable_out_exits_2_with_the_report_on_stdout(tmp_path, capsys, target):
    code, out = run_cli(capsys, "e8-report", "--out", str(tmp_path / target))
    _assert_input_error(code, out, "--out:")


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000, b"1" * 5000],
    ids=["not-utf8", "too-deep", "over-long-integer"],
)
def test_undecodable_input_file_exits_2_naming_the_flag(tmp_path, capsys, content):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    code, out = run_cli(capsys, "fibration-info", "--in", str(path))
    _assert_input_error(code, out, "fibration-info --in:")


def test_picard_solve_takes_a_box_of_any_size(tmp_path, capsys):
    from cubesquare import jsonio, picard

    gens, cons, _ = picard.halving_class_systems()["quartic_cover"]
    doc = {
        "generators": [jsonio.divclass_to_json(g) for g in gens],
        "constraints": [
            {"genus": c.value}
            if c.kind == "genus"
            else {"dot_with": jsonio.divclass_to_json(c.target), "equals": c.value}
            for c in cons
        ],
        "box": 10**40,
    }
    code, out = run_cli(capsys, "picard-solve", "--in", _write(tmp_path, "s.json", doc))
    assert code == 0
    assert json.loads(out)["payload"]["solutions"] == [[6, 0, -2]]
    doc = {"generators": [PICARD_GENERATOR], "constraints": [], "box": 10**40}
    code, out = run_cli(capsys, "picard-solve", "--in", _write(tmp_path, "s.json", doc))
    _assert_input_error(code, out, "input.box")


# Values a mutation puts in place of a node of a valid input document.
ODD_VALUES = [None, "x", [], {}, True, 2.5, -1]
MUTANTS_PER_FILE = 200


def _nodes(doc, path=()):
    """Every (path, node) of a JSON document, the root first."""
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


def _huge_integers(node):
    """``node`` with every integer leaf (not a bool) set to 10^40."""
    if isinstance(node, dict):
        return {k: _huge_integers(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_huge_integers(v) for v in node]
    return 10**40 if type(node) is int else node


def _mutants(doc, rng):
    """Seeded mutants of ``doc``: a node replaced, a key deleted or a list
    lengthened or shortened; then ``doc`` with every integer made huge."""
    nodes = list(_nodes(doc))
    for _ in range(MUTANTS_PER_FILE):
        path, node = rng.choice(nodes)
        choices = [rng.choice(ODD_VALUES)]
        if isinstance(node, dict) and node:
            gone = rng.choice(sorted(node))
            choices.append({k: v for k, v in node.items() if k != gone})
        if isinstance(node, list) and node:
            choices += [node + node[-1:], node[:-1]]
        yield _replaced(doc, path, rng.choice(choices))
    yield _huge_integers(doc)


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_input_documents_exit_0_1_or_2_with_one_report(tmp_path, capsys, seed):
    import random as _random

    argvs = list(_small_argvs(tmp_path).values())
    argvs.append(["picard-solve", "--in", _write(tmp_path, "boxed.json", dict(PICARD_SYSTEM, box=5))])
    rng = _random.Random(seed)
    for argv in argvs:
        for at, arg in enumerate(argv):
            if not arg.endswith(".json"):
                continue
            with open(arg) as fh:
                doc = json.load(fh)
            for mutant in _mutants(doc, rng):
                path = _write(tmp_path, "mutant.json", mutant)
                code = main(argv[:at] + [path] + argv[at + 1 :])
                captured = capsys.readouterr()
                assert code in (0, 1, 2), (argv[0], mutant)
                report = json.loads(captured.out)
                assert report["status"] == ("ok" if code == 0 else "error"), (argv[0], mutant)
                assert captured.err == "", (argv[0], mutant)


@pytest.mark.parametrize(
    "argv",
    [
        ["z-search", "--F", "x.json", "--jobs", "x"],
        ["no-such-command"],
        ["fibration-info"],
        ["selftest", "--inject-fault"],
        [],
        ["recillas-reverse", "--triple", "t.json"],
        ["recillas-forward", "--in"],
        ["z-search", "--F", "x.json", "stray", "--bogus", "-q"],
        ["picard-report", "--", "--out"],
        ["-x", "e8-report"],
        ["--", "e8-report", "--out"],
    ],
)
def test_the_direct_parse_reports_what_the_top_level_parser_reports(capsys, monkeypatch, argv):
    code = main(list(argv))
    direct = capsys.readouterr()
    monkeypatch.setattr(cli, "parse_command_line", cli.PARSER.parse_args)
    reference_code = main(list(argv))
    reference = capsys.readouterr()
    assert (code, direct.out, direct.err) == (reference_code, reference.out, reference.err)
    assert code == 2


def test_the_direct_parse_gives_the_top_level_namespace():
    for argv in (
        ["z-search", "--F", "x.json", "--jobs", "3"],
        ["recillas-selftest"],
        ["recillas-reverse", "--lift", "l.json", "--triple", "t.json", "--out", "o.json"],
    ):
        assert cli.parse_command_line(argv) == cli.PARSER.parse_args(argv)


@pytest.mark.parametrize(
    "system, message",
    [("_PAIR_PARTITIONS", "triple image not simply branched"), ("_TWO_SUBSETS", "double cover disconnected")],
)
def test_forward_through_a_wrong_table_exits_3(tmp_path, capsys, monkeypatch, system, message):
    # forward's checks on its images are invariants of the tables, not input
    # errors: a table that sends every sheet permutation to the identity (a
    # homomorphism, so the products still close up) is a bug in the program.
    from cubesquare import jsonio, recillas

    key = getattr(recillas, system)
    table = recillas._TABLES[key]
    identity = recillas.Perm.identity(len(key))
    monkeypatch.setitem(recillas._TABLES, key, dict.fromkeys(table, identity))
    doc = jsonio.tuple_to_json(recillas.random_tuple(4, 12, seed=3))
    code, out = run_cli(capsys, "recillas-forward", "--in", _write(tmp_path, "t.json", doc))
    assert code == cli.EXIT_INTERNAL == 3
    assert json.loads(out)["error"] == {"code": 3, "message": f"internal error: ArithmeticError: {message}"}
