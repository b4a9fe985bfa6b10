import json

from cubesquare import cli, selftest
from cubesquare.cli import DISPATCH, OP_COVERAGE, CATALOGUED_OPERATIONS, main


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
    assert set(OP_COVERAGE) == subcommands


def test_every_operation_reachable_from_a_subcommand():
    reachable = set()
    for ops in OP_COVERAGE.values():
        reachable |= set(ops)
    missing = [op for op in CATALOGUED_OPERATIONS if op not in reachable]
    assert not missing, f"unreachable operations: {missing}"


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


def test_z_search_validates_q_flag(tmp_path, capsys):
    F_doc = {
        "degree": 12,
        "field": {"kind": "Fp", "p": 7},
        "coeffs": ["1"] + ["0"] * 11 + ["1"],
    }
    path = _write(tmp_path, "F.json", F_doc)
    code, out = run_cli(capsys, "z-search", "--F", path, "--q", "13")
    assert code == 2


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


def test_fault_injection_flips_first_criterion():
    res = selftest.criterion_e8(fault=True)
    assert not res["passed"]
    res_ok = selftest.criterion_e8(fault=False)
    assert res_ok["passed"]


def test_cli_selftest_small_scale(capsys):
    # trials=5 scales the sampled suites down; at this size every suite
    # passes deterministically with seed 1 (the full-size locus criterion,
    # 100 plants, runs in test_acceptance.py)
    code, out = run_cli(capsys, "selftest", "--trials", "5", "--seed", "1")
    assert code == 0
    reports = [json.loads(chunk) for chunk in out.replace("}\n{", "}\x00{").split("\x00")]
    assert len(reports) == 7
    assert all(r["payload"]["passed"] for r in reports)
    names = [r["payload"]["criterion"] for r in reports]
    assert names[0] == "e8-census" and names[-1] == "constants-registry"


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
