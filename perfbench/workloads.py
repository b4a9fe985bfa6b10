"""The benchmark's workloads: seeded inputs, request mixes and output oracles.

A workload is a list of request classes.  Each class draws a pool of distinct
input items from the seed and writes their files before any timing starts; an
item is one request, or a short chain of requests whose later inputs are the
earlier outputs (recillas-forward, then recillas-reverse on its output).
Traffic runs in blocks: block k takes ``per_block`` items from every class
and shuffles them with a generator seeded by (seed, k), so every whole block
holds exactly the stated mix.  The per-block counts are chosen so that the
median and the 90th percentile of latency each fall well inside one request
class, never at the boundary between two.

Every report is checked by an oracle that uses only ``arith``, never the
program's own code.  ``CORRUPT`` breaks one checked field per kind, so a run
can show that its oracle rejects a wrong report.
"""

from __future__ import annotations

import json
import os
import random

from arith import (
    add,
    compose,
    conjugate_tuples,
    discriminant12,
    form_json,
    induced_action,
    is_squarefree,
    is_transitive,
    is_transposition,
    mul,
    parse_coeffs,
    rh_genus,
    scale,
    transpositions,
)

# Sheets a, b, c, d of the quadruple cover are 0..3.  The program's wire
# format lists the pair-partitions and the 2-subsets in these orders.
PAIR_PARTITIONS = [
    frozenset({frozenset({0, 1}), frozenset({2, 3})}),
    frozenset({frozenset({0, 2}), frozenset({1, 3})}),
    frozenset({frozenset({0, 3}), frozenset({1, 2})}),
]
TWO_SUBSETS = [
    frozenset(s) for s in ({0, 1}, {2, 3}, {0, 2}, {1, 3}, {0, 3}, {1, 2})
]


def _divclass(h, e):
    return {"h": h, "e": list(e)}


_H = _divclass(1, [0] * 9)
_E0 = _divclass(0, [1] + [0] * 8)
_FIBER = _divclass(3, [-1] * 9)

# The three halving-class systems of the rank-10 lattice and their unique
# solutions (coefficients of the generators).
PICARD_SYSTEMS = {
    "quartic_cover": (
        [_H, _divclass(0, [1, 1] + [0] * 7), _divclass(0, [0, 0] + [1] * 7)],
        [
            {"equals": 0, "dot_with": _E0},
            {"equals": 4, "dot_with": _FIBER},
            {"genus": 3},
        ],
        [6, 0, -2],
    ),
    "two_torsion": (
        [_H, _divclass(0, [0] + [1] * 8), _E0],
        [
            {"equals": 0, "dot_with": _E0},
            {"equals": 3, "dot_with": _FIBER},
            {"genus": 4},
        ],
        [9, -3, 0],
    ),
    "quintic_triple_point": (
        [_H, _E0, _divclass(0, [0] + [1] * 8)],
        [
            {"equals": 3, "dot_with": _E0},
            {"equals": 4, "dot_with": _FIBER},
            {"genus": 3},
        ],
        [5, -3, -1],
    ),
}
# picard-solve boxes cycle through 10..20 in pool order, so every run sees the
# same spread of solve times, (2 box + 1)^3 candidates each, whatever the seed.
PICARD_BOXES = tuple(range(10, 21))


class Inputs:
    """Writes the input documents of one run under a work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def write(self, doc) -> str:
        path = os.path.join(self.workdir, f"in{self.count:05d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def _spec(kind, argv, **expect):
    return {"kind": kind, "argv": argv, "expect": expect}


# ---------------------------------------------------------------------------
# Item generators: (rng, inputs, i) -> the request specs of the class's i-th
# pool item.


def zsearch_item(q, d):
    def make(rng, inputs, i):
        while True:
            f = [rng.randrange(q) for _ in range(d + 1)]
            g = [rng.randrange(q) for _ in range(3 * d // 2 + 1)]
            F = add(mul(mul(f, f, q), f, q), mul(g, g, q), q)
            if is_squarefree(F, q):
                break
        path = inputs.write(form_json(F, q))
        return [_spec("z-search", ["z-search", "--F", path], q=q, F=F, f=f, g=g)]

    return make


def _planted_model(rng, p):
    """A twelve-nodal model Y^2 = X^3 + aX + b with the polynomial section
    (x0, y0): b = y0^2 - x0^3 - a x0, kept only if 4a^3 + 27b^2 is squarefree."""
    draw = (lambda: rng.randrange(p)) if p else (lambda: rng.randint(-5, 5))
    while True:
        x0 = [draw() for _ in range(3)]
        y0 = [draw() for _ in range(4)]
        a = [draw() for _ in range(5)]
        if not any(y0):
            continue
        b = add(
            add(mul(y0, y0, p), scale(mul(mul(x0, x0, p), x0, p), -1, p), p),
            scale(mul(a, x0, p), -1, p),
            p,
        )
        delta = discriminant12(a, b, p)
        if is_squarefree(delta, p):
            return x0, y0, a, b, delta


def fibration_info_item(p):
    def make(rng, inputs, i):
        _, _, a, b, delta = _planted_model(rng, p)
        path = inputs.write({"a": form_json(a, p), "b": form_json(b, p)})
        return [
            _spec(
                "fibration-info",
                ["fibration-info", "--in", path],
                p=p,
                delta=form_json(delta, p),
            )
        ]

    return make


def fibration_halving_item(p):
    def make(rng, inputs, i):
        x0, y0, a, b, _ = _planted_model(rng, p)
        doc = {
            "model": {"a": form_json(a, p), "b": form_json(b, p)},
            "section": {
                "x_num": form_json(x0, p),
                "x_den_sqrt": form_json([1], p),
                "y_num": form_json(y0, p),
            },
        }
        path = inputs.write(doc)
        return [_spec("fibration-halving", ["fibration-halving", "--in", path])]

    return make


def _tuple_json(perms):
    return {"degree": len(perms[0]), "perms": [[x + 1 for x in p] for p in perms]}


def recillas_item(rng, inputs, i):
    """A random simply branched 12-point quadruple cover, then the forward
    direction on it and the reverse direction on the forward output."""
    ts = transpositions(4)
    while True:
        draws = [rng.choice(ts) for _ in range(11)]
        prod = tuple(range(4))
        for t in draws:
            prod = compose(prod, t)
        if not is_transposition(prod):
            continue
        quad = draws + [prod]
        triple = [induced_action(t, PAIR_PARTITIONS) for t in quad]
        sextic = [induced_action(t, TWO_SUBSETS) for t in quad]
        if all(is_transitive(n, ps) for n, ps in ((4, quad), (3, triple), (6, sextic))):
            break
    quad_doc, triple_doc, sextic_doc = map(_tuple_json, (quad, triple, sextic))
    forward = _spec(
        "recillas-forward",
        ["recillas-forward", "--in", inputs.write(quad_doc)],
        triple=triple_doc,
        sextic=sextic_doc,
    )
    reverse = _spec(
        "recillas-reverse",
        [
            "recillas-reverse",
            "--triple",
            inputs.write(triple_doc),
            "--lift",
            inputs.write(sextic_doc),
        ],
        quadruple=quad_doc,
    )
    return [forward, reverse]


def picard_solve_item(boxes):
    def make(rng, inputs, i):
        box = boxes[i % len(boxes)]
        name = rng.choice(sorted(PICARD_SYSTEMS))
        gens, cons, solution = PICARD_SYSTEMS[name]
        path = inputs.write({"generators": gens, "constraints": cons, "box": box})
        return [_spec("picard-solve", ["picard-solve", "--in", path], solution=solution)]

    return make


def fixed_item(command):
    def make(rng, inputs, i):
        return [_spec(command, [command])]

    return make


# ---------------------------------------------------------------------------
# Workloads.


class RequestClass:
    def __init__(self, name, per_block, make):
        self.name = name
        self.per_block = per_block
        self.make = make


class Workload:
    def __init__(self, classes, warmup, pool_blocks):
        self.classes = classes
        self.warmup = warmup  # item generators run once each, in order, at set-up
        self.pool_blocks = pool_blocks  # distinct items: this many blocks' worth


F1009 = 1009

WORKLOADS = {
    # Degree-12 scans over F_7/F_11/F_13 and sextic scans over F_101: the
    # q^(d+1) kernel scan is nearly all the work, and the q mix moves its
    # working set from inside L2 to far beyond it.  Latency classes sort as
    # F_7 < F_11 < F_13 ~ sextic; p50 lies inside F_11, p90 inside the
    # F_13/sextic tail.
    "zsearch": Workload(
        [
            RequestClass("deg12-F7", 5, zsearch_item(7, 4)),
            RequestClass("deg12-F11", 9, zsearch_item(11, 4)),
            RequestClass("deg12-F13", 2, zsearch_item(13, 4)),
            RequestClass("sextic-F101", 4, zsearch_item(101, 2)),
        ],
        [zsearch_item(7, 4), zsearch_item(11, 2)],
        pool_blocks=16,
    ),
    # fibration-info and fibration-halving on planted twelve-nodal models over
    # F_1009: small-int exact arithmetic in every algebra layer, no kernel.
    "fibration-fp": Workload(
        [
            RequestClass("info", 4, fibration_info_item(F1009)),
            RequestClass("halving", 1, fibration_halving_item(F1009)),
        ],
        [fibration_info_item(F1009), fibration_halving_item(F1009)],
        pool_blocks=100,
    ),
    # The same commands over Q with coefficients in [-5, 5]: Fraction
    # arithmetic and coefficient growth.  Info (~15 ms) is faster than halving
    # (~22 ms) and their ranges overlap, so an even mix would put p50 on the
    # boundary; four info to one halving puts p50 inside the info class and
    # p90 near the middle of the halving class.
    "fibration-q": Workload(
        [
            RequestClass("info", 4, fibration_info_item(None)),
            RequestClass("halving", 1, fibration_halving_item(None)),
        ],
        [fibration_info_item(None), fibration_halving_item(None)],
        pool_blocks=100,
    ),
    # Millisecond recillas round trips (80% of requests, so p50 lies among
    # them), 12% picard-solve (p90 lies among them) and one picard-report and
    # one e8-report per block.  The only workload reaching e8/picard/recillas.
    # 44 blocks of pool hold 132 picard-solve items, a whole number of cycles.
    "lattice": Workload(
        [
            RequestClass("recillas", 10, recillas_item),
            RequestClass("picard-solve", 3, picard_solve_item(PICARD_BOXES)),
            RequestClass("picard-report", 1, fixed_item("picard-report")),
            RequestClass("e8-report", 1, fixed_item("e8-report")),
        ],
        [fixed_item("e8-report"), fixed_item("picard-report"), recillas_item, picard_solve_item((9,))],
        pool_blocks=44,
    ),
}


def build_manifest(name: str, seed: int, workdir: str) -> dict:
    """Draw every input of a run from the seed and write the input files."""
    wl = WORKLOADS[name]
    inputs = Inputs(workdir)
    rng = random.Random(f"{name}/{seed}")
    classes = []
    for cls in wl.classes:
        pool = [cls.make(rng, inputs, i) for i in range(cls.per_block * wl.pool_blocks)]
        classes.append({"name": cls.name, "per_block": cls.per_block, "pool": pool})
    # Set-up inputs are the same for every seed, so set-up time does not
    # depend on the seed.
    warm_rng = random.Random(f"{name}/warmup")
    warmup = [spec for make in wl.warmup for spec in make(warm_rng, inputs, 0)]
    return {"workload": name, "seed": seed, "classes": classes, "warmup": warmup}


def block(manifest: dict, k: int) -> list:
    """The request specs of block k, in their shuffled order."""
    items = []
    for cls in manifest["classes"]:
        pool, n = cls["pool"], cls["per_block"]
        items.extend(pool[(k * n + j) % len(pool)] for j in range(n))
    random.Random(f"{manifest['seed']}/{k}").shuffle(items)
    return [spec for item in items for spec in item]


# ---------------------------------------------------------------------------
# Oracles: (expect, payload) -> None when correct, else a message.


def _check_zsearch(expect, payload):
    q, F = expect["q"], expect["F"]
    if payload["q"] != q or payload["orbit_count"] != len(payload["orbits"]):
        return "z-search: wrong field or orbit count"
    members = set()
    for orbit in payload["orbits"]:
        for f, g in orbit["members"]:
            f = [int(c) % q for c in f]
            g = [int(c) % q for c in g]
            if add(mul(mul(f, f, q), f, q), mul(g, g, q), q) != F:
                return f"z-search: member {f}, {g} does not satisfy f^3 + g^2 = F"
            members.add((tuple(f), tuple(g)))
    if (tuple(expect["f"]), tuple(expect["g"])) not in members:
        return "z-search: the planted pair is in no orbit"
    return None


def _check_info(expect, payload):
    p = expect["p"]
    if parse_coeffs(payload["delta"], p) != parse_coeffs(expect["delta"], p):
        return "fibration-info: delta is not 4a^3 + 27b^2"
    if payload["in_A"] is not True:
        return "fibration-info: planted twelve-nodal model not in A"
    return None


def _check_halving(expect, payload):
    if payload["divisible_by_model_discriminant"] is not True:
        return "fibration-halving: family discriminant not divisible by the model's"
    if payload["section_height"] != 2:
        return f"fibration-halving: section height {payload['section_height']}, expected 2"
    return None


def _check_forward(expect, payload):
    if payload["genera"] != {"quadruple": 3, "triple": 4, "sextic": 7}:
        return f"recillas-forward: genera {payload['genera']}, expected (3, 4, 7)"
    if payload["triple"] != expect["triple"] or payload["sextic"] != expect["sextic"]:
        return "recillas-forward: induced triple or sextic tuple is wrong"
    return None


def _check_reverse(expect, payload):
    out, quad = payload["quadruple"], expect["quadruple"]
    a = [tuple(x - 1 for x in p) for p in quad["perms"]]
    b = [tuple(x - 1 for x in p) for p in out["perms"]]
    if out["degree"] != 4 or len(a) != len(b) or not conjugate_tuples(a, b, 4):
        return "recillas-reverse: output is not S4-conjugate to the original cover"
    if payload["genus"] != 3 or rh_genus(4, b) != 3:
        return f"recillas-reverse: genus {payload['genus']}, expected 3"
    return None


def _check_picard_solve(expect, payload):
    if payload["solutions"] != [expect["solution"]]:
        return f"picard-solve: {payload['solutions']}, expected [{expect['solution']}]"
    return None


def _check_picard_report(expect, payload):
    want = {name: system[2] for name, system in PICARD_SYSTEMS.items()}
    if payload["halving_class_solutions"] != want:
        return "picard-report: wrong halving-class solutions"
    if payload["minimal_sections"] != 240 or payload["isometry_verified"] is not True:
        return "picard-report: wrong minimal-section census"
    return None


def _check_e8(expect, payload):
    want = {
        "roots": 240,
        "norm4": 2160,
        "weyl_order": 696729600,
        "mod2": {"zero": 1, "odd": 120, "even": 135},
        "theta": {"odd": 120, "even": 136},
    }
    if payload != want:
        return f"e8-report: census {payload}, expected {want}"
    return None


CHECKS = {
    "z-search": _check_zsearch,
    "fibration-info": _check_info,
    "fibration-halving": _check_halving,
    "recillas-forward": _check_forward,
    "recillas-reverse": _check_reverse,
    "picard-solve": _check_picard_solve,
    "picard-report": _check_picard_report,
    "e8-report": _check_e8,
}


def check_report(spec, text: str):
    """None when the captured report of one request is correct, else why not."""
    try:
        report = json.loads(text)
        if report["status"] != "ok" or report["command"] != spec["argv"][0]:
            return f"{spec['argv'][0]}: status {report['status']!r}"
        return CHECKS[spec["kind"]](spec["expect"], report["payload"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{spec['argv'][0]}: malformed report ({exc!r})"


def _bump_first_member(payload):
    f = payload["orbits"][0]["members"][0][0]
    f[0] = int(f[0]) + 1


def _bump_delta(payload):
    coeffs = payload["delta"]["coeffs"]
    coeffs[0] = str(int(coeffs[0].split("/")[0]) + 1)


CORRUPT = {
    "z-search": _bump_first_member,
    "fibration-info": _bump_delta,
    "fibration-halving": lambda p: p.update(section_height=3),
    "recillas-forward": lambda p: p["genera"].update(triple=5),
    "recillas-reverse": lambda p: p.update(genus=4),
    "picard-solve": lambda p: p["solutions"][0].__setitem__(0, p["solutions"][0][0] + 1),
    "picard-report": lambda p: p.update(minimal_sections=239),
    "e8-report": lambda p: p.update(roots=239),
}


def corrupted(text: str, kind: str) -> str:
    """The report with one checked field broken."""
    report = json.loads(text)
    CORRUPT[kind](report["payload"])
    return json.dumps(report)
