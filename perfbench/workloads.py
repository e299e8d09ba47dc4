"""Seeded inputs, program calls and output checks of the four workloads.

Every workload is a list of rounds of operations (``Op``) built from
the seed alone.  A round has a fixed composition, so the mix of cheap
and expensive operations in a run does not depend on the seed.
``RUN[op.kind]`` sends one operation to the program and returns its
output; ``CHECK[op.kind]`` returns ``None`` for a correct output or the
reason it is wrong.  Checks use references that do not come from the
call under test: exact ``Fraction`` orbits, the forward map, an
independent hyperbolic re-measurement, or the library result for the
command line.
"""

from __future__ import annotations

import cmath
import csv
import functools
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from typing import NamedTuple, Optional

import blaschkediv as bd
from blaschkediv import blaschke as bl
from blaschkediv import boundary as bo
from blaschkediv import cli
from blaschkediv import divisor as dv
from blaschkediv import experiments as ex
from blaschkediv import lamination as la
from blaschkediv import svgfig

#: Rounds built per run; a run that outlasts them starts over.
ROUNDS = 16
#: Degrees (one round) and zero radius of the timed round trip.  At the
#: seed commit the inverse stalls or takes seconds on a few percent of
#: inputs with e >= 8 (even with zeros inside 0.6), which would leave
#: failed operations in every run; those inputs go to ``hard_probes``
#: instead, which the traced run solves and reports.  With e = 6 twice,
#: the median falls inside the e = 4 solves and p90 inside the e = 6
#: solves rather than between two degrees.
ROUNDTRIP_DEGREES = (1, 2, 3, 4, 5, 6, 6)
ROUNDTRIP_RADIUS = 0.7
ROUNDTRIP_TOL = 1e-8
#: Lamination depths giving 3**6 = 729 and 3**7 = 2187 entries (l = 3).
TABLE_DEPTHS = (6, 7)
CLI_SCHEDULE = [10, 100, 1000]


class Op(NamedTuple):
    kind: str
    args: tuple


def turn(t: float) -> complex:
    return cmath.exp(2j * math.pi * float(t))


def _disk_point(rng: random.Random, radius: float) -> complex:
    return radius * math.sqrt(rng.random()) * turn(rng.random())


def _zeros(rng: random.Random, e: int, radius: float) -> dv.Divisor:
    return dv.Divisor([(_disk_point(rng, radius), 1) for _ in range(e)],
                      "interior")


def _frac(rng: random.Random, max_den: int) -> Fraction:
    """A rational angle in (0, 1) with denominator at most ``max_den``."""
    den = rng.randint(2, max_den)
    return Fraction(rng.randint(1, den - 1), den)


def _boundary(m: int, zeros: list[complex], support: list) -> bo.BoundaryDivisor:
    """Boundary divisor from the JSON a user would write; support atoms
    are ``"num/den"`` strings or ``{"angle_turns", "mult"}`` objects."""
    return bo.boundary_from_json({
        "m": m, "zeros": [[z.real, z.imag] for z in zeros],
        "support": support})


def _hyp_dist(a: complex, b: complex) -> float:
    return 2.0 * math.atanh(abs(a - b) / abs(1.0 - a.conjugate() * b))


# ---------------------------------------------------------------------------
# roundtrip: zeros_from_critical, checked through the forward map


def _critical_points(rng: random.Random, e: int, m: int) -> dv.Divisor:
    """Free critical divisor of seeded zeros in ``ROUNDTRIP_RADIUS``."""
    while True:
        Z = _zeros(rng, e, ROUNDTRIP_RADIUS)
        try:
            return bl.critical_divisor(bl.from_zero_divisor(Z, m)).free_ram
        except bd.NumericalError:
            continue


def roundtrip_rounds(seed: int) -> list[list[Op]]:
    rng = random.Random(seed)
    rounds = []
    for _ in range(ROUNDS):
        degrees = list(ROUNDTRIP_DEGREES)
        rng.shuffle(degrees)
        rnd = []
        for e in degrees:
            m = rng.randint(1, 3)
            rnd.append(Op("roundtrip", (_critical_points(rng, e, m), m)))
        rounds.append(rnd)
    return rounds


def run_roundtrip(R: dv.Divisor, m: int):
    B = bl.zeros_from_critical(R, m)
    return B, dv.matching_distance(bl.critical_divisor(B).free_ram, R)


def check_roundtrip(op: Op, out) -> Optional[str]:
    R, m = op.args
    B, dist = out
    if B.m != m or B.e != R.degree:
        return f"product has m={B.m}, e={B.e}; asked for m={m}, e={R.degree}"
    if not dist <= ROUNDTRIP_TOL:
        return f"round trip off by {dist:.3g}"
    return None


def hard_probes(seed: int) -> list[tuple[dv.Divisor, int]]:
    """Inverse inputs outside the timed round trip, solved only in the
    traced run and each under a time cap: critical divisors of seeded
    zeros at e = 8 and 12, the two multiplicity inputs known to stall at
    the seed commit, and seeded critical points out to 0.9 at e = 8..12,
    one carrying an atom of multiplicity 2 or 3."""
    rng = random.Random(seed ^ 0x5A5A)
    probes = []
    for e in (8, 8, 12, 12):
        m = rng.randint(1, 3)
        probes.append((_critical_points(rng, e, m), m))
    probes += [
        (dv.Divisor([(0.3 + 0.1j, 2), (-0.5j, 1)], "interior"), 1),
        (dv.Divisor([(0.5 + 0j, 3)], "interior"), 1),
    ]
    for k in range(2):
        atoms = [(_disk_point(rng, 0.9), 1) for _ in range(rng.randint(8, 12))]
        if k == 0:
            atoms[0] = (atoms[0][0], rng.randint(2, 3))
        probes.append((dv.Divisor(atoms, "interior"), rng.randint(1, 3)))
    return probes


# ---------------------------------------------------------------------------
# sweep: hull certificates and the three experiments


def _related_power_map(rng: random.Random):
    """Power map z^m with support {q, q'} where B^l(q) = q' exactly,
    1 outside the support and no intermediate support hit.  q and q'
    are at least 0.1 turns apart, so the solver's search disk of radius
    0.2 around q stays clear of q'."""
    while True:
        m, l = rng.choice((2, 3)), rng.choice((1, 2))
        theta = _frac(rng, 30)
        image = theta * m ** l % 1
        middle = [theta * m ** j % 1 for j in range(1, l)]
        gap = min((image - theta) % 1, (theta - image) % 1)
        if image == 0 or gap < Fraction(1, 10) \
                or any(t in (theta, image) for t in middle):
            continue
        D = _boundary(m, [], [f"{theta.numerator}/{theta.denominator}",
                              f"{image.numerator}/{image.denominator}"])
        return D, turn(theta), l


def sweep_rounds(seed: int) -> list[list[Op]]:
    """Rounds of 34 operations: 24 certificates (e = 1..24), 4 orbit
    profiles, 4 prescribed-distance solves and 2 convergence sweeps.
    The median falls among the certificates and p90 inside the
    prescribed-distance solves, not between two kinds."""
    rng = random.Random(seed)
    rounds = []
    for _ in range(ROUNDS):
        rnd = []
        for e in range(1, 25):
            rnd.append(Op("walsh", (_zeros(rng, e, 0.9), rng.randint(1, 3))))
        for _ in range(2):
            m = rng.randint(1, 2)
            zeros = [_disk_point(rng, 0.7) for _ in range(rng.randint(1, 2))]
            start = rng.random()
            support = [{"angle_turns": (start + k * rng.uniform(0.2, 0.4)) % 1}
                       for k in range(rng.randint(1, 2))]
            cfg = ex.SweepConfig([rng.choice((1e-2, 1e-3))], 8,
                                 rng.randrange(2 ** 31))
            rnd.append(Op("converge", (_boundary(m, zeros, support), m, cfg)))
        for _ in range(4):
            D, q, l = _related_power_map(rng)
            rnd.append(Op("prescribe", (D, q, l, rng.uniform(0.5, 2.0))))
            D, q, l = _related_power_map(rng)
            rnd.append(Op("cont_orbit", (D, q, l)))
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


def run_walsh(Z: dv.Divisor, m: int) -> bool:
    return bl.walsh_check(bl.from_zero_divisor(Z, m))


def check_walsh(op: Op, out) -> Optional[str]:
    return None if out is True else "walsh_check did not certify the hull"


def run_converge(D, m, cfg) -> dict:
    return ex.verify_extension_convergence(D, m, cfg)


def check_converge(op: Op, out) -> Optional[str]:
    D, m, cfg = op.args
    (row,) = out["profile"]
    if out["target"] != dv.divisor_to_json(bo.extend_phi(D, m)):
        return "target differs from extend_phi"
    if row["failures"]:
        return f"{row['failures']} samples failed the forward map"
    eps = row["epsilon"]
    # the extension is Hoelder-1/2 continuous, so distances scale with
    # sqrt(eps); 10*sqrt(eps) leaves a wide margin over measured values
    if not 0.0 <= row["mean_distance"] <= row["max_distance"] \
            <= 10.0 * math.sqrt(eps):
        return (f"distances mean={row['mean_distance']:.3g} "
                f"max={row['max_distance']:.3g} out of range at eps={eps:g}")
    return None


def run_prescribe(D, q, l, L):
    return ex.prescribe_distance(D, q, l, L, eps=0.2)


def check_prescribe(op: Op, out) -> Optional[str]:
    D, q, l, L = op.args
    if not out.residual <= 1e-6:
        return f"certificate residual {out.residual:.3g}"
    # independent re-measurement: rebuild the product, take the critical
    # point nearest q, run its orbit, measure the hyperbolic distance
    B = bl.from_zero_divisor(out.result_divisor, out.m)
    c = min(bl.critical_divisor(B).free_ram.points(), key=lambda z: abs(z - q))
    w = c
    for _ in range(l):
        w = B.eval(w)
    err = abs(_hyp_dist(out.zero_near_target, w) - L)
    return None if err <= 1e-6 else f"re-measured distance off by {err:.3g}"


def run_cont_orbit(D, q, l) -> dict:
    return ex.verify_cont_orbit(D, q, l, [100, 1000])


def check_cont_orbit(op: Op, out) -> Optional[str]:
    D, q, l = op.args
    target = complex(*out["target"])
    if not any(abs(target - s) <= 1e-9 for s in D.circle_part.points()):
        return "orbit target is not a support point"
    rows = out["profile"]
    if [r["n"] for r in rows] != [100, 1000]:
        return "profile rows do not follow the schedule"
    if not rows[1]["distance"] < rows[0]["distance"]:
        return "orbit distance does not shrink along the approach"
    return None


# ---------------------------------------------------------------------------
# circle: lamination tables, classification and orbit membership


class Circle(NamedTuple):
    """A boundary divisor with what is known about it independently:
    its support angles (``None`` when not rational), the verdict its
    construction implies, and whether verdicts on it rest on a numerical
    orbit sweep (it has free zeros)."""
    D: bo.BoundaryDivisor
    angles: Optional[list[Fraction]]
    verdict: str
    numeric: bool


def _fraction_support(angles: list[Fraction], mults=None) -> list:
    mults = mults or [1] * len(angles)
    return [f"{a.numerator}/{a.denominator}" if n == 1 else
            {"angle_turns": float(a), "mult": n}
            for a, n in zip(angles, mults)]


def _power_relation(l: int, angles: list[Fraction]) -> bool:
    """Exact search for distinct support angles with l^j a = a'."""
    support = set(angles)
    for a in angles:
        seen, cur = set(), a
        while cur not in seen:
            seen.add(cur)
            cur = cur * l % 1
            if cur in support and cur != a:
                return True
    return False


def _power_case(rng: random.Random, m: int, k: int, mults=None,
                with_one: bool = False) -> Circle:
    angles = []
    while len(angles) < k:
        a = _frac(rng, 12)
        if a not in angles:
            angles.append(a)
    if with_one:
        angles[0] = Fraction(0)
    D = _boundary(m, [], _fraction_support(angles, mults))
    if mults and max(mults) > 1:
        verdict = "NoExtension"
    elif Fraction(0) in angles:
        verdict = "NoExtension"
    elif m == 1:
        verdict = "TypeS"
    else:
        verdict = "NoExtension" if _power_relation(m, angles) else "TypeR"
    return Circle(D, angles, verdict, False)


def _free_zero_case(rng: random.Random, related: bool) -> Circle:
    """m = 2 with one free zero (l = 3).  Unrelated support is two
    ``num/den`` angles, TypeR on a numerical sweep; related support is
    {q, B(q)}, with B(q) evaluated here from the product formula."""
    a = _disk_point(rng, 0.5)
    if not related:
        angles = [_frac(rng, 12)]
        while len(angles) < 2:
            b = _frac(rng, 12)
            if b != angles[0]:
                angles.append(b)
        return Circle(_boundary(2, [a], _fraction_support(angles)), angles,
                      "TypeR", True)
    theta = rng.uniform(0.05, 0.95)
    q = turn(theta)
    c = (1 - a.conjugate()) / (1 - a)
    image = c * q * q * (q - a) / (1 - a.conjugate() * q)
    support = [{"angle_turns": theta},
               {"angle_turns": cmath.phase(image) / (2 * math.pi) % 1}]
    return Circle(_boundary(2, [a], support), None, "NoExtension", True)


def _crafted_case(rng: random.Random, k: int) -> Circle:
    kind = k % 6
    if kind == 0:
        return _power_case(rng, rng.choice((2, 3)), rng.randint(1, 3))
    if kind == 1:
        return _power_case(rng, rng.choice((2, 3)), 2, mults=[2, 1])
    if kind == 2:
        return _power_case(rng, 2, rng.randint(1, 3), with_one=True)
    if kind == 3:
        return _power_case(rng, 1, rng.randint(1, 3))
    return _free_zero_case(rng, related=kind == 4)


def circle_rounds(seed: int) -> list[list[Op]]:
    """Rounds of five operations: both table sizes for a power map and
    for a free-zero divisor (l = 3, two support atoms, d = 5), and one
    verdicts operation on those two divisors and a crafted case.  With
    one verdicts operation per four tables the median and p90 fall
    inside the slower table of each size, not between two kinds."""
    rng = random.Random(seed)
    rounds = []
    for k in range(ROUNDS):
        cases = [_power_case(rng, 3, 2), _free_zero_case(rng, related=False)]
        questions = []
        for case in cases:
            q = _frac(rng, 12)
            while case.numeric and q in case.angles:
                q = _frac(rng, 12)
            questions.append((case, _frac(rng, 12), q))
        rnd = [Op("table", (case, depth)) for case in cases
               for depth in TABLE_DEPTHS]
        rnd.append(Op("verdicts", (questions, _crafted_case(rng, k))))
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


def run_table(case: Circle, depth: int):
    return la.lamination_table(case.D, depth)


def check_table(op: Op, table) -> Optional[str]:
    """Exact invariants of criterion 5: entry count, semiconjugacy
    under angle multiplication by d, strict monotonicity around the
    circle, and total angular mass 1."""
    case, depth = op.args
    d = case.D.total_degree
    entries = table.entries
    if len(entries) != case.D.l ** depth:
        return f"{len(entries)} entries, expected {case.D.l ** depth}"
    for e in entries:
        if e.level >= 1 and ((e.theta_minus * d) % 1 != e.parent.theta_minus
                             or (e.theta_plus * d) % 1 != e.parent.theta_plus):
            return f"semiconjugacy fails at level {e.level}"
    for prev, nxt in zip(entries, entries[1:]):
        if not prev.theta_plus < nxt.theta_minus:
            return "angles not strictly increasing around the circle"
    total = sum((e.gap for e in entries), Fraction(0))
    for prev, nxt in zip(entries, entries[1:] + entries[:1]):
        inc = (nxt.theta_minus - prev.theta_plus) % 1
        total += Fraction(1) if inc == 0 and len(entries) == 1 else inc
    return None if total == 1 else f"angular mass {total} != 1"


def run_verdicts(questions: list, crafted: Circle):
    """Classification, relation search and orbit membership of each
    table divisor, plus the classification of a crafted case."""
    answers = [(bo.classify(case.D), bo.has_dynamical_relation(case.D),
                bo.in_E_zeta(case.D, turn(zeta), turn(q)))
               for case, zeta, q in questions]
    return answers, bo.classify(crafted.D)


def check_verdicts(op: Op, out) -> Optional[str]:
    questions, crafted = op.args
    answers, crafted_report = out
    for (case, zeta, q), (report, relation, member) in zip(questions,
                                                          answers):
        reason = (check_classify(Op("classify", (case,)), report)
                  or check_dynrel(Op("dynrel", (case,)), relation)
                  or check_in_E_zeta(Op("in_E_zeta", (case, zeta, q)),
                                     member))
        if reason:
            return reason
    return check_classify(Op("classify", (crafted,)), crafted_report)


def check_classify(op: Op, report) -> Optional[str]:
    (case,) = op.args
    if report.verdict != case.verdict:
        return f"verdict {report.verdict}, expected {case.verdict}"
    if report.verdict == "TypeR" and case.numeric != \
            report.reason.startswith("numerically supported"):
        return f"TypeR resting on the wrong evidence: {report.reason}"
    return None


def _angle_of(case: Circle, z: complex) -> Fraction:
    return min(case.angles, key=lambda a: abs(turn(a) - z))


def check_dynrel(op: Op, res) -> Optional[str]:
    (case,) = op.args
    if case.numeric:
        expected = "detected" if case.verdict == "NoExtension" else \
            "none_within_depth"
        if len(case.D.circle_part.atoms) < 2:
            expected = "exact"
        return None if res.status == expected else \
            f"status {res.status}, expected {expected}"
    related = _power_relation(case.D.l, case.angles)
    if res.detected != related or res.status not in ("detected", "exact"):
        return f"status {res.status}, exact relation present: {related}"
    if related:
        a, b = _angle_of(case, res.q), _angle_of(case, res.q_prime)
        if a == b or a * case.D.l ** res.l % 1 != b:
            return f"reported relation B^{res.l}({a}) = {b} is false"
    return None


def check_in_E_zeta(op: Op, res) -> Optional[str]:
    case, zeta, q = op.args
    if case.numeric:
        # a float orbit of a free-zero product meeting the support within
        # 1e-9 in 64 steps has probability of order 1e-8
        return None if res.status == "not_within_depth" else \
            f"status {res.status} for a generic point"
    support, seen, cur, j = set(case.angles), set(), q, 0
    while cur not in seen:
        if cur in support:
            ok = res.status == "member" and res.j == j
            return None if ok else f"{res!r}, expected member at j={j}"
        seen.add(cur)
        cur = (cur * case.D.l + zeta) % 1
        j += 1
    return None if res.status == "exact_nonmember" else \
        f"{res!r}, expected exact_nonmember"


# ---------------------------------------------------------------------------
# cli: command lines through cli.main against the library result


def _support_json(angles: list[Fraction]) -> list[str]:
    return [f"{a.numerator}/{a.denominator}" for a in angles]


def _distinct(rng: random.Random, k: int, max_den: int) -> list[Fraction]:
    out = []
    while len(out) < k:
        a = _frac(rng, max_den)
        if a not in out:
            out.append(a)
    return out


def cli_rounds(seed: int) -> list[list[Op]]:
    rng = random.Random(seed)
    rounds = []
    for k in range(ROUNDS):
        m = rng.randint(1, 3)
        zeros = [_disk_point(rng, 0.9) for _ in range(rng.randint(1, 3))]
        rnd = [["critpts", "--zeros",
                json.dumps([[z.real, z.imag] for z in zeros]), "--m", str(m)]]
        R = _critical_points(rng, 2, m)
        rnd.append(["invert", "--ram",
                    json.dumps([[z.real, z.imag] for z in R.points()]),
                    "--m", str(m)])
        rnd.append(["classify", "--divisor", json.dumps(
            {"m": rng.randint(1, 3),
             "support": _support_json(_distinct(rng, rng.randint(1, 3), 12))})])
        a = _disk_point(rng, 0.7)
        rnd.append(["extend", "--divisor", json.dumps(
            {"m": 1, "zeros": [[a.real, a.imag]],
             "support": _support_json(_distinct(rng, 1, 12))})])
        rnd.append(["lamination", "--divisor", json.dumps(
            {"m": rng.randint(2, 3),
             "support": _support_json(_distinct(rng, 1, 12))}),
            "--depth", str(rng.randint(2, 4))])
        rnd.append(["experiment", "multiplier", "--config", json.dumps(
            {"divisor": {"m": 1, "support": _support_json(
                _distinct(rng, rng.randint(1, 2), 12))},
             "n_schedule": CLI_SCHEDULE}), "--deterministic"])
        rounds.append([Op("cli", (argv,)) for argv in rnd])
    return rounds


class CliRunner:
    """Runs a command line in process through ``cli.main``, capturing
    its exit code, standard output and figure.  Figures go to one scratch
    file per runner."""

    def __init__(self, root: str):
        self.svg = os.path.join(root, ".perfbench_out", f"fig-{os.getpid()}.svg")
        os.makedirs(os.path.dirname(self.svg), exist_ok=True)

    def __call__(self, argv: list[str]):
        if argv[0] == "experiment":
            argv = argv + ["--svg", self.svg]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        stdout = out.getvalue()
        svg = None
        if argv[0] == "experiment":
            with open(self.svg, encoding="utf-8") as fh:
                svg = fh.read()
            os.remove(self.svg)
        return code, stdout, svg


@functools.lru_cache(maxsize=None)
def cli_reference(argv: tuple[str, ...]) -> tuple[str, Optional[str]]:
    """What the command line must print, computed by the library, as
    canonical JSON text (CSV rows for ``lamination``), plus the figure
    text for experiments.  Cached: a run repeats each command line."""
    cmd, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    figure = None
    if cmd == "experiment":
        config = json.loads(argv[argv.index("--config") + 1])
        result = ex.multiplier_limit_check(
            bo.boundary_from_json(config["divisor"]), config["n_schedule"])
        figure = svgfig.profile_figure(
            [float(r["n"]) for r in result["profile"]],
            [r["deviation"] for r in result["profile"]],
            "n", "multiplier deviation", deterministic=True)
    elif cmd == "critpts":
        B = bl.from_zero_divisor(
            dv.divisor_from_json(json.loads(opts["--zeros"])), int(opts["--m"]))
        result = dv.divisor_to_json(bl.critical_divisor(B).free_ram)
    elif cmd == "invert":
        R = dv.divisor_from_json(json.loads(opts["--ram"]))
        result = dv.divisor_to_json(
            bl.zeros_from_critical(R, int(opts["--m"])).free_zeros)
    else:
        D = bo.boundary_from_json(json.loads(opts["--divisor"]))
        if cmd == "classify":
            result = bo.classify(D).to_json()
        elif cmd == "extend":
            result = dv.divisor_to_json(bo.extend_phi(D, D.interior_part.m))
        else:
            table = la.lamination_table(D, int(opts["--depth"]))
            result = [[str(x) for x in row] for row in la.table_csv_rows(table)]
    return json.dumps(result, sort_keys=True), figure


def check_cli(op: Op, out) -> Optional[str]:
    (argv,) = op.args
    code, stdout, svg = out
    if code != 0:
        return f"{argv[0]} exited with code {code}"
    expected, figure = cli_reference(tuple(argv))
    if argv[0] == "lamination":
        got = json.dumps(list(csv.reader(io.StringIO(stdout)))[1:])
    else:
        try:
            got = json.dumps(json.loads(stdout), sort_keys=True)
        except json.JSONDecodeError:
            return f"{argv[0]} printed no JSON"
    if got != expected:
        return f"{argv[0]} output differs from the library result"
    if figure is not None and svg != figure:
        return f"{argv[0]} figure differs from the library figure"
    return None


GENERATE = {"roundtrip": roundtrip_rounds, "sweep": sweep_rounds,
            "circle": circle_rounds, "cli": cli_rounds}
RUN = {"roundtrip": run_roundtrip, "walsh": run_walsh,
       "converge": run_converge, "prescribe": run_prescribe,
       "cont_orbit": run_cont_orbit, "table": run_table,
       "verdicts": run_verdicts}
CHECK = {"roundtrip": check_roundtrip, "walsh": check_walsh,
         "converge": check_converge, "prescribe": check_prescribe,
         "cont_orbit": check_cont_orbit, "table": check_table,
         "verdicts": check_verdicts, "cli": check_cli}
