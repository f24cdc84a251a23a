"""Every verify record can fail.

An AST scan lists every record name the package can emit: each
`report.add(module, name, scale, ok, ...)` call, with both arms of a
conditional name.  A name must be a literal, and no record may pass the
literal True.  WITNESSES maps each (module, name) to a small input whose
report FAILs that record: a corrupted tower, an override schedule, or an
encode that raises.  A record that no witness fails could not tell a
broken construction from a working one.
"""

import ast
import functools
import math
import pathlib
from fractions import Fraction
from unittest import mock

import pytest

from shiftembed import codec
from shiftembed.entropy import ScaleSchedule, build_schedule, verify_schedule
from shiftembed.errors import CapacityError
from shiftembed.markers import WordTower, build_towers, verify_tower
from shiftembed.pipeline import build_pipeline, sample_points, verify_pipeline
from shiftembed.systems import dyadic_odometer, golden_mean

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "shiftembed"

GOLDEN_ALPHA = Fraction(227563855, 1073741824)      # build_schedule(golden_mean(), K=2, ...)


def _literal_names(node):
    """The string values a name argument can take; None if it is not a
    literal or a conditional of literals."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        body, orelse = _literal_names(node.body), _literal_names(node.orelse)
        return None if body is None or orelse is None else body + orelse
    return None


def scan_records(package=PACKAGE):
    """({(module, name)}, problems) of every VerifyReport.add in the package:
    every `.add` call with at least four arguments (a set's add takes one)."""
    names, problems = set(), []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add" and len(node.args) >= 4):
                continue
            where = "%s:%d" % (path.stem, node.lineno)
            modules, records = _literal_names(node.args[0]), _literal_names(node.args[1])
            if modules is None or records is None:
                problems.append("%s: module and name must be literals" % where)
                continue
            ok = node.args[3]
            if isinstance(ok, ast.Constant) and ok.value is True:
                problems.append("%s: ok is the literal True" % where)
            names.update((m, r) for m in modules for r in records)
    return names, problems


# -- witnesses: each returns a report in which its record FAILs ---------------


def golden_towers():
    return build_towers(golden_mean(), build_schedule(golden_mean(), K=2, kmax=2,
                                                      C=0.0, m=(0, 0)))


def dyadic_towers():
    odo = dyadic_odometer(8)
    return build_towers(odo, build_schedule(odo, K=2, kmax=3, N_cert=128))


def golden_schedule(**override):
    """Golden K=2's built schedule, n = (9, 19), with fields overridden."""
    fields = dict(K=2, alpha=GOLDEN_ALPHA, m=(0, 0), n=(9, 19), nprime=(9, 28),
                  r=(9, 19), periodic=True, C=0.0)
    fields.update(override)
    return ScaleSchedule(**fields)


def odometer_schedule_past_the_certified_range():
    """n_1 = 70 > N_cert = 64 at K = 8: the right-hand side
    (n(1 - alpha/2) - 1) log 8 decreases in n when alpha = log 8 > 2."""
    alpha = Fraction(math.floor(math.log(8) * 2 ** 32), 2 ** 32)
    sched = ScaleSchedule(K=8, alpha=alpha, m=(0,), n=(70,), nprime=(70,), r=(70,),
                          periodic=False, N_cert=64)
    return verify_schedule(dyadic_odometer(8), sched)


def conditional_below_its_floor():
    # with m_2 = m_1 the count is 1, and 0 < (n alpha/4 - 1) log 2 needs n > 18
    return verify_schedule(golden_mean(), golden_schedule(n=(9, 10), nprime=(9, 19),
                                                          r=(9, 10)))


def growth_override():
    # golden K=4 schedules n = (27, 28, 29) at kmax = 3, so n'_2 = 55 >= n_3
    alpha = build_schedule(golden_mean(), K=4, kmax=2, C=0.0).alpha
    sched = ScaleSchedule(K=4, alpha=alpha, m=(0, 1, 2), n=(27, 28, 29),
                          nprime=(27, 55, 84), r=(27, 29, 31), periodic=True, C=0.0)
    return verify_schedule(golden_mean(), sched)


def periodic_code_at_n1_two():
    # the 2 points of least period 2 leave no room below K^(n_1 - 1) = 2
    return verify_schedule(golden_mean(), golden_schedule(n=(2, 19), nprime=(2, 21),
                                                          r=(2, 19)))


def radius_below_n1():
    return verify_schedule(golden_mean(), golden_schedule(r=(8, 19)))


def layout_short_of_capacity():
    sched = ScaleSchedule(K=2, alpha=Fraction(1, 5), m=(0, 0), n=(20, 100),
                          nprime=(20, 120), r=(20, 100), periodic=False)
    return verify_schedule(golden_mean(), sched)


def residue_beside_a_member():
    stack = dyadic_towers()
    stack[1].residues |= {1}
    return verify_tower(stack, 1)


def dropped_residue():
    stack = dyadic_towers()
    stack[1].residues = frozenset()
    return verify_tower(stack, 1)


def residue_off_the_parent():
    # scale 2 counts modulo 64 and scale 1 modulo 32: 16 lies over 16,
    # which scale 1 does not hold
    stack = dyadic_towers()
    stack[2].residues = frozenset({16})
    return verify_tower(stack, 2)


def dropped_orbit():
    stack = golden_towers()
    stack[1].pernbhd._is_orbit["01"] = False
    return verify_tower(stack, 1)


def lowered_radius():
    stack = golden_towers()
    stack[2].pernbhd.r = stack[2].n - 1
    return verify_tower(stack, 2)


PROBES = sample_points(golden_mean(), 2, seed=5)


def one_sided_chase():
    # of two neighboring pieces, the smaller-ranked one no longer vetoes its
    # right neighbor
    stack = golden_towers()
    stack[1].chase_order = [m for m in stack[1].chase_order if m > 0]
    return verify_tower(stack, 1, probe_points=PROBES)


class NoMembers(WordTower):
    """Accepts no position, so the probes find positions nothing covers."""

    def member(self, point, pos, runtime):
        return False

    def members(self, point, lo, hi, runtime):
        return []


class TierOneOffItsParent(WordTower):
    """Ranks every piece outside the periodic neighborhood tier 1, parent
    member or not."""

    def rank(self, point, pos, runtime):
        if runtime.match(self, pos) is not None:
            return None
        R = self.piece_halfwidth
        return 1, runtime.window(pos - R, pos + R)


def replaced_tower(cls, k):
    stack = golden_towers()
    old = stack[k]
    stack.towers[k - 1] = cls(old.system, old.schedule, k, old.pernbhd, old.parent)
    return verify_tower(stack, k, probe_points=PROBES)


@functools.lru_cache(maxsize=None)
def scale_two_render_raises():
    """A scale-2 render that raises fails the scale-2 codec records and the
    dN record (tests/test_pipeline_cli.py pins the details)."""
    pipe = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
    render_layer = codec._render_layer

    def refuse_scale_two(pipeline, layout, l, *out):
        if l == 2:
            raise CapacityError("refused at scale 2", scale=2)
        render_layer(pipeline, layout, l, *out)

    with mock.patch.object(codec, "_render_layer", refuse_scale_two):
        return verify_pipeline(pipe, points=PROBES, window=(-40, 40))


WITNESSES = {
    ("entropy", "scale1-capacity"): odometer_schedule_past_the_certified_range,
    ("entropy", "conditional-capacity"): conditional_below_its_floor,
    ("entropy", "growth"): growth_override,
    ("entropy", "periodic-code"): periodic_code_at_n1_two,
    ("entropy", "tower-radius"): radius_below_n1,
    ("entropy", "layout-capacity"): layout_short_of_capacity,
    ("markers", "disjointness(flat-exact)"): residue_beside_a_member,
    ("markers", "covering(flat-exact)"): dropped_residue,
    ("markers", "nesting(flat-exact)"): residue_off_the_parent,
    ("markers", "disjointness(structural-exact)"): dropped_orbit,
    ("markers", "covering(structural-exact)"): lowered_radius,
    ("markers", "disjointness(probe)"): one_sided_chase,
    ("markers", "covering(probe)"): lambda: replaced_tower(NoMembers, 1),
    ("markers", "nesting(probe)"): lambda: replaced_tower(TierOneOffItsParent, 2),
    ("codec", "equivariance"): scale_two_render_raises,
    ("codec", "roundtrip"): scale_two_render_raises,
    ("codec", "dN-convergence"): scale_two_render_raises,
}


def test_every_record_name_has_a_witness():
    names, problems = scan_records()
    assert problems == []
    assert sorted(names) == sorted(WITNESSES)


@pytest.mark.parametrize("key", sorted(WITNESSES), ids=" ".join)
def test_the_witness_fails_its_record(key):
    records = [r for r in WITNESSES[key]().records if (r.module, r.name) == key]
    assert records and not all(r.ok for r in records), [r.line() for r in records]


def test_the_scan_refuses_a_constant_pass(tmp_path):
    (tmp_path / "m.py").write_text(
        'report.add("m", "a" if k else "b", k, ok)\n'
        'report.add("m", "c", k, True, "by construction")\n'
        'report.add("m", name, k, ok)\n'
        'seen.add(k)\n')
    assert scan_records(tmp_path) == ({("m", "a"), ("m", "b"), ("m", "c")},
                              ["m:2: ok is the literal True",
                               "m:3: module and name must be literals"])
