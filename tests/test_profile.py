"""The first-integral profile: closed-form oracles, round trips, the
ProfileMismatch report, and properties over metrics and constants."""

import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annuharm import (
    NoConvergence,
    OutOfAnnulus,
    ProblemSpec,
    ProfileMismatch,
    build_profile,
    critical_constant,
    energy,
    euclidean_nitsche_map,
    lipschitz_constant,
    modulus_of_c,
    parse_metric,
    run_full_suite,
    solve_c,
)
from annuharm import solver
from annuharm.solver import Psi

EUCLID = parse_metric("euclidean")

# the twelve acceptance configurations (metric, q, Q, r)
TWELVE_CONFIGS = [
    ("euclidean", 0.8, 1.0, 0.5), ("euclidean", 0.8, 1.0, 0.9),
    ("inverse_r", 0.5, 1.0, 0.589), ("inverse_r", 0.5, 1.0, 0.45),
    ("sphere", 0.5, 1.0, 0.7), ("sphere", 0.5, 1.0, 0.4),
    ("euclidean", 0.8, 1.0, 0.8), ("euclidean", 0.8, 1.0, 0.6),
    ("inverse_r", 0.5, 1.0, 0.5), ("sphere", 0.5, 1.0, 0.5),
    ("hyperbolic", 0.3, 0.8, 0.5), ("hyperbolic", 0.3, 0.8, 0.3),
]
# a steep profile at c = 1.2e5, and a subcritical one 0.3% of |c0| above c0
POWER_CONFIGS = [("power:4", 0.2105, 9.07, 0.607),
                 ("power:-2", 4.9368, 6.0769, 0.024577)]


def _solved(name, q, Q, r):
    spec = ProblemSpec(metric=parse_metric(name), q=q, Q=Q, r=r)
    return build_profile(spec, solve_c(spec))


class TestClosedForms:
    # r = 0.999 and up: q = 2r/(1 + r^2) within 5e-7 of Q, where every
    # point lies next to the critical anchor q
    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8, 0.999, 0.9999, 0.99999])
    def test_nitsche_closed_form(self, r):
        prof = euclidean_nitsche_map(r)
        s = np.linspace(r, 1.0, 1000)
        exact = (r * r + s * s) / (s * (1.0 + r * r))
        assert np.all(np.abs(prof.profile(s) - exact) <= 8.0 * np.spacing(exact))
        # the critical profile touches q with zero slope
        assert prof.profile(r) == prof.spec.q and prof.slope(r) == 0.0

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_nitsche_energy(self, r):
        prof = euclidean_nitsche_map(r)
        exact = 2.0 * math.pi * (1.0 - r * r) / (1.0 + r * r)
        assert abs(energy(prof, EUCLID) - exact) <= 1e-12 * exact

    def test_conformal_profile_is_linear(self):
        spec = ProblemSpec(metric=parse_metric("sphere"), q=0.5, Q=1.0, r=0.5)
        prof = build_profile(spec, 0.0)
        s = np.linspace(0.5, 1.0, 1000)
        assert np.max(np.abs(prof.profile(s) - s) / s) <= 1e-14


@pytest.mark.parametrize("name, q, Q, r", TWELVE_CONFIGS)
def test_inverse_round_trip(name, q, Q, r):
    spec = ProblemSpec(metric=parse_metric(name), q=q, Q=Q, r=r)
    prof = build_profile(spec, solve_c(spec))
    s = np.linspace(r, 1.0, 100)
    assert np.max(np.abs(prof.inverse(prof.profile(s)) - s)) <= 1e-13


@pytest.mark.parametrize("name, q, Q, r", TWELVE_CONFIGS)
def test_profile_independent_of_batch(name, q, Q, r):
    # p(s) at a point must not depend on the points asked with it: a BLAS
    # product in the Gauss rule rounded each row by its place in the batch
    spec = ProblemSpec(metric=parse_metric(name), q=q, Q=Q, r=r)
    prof = build_profile(spec, solve_c(spec))
    s = np.linspace(r, 1.0, 97)
    alone = np.array([prof.profile(float(x)) for x in s])
    assert np.array_equal(prof.profile(s), alone)
    assert np.array_equal(prof.profile(s[::-1]), alone[::-1])
    assert np.array_equal(prof.profile(s[::3]), alone[::3])


@pytest.mark.parametrize("name, q, Q, r", TWELVE_CONFIGS + POWER_CONFIGS)
def test_table_matches_first_integral(name, q, Q, r):
    # the Psi table's ends are the profile's: p(r) is its inner value, and
    # p(1) is Q
    prof = _solved(name, q, Q, r)
    assert prof.profile(r) == prof.inner and prof.profile(1.0) == Q


@pytest.mark.parametrize("name, q, Q, r", [("euclidean", 0.8, 1.0, 0.9),
                                           POWER_CONFIGS[0]])
def test_radius_independent_of_layout(name, q, Q, r):
    # numpy rounds the log of a reversed or strided view differently from
    # that of a contiguous array: profile(s) must not see the difference,
    # and it is at_tau at the log of a contiguous copy, bitwise
    prof = _solved(name, q, Q, r)
    s = np.linspace(r, 1.0, 97)
    tau = np.log(s)
    alone = np.array([prof.profile(float(x)) for x in s])
    for view in (slice(None), slice(None, None, -1), slice(None, None, 3),
                 slice(None, None, -2)):
        assert np.array_equal(prof.profile(s[view]), alone[view])
        assert np.array_equal(prof.at_tau(tau[view]), alone[view])
        assert np.array_equal(prof.at_tau(np.log(s[view].copy())),
                              prof.profile(s[view]))


class TestReaders:
    """The readers of a profile along tau = log s."""

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_at_tau_nitsche_closed_form(self, r):
        prof = euclidean_nitsche_map(r)
        tau = np.linspace(math.log(r), 0.0, 1000)
        exact = (r * r * np.exp(-tau) + np.exp(tau)) / (1.0 + r * r)
        assert np.max(np.abs(prof.at_tau(tau) - exact)) <= 1e-14
        assert prof.at_tau(0.0) == prof.at_tau(1e-3) == 1.0

    @pytest.mark.parametrize("name, q, Q, r", TWELVE_CONFIGS)
    def test_sample_weights_span_the_modulus(self, name, q, Q, r):
        # the weights integrate dtau over [log r, 0]; Simpson's rule meets
        # the square-root end of a Critical anchor to about 1e-8
        samples = _solved(name, q, Q, r).samples
        target = math.log(1.0 / r)
        assert abs(np.sum(samples.weights) - target) <= 1e-7 * target
        assert samples.tau[0] == math.log(r) and samples.tau[-1] == 0.0
        assert np.all(np.diff(samples.tau) > 0.0)

    @pytest.mark.parametrize("name, q, Q, r", TWELVE_CONFIGS[:6])
    def test_lipschitz_reads_no_tau(self, name, q, Q, r, monkeypatch):
        # tau costs one at_v over every sample; the Lipschitz scan, on the
        # path of every solve, reads p and p_tau alone, and calls inverse
        # only for candidates between the ends, which most configs lack
        sizes = []
        at_v = Psi.at_v

        def counted_at_v(self, v):
            sizes.append(np.size(v))
            return at_v(self, v)

        prof = _solved(name, q, Q, r)
        monkeypatch.setattr(Psi, "at_v", counted_at_v)
        lipschitz_constant(prof, prof.spec.metric)
        assert max(sizes, default=0) < prof.samples.p.size
        assert "tau" not in vars(prof.samples)


@pytest.mark.parametrize("s", [0.0, -1.0, math.inf, -math.inf, math.nan,
                               [0.7, 0.0], [math.nan, 0.9]])
def test_profile_rejects_bad_radius(s):
    prof = _solved("inverse_r", 0.5, 1.0, 0.45)
    with pytest.raises(OutOfAnnulus, match="not a positive finite number"):
        prof.profile(s)


def test_profile_above_one_is_outer_radius():
    # log(1/s) <= 0 is clamped to Q, not continued: the fields' slack sends
    # points like 1 + 1e-13 there (the continued closed form at 1.2 is 1.3737)
    prof = _solved("euclidean", 0.8, 1.0, 0.9)
    assert prof.profile(1.2) == 1.0
    assert prof.profile(1.0 + 1e-13) == 1.0


@pytest.fixture
def sweeps(monkeypatch):
    """The Newton sweeps (at_v calls) of each v_of_log call, in call order."""
    counts, open_calls = [], []
    v_of_log, at_v = Psi.v_of_log, Psi.at_v

    def counted_v_of_log(self, target):
        open_calls.append(0)
        try:
            return v_of_log(self, target)
        finally:
            counts.append(open_calls.pop())

    def counted_at_v(self, v):
        if open_calls:
            open_calls[-1] += 1
        return at_v(self, v)

    monkeypatch.setattr(Psi, "v_of_log", counted_v_of_log)
    monkeypatch.setattr(Psi, "at_v", counted_at_v)
    return counts


def test_newton_ends_at_two_cycle(sweeps):
    # one point of a 638-point solve in this suite alternated between two
    # floats 3.747e-16 apart, over the tol of 3.741e-16, for all 60 sweeps
    spec = ProblemSpec(metric=parse_metric("sphere"), q=0.30204614794772217,
                       Q=0.47947107316187854, r=0.8396472813975525)
    assert run_full_suite(spec).all_passed
    assert max(sweeps) <= 6


def test_newton_in_y_at_anchor(sweeps):
    # the anchor is q, where dPsi/dv vanishes and a Newton step in v gains
    # one bit per sweep; dPsi/dy is finite there, and the step in y is not
    # slowed
    spec = ProblemSpec(metric=parse_metric("inverse_r"), q=0.12821603706398343,
                       Q=0.4279351610631809, r=0.1521647446732568)
    prof = build_profile(spec, solve_c(spec))
    assert prof.psi.anchor == spec.q and prof.c > prof.critical_c
    assert sweeps == [sweeps[0]] and sweeps[0] <= 2


def test_newton_in_y_at_critical_anchor(sweeps):
    # at the critical constant the radicand vanishes at the anchor q, where
    # the step in y is 0; every solve of the suite still ends within 4 sweeps
    spec = ProblemSpec(metric=EUCLID, q=0.8, Q=1.0, r=0.5)
    assert run_full_suite(spec).all_passed
    assert sweeps and max(sweeps) <= 4


def test_critical_anchor_at_outer_radius():
    # w = y^2 rho = 1/y for power:-3: y* = Q = 1, c0 = -1, and the radicand
    # y^2 (1 - y) vanishes at the anchor Q, where p = sech^2(tau/2).  The
    # targets 1e-k of the modulus from either end; the one at 1.8e-6 reads Q
    # itself, as nearer Q than about 2e-6 in v the radicand rounds to 0 at
    # the Gauss nodes of at_v (ROADMAP item 3)
    metric = parse_metric("power:-3")
    psi = Psi(metric, 0.5, 1.0, critical_constant(metric, 0.5, 1.0))
    assert psi.critical_c == psi.c == -1.0 and psi.anchor == 1.0
    small = 10.0 ** -np.arange(1, 17)
    target = psi.total * np.concatenate((small, 1.0 - small))
    p = psi.y_of_v(psi.v_of_log(target))
    assert np.max(np.abs(p - np.cosh(0.5 * target) ** -2)) <= 2e-12


@pytest.mark.parametrize("name, q, Q, r", TWELVE_CONFIGS + POWER_CONFIGS)
def test_inverse_does_not_depend_on_batch(name, q, Q, r):
    # every target is bracketed by the table's panels and started alike, so
    # a point's v is the same asked alone or with others
    psi = _solved(name, q, Q, r).psi
    s = np.concatenate(([r, 0.999 * r, 1.0 - 1e-9], np.linspace(r, 1.0, 61)))
    targets = -np.log(s)
    alone = [psi.v_of_log(target)[0] for target in targets]
    assert np.array_equal(psi.v_of_log(targets), alone)


@pytest.mark.parametrize("name, q, Q, r", TWELVE_CONFIGS + POWER_CONFIGS)
def test_inner_radius_takes_one_sweep(name, q, Q, r, sweeps):
    # the cubic Hermite inverse on p(r)'s panel, next to the first edge,
    # starts Newton within one sweep of the root
    psi = _solved(name, q, Q, r).psi
    sweeps.clear()
    psi.v_of_log(-np.log(r))
    assert sweeps == [sweeps[0]] and sweeps[0] <= 1


def test_newton_budget_raises(monkeypatch):
    prof = _solved("sphere", 0.5, 1.0, 0.4)
    monkeypatch.setattr(solver, "_NEWTON_STEPS", 2)
    with pytest.raises(NoConvergence, match="unresolved after 2 Newton sweeps"):
        prof.psi.v_of_log(-np.log(np.linspace(0.4, 1.0, 50)))


def test_inner_radius_solved_once(monkeypatch):
    # build_profile's mismatch check, energy and lipschitz_constant all read
    # v at s = r from the profile, which solves it once
    targets = []
    v_of_log = Psi.v_of_log
    monkeypatch.setattr(Psi, "v_of_log", lambda self, target: (
        targets.append(np.asarray(target, dtype=float).ravel()),
        v_of_log(self, target))[1])
    spec = ProblemSpec(metric=parse_metric("inverse_r"), q=0.5, Q=1.0, r=0.45)
    prof = build_profile(spec, solve_c(spec))
    energy(prof, spec.metric)
    lipschitz_constant(prof, spec.metric)
    assert [t for t in targets if np.any(t == -np.log(spec.r))] == [
        np.array([-np.log(spec.r)])]
    assert prof.inner == prof.profile(spec.r)


def test_profile_mismatch_reports_its_source():
    # a constant 2e-9 above the critical one, short of the root near 2.43e-9:
    # mu is steep there, so the modulus gap is large enough for the exact
    # first integral to miss q
    metric = parse_metric("power:-3")
    spec = ProblemSpec(metric=metric, q=0.44264, Q=0.79757, r=0.19971)
    c = critical_constant(metric, spec.q, spec.Q) + 2.0e-9
    with pytest.raises(ProfileMismatch) as info:
        build_profile(spec, c)
    message = str(info.value)
    miss = float(re.search(r"off by ([-+0-9.e]+)", message).group(1))
    assert miss > 1e-6 * spec.Q
    gap = modulus_of_c(metric, spec.q, spec.Q, c) - math.log(1.0 / spec.r)
    assert f"Psi(q) - log(1/r) = {gap:.3g}" in message
    assert abs(gap - 7.79e-6) <= 0.1e-6
    assert f"c - c_crit = {c - critical_constant(metric, spec.q, spec.Q):.3g}" \
        in message


_BOUNDS = {"euclidean": 10.0, "inverse_r": 10.0, "sphere": 10.0,
           "hyperbolic": 0.95}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_BOUNDS)),
    outer=st.floats(0.3, 1.0),
    ratio=st.floats(0.1, 0.9),
    lift=st.floats(1e-3, 4.0),
)
def test_profile_properties(name, outer, ratio, lift):
    metric = parse_metric(name)
    Q = outer * _BOUNDS[name]
    q = ratio * Q
    c_crit = critical_constant(metric, q, Q)
    c = c_crit + lift * abs(c_crit)
    r = math.exp(-modulus_of_c(metric, q, Q, c))
    prof = build_profile(ProblemSpec(metric=metric, q=q, Q=Q, r=r), c)
    s = np.linspace(r, 1.0, 400)
    p = prof.profile(s)
    assert np.all(np.diff(p) > 0.0)
    assert prof.profile(1.0) == Q
    assert np.max(np.abs(prof.inverse(p) - s)) <= 1e-13


def test_import_loads_no_scipy():
    code = ("import sys, annuharm; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
