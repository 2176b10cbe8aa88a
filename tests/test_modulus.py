"""The modulus equation mu(c) = log(1/r): its residual stop, the work one
solve costs, and the quadrature of mu and of the energy next to the critical
constant."""

import dataclasses
import io
import math
from contextlib import redirect_stdout

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import annuharm.solver as solver
import annuharm.verify as verify
from annuharm import (
    BelowCritical,
    DivergentModulus,
    NoConvergence,
    ProblemSpec,
    ProfileMismatch,
    SolverConfig,
    build_profile,
    critical_constant,
    critical_inner_radius,
    energy,
    modulus_of_c,
    parse_metric,
    run_full_suite,
    solve_c,
)
from annuharm.cli import main
from annuharm.solver import Psi

# the twelve acceptance configurations (metric, q, Q, r)
TWELVE_CONFIGS = [
    ("euclidean", 0.8, 1.0, 0.5), ("euclidean", 0.8, 1.0, 0.9),
    ("inverse_r", 0.5, 1.0, 0.589), ("inverse_r", 0.5, 1.0, 0.45),
    ("sphere", 0.5, 1.0, 0.7), ("sphere", 0.5, 1.0, 0.4),
    ("euclidean", 0.8, 1.0, 0.8), ("euclidean", 0.8, 1.0, 0.6),
    ("inverse_r", 0.5, 1.0, 0.5), ("sphere", 0.5, 1.0, 0.5),
    ("hyperbolic", 0.3, 0.8, 0.5), ("hyperbolic", 0.3, 0.8, 0.3),
]
TOL_C = SolverConfig().tol_c
EUCLID = parse_metric("euclidean")


def clear_caches():
    """Empty the solver's caches of the latest critical data, critical table
    and Psi table."""
    solver._critical.cache_clear()
    solver._critical_psi.cache_clear()
    solver._psi.cache_clear()


@pytest.fixture
def counts(monkeypatch):
    """Calls of _critical_info, Psi builds and solve_c (as verify calls it),
    from empty caches."""
    seen = {"critical": 0, "psi": 0, "solve": 0}
    clear_caches()

    def counted(key, func):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "_critical_info",
                        counted("critical", solver._critical_info))
    monkeypatch.setattr(Psi, "__init__", counted("psi", Psi.__init__))
    monkeypatch.setattr(verify, "solve_c", counted("solve", verify.solve_c))
    return seen


class TestWork:
    @pytest.mark.parametrize("name, q, Q, r", TWELVE_CONFIGS)
    def test_solve_c(self, counts, name, q, Q, r):
        solve_c(ProblemSpec(metric=parse_metric(name), q=q, Q=Q, r=r))
        assert counts["critical"] == 1
        assert 1 <= counts["psi"] <= 8

    def test_critical_inner_radius(self, counts):
        critical_inner_radius(parse_metric("sphere"), 0.5, 1.0)
        assert counts == {"critical": 1, "psi": 1, "solve": 0}

    def test_one_solve_per_suite(self, counts):
        spec = ProblemSpec(metric=parse_metric("sphere"), q=0.5, Q=1.0, r=0.7)
        report = run_full_suite(spec)
        assert report.all_passed
        assert counts["solve"] == 1
        assert "modulus_sign_r=0.7" in [check.name for check in report.checks]

    @pytest.mark.parametrize("name, q, Q, r", TWELVE_CONFIGS)
    def test_suite_reads_profile_from_root(self, counts, name, q, Q, r):
        # the suite's profile is the Psi table solve_c built at its root, and
        # the critical data are those the solve before it scanned.  The
        # suite's solve reads the table at c0 (built by the solve before it
        # for every c < 0) from its cache; a conformal solve ends on its one
        # table, at c = 0, and a critical one on its one table, at c0, both
        # still cached
        metric = parse_metric(name)
        spec = ProblemSpec(metric=metric, q=q, Q=Q, r=r)
        c = solve_c(spec)
        if c in (0.0, critical_constant(metric, q, Q)):
            builds = 0
        else:
            builds = counts["psi"] - (c < 0.0)
        counts.update(critical=0, psi=0)
        assert run_full_suite(spec).all_passed
        assert counts == {"critical": 0, "psi": builds, "solve": 1}

    def test_plain_pair_scans_once(self, counts):
        # no block, no keyword: the library calls share the critical data,
        # and only critical_inner_radius adds a table, the one at c0
        metric = parse_metric("sphere")
        spec = ProblemSpec(metric=metric, q=0.5, Q=1.0, r=0.7)
        c = solve_c(spec)
        builds = counts["psi"]
        build_profile(spec, c)
        critical_inner_radius(metric, spec.q, spec.Q)
        assert counts == {"critical": 1, "psi": builds + 1, "solve": 0}

    @pytest.mark.parametrize("name, q, Q, r, tables", [
        # the collar probe, c0 and the root
        ("sphere", 0.5, 1.0, 0.4, 3),
        # Critical: the table at c0 and no other
        ("euclidean", 0.8, 1.0, 0.5, 1),
    ])
    def test_critical_table_built_once(self, monkeypatch, name, q, Q, r,
                                       tables):
        # solve_c's BelowCritical test and Critical return, build_profile at
        # c0 and critical_inner_radius read one table at c0
        clear_caches()
        built = []
        init = Psi.__init__

        def recording(psi, metric, q, Q, c):
            built.append(c)
            init(psi, metric, q, Q, c)

        monkeypatch.setattr(Psi, "__init__", recording)
        metric = parse_metric(name)
        spec = ProblemSpec(metric=metric, q=q, Q=Q, r=r)
        c = solve_c(spec)
        assert c < 0.0
        build_profile(spec, c)
        critical_inner_radius(metric, q, Q)
        assert built.count(critical_constant(metric, q, Q)) == 1
        assert len(built) == tables

    def test_below_critical_builds_one_table(self, counts):
        # mu(0) is known in closed form: only the table at c0 is built
        spec = ProblemSpec(metric=EUCLID, q=0.8, Q=1.0, r=0.3)
        with pytest.raises(BelowCritical):
            solve_c(spec)
        assert counts["psi"] == 1

    @pytest.mark.parametrize("name, q, Q, r, tables", [
        # Expanding: one table to bracket the root, one at the root
        ("sphere", 0.5, 1.0, 0.7, 2),
        # Subcritical: the collar probe, c0 and the root
        ("sphere", 0.5, 1.0, 0.4, 3),
        # Expanding at c = 1.1e5: the table at c = 2.6e-4 that brackets the
        # root cannot serve iterates that far out, the latest table can
        ("power:4", 0.2105, 9.07, 0.6, 4),
    ])
    def test_iterates_read_built_tables(self, counts, name, q, Q, r, tables):
        # the iterates of the root search read mu and mu' off the Gauss
        # nodes of the latest table built in the call
        solve_c(ProblemSpec(metric=parse_metric(name), q=q, Q=Q, r=r))
        assert counts["psi"] <= tables

    def test_sweep_builds(self, counts):
        # three 100-row sweeps, each row solved by verify._solved from the
        # caches the row before it left
        builds = []
        for name, q, Q, r_min, cap in (("euclidean", "0.8", "1", "0.5", 247),
                                       ("sphere", "0.5", "1", "0.3", 201),
                                       ("power:4", "0.2105", "9.07", "0.5", 377)):
            counts["psi"] = 0
            args = ["sweep", "--metric", name, "--q", q, "--Q", Q, "--r_min",
                    r_min, "--r_max", "0.95", "--r_steps", "100"]
            with redirect_stdout(io.StringIO()):
                assert main(args) == 0
            builds.append((counts["psi"], cap))
        assert all(built <= cap for built, cap in builds), builds

    @pytest.mark.parametrize("command, extra", [
        ("solve", ["--r", "0.7"]),
        ("eval", ["--r", "0.7", "--grid_s", "4", "--grid_t", "4"]),
        ("verify", ["--r", "0.7"]),
        ("sweep", ["--r_min", "0.6", "--r_max", "0.7", "--r_steps", "2"]),
        ("critical", []),
    ])
    def test_cli_scans_critical_data_once(self, counts, command, extra):
        spec = ProblemSpec(metric=parse_metric("sphere"), q=0.5, Q=1.0, r=0.7)
        solve_c(spec)
        builds = counts["psi"]
        counts.update(critical=0, psi=0)
        args = [command, "--metric", "sphere", "--q", "0.5", "--Q", "1", *extra]
        with redirect_stdout(io.StringIO()):
            assert main(args) == 0
        assert counts["critical"] == 1
        # solve adds the table of critical_inner_radius at c0
        expected = {"critical": 1, "solve": builds + 1, "eval": builds,
                    "verify": builds}
        assert counts["psi"] == expected.get(command, counts["psi"])


class TestSharedSlot:
    """The solver's caches serve only the inputs they were filled from."""

    def test_alternating_inputs_match_fresh_computations(self):
        sphere = parse_metric("sphere")
        # the same name and annulus, another density
        doubled = dataclasses.replace(sphere, eval=lambda y: 2.0 * sphere.eval(y))
        cases = [(sphere, 0.5, 1.0, 0.7), (doubled, 0.5, 1.0, 0.6),
                 (sphere, 0.4, 1.0, 0.7), (sphere, 0.5, 1.0, 0.6)]

        def fresh(func, *args):
            clear_caches()
            return func(*args)

        expected = [(fresh(critical_constant, metric, q, Q),
                     fresh(solve_c, ProblemSpec(metric, q, Q, r)))
                    for metric, q, Q, r in cases]
        assert len({c0 for c0, _ in expected}) == 3
        for _ in range(2):
            for (metric, q, Q, r), (c0, c) in zip(cases, expected):
                assert critical_constant(metric, q, Q) == c0
                assert solve_c(ProblemSpec(metric, q, Q, r)) == c

    def test_unhashable_density(self):
        # a plain dataclass with __call__ has no hash; the caches key a
        # metric by identity, so its callables need none
        @dataclasses.dataclass
        class Scaled:
            factor: float
            func: object

            def __call__(self, y):
                return self.factor * self.func(y)

        sphere = parse_metric("sphere")
        metric = dataclasses.replace(
            sphere, eval=Scaled(2.0, sphere.eval),
            deriv=Scaled(2.0, sphere.deriv), deriv2=Scaled(2.0, sphere.deriv2))
        spec = ProblemSpec(metric=metric, q=0.5, Q=1.0, r=0.7)
        c = solve_c(spec)
        # doubling the density doubles c and leaves the map
        assert c == pytest.approx(2.0 * solve_c(dataclasses.replace(
            spec, metric=sphere)), rel=1e-9)
        assert build_profile(spec, c).psi.metric is metric
        assert run_full_suite(spec).all_passed

    def test_profile_reuses_only_its_own_root_table(self):
        metric = parse_metric("sphere")
        spec = ProblemSpec(metric=metric, q=0.5, Q=1.0, r=0.7)
        c = solve_c(spec)
        assert build_profile(spec, c).psi is solver._psi(metric, 0.5, 1.0, c)
        # another c or another annulus: the root table would put p(r) on q
        # exactly
        with pytest.raises(ProfileMismatch):
            build_profile(spec, c + 0.1)
        solve_c(spec)
        with pytest.raises(ProfileMismatch):
            build_profile(ProblemSpec(metric, 0.5, 1.2, 0.7), c)
        # another metric object with the same density
        solve_c(spec)
        twin = dataclasses.replace(metric)
        profile = build_profile(ProblemSpec(twin, 0.5, 1.0, 0.7), c)
        assert profile.psi.metric is twin


def test_residual_stop_near_critical():
    # the root lies near c - c0 = 2.43e-9, where mu is steep in c: a 1e-9
    # bracket in c left a modulus gap of 7.4e-6 here
    metric = parse_metric("power:-3")
    spec = ProblemSpec(metric=metric, q=0.44264, Q=0.79757, r=0.19971)
    c = solve_c(spec)
    gap = modulus_of_c(metric, spec.q, spec.Q, c) - math.log(1.0 / spec.r)
    assert abs(gap) <= TOL_C
    assert build_profile(spec, c).profile(spec.r) == pytest.approx(spec.q,
                                                                   abs=1e-8)


@pytest.mark.parametrize("q, Q, r", [
    (0.0872894, 0.504706, 0.0741107),
    # the root lies 1.9e-7 above c0, where y^2 (1 + c) keeps most of its
    # digits but mu is steep in c
    (0.5, 0.5005, 0.1),
])
def test_constant_density_weight_solves(q, Q, r):
    # power:-2 makes y^2 rho constant, so mu = log(Q/q) / sqrt(1 + c) is
    # finite for every c > c0 = -1 and diverges only at c0
    spec = ProblemSpec(metric=parse_metric("power:-2"), q=q, Q=Q, r=r)
    exact = (math.log(spec.Q / spec.q) / math.log(1.0 / spec.r)) ** 2 - 1.0
    c = solve_c(spec)
    assert abs(c - exact) <= 1e-9
    gap = modulus_of_c(spec.metric, q, Q, c) - math.log(1.0 / spec.r)
    assert abs(gap) <= TOL_C



def test_unresolved_root_raises():
    # the root lies 7.5e-11 above c0, where the radicand y^2 (1 + c) keeps
    # about five digits, too few to meet tol_c: the solver must raise rather
    # than return a c that misses the residual
    spec = ProblemSpec(metric=parse_metric("power:-2"), q=0.5, Q=0.50001,
                       r=0.1)
    try:
        c = solve_c(spec)
    except (NoConvergence, DivergentModulus):
        return
    gap = modulus_of_c(spec.metric, spec.q, spec.Q, c) - math.log(1.0 / spec.r)
    assert abs(gap) <= TOL_C


def test_critical_radius_with_two_near_critical_ends():
    # y^2 rho(y) = (y/(1+y^2))^2 nearly agrees at both ends; the modulus
    # integrand is singular at one end and nearly singular at the other
    q, Q = 0.93617, 1.0697
    rho = lambda y: 1.0 / (1.0 + y * y) ** 2
    f = lambda y: y / (1.0 + y * y)
    y_star, other = (q, Q) if f(q) <= f(Q) else (Q, q)
    side = math.copysign(1.0, other - y_star)

    def integrand(u):
        # y = y* + side u^2 turns dy / sqrt((w(y) - w(y*)) / rho) into
        # 2 sqrt(rho / |(w(y) - w(y*)) / (y - y*)|) du, smooth at u = 0
        y = y_star + side * u * u
        slope = (1.0 - y * y_star) / ((1.0 + y * y) * (1.0 + y_star**2)) \
            * (f(y) + f(y_star))
        return 2.0 * math.sqrt(rho(y) / abs(slope))

    mu, _ = quad(integrand, 0.0, math.sqrt(Q - q), epsabs=1e-13, epsrel=1e-13)
    reference = math.exp(-mu)
    assert reference == pytest.approx(0.0529012283, rel=1e-8)
    got = critical_inner_radius(parse_metric("sphere"), q, Q)
    assert got == pytest.approx(reference, rel=1e-6)


def test_quadrature_settles_rounding_noise():
    # 1e-12 |c0| above the critical constant the radicand y^2 + c y^3 keeps
    # only a few digits next to y* = Q; refining that noise took 14,403 panels
    metric = parse_metric("power:-3")
    q, Q = 0.17716, 0.35917
    c_crit = critical_constant(metric, q, Q)
    c = c_crit + 1e-12 * abs(c_crit)
    psi = Psi(metric, q, Q, c)
    assert psi.edges.size - 1 <= 200
    # int dy / (y sqrt(1 + c y)) = log((1 - u)/(1 + u)), u = sqrt(1 + c y),
    # at the exact float inputs; one ulp of c moves it by 1.6e-10
    with mpmath.workdps(50):
        u = lambda y: mpmath.sqrt(1 + mpmath.mpf(c) * mpmath.mpf(y))
        anti = lambda y: mpmath.log((1 - u(y)) / (1 + u(y)))
        exact = float(anti(Q) - anti(q))
    assert abs(psi.total - exact) <= 1e-10


_BOUNDS = {"euclidean": 10.0, "inverse_r": 10.0, "sphere": 10.0,
           "hyperbolic": 0.95}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_BOUNDS)),
    outer=st.floats(0.3, 1.0),
    ratio=st.floats(0.1, 0.9),
    lift=st.floats(1e-3, 4.0),
)
def test_solve_round_trips_modulus(name, outer, ratio, lift):
    metric = parse_metric(name)
    Q = outer * _BOUNDS[name]
    q = ratio * Q
    c = critical_constant(metric, q, Q) * (1.0 - lift)
    target = modulus_of_c(metric, q, Q, c)
    spec = ProblemSpec(metric=metric, q=q, Q=Q, r=math.exp(-target))
    solved = solve_c(spec)
    assert abs(modulus_of_c(metric, q, Q, solved) - target) <= TOL_C
    assert solved == pytest.approx(c, rel=1e-6, abs=1e-9)


def test_collar_scales_with_c0():
    # |c0| = 8.7e-14: a collar with an absolute floor of 1e-12 in c put the
    # whole search above the root, and solve_c returned c0 at a modulus gap
    # of 0.011, which build_profile rejected
    spec = ProblemSpec(metric=parse_metric("power:4"), q=0.006659964538697418,
                       Q=0.01, r=0.5384612313721389)
    c = solve_c(spec)
    profile = build_profile(spec, c)
    assert profile.classification == "Subcritical"
    assert abs(profile.psi.total - math.log(1.0 / spec.r)) <= TOL_C


def _euclidean_modulus(q, Q, c):
    """mu(c) = log((Q + sqrt(Q^2 + c)) / (q + sqrt(q^2 + c))) for rho = 1, at
    the exact float inputs."""
    with mpmath.workdps(50):
        q, Q, c = map(mpmath.mpf, (q, Q, c))
        return float(mpmath.log((Q + mpmath.sqrt(Q * Q + c))
                                / (q + mpmath.sqrt(q * q + c))))


# panels of the unseeded quadrature of mu (bisection from one panel), at
# c - c0 = (1e-12, 1e-10, 1e-8, 1e-6) |c0|
_UNSEEDED_PANELS = {(0.8, 1.0): (18, 16, 13, 10), (3.1, 9.7): (19, 18, 15, 12),
                    (0.2, 5.0): (21, 19, 17, 14), (0.5, 0.51): (16, 14, 11, 9)}


@pytest.mark.parametrize("q, Q", list(_UNSEEDED_PANELS))
@pytest.mark.parametrize("k, lift", enumerate((1e-12, 1e-10, 1e-8, 1e-6)))
def test_near_critical_ladder(q, Q, k, lift):
    # the boundary layer at q has width sqrt((c - c0) / 2q) in v; the ladder
    # of panels reaches it at once, as accurately as bisection did and with
    # no more panels
    c0 = critical_constant(EUCLID, q, Q)
    c = c0 + lift * abs(c0)
    psi = Psi(EUCLID, q, Q, c)
    assert abs(psi.total - _euclidean_modulus(q, Q, c)) <= 1e-10
    assert psi.edges.size - 1 <= _UNSEEDED_PANELS[q, Q][k]


def test_layer_far_below_collar():
    # 2.9e-13 above c0 = -9.61, 30 times closer than solve_c's collar: no
    # Gauss node of a first panel came near the layer, and bisection stopped
    # at 2 panels, 1.7e-7 off
    c = critical_constant(EUCLID, 3.1, 9.7) + 2.9e-13
    psi = Psi(EUCLID, 3.1, 9.7, c)
    assert abs(psi.total - _euclidean_modulus(3.1, 9.7, c)) <= 1e-10


@pytest.mark.parametrize("q, Q", list(_UNSEEDED_PANELS))
def test_euclidean_round_trip_across_regimes(q, Q):
    # c from 1e-10 |c0| above c0 through c = 0 (conformal) to expanding
    # constants up to 1e3: the solved c meets the closed-form modulus
    c0 = critical_constant(EUCLID, q, Q)
    lifts = [c0 + lift * abs(c0) for lift in (1e-10, 1e-6, 1e-2, 1.0, 10.0)]
    for c in lifts + [1e3]:
        r = math.exp(-_euclidean_modulus(q, Q, c))
        solved = solve_c(ProblemSpec(metric=EUCLID, q=q, Q=Q, r=r))
        gap = _euclidean_modulus(q, Q, solved) - math.log(1.0 / r)
        assert abs(gap) <= TOL_C, (c, solved, gap)


def test_nodes_refused_nearer_c0(monkeypatch):
    # the Gauss nodes of a table 1e-6 |c0| above c0 put mu 2.9e-13 above c0
    # 1.6e-7 off: its panels do not reach that boundary layer.  The table is
    # refused on distance alone, even where its error estimate reads 0
    c0 = critical_constant(EUCLID, 3.1, 9.7)
    psi = Psi(EUCLID, 3.1, 9.7, c0 + 1e-6 * abs(c0))
    c = c0 + 2.9e-13
    mu, _, slope = psi._moments(c)
    assert abs(mu - _euclidean_modulus(3.1, 9.7, c)) > 1e-8
    assert solver._reread(psi, c) is None
    # further from c0 than the table, the nodes serve
    far = c0 + 2e-6 * abs(c0)
    mu_far, _ = solver._reread(psi, far)
    assert abs(mu_far - _euclidean_modulus(3.1, 9.7, far)) <= 1e-11
    monkeypatch.setattr(psi, "_moments", lambda c: (mu, 0.0, slope))
    assert solver._reread(psi, c) is None


@mpmath.workdps(30)
def _energy_reference(profile, metric, c):
    """2 pi int_{p(r)}^Q (2 y^2 rho + c) / sqrt(y^2 + c/rho) dy by mpmath
    from the profile's inner end, at the float c given, after its own
    substitution y = a + v|v| split at the table's anchor a (where the
    radicand may vanish)."""
    psi, c = profile.psi, mpmath.mpf(c)
    a = mpmath.mpf(psi.anchor)
    if profile.c == profile.critical_c:
        # the critical constant of the anchor itself: the float c0 leaves
        # the radicand a rounding error below 0 there
        c = -a * a * metric.eval(a)

    def integrand(v):
        y = a + v * abs(v)
        rho = metric.eval(y)
        return 2 * abs(v) * (2 * y * y * rho + c) / mpmath.sqrt(y * y + c / rho)

    def v_of(y):
        d = mpmath.mpf(y) - a
        return mpmath.sign(d) * mpmath.sqrt(abs(d))

    lo, hi = v_of(profile.inner), v_of(profile.spec.Q)
    ends = [lo, 0, hi] if lo < 0 < hi else [lo, hi]
    return float(2 * mpmath.pi * mpmath.quad(integrand, ends))


@pytest.mark.parametrize("name, q, Q, r", TWELVE_CONFIGS + [
    # solve_fuzz collar draws, 1.6e-10 to 5.1e-10 |c0| above c0
    ("power:-3", 0.38544973112274356, 3.5617491212844707, 0.02862678026784932),
    ("power:-3", 1.8673293654299954, 2.5895477803791933, 0.30881223870918145),
    ("sphere", 5.362320039887964, 8.478080164643885, 0.3512985642087674),
    ("euclidean", 3.1679910025008864, 4.46691959387355, 0.41596613474968075),
])
def test_energy_matches_mpmath(name, q, Q, r):
    # the energy starts from the table's panels; next to c0 one ulp of c
    # moves the energy by up to 5e-12 relative here, and the energy may
    # differ from the reference by that much
    metric = parse_metric(name)
    spec = ProblemSpec(metric=metric, q=q, Q=Q, r=r)
    profile = build_profile(spec, solve_c(spec))
    expected = _energy_reference(profile, metric, profile.c)
    slack = 0.0 if profile.c == profile.critical_c else abs(
        _energy_reference(profile, metric, np.nextafter(profile.c, 1.0))
        - expected)
    assert abs(energy(profile, metric) - expected) <= 1e-12 * expected + slack
