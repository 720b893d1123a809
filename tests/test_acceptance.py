"""Acceptance suite: analytic-value reproduction plus property suites.

One test per criterion; each prints a PASS line with the quantity it
verified and runs at the tolerance stated in its assertions.
"""

import math

import numpy as np
import pytest

from nonlocalrd.equilibria import (
    block_assignment,
    extremal_equilibria,
    newton_refine,
    perturbed_assignment,
    piecewise_constant_family,
    solve_phi,
)
from nonlocalrd.evolve import (
    IntegratorConfig,
    envelope_U,
    evolve_nonlinear,
    kaplan_witness,
    lyapunov_E,
)
from nonlocalrd.kernel import assemble_kernel, build_operator, compute_h0
from nonlocalrd.reaction import CallableReaction, LogisticReaction, f_over_s_decreasing
from nonlocalrd.space import build_interval
from nonlocalrd.spectral import (
    cw_bounds,
    principal_value,
    rayleigh_lambda,
    shift_bound_rhs,
    shifted_potential,
)
from nonlocalrd.verify import comparison_suite, maximum_principle_suite, sample_system

SQRT3 = math.sqrt(3.0)
SEED = 1234


def step_lambda(a):
    return (-(a - 1.0) + math.sqrt(a * a + 1.0)) / 2.0


def constant_system(n, h=None):
    s = build_interval(0.0, 1.0, n)
    k = assemble_kernel(s, "constant", c=1.0)
    return s, k, build_operator(k, np.zeros(n) if h is None else h)


def logistic(n):
    return LogisticReaction(g=0.0, n=2.0, m=1.0, rho=3.0, n_nodes=n)


def test_criterion_1_threshold_eigenvalue():
    """h = h0 pins Λ = 0 with a constant eigenfunction."""
    for law, params in (("constant", {"c": 1.0}),
                        ("gaussian", {"sigma": 0.25, "scale": 1.0})):
        s = build_interval(0.0, 1.0, 128)
        k = assemble_kernel(s, law, **params)
        rep = principal_value(build_operator(k, compute_h0(k)), method="auto")
        assert abs(rep.lam) <= 1e-10
        assert rep.is_principal
        spread = np.max(rep.eigenfunction) - np.min(rep.eigenfunction)
        assert spread / np.max(np.abs(rep.eigenfunction)) <= 1e-8
        print(f"PASS criterion 1 [{law}]: |lambda| = {abs(rep.lam):.2e}, "
              f"eigenfunction spread = {spread:.2e}")


def test_criterion_2_collatz_wielandt_sandwich():
    """100 positive test functions on each of 20 random systems."""
    violations = 0
    worst = 0.0
    for sys_idx in range(20):
        rng = np.random.default_rng([SEED, sys_idx])
        sys_ = sample_system(rng)
        lam = principal_value(sys_.op, method="dense").lam
        for _ in range(100):
            phi = rng.uniform(0.05, 1.0, size=sys_.op.n)
            b = cw_bounds(sys_.op, phi)
            low_gap = b.lower - lam
            high_gap = lam - b.upper
            worst = max(worst, low_gap, high_gap)
            if low_gap > 1e-9 or high_gap > 1e-9:
                violations += 1
    assert violations == 0
    print(f"PASS criterion 2: 2000 sandwich checks, 0 violations, "
          f"worst slack {worst:.2e}")


def test_criterion_3_symmetric_agreement():
    """Rayleigh characterization equals the dense bound on symmetric systems."""
    worst = 0.0
    for sys_idx in range(20):
        rng = np.random.default_rng([SEED + 1, sys_idx])
        sys_ = sample_system(rng)
        assert sys_.op.kernel.symmetric
        r = rayleigh_lambda(sys_.op.kernel, sys_.op.h).lam
        d = principal_value(sys_.op, method="dense").lam
        worst = max(worst, abs(r - d))
    assert worst <= 1e-9
    print(f"PASS criterion 3: 20 systems, worst |rayleigh - dense| = {worst:.2e}")


def test_criterion_4_step_potential_closed_form():
    """Shifted step potential reproduces the two-block eigenvalue; the
    emitted bound rhs is 2 - A alongside (sign claim reported, not asserted)."""
    s, k, _ = constant_system(512)
    mask = s.x > 0.5
    rows = []
    for a in (1.0, 3.0, 10.0, 100.0):
        shifted = shifted_potential(np.zeros(512), mask, a)
        lam = principal_value(build_operator(k, -shifted), method="dense").lam
        assert lam == pytest.approx(step_lambda(a), abs=1e-9)
        rhs = shift_bound_rhs(k, np.zeros(512), mask, a)
        assert rhs == pytest.approx(2.0 - a, abs=1e-9)
        rows.append((a, lam, rhs))
    print("PASS criterion 4: " + "; ".join(
        f"A={a:g}: lambda={lam:.9f}, rhs={rhs:.6g}" for a, lam, rhs in rows))


def test_criterion_5_comparison_and_maximum_suites():
    """50 seeded trials per suite at rounding tolerance, strong gaps included."""
    comp = comparison_suite(50, SEED + 2)
    maxp = maximum_principle_suite(50, SEED + 3)
    assert comp.failures == 0, comp.details
    assert maxp.failures == 0, maxp.details
    assert comp.worst_violation <= 1e-12
    assert maxp.worst_violation <= 1e-12
    print(f"PASS criterion 5: comparison worst {comp.worst_violation:.2e}, "
          f"maximum-principle worst {maxp.worst_violation:.2e}, 100 trials, 0 failures")


def test_criterion_6_logistic_global_stability():
    """phi_M = sqrt(3); constants 0.1, 1, 5 reach it by t = 30; f/s decreasing."""
    n = 128
    _, _, op = constant_system(n)
    f = logistic(n)
    assert f_over_s_decreasing(f, np.logspace(-3, 1, 256))
    es = extremal_equilibria(op, f)
    gap = float(np.max(np.abs(es.phi_M - SQRT3)))
    assert gap <= 1e-6
    cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_end=30.0, store_every=3000)
    dists = []
    for c in (0.1, 1.0, 5.0):
        tr = evolve_nonlinear(op, f, np.full(n, c), cfg)
        dists.append(float(np.max(np.abs(tr.final() - SQRT3))))
    assert max(dists) <= 1e-4
    print(f"PASS criterion 6: |phi_M - sqrt3| = {gap:.2e}, "
          f"trial distances at t=30: {['%.2e' % d for d in dists]}")


def test_criterion_7_discontinuous_equilibria():
    """Three assignments, residuals at quadrature exactness, overlap >= 0.3."""
    space = build_interval(0.0, 1.0, 200)
    m1 = (0.4, 0.2, 0.4)
    m2 = (0.25, 0.5, 0.25)
    a1 = block_assignment(space, m1)
    a2 = block_assignment(space, m2)
    a3 = perturbed_assignment(space, a1, swaps=12, seed=5)
    pes = [piecewise_constant_family(space, 4.0, 0.0, m, a)
           for m, a in ((m1, a1), (m2, a2), (m1, a3))]
    res = [pe.residual for pe in pes]
    assert max(res) <= 1e-12
    w = space.weights
    overlap = float(np.sum(w[pes[0].state == pes[2].state]))
    distinct = float(np.sum(w * np.abs(pes[0].state - pes[2].state)))
    assert overlap >= 0.3
    assert distinct > 0
    print(f"PASS criterion 7: residuals {['%.1e' % r for r in res]}, "
          f"variant overlap measure {overlap:.3f}")


def test_criterion_8_blowup_and_kaplan_witness():
    """Cubic reaction from u0 = 10 blows up before t = 0.1 and the
    eigenfunction-weighted mass dominates the scalar comparison flow."""
    n = 64
    s, k, op = constant_system(n)
    f = CallableReaction(lambda s_: s_ ** 3, lambda s_: 3 * s_ ** 2, n_nodes=n)
    cfg = IntegratorConfig(scheme="rk4", dt=1e-4, t_end=0.1)
    tr = evolve_nonlinear(op, f, np.full(n, 10.0), cfg)
    assert tr.blowup
    assert tr.metadata["blowup_time"] < 0.1
    wit = kaplan_witness(k, np.zeros(n), 3.0, tr)
    assert wit.dominated
    print(f"PASS criterion 8: blow-up at t = {tr.metadata['blowup_time']:.4g} "
          f"(scalar estimate {wit.blowup_time_estimate:.4g}), witness dominated")


def test_criterion_9_envelope_and_invariance():
    """20 random systems with a negative shifted bound: |u| <= U pointwise
    and the envelope interval [-Phi, Phi] is invariant."""
    worst_env = 0.0
    worst_inv = 0.0
    for sys_idx in range(20):
        rng = np.random.default_rng([SEED + 4, sys_idx])
        n = int(rng.choice([32, 64]))
        s = build_interval(0.0, 1.0, n)
        k = assemble_kernel(s, "gaussian", sigma=float(rng.uniform(0.2, 0.5)))
        op = build_operator(k, np.zeros(n))
        ncoef = -(float(np.max(op.h0)) + float(rng.uniform(0.2, 1.0)))
        f = LogisticReaction(g=rng.uniform(0.1, 0.5, size=n), n=ncoef,
                             m=float(rng.uniform(0.3, 1.0)), rho=3.0, n_nodes=n)
        c = f.ncoef
        d = np.abs(f.g)
        op_c = build_operator(k, -c)
        phi = solve_phi(k, c, d)
        cfg = IntegratorConfig(scheme="rk4", dt=5e-3, t_end=2.0, store_every=80)
        u0 = (1.0 + rng.uniform(0.0, 2.0)) * phi
        tr = evolve_nonlinear(op, f, u0, cfg)
        env = envelope_U(op_c, d, u0, tr.times)
        worst_env = max(worst_env, float(np.max(np.abs(tr.states) - env)))
        u0_in = 0.95 * rng.uniform(-1.0, 1.0, size=n) * phi
        tr_in = evolve_nonlinear(op, f, u0_in, cfg)
        worst_inv = max(worst_inv, float(np.max(np.abs(tr_in.states) - phi[None, :])))
    assert worst_env <= 1e-8
    assert worst_inv <= 1e-8
    print(f"PASS criterion 9: 20 systems, worst envelope excess {worst_env:.2e}, "
          f"worst invariance excess {worst_inv:.2e}")


def test_criterion_10_extremal_sandwich_and_one_sided_stability():
    """Newton-found equilibria sit between the extremal pair; evolving from
    phi_M + 0.5 and phi_m - 0.5 returns to them by t = 30."""
    n = 64
    _, _, op = constant_system(n)
    f = logistic(n)
    es = extremal_equilibria(op, f)
    rng = np.random.default_rng(SEED + 5)
    found = 0
    for guess in (np.full(n, -1.9), np.zeros(n), np.full(n, 1.7),
                  rng.uniform(-1.5, 1.5, size=n), rng.uniform(0.0, 2.0, size=n)):
        try:
            psi = newton_refine(op, f, guess)
        except RuntimeError:
            continue
        found += 1
        assert np.all(psi >= es.phi_m - 1e-8)
        assert np.all(psi <= es.phi_M + 1e-8)
    assert found >= 3
    cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_end=30.0, store_every=3000)
    above = evolve_nonlinear(op, f, es.phi_M + 0.5, cfg).final()
    below = evolve_nonlinear(op, f, es.phi_m - 0.5, cfg).final()
    up_gap = float(np.max(np.abs(above - es.phi_M)))
    dn_gap = float(np.max(np.abs(below - es.phi_m)))
    assert up_gap <= 1e-5
    assert dn_gap <= 1e-5
    print(f"PASS criterion 10: {found} equilibria sandwiched; return gaps "
          f"{up_gap:.2e} (above), {dn_gap:.2e} (below)")


def test_criterion_11_lyapunov_descent():
    """Energy is non-increasing along rk4 logistic trajectories."""
    n = 64
    s, k, op = constant_system(n)
    f = logistic(n)
    worst = -np.inf
    for c0 in (0.1, 1.0, 5.0):
        cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_end=10.0, store_every=10)
        tr = evolve_nonlinear(op, f, np.full(n, c0), cfg)
        energies = np.array([lyapunov_E(k, f, u) for u in tr.states])
        worst = max(worst, float(np.max(np.diff(energies))))
    assert worst <= 1e-8
    print(f"PASS criterion 11: largest energy increment along trajectories "
          f"= {worst:.2e}")
